// perfbench: the LabStor repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload and prints one JSON record on stdout: correctness,
// attempted/failed op counts with the first failing status, run
// metadata, and either the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). perfbench/run.py
// builds this binary, runs it, and reduces the record to the
// benchmark's result line. See perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

// Timings from an unoptimized or sanitizer build are not recorded.
bool OptimizedBuild() {
#if !defined(__OPTIMIZE__) || defined(PERFBENCH_SANITIZED) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#else
  return true;
#endif
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fs_rw_async|kvs_pipelined|"
               "fs_meta_sync|des_cluster_open --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  std::exit(64);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) Usage();
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a non-optimized or sanitizer "
                 "build (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  WorkloadResult r;
  if (args.workload == "fs_rw_async") {
    r = RunFsRwAsync(args);
  } else if (args.workload == "kvs_pipelined") {
    r = RunKvsPipelined(args);
  } else if (args.workload == "fs_meta_sync") {
    r = RunFsMetaSync(args);
  } else if (args.workload == "des_cluster_open") {
    r = RunDesClusterOpen(args);
  } else {
    Usage();
  }

  std::string notes = "[";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    notes += (i == 0 ? "" : ", ") + Quote(r.notes[i]);
  }
  notes += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"meta\": {\"nproc\": %ld, \"build_type\": %s, \"compiler\": %s, "
      "\"threads\": %u}, "
      "\"correct\": %s, \"mismatches\": %llu, \"first_mismatch\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"first_failed_op\": %llu, "
      "\"first_failure\": %s, \"notes\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"extra\": %s}\n",
      Quote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Number(args.seconds).c_str(),
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      r.threads, r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.mismatches),
      Quote(r.first_mismatch).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.first_failed_op),
      Quote(r.first_failure).c_str(), notes.c_str(),
      Metrics(r.end_to_end).c_str(), Metrics(r.per_layer).c_str(),
      Metrics(r.extra).c_str());
  return 0;
}
