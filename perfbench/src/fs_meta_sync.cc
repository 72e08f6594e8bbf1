// fs_meta_sync: closed loop, inline client threads on the sync LabFS
// stack (the Lab-All DAG with exec_mode: sync, so it runs fused and
// inline). Each thread runs an mdtest-style cycle — create -> 4 KiB
// write -> close -> stat -> unlink — over 1,024 rotating names of its
// own (4 MiB per thread, which fits the LRU).
//
// Why: there is no IPC and no worker. The work is the inline
// Runtime::Execute, the fused chain, LabFS metadata and its log, so it
// bypasses everything fs_rw_async stresses. Each cycle appends LabFS
// log records, all to worker 0's region, and nothing reclaims them.
//
// One thread: with three, the latency medians of whole runs split into
// two modes on a 4-vCPU VM (stat 0.44 vs 0.64 us, create/unlink 2.5 vs
// 4.6 us) as the threads contend on the shared log mutex and the
// Runtime's in-flight counter, too unsteady to gate a change on.
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "layers.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace labstor;

constexpr uint64_t kPage = 4096;
constexpr uint32_t kThreads = 1;
constexpr uint32_t kNames = 1024;  // per thread
// Cycles per thread and trial: twice what fills worker 0's log region
// (131072 records, 4 per cycle, so about 32.8k cycles in all).
constexpr uint64_t kTrialCycles = 66'000;
constexpr uint64_t kWarmupCycles = 256;  // per thread, before timing

std::string StackYaml() {
  // Lab-All FS DAG, executed synchronously; log size as shipped.
  return "mount: fs::/md\n"
         "rules:\n"
         "  exec_mode: sync\n"
         "dag:\n"
         "  - mod: permissions\n"
         "    uuid: perm_md\n"
         "    outputs: [fs_md]\n"
         "  - mod: labfs\n"
         "    uuid: fs_md\n"
         "    params:\n"
         "      device: nvme0\n"
         "      log_records_per_worker: 131072\n"
         "    outputs: [lru_md]\n"
         "  - mod: lru_cache\n"
         "    uuid: lru_md\n"
         "    outputs: [sched_md]\n"
         "  - mod: noop_sched\n"
         "    uuid: sched_md\n"
         "    outputs: [drv_md]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_md\n"
         "    params:\n"
         "      device: nvme0\n";
}

struct World {
  simdev::DeviceRegistry devices{nullptr};
  std::unique_ptr<core::Runtime> runtime;
  core::Stack* stack = nullptr;
  std::vector<std::unique_ptr<core::Client>> clients;
  std::vector<std::unique_ptr<labmods::GenericFs>> fs;
  std::vector<std::vector<std::string>> names;
  std::vector<uint64_t> cycle;    // per thread
  std::vector<uint64_t> next_op;  // per thread
};

enum Kind : uint8_t { kCreate, kWrite, kStat, kUnlink, kKinds };
const char* const kKindNames[kKinds] = {"genericfs.create", "genericfs.write",
                                        "genericfs.stat", "genericfs.unlink"};

struct ThreadTotals {
  LatencyRecorder read;   // stat
  LatencyRecorder write;  // create, unlink
  LatencyRecorder meta;   // create, stat, unlink
  uint64_t attempted = 0, failed = 0, ok_ops = 0;
  uint64_t user_reads = 0, user_bytes_written = 0;
  std::vector<Span> spans;
};

struct Ctx {
  Verifier* verifier = nullptr;
  FailureLog* failures = nullptr;
  ThreadTotals* totals = nullptr;  // null during warm-up
  const uint16_t* names = nullptr;  // span names, null when untraced
  uint32_t parent = 0;
};

// Times one interface op and books its outcome.
template <typename Fn>
Status Timed(World& w, uint32_t t, Kind kind, Ctx& ctx, Fn&& fn) {
  const uint64_t op_index = ++w.next_op[t];
  const uint64_t t0 = NowNs();
  const Status st = fn();
  const uint64_t t1 = NowNs();
  if (ctx.totals == nullptr) {
    if (!st.ok()) Fatal("fs_meta_sync warm-up op failed: " + st.ToString());
    return st;
  }
  ThreadTotals& tt = *ctx.totals;
  ++tt.attempted;
  if (st.ok()) {
    ++tt.ok_ops;
    if (kind != kWrite) tt.meta.Record(t1 - t0);
    if (kind == kStat) tt.read.Record(t1 - t0);
    if (kind == kCreate || kind == kUnlink) tt.write.Record(t1 - t0);
  } else {
    ++tt.failed;
    ctx.failures->Note(op_index,
                       Status(st.code(), std::string(kKindNames[kind] + 10) +
                                             " (thread " + std::to_string(t) +
                                             "): " + st.ToString()));
  }
  if (ctx.names != nullptr) {
    tt.spans.push_back(Span{t0, t1 - t0, ctx.parent,
                            ctx.names[kind], static_cast<uint16_t>(t),
                            static_cast<uint32_t>(op_index)});
  }
  return st;
}

void Cycle(World& w, uint32_t t, Ctx& ctx, std::vector<uint8_t>& buf) {
  const std::string& path = w.names[t][w.cycle[t]++ % kNames];
  labmods::GenericFs& fs = *w.fs[t];
  int fd = -1;
  if (!Timed(w, t, kCreate, ctx, [&] {
         auto r = fs.Create(path);
         if (r.ok()) fd = *r;
         return r.status();
       }).ok()) {
    return;
  }
  std::memcpy(buf.data(), &w.cycle[t], sizeof(uint64_t));
  const Status wst = Timed(w, t, kWrite, ctx, [&] {
    auto r = fs.Write(fd, buf, 0);
    if (!r.ok()) return r.status();
    return *r == kPage ? Status::Ok() : Status::Internal("short write");
  });
  CheckOk(fs.Close(fd), "close");
  if (wst.ok()) {
    Timed(w, t, kStat, ctx, [&] {
      auto r = fs.Stat(path);
      if (!r.ok()) return r.status();
      if (r->size != kPage) {
        ctx.verifier->Mismatch("fs_meta_sync: stat of " + path + " returned " +
                               std::to_string(r->size) + " bytes, not 4096");
      }
      return Status::Ok();
    });
    if (ctx.totals != nullptr) {
      ++ctx.totals->user_reads;
      ctx.totals->user_bytes_written += kPage;
    }
  }
  Timed(w, t, kUnlink, ctx, [&] { return fs.Unlink(path); });
}

std::unique_ptr<World> Setup(uint64_t seed, telemetry::Telemetry* tel,
                             SpanLog* spans, Verifier& verifier,
                             FailureLog& failures) {
  const uint64_t t_setup = NowNs();
  auto w = std::make_unique<World>();
  CheckOk(w->devices.Create(simdev::DeviceParams::NvmeP3700(512ull << 20))
              .status(),
          "device");
  core::Runtime::Options options;
  // The stack is sync: no worker thread is started, inline clients
  // execute against the mounted stack directly.
  options.max_workers = 1;
  options.telemetry = tel;
  w->runtime = std::make_unique<core::Runtime>(std::move(options), w->devices);
  auto stack = w->runtime->MountStack(MustParseStack(StackYaml()),
                                      ipc::Credentials{1, 0, 0});
  CheckOk(stack.status(), "mount");
  w->stack = *stack;
  for (uint32_t t = 0; t < kThreads; ++t) {
    w->clients.push_back(std::make_unique<core::Client>(
        *w->runtime, ipc::Credentials{400 + t, 1000, 1000}));
    CheckOk(w->clients.back()->Connect(), "connect");
    w->fs.push_back(std::make_unique<labmods::GenericFs>(*w->clients.back()));
    std::vector<std::string> names;
    for (uint32_t i = 0; i < kNames; ++i) {
      names.push_back("fs::/md/t" + std::to_string(t) + "." +
                      std::to_string(Mix64(seed, t * kNames + i) % 1000000) +
                      "." + std::to_string(i));
    }
    w->names.push_back(std::move(names));
    w->cycle.push_back(0);
    w->next_op.push_back(0);
  }
  const uint64_t t_warm = NowNs();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ctx ctx{&verifier, &failures, nullptr, nullptr, 0};
      std::vector<uint8_t> buf(kPage, static_cast<uint8_t>(seed));
      for (uint64_t i = 0; i < kWarmupCycles; ++i) Cycle(*w, t, ctx, buf);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t t_end = NowNs();
  if (spans != nullptr) {
    const uint32_t id = spans->Add(Span{
        t_setup, t_end - t_setup, 0, spans->Name("setup"),
        0, 0});
    spans->Add(Span{t_warm, t_end - t_warm, id,
                    spans->Name("warmup"), 0, 0});
  }
  return w;
}

struct PassResult {
  ThreadTotals totals;
  double measure_s = 0;
  LayerCounters before, after;
};

PassResult Measure(World& w, uint64_t seed, Verifier& verifier,
                   FailureLog& failures, SpanLog* spans) {
  PassResult r;
  uint16_t names[kKinds] = {};
  uint32_t measure_id = 0;
  if (spans != nullptr) {
    for (int k = 0; k < kKinds; ++k) names[k] = spans->Name(kKindNames[k]);
    measure_id = spans->Add(Span{NowNs(), 0, 0, spans->Name("measure"), 0, 0});
  }
  std::vector<ThreadTotals> per(kThreads);
  r.before = ReadLayerCounters(*w.runtime, "fs_md", "lru_md");
  const uint64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Ctx ctx{&verifier, &failures, &per[t],
              spans != nullptr ? names : nullptr, measure_id};
      std::vector<uint8_t> buf(kPage, static_cast<uint8_t>(seed));
      for (uint64_t i = 0; i < kTrialCycles; ++i) Cycle(w, t, ctx, buf);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t t1 = NowNs();
  r.measure_s = static_cast<double>(t1 - t0) / 1e9;
  r.after = ReadLayerCounters(*w.runtime, "fs_md", "lru_md");
  r.after.fused = w.stack->is_fused();
  for (ThreadTotals& p : per) {
    r.totals.read.Merge(p.read);
    r.totals.write.Merge(p.write);
    r.totals.meta.Merge(p.meta);
    r.totals.attempted += p.attempted;
    r.totals.failed += p.failed;
    r.totals.ok_ops += p.ok_ops;
    r.totals.user_reads += p.user_reads;
    r.totals.user_bytes_written += p.user_bytes_written;
    if (spans != nullptr) spans->Append(std::move(p.spans));
  }
  if (spans != nullptr) spans->Finish(measure_id, t1);
  return r;
}

}  // namespace

WorkloadResult RunFsMetaSync(const RunArgs& args) {
  WorkloadResult out;
  out.threads = kThreads;
  Verifier verifier;
  FailureLog failures;

  // Trials are bounded by cycle count, not time, so every trial crosses
  // the log limit whatever the speed; the run repeats them until its
  // untraced time is spent (half the run when traced).
  const uint64_t budget_ns = static_cast<uint64_t>(
      (args.trace ? args.seconds / 2 : args.seconds) * 1e9);
  const uint64_t t_begin = NowNs();
  std::vector<double> setup_times;
  std::vector<std::vector<Metric>> per_trial;
  bool fused = false;
  double peak_rss_mb = 0;  // after the first trial: later set-ups only add heap churn
  for (int i = 0; i == 0 || NowNs() - t_begin < budget_ns; ++i) {
    const uint64_t t0 = NowNs();
    auto world = Setup(args.seed, nullptr, nullptr, verifier, failures);
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    PassResult p = Measure(*world, args.seed, verifier, failures, nullptr);
    out.attempted += p.totals.attempted;
    out.failed += p.totals.failed;
    std::vector<Metric> m = RateAndLatency(
        static_cast<double>(p.totals.ok_ops) / p.measure_s, p.totals.read,
        p.totals.write);
    // The metadata latency (create, stat and unlink pooled).
    m.push_back({"meta_p50_us", p.totals.meta.PercentileUs(0.50), "us"});
    m.push_back({"meta_p99_us", p.totals.meta.PercentileUs(0.99), "us"});
    per_trial.push_back(std::move(m));
    fused = p.after.fused;
    if (i == 0) {
      peak_rss_mb = PeakRssMb();
      out.notes.push_back("labfs log fill after a trial: " +
                          std::to_string(p.after.log_records) + " of " +
                          std::to_string(p.after.log_capacity) + " records");
    }
  }
  out.notes.push_back(std::string("untraced trials ran the ") +
                      (fused ? "fused" : "unfused") + " chain");
  std::vector<Metric> untraced = MedianOfTrials(per_trial);
  const double ops_per_s = untraced.front().value;

  if (!args.trace) {
    out.extra.assign(untraced.end() - 2, untraced.end());
    untraced.resize(untraced.size() - 2);
    out.end_to_end = untraced;
    out.E2e("setup_s", Median(setup_times), "s");
    out.E2e("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    telemetry::Telemetry tel;
    SpanLog spans;
    auto world = Setup(args.seed, &tel, &spans, verifier, failures);
    tel.metrics().Reset();
    PassResult traced =
        Measure(*world, args.seed, verifier, failures, &spans);
    world.reset();
    out.attempted += traced.totals.attempted;
    out.failed += traced.totals.failed;
    const double traced_ops_per_s =
        static_cast<double>(traced.totals.ok_ops) / traced.measure_s;
    const uint64_t ops = traced.totals.attempted;
    const auto per_op = [ops](uint64_t d) {
      return ops == 0 ? 0.0 : static_cast<double>(d) / static_cast<double>(ops);
    };
    out.Layer("core.requests_per_op",
              per_op(traced.after.requests - traced.before.requests), "1/op");
    out.Layer("core.client_overhead_us_p50", traced.totals.meta.PercentileUs(0.5),
              "us");
    // A fused chain is used only without an enabled telemetry sink
    // (StackExec::Dispatch), so the traced pass always runs unfused.
    out.Layer("core.fused", fused ? 1.0 : 0.0, "bool");
    out.Layer("core.fused_traced", 0.0, "bool");
    for (int k = 0; k < kKinds; ++k) {
      out.Layer(std::string("labmods.") + kKindNames[k] + "_us_p50",
                spans.P50Us(kKindNames[k]), "us");
    }
    AddStoreLayerMetrics(out, traced.before, traced.after, ops,
                         traced.totals.user_reads,
                         traced.totals.user_bytes_written);
    out.Layer("workload.trace_overhead_frac", 1.0 - traced_ops_per_s / ops_per_s,
              "fraction");
    WriteSpans(spans, args);
  }
  out.first_failed_op = failures.first_op();
  out.first_failure = failures.first_status();
  out.mismatches = verifier.mismatches();
  out.correct = out.mismatches == 0;
  out.first_mismatch = verifier.first();
  return out;
}

}  // namespace perfbench
