// fs_rw_async: closed loop, 2 client threads with one request in
// flight each, 1 Runtime worker, the full async LabFS stack
// (permissions -> labfs -> lru_cache -> noop_sched -> kernel_driver).
// 4 KiB ops, 70% reads / 30% in-place overwrites, skewed page choice
// over two 32 MiB preloaded files (4x the 16 MiB LRU).
//
// Why: every op pays the IPC round trip and a worker wakeup, and about
// half the reads miss the LRU, so the per-op software path dominates.
// Overwrites append no log records: this is the steady workload.
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/runtime.h"
#include "labmods/genericfs.h"
#include "labmods/labfs.h"
#include "labmods/lru_cache.h"
#include "layers.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace labstor;

constexpr uint64_t kPage = 4096;
constexpr uint64_t kPagesPerFile = (32ull << 20) / kPage;
constexpr uint32_t kClients = 2;
constexpr size_t kWorkers = 1;
constexpr double kWriteShare = 0.3;
// Skew: half the ops go to a hot eighth of each file, the rest are
// uniform over the whole file.
constexpr double kHotShare = 0.5;
constexpr uint64_t kHotPages = kPagesPerFile / 8;
constexpr uint64_t kPreloadChunk = 256 << 10;
constexpr double kTrialSeconds = 2.0;  // untraced runs: median of trials
constexpr uint64_t kWarmupOps = 20'000;  // per client, before timing
constexpr uint64_t kMagic = 0x50424653'54414D50ULL;

std::string StackYaml() {
  // The repository's Lab-All FS stack, log size as shipped (131072
  // records per worker).
  return "mount: fs::/rw\n"
         "rules:\n"
         "  exec_mode: async\n"
         "dag:\n"
         "  - mod: permissions\n"
         "    uuid: perm_rw\n"
         "    outputs: [fs_rw]\n"
         "  - mod: labfs\n"
         "    uuid: fs_rw\n"
         "    params:\n"
         "      device: nvme0\n"
         "      log_records_per_worker: 131072\n"
         "    outputs: [lru_rw]\n"
         "  - mod: lru_cache\n"
         "    uuid: lru_rw\n"
         "    outputs: [sched_rw]\n"
         "  - mod: noop_sched\n"
         "    uuid: sched_rw\n"
         "    outputs: [drv_rw]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_rw\n"
         "    params:\n"
         "      device: nvme0\n";
}

// (page, version) stamp at the head of each 4 KiB page, with a check
// word repeated in the last 8 bytes.
void Stamp(uint8_t* p, uint64_t seed, uint32_t client, uint32_t page,
           uint32_t version) {
  const uint64_t words[3] = {kMagic,
                             (uint64_t{client} << 32) | page,
                             uint64_t{version}};
  const uint64_t check = Mix64(seed, words[1] ^ (words[2] << 40));
  std::memcpy(p, words, sizeof(words));
  std::memcpy(p + sizeof(words), &check, 8);
  std::memcpy(p + kPage - 8, &check, 8);
}

bool CheckStamp(const uint8_t* p, uint64_t seed, uint32_t client,
                uint32_t page, uint32_t version) {
  uint8_t want[kPage];
  Stamp(want, seed, client, page, version);
  return std::memcmp(p, want, 32) == 0 &&
         std::memcmp(p + kPage - 8, want + kPage - 8, 8) == 0;
}

struct World {
  simdev::DeviceRegistry devices{nullptr};
  std::unique_ptr<core::Runtime> runtime;
  std::vector<std::unique_ptr<core::Client>> clients;
  std::vector<std::unique_ptr<labmods::GenericFs>> fs;
  std::vector<int> fds;
  // versions[c][page]: client c's last acknowledged write of `page`.
  std::vector<std::vector<uint32_t>> versions;
  std::vector<Rng> rngs;
  std::vector<uint64_t> next_op;

  ~World() {
    if (runtime) runtime->Stop();
  }
};

struct ClientTotals {
  LatencyRecorder read, write;
  uint64_t attempted = 0, failed = 0, ok_ops = 0;
  uint64_t user_reads = 0, user_writes = 0;
  std::vector<Span> spans;
};

// One op on client c. Returns true if it succeeded.
bool DoOp(World& w, uint32_t c, uint64_t seed, Verifier& verifier,
          FailureLog& failures, ClientTotals* totals, SpanLog* spans,
          uint32_t parent, uint16_t read_name, uint16_t write_name,
          std::vector<uint8_t>& buf) {
  Rng& rng = w.rngs[c];
  const bool is_write = rng.NextDouble() < kWriteShare;
  const uint64_t hot_base = Mix64(seed, c) % kPagesPerFile;
  const uint32_t page = static_cast<uint32_t>(
      rng.NextDouble() < kHotShare
          ? (hot_base + rng.Uniform(kHotPages)) % kPagesPerFile
          : rng.Uniform(kPagesPerFile));
  const uint64_t op_index = ++w.next_op[c];
  uint32_t& version = w.versions[c][page];
  const uint64_t t0 = NowNs();
  Status st;
  if (is_write) {
    Stamp(buf.data(), seed, c, page, version + 1);
    auto n = w.fs[c]->Write(w.fds[c], {buf.data(), kPage}, page * kPage);
    st = n.ok() ? (*n == kPage ? Status::Ok()
                               : Status::Internal("short write"))
                : n.status();
  } else {
    auto n = w.fs[c]->Read(w.fds[c], {buf.data(), kPage}, page * kPage);
    st = n.ok() ? (*n == kPage ? Status::Ok() : Status::Internal("short read"))
                : n.status();
  }
  const uint64_t t1 = NowNs();
  if (st.ok()) {
    if (is_write) {
      ++version;
    } else if (!CheckStamp(buf.data(), seed, c, page, version)) {
      verifier.Mismatch("fs_rw_async: client " + std::to_string(c) +
                        " read of page " + std::to_string(page) +
                        " does not carry its last acknowledged write (v" +
                        std::to_string(version) + ")");
    }
  }
  if (totals != nullptr) {
    ++totals->attempted;
    if (st.ok()) {
      ++totals->ok_ops;
      (is_write ? totals->write : totals->read).Record(t1 - t0);
      ++(is_write ? totals->user_writes : totals->user_reads);
    } else {
      ++totals->failed;
      failures.Note(op_index, st);
    }
    if (spans != nullptr) {
      totals->spans.push_back(Span{t0, t1 - t0, parent,
                                   is_write ? write_name : read_name,
                                   static_cast<uint16_t>(c),
                                   static_cast<uint32_t>(op_index)});
    }
  } else if (!st.ok()) {
    Fatal("fs_rw_async warm-up op failed: " + st.ToString());
  }
  return st.ok();
}

std::unique_ptr<World> Setup(uint64_t seed, telemetry::Telemetry* tel,
                             SpanLog* spans) {
  const uint64_t t_setup = NowNs();
  auto w = std::make_unique<World>();
  CheckOk(w->devices.Create(simdev::DeviceParams::NvmeP3700(512ull << 20))
              .status(),
          "device");
  core::Runtime::Options options;
  options.max_workers = kWorkers;
  options.telemetry = tel;
  w->runtime = std::make_unique<core::Runtime>(std::move(options), w->devices);
  auto stack = w->runtime->MountStack(MustParseStack(StackYaml()),
                                      ipc::Credentials{1, 0, 0});
  CheckOk(stack.status(), "mount");
  CheckOk(w->runtime->Start(), "runtime start");
  const uint64_t t_preload = NowNs();
  std::vector<uint8_t> chunk(kPreloadChunk);
  for (uint32_t c = 0; c < kClients; ++c) {
    w->clients.push_back(std::make_unique<core::Client>(
        *w->runtime, ipc::Credentials{200 + c, 1000, 1000}));
    CheckOk(w->clients.back()->Connect(), "connect");
    w->fs.push_back(std::make_unique<labmods::GenericFs>(*w->clients.back()));
    auto fd = w->fs.back()->Create("fs::/rw/f" + std::to_string(c));
    CheckOk(fd.status(), "create");
    w->fds.push_back(*fd);
    for (uint64_t off = 0; off < kPagesPerFile * kPage; off += kPreloadChunk) {
      for (uint64_t p = 0; p < kPreloadChunk / kPage; ++p) {
        Stamp(chunk.data() + p * kPage, seed, c,
              static_cast<uint32_t>(off / kPage + p), 0);
      }
      auto n = w->fs.back()->Write(*fd, chunk, off);
      CheckOk(n.status(), "preload write");
    }
    w->versions.emplace_back(kPagesPerFile, 0);
    w->rngs.emplace_back(Mix64(seed, 0x1000 + c));
    w->next_op.push_back(0);
  }
  const uint64_t t_warm = NowNs();
  Verifier warm_verifier;
  FailureLog warm_failures;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<uint8_t> buf(kPage);
      for (uint64_t i = 0; i < kWarmupOps; ++i) {
        DoOp(*w, c, seed, warm_verifier, warm_failures, nullptr, nullptr, 0,
             0, 0, buf);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (warm_verifier.mismatches() != 0) Fatal(warm_verifier.first());
  const uint64_t t_end = NowNs();
  if (spans != nullptr) {
    const uint32_t id = spans->Add(
        Span{t_setup, t_end - t_setup, 0,
             spans->Name("setup"), 0, 0});
    spans->Add(Span{t_preload, t_warm - t_preload, id,
                    spans->Name("preload"), 0, 0});
    spans->Add(Span{t_warm, t_end - t_warm, id,
                    spans->Name("warmup"), 0, 0});
  }
  return w;
}

struct PassResult {
  ClientTotals totals;
  double measure_s = 0;
  LayerCounters before, after;
};

PassResult Measure(World& w, uint64_t seed, double seconds, Verifier& verifier,
                   FailureLog& failures, SpanLog* spans) {
  PassResult r;
  const uint16_t read_name = spans ? spans->Name("genericfs.read") : 0;
  const uint16_t write_name = spans ? spans->Name("genericfs.write") : 0;
  const uint32_t measure_id =
      spans ? spans->Add(Span{NowNs(), 0, 0, spans->Name("measure"), 0, 0}) : 0;
  std::vector<ClientTotals> per(kClients);
  r.before = ReadLayerCounters(*w.runtime, "fs_rw", "lru_rw");
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<uint8_t> buf(kPage);
      while (NowNs() < deadline) {
        DoOp(w, c, seed, verifier, failures, &per[c], spans, measure_id,
             read_name, write_name, buf);
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t t1 = NowNs();
  r.measure_s = static_cast<double>(t1 - t0) / 1e9;
  if (spans != nullptr) spans->Finish(measure_id, t1);
  r.after = ReadLayerCounters(*w.runtime, "fs_rw", "lru_rw");
  for (uint32_t c = 0; c < kClients; ++c) {
    r.after.client_retries += w.clients[c]->retries();
  }
  for (ClientTotals& p : per) {
    r.totals.read.Merge(p.read);
    r.totals.write.Merge(p.write);
    r.totals.attempted += p.attempted;
    r.totals.failed += p.failed;
    r.totals.ok_ops += p.ok_ops;
    r.totals.user_reads += p.user_reads;
    r.totals.user_writes += p.user_writes;
    if (spans != nullptr) spans->Append(std::move(p.spans));
  }
  return r;
}

}  // namespace

WorkloadResult RunFsRwAsync(const RunArgs& args) {
  WorkloadResult out;
  out.threads = kClients + kWorkers;
  Verifier verifier;
  FailureLog failures;

  // Untraced trials: the end-to-end numbers (and, in a traced run, the
  // baseline for trace_overhead_frac).
  const int trials = args.trace ? 1 : TrialCount(args.seconds, kTrialSeconds);
  const double trial_s = (args.trace ? args.seconds / 2 : args.seconds) / trials;
  std::vector<double> setup_times;
  std::vector<std::vector<Metric>> per_trial;
  double peak_rss_mb = 0;  // after the first trial: later set-ups only add heap churn
  for (int i = 0; i < trials; ++i) {
    const uint64_t t0 = NowNs();
    auto world = Setup(args.seed, nullptr, nullptr);
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    PassResult p = Measure(*world, args.seed, trial_s, verifier, failures, nullptr);
    out.attempted += p.totals.attempted;
    out.failed += p.totals.failed;
    if (i == 0) peak_rss_mb = PeakRssMb();
    per_trial.push_back(RateAndLatency(
        static_cast<double>(p.totals.ok_ops) / p.measure_s, p.totals.read,
        p.totals.write));
  }
  const std::vector<Metric> untraced = MedianOfTrials(per_trial);
  const double ops_per_s = untraced.front().value;

  if (!args.trace) {
    out.end_to_end = untraced;
    out.E2e("setup_s", Median(setup_times), "s");
    out.E2e("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    telemetry::Telemetry tel;
    SpanLog spans;
    auto world = Setup(args.seed, &tel, &spans);
    tel.metrics().Reset();
    PassResult traced =
        Measure(*world, args.seed, args.seconds / 2, verifier, failures, &spans);
    world.reset();
    out.attempted += traced.totals.attempted;
    out.failed += traced.totals.failed;
    LatencyRecorder all = traced.totals.read;
    all.Merge(traced.totals.write);
    const double traced_ops_per_s =
        static_cast<double>(traced.totals.ok_ops) / traced.measure_s;
    const auto snap = tel.metrics().Scrape();
    AddAsyncLayerMetrics(out, snap, traced.before, traced.after,
                         traced.totals.attempted, all.PercentileUs(0.5));
    AddStoreLayerMetrics(out, traced.before, traced.after,
                         traced.totals.attempted, traced.totals.user_reads,
                         traced.totals.user_writes * kPage);
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
