// des_cluster_open: single thread, DES. The 4-node cluster::Cluster
// (ClusterConfig defaults, so 8192 log records per node worker) driven
// open loop by workload::RunCalibrated: Poisson arrivals on 4 gateway
// streams at a fixed offered rate, a small-object profile of 4-64 KiB
// values, 70% get / 20% put / 10% create-stat-remove.
//
// Why: the only workload that exercises sim, SimRuntime, cluster
// routing and the transport. It reports latency on the virtual clock
// at a stated load below saturation, plus the closed-loop saturation
// point itself.
//
// A run repeats independent episodes (fresh cluster, per-episode seed)
// until its wall-clock budget is spent; virtual latencies pool all
// episodes, ops_per_s is simulated ops per wall second of DES work.
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common.h"
#include "common/rng.h"
#include "layers.h"
#include "sim/environment.h"
#include "telemetry/telemetry.h"
#include "workload/arrival.h"
#include "workload/calibrated.h"

namespace perfbench {
namespace {

using namespace labstor;

constexpr uint32_t kGateways = 4;
constexpr uint32_t kDataKeys = 256;
constexpr uint32_t kCreateNames = 64;  // rotating per stream
// Offered load: 0.7 x the closed-loop capacity measured on the commit
// that introduced this benchmark (virt_capacity_ops_s 240k-250k ops per
// virtual second over seeds 1-5; README.md records the measurement).
constexpr double kOfferedOpsPerSec = 171'500;
// Virtual time per episode: one second of arrivals (~171k ops), so the
// puts run into the per-worker log limit of the default ClusterConfig
// as a sustained load would.
constexpr sim::Time kEpisodeDuration = 1000 * sim::kMs;
// Closed-loop capacity probe: 16 outstanding ops per gateway.
constexpr uint32_t kCapacityStreams = 64;
constexpr uint64_t kCapacityOpsPerStream = 100;

workload::CalibratedProfile SmallObjectProfile() {
  workload::CalibratedProfile p;
  p.name = "small_object";
  p.sizes = {{4096, 0.35}, {8192, 0.25}, {16384, 0.20}, {32768, 0.12},
             {65536, 0.08}};
  p.metadata_fraction = 0.10;
  p.read_fraction = 0.70 / 0.90;  // 70% of all ops are gets
  p.meta_create_fraction = 1.0 / 3;
  p.meta_stat_fraction = 1.0 / 3;
  return p;
}

struct Episode {
  sim::Environment env;
  std::unique_ptr<cluster::Cluster> cluster;
  uint64_t seed = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t backlog_at_deadline = 0;
  uint64_t ok_ops = 0;
  uint64_t failed = 0;
  uint64_t first_exhausted_op = 0;
  LatencyRecorder read, write;
  FailureLog* failures = nullptr;
  bool record = true;  // false for the capacity probe
};

std::string DataLabel(uint32_t key) { return "d" + std::to_string(key); }

uint32_t DataKey(uint64_t seed, const workload::CalibratedRequest& req) {
  return static_cast<uint32_t>(
      Mix64(seed ^ (uint64_t{req.stream} << 48), req.index) % kDataKeys);
}

// One calibrated request against the cluster. `req` is taken by value:
// the coroutine outlives the caller's reference.
sim::Task<Status> ClusterOp(Episode* ep, workload::CalibratedRequest req) {
  cluster::Cluster& c = *ep->cluster;
  const uint32_t gw = req.stream % kGateways;
  const uint64_t op_index = ++ep->issued;
  const sim::Time start = ep->env.now();
  Status st;
  bool mutating = true;
  std::string what;
  switch (req.cls) {
    case workload::OpClass::kDataRead:
      mutating = false;
      what = "get";
      st = co_await c.Get(gw, req.stream, DataLabel(DataKey(ep->seed, req)));
      break;
    case workload::OpClass::kDataWrite:
      what = "put";
      st = co_await c.Put(gw, req.stream, DataLabel(DataKey(ep->seed, req)),
                          req.size_bytes);
      break;
    case workload::OpClass::kMetadata:
      switch (req.meta) {
        case workload::MetaOp::kCreate:
          what = "create";
          st = co_await c.Put(gw, req.stream,
                              "m" + std::to_string(req.stream) + "." +
                                  std::to_string(req.index % kCreateNames),
                              4096);
          break;
        case workload::MetaOp::kStat:
          mutating = false;
          what = "stat";
          st = co_await c.Get(gw, req.stream,
                              DataLabel(DataKey(ep->seed, req)));
          break;
        case workload::MetaOp::kRemove: {
          // mdtest idiom: create a fresh object, then remove it.
          what = "remove";
          const std::string label = "r" + std::to_string(req.stream) + "." +
                                    std::to_string(req.index);
          st = co_await c.Put(gw, req.stream, label, 4096);
          if (st.ok()) st = co_await c.Delete(gw, req.stream, label);
          break;
        }
      }
      break;
  }
  ++ep->completed;
  if (ep->record) {
    if (st.ok()) {
      ++ep->ok_ops;
      (mutating ? ep->write : ep->read).Record(ep->env.now() - start);
    } else {
      ++ep->failed;
      ep->failures->Note(op_index,
                         Status(st.code(), what + " (episode op " +
                                               std::to_string(op_index) +
                                               "): " + st.ToString()));
      if (st.code() == StatusCode::kResourceExhausted &&
          ep->first_exhausted_op == 0) {
        ep->first_exhausted_op = op_index;
      }
    }
  }
  co_return st;
}

sim::Task<void> ClosedOp(Episode* ep, workload::CalibratedRequest req) {
  co_await ClusterOp(ep, req);
}

sim::Task<void> Preload(Episode* ep, const workload::CalibratedProfile* p,
                        Status* out) {
  Rng rng(Mix64(ep->seed, 0x3000));
  for (uint32_t k = 0; k < kDataKeys; ++k) {
    const Status st = co_await ep->cluster->Put(
        k % kGateways, k % kGateways, DataLabel(k),
        workload::SampleSize(*p, rng));
    if (!st.ok() && out->ok()) *out = st;
  }
}

sim::Task<void> Monitor(Episode* ep, sim::Time delay) {
  co_await ep->env.Delay(delay);
  ep->backlog_at_deadline = ep->issued - ep->completed;
}

// Builds the cluster and preloads the data keys.
std::unique_ptr<Episode> Setup(uint64_t seed, telemetry::Telemetry* tel,
                               FailureLog* failures) {
  auto ep = std::make_unique<Episode>();
  ep->seed = seed;
  ep->failures = failures;
  ep->cluster = std::make_unique<cluster::Cluster>(ep->env,
                                                   cluster::ClusterConfig{}, tel);
  CheckOk(ep->cluster->init_status(), "cluster init");
  if (tel != nullptr) {
    for (const uint32_t id : ep->cluster->NodeIds()) {
      ep->cluster->node(id)->rt().AttachTelemetry(tel);
    }
  }
  const workload::CalibratedProfile profile = SmallObjectProfile();
  Status st;
  ep->env.Spawn(Preload(ep.get(), &profile, &st));
  ep->env.Run();
  CheckOk(st, "preload");
  return ep;
}

workload::CalibratedOptions OpenLoopOptions(uint64_t seed,
                                            telemetry::Telemetry* tel) {
  workload::CalibratedOptions o;
  o.streams = kGateways;
  o.duration = kEpisodeDuration;
  o.rate_per_stream = kOfferedOpsPerSec / kGateways;
  o.seed = seed;
  o.telemetry = tel;
  return o;
}

double MeasureCapacity(uint64_t seed) {
  FailureLog ignored;
  auto ep = Setup(Mix64(seed, 0xCA9), nullptr, &ignored);
  ep->record = false;
  const workload::CalibratedProfile profile = SmallObjectProfile();
  std::vector<Rng> rngs;
  for (uint32_t s = 0; s < kCapacityStreams; ++s) {
    rngs.emplace_back(Mix64(ep->seed, 0x4000 + s));
  }
  workload::ArrivalOptions a;
  a.mode = workload::ArrivalMode::kClosed;
  a.streams = kCapacityStreams;
  a.ops_per_stream = kCapacityOpsPerStream;
  Episode* raw = ep.get();
  const workload::ArrivalStats stats = workload::RunArrivals(
      ep->env, a, [raw, &profile, &rngs](uint32_t stream, uint64_t index) {
        return ClosedOp(raw, workload::DrawRequest(profile, stream, index,
                                                   rngs[stream]));
      });
  return stats.OpsPerSec();
}

struct PassResult {
  uint64_t episodes = 0;
  uint64_t attempted = 0, failed = 0, ok_ops = 0;
  double des_wall_s = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;  // after the first episode
  LatencyRecorder read, write;
  std::vector<std::vector<Metric>> per_episode;
  uint64_t max_backlog = 0;
  bool digests_ok = true;
  uint64_t first_exhausted_op = 0;
  // Traced pass only.
  cluster::Topology topo;
  double busy_cores = 0;
  uint64_t labels = 0;
};

// Runs episodes until `seconds` of wall time are spent (at least one).
PassResult RunPass(uint64_t seed, double seconds, telemetry::Telemetry* tel,
                   Verifier& verifier, FailureLog& failures, SpanLog* spans) {
  PassResult r;
  const workload::CalibratedProfile profile = SmallObjectProfile();
  const uint64_t t_begin = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  while (r.episodes == 0 || NowNs() - t_begin < budget) {
    const uint64_t ep_seed = Mix64(seed, 0x5000 + r.episodes);
    const uint64_t t0 = NowNs();
    auto ep = Setup(ep_seed, tel, &failures);
    const uint64_t t1 = NowNs();
    r.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    Episode* raw = ep.get();
    ep->env.Spawn(Monitor(raw, kEpisodeDuration));
    const workload::CalibratedStats stats = workload::RunCalibrated(
        ep->env, OpenLoopOptions(ep_seed, tel), profile,
        [raw](const workload::CalibratedRequest& req) {
          return ClusterOp(raw, req);
        });
    const uint64_t t2 = NowNs();
    r.des_wall_s += static_cast<double>(t2 - t1) / 1e9;

    // Correctness: the issue sequence must match a no-op dry run of the
    // same seed, and the cluster invariants must hold strictly.
    sim::Environment dry_env;
    const workload::CalibratedStats dry = workload::RunCalibrated(
        dry_env, OpenLoopOptions(ep_seed, nullptr), profile,
        [](const workload::CalibratedRequest&) -> sim::Task<Status> {
          co_return Status::Ok();
        });
    if (dry.issue_digest != stats.issue_digest) {
      r.digests_ok = false;
      verifier.Mismatch("des_cluster_open: episode " +
                        std::to_string(r.episodes) +
                        " issue digest differs from its dry run");
    }
    if (const Status inv = ep->cluster->CheckInvariants(/*strict=*/true);
        !inv.ok()) {
      verifier.Mismatch("des_cluster_open: episode " +
                        std::to_string(r.episodes) +
                        " cluster invariants: " + inv.ToString());
    }
    const uint64_t t3 = NowNs();
    if (spans != nullptr) {
      const uint16_t thread = static_cast<uint16_t>(r.episodes);
      spans->Add(Span{t0, t1 - t0, 0,
                      spans->Name("setup"), thread, 0});
      spans->Add(Span{t1, t2 - t1, 0,
                      spans->Name("measure"), thread, 0});
      spans->Add(Span{t2, t3 - t2, 0,
                      spans->Name("verify"), thread, 0});
    }
    r.attempted += ep->ok_ops + ep->failed;
    r.failed += ep->failed;
    r.ok_ops += ep->ok_ops;
    r.read.Merge(ep->read);
    r.write.Merge(ep->write);
    r.per_episode.push_back(RateAndLatency(
        static_cast<double>(ep->ok_ops) / (static_cast<double>(t2 - t1) / 1e9),
        ep->read, ep->write));
    r.max_backlog = std::max(r.max_backlog, ep->backlog_at_deadline);
    if (r.episodes == 0) {
      r.first_exhausted_op = ep->first_exhausted_op;
      r.peak_rss_mb = PeakRssMb();
    }
    if (tel != nullptr) {
      const cluster::Topology t = ep->cluster->GetTopology();
      r.topo.forwarded += t.forwarded;
      r.topo.fallback_reads += t.fallback_reads;
      r.topo.net_messages += t.net_messages;
      r.topo.net_bytes += t.net_bytes;
      const std::vector<uint32_t> nodes = ep->cluster->NodeIds();
      double busy = 0;
      for (const uint32_t id : nodes) {
        busy += ep->cluster->node(id)->rt().AvgBusyCores(ep->env.now());
        r.labels += ep->cluster->node(id)->label_count();
      }
      r.busy_cores += busy / static_cast<double>(nodes.size());
    }
    ++r.episodes;
  }
  if (tel != nullptr) {
    r.busy_cores /= static_cast<double>(r.episodes);
    r.labels /= r.episodes;
  }
  return r;
}

}  // namespace

WorkloadResult RunDesClusterOpen(const RunArgs& args) {
  WorkloadResult out;
  out.threads = 1;
  Verifier verifier;
  FailureLog failures;

  const double capacity = MeasureCapacity(args.seed);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  PassResult plain =
      RunPass(args.seed, untraced_s, nullptr, verifier, failures, nullptr);
  const double ops_per_s = static_cast<double>(plain.ok_ops) / plain.des_wall_s;
  out.attempted = plain.attempted;
  out.failed = plain.failed;
  out.notes.push_back("episodes: " + std::to_string(plain.episodes) +
                      ", offered " + std::to_string(kOfferedOpsPerSec) +
                      " ops/s (virtual), largest backlog at deadline " +
                      std::to_string(plain.max_backlog));
  LatencyRecorder all = plain.read;
  all.Merge(plain.write);
  // Ops in flight at the deadline are normal (Little's law: about
  // rate x latency); more than rate x p99 means arrivals outran
  // service and the tail measures the backlog, not the latency.
  const double in_flight_bound = kOfferedOpsPerSec * all.PercentileUs(0.99) / 1e6;
  if (static_cast<double>(plain.max_backlog) > in_flight_bound) {
    out.notes.push_back(
        "BACKLOG: " + std::to_string(plain.max_backlog) +
        " ops outstanding at the arrival deadline exceed rate x p99 (" +
        std::to_string(in_flight_bound) +
        "): virtual p99 measures the backlog, not latency");
  }

  if (!args.trace) {
    out.end_to_end = MedianOfTrials(plain.per_episode);
    out.E2e("setup_s", Median(plain.setup_s), "s");
    out.E2e("peak_rss_mb", plain.peak_rss_mb, "MiB");
    out.Extra("virt_p50_us", all.PercentileUs(0.50), "us");
    out.Extra("virt_p99_us", all.PercentileUs(0.99), "us");
    out.Extra("virt_capacity_ops_s", capacity, "ops/s");
    out.Extra("labmods.labkvs.first_exhausted_op",
              static_cast<double>(plain.first_exhausted_op), "op");
  } else {
    telemetry::Telemetry::Options topts;
    topts.virtual_time = true;
    telemetry::Telemetry tel(topts);
    SpanLog spans;
    PassResult traced =
        RunPass(args.seed, args.seconds / 2, &tel, verifier, failures, &spans);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    const double traced_ops_per_s =
        static_cast<double>(traced.ok_ops) / traced.des_wall_s;
    const auto snap = tel.metrics().Scrape();
    const double ops = static_cast<double>(std::max<uint64_t>(traced.attempted, 1));
    out.Layer("ipc.queue_wait_us_p50",
              HistPercentile(snap, "ipc.queue.wait_ns", 0.50), "us");
    out.Layer("ipc.queue_wait_us_p99",
              HistPercentile(snap, "ipc.queue.wait_ns", 0.99), "us");
    out.Layer("ipc.queue_depth_p99",
              HistPercentile(snap, "ipc.queue.depth", 0.99, /*raw=*/true),
              "requests");
    out.Layer("sim.avg_busy_cores", traced.busy_cores, "cores");
    out.Layer("sim.request_us_p99",
              HistPercentile(snap, "runtime.request.latency_ns", 0.99), "us");
    out.Layer("cluster.forwarded_per_op",
              static_cast<double>(traced.topo.forwarded) / ops, "1/op");
    out.Layer("cluster.net_messages_per_op",
              static_cast<double>(traced.topo.net_messages) / ops, "1/op");
    out.Layer("cluster.net_bytes_per_op",
              static_cast<double>(traced.topo.net_bytes) / ops, "B/op");
    out.Layer("cluster.fallback_reads",
              static_cast<double>(traced.topo.fallback_reads), "count");
    out.Layer("labmods.labkvs.first_exhausted_op",
              static_cast<double>(traced.first_exhausted_op), "op");
    out.Layer("labmods.labkvs.key_count", static_cast<double>(traced.labels),
              "keys");
    out.Layer("workload.backlog_at_deadline",
              static_cast<double>(traced.max_backlog), "ops");
    out.Layer("workload.issue_digest_ok",
              plain.digests_ok && traced.digests_ok ? 1.0 : 0.0, "bool");
    out.Layer("workload.virt_capacity_ops_s", capacity, "ops/s");
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
