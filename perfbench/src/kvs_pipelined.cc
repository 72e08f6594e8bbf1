// kvs_pipelined: closed loop, 1 client thread keeping 32 requests in
// flight on its queue pair, 2 Runtime workers, the async LabKVS stack
// (labkvs -> noop_sched -> kernel_driver, no cache). YCSB-B shape:
// 95% get / 5% put of 1 KiB values over 16,384 preloaded keys,
// Zipf(0.99) key choice.
//
// Why: it uses ipc/core the opposite way from fs_rw_async — depth 32
// instead of 1, so ring batching and drain throughput matter rather
// than wakeup latency. Its puts append LabKVS log records that are
// never reclaimed, so a long enough run reaches the log limit.
#include <cstring>
#include <memory>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "ipc/ipc_manager.h"
#include "layers.h"
#include "simdev/registry.h"
#include "telemetry/telemetry.h"

namespace perfbench {
namespace {

using namespace labstor;

constexpr uint32_t kKeys = 16384;
constexpr uint64_t kValue = 1024;
constexpr uint32_t kDepth = 32;
constexpr size_t kWorkers = 2;
constexpr double kPutShare = 0.05;
constexpr double kZipfTheta = 0.99;
// Ops per trial: twice the ops after which a freshly preloaded store's
// log region is full (131072 records - 49152 for the preload, 2 per
// put, 5% puts: about 820k ops).
constexpr uint64_t kTrialOps = 1'600'000;
constexpr uint64_t kWarmupOps = 20'000;
constexpr uint64_t kMagic = 0x5042'4B56'5354'414DULL;

std::string StackYaml() {
  // The repository's LabKVS stack, log size as shipped (131072 records
  // per worker).
  return "mount: kvs::/ycsb\n"
         "rules:\n"
         "  exec_mode: async\n"
         "dag:\n"
         "  - mod: labkvs\n"
         "    uuid: kvs_y\n"
         "    params:\n"
         "      device: nvme0\n"
         "      log_records_per_worker: 131072\n"
         "    outputs: [sched_y]\n"
         "  - mod: noop_sched\n"
         "    uuid: sched_y\n"
         "    outputs: [drv_y]\n"
         "  - mod: kernel_driver\n"
         "    uuid: drv_y\n"
         "    params:\n"
         "      device: nvme0\n";
}

void Stamp(uint8_t* p, uint64_t seed, uint32_t key, uint32_t version) {
  const uint64_t words[2] = {kMagic, (uint64_t{key} << 32) | version};
  const uint64_t check = Mix64(seed, words[1]);
  std::memcpy(p, words, sizeof(words));
  std::memcpy(p + sizeof(words), &check, 8);
  std::memcpy(p + kValue - 8, &check, 8);
}

// Returns the stamped version, or -1 if the value is not a well-formed
// stamp of `key`.
int64_t StampedVersion(const uint8_t* p, uint64_t seed, uint32_t key) {
  uint64_t words[2];
  std::memcpy(words, p, sizeof(words));
  if (words[0] != kMagic || (words[1] >> 32) != key) return -1;
  const uint32_t version = static_cast<uint32_t>(words[1]);
  uint8_t want[kValue];
  Stamp(want, seed, key, version);
  if (std::memcmp(p, want, 24) != 0 ||
      std::memcmp(p + kValue - 8, want + kValue - 8, 8) != 0) {
    return -1;
  }
  return version;
}

struct KeyState {
  uint32_t acked = 0;    // version of the last acknowledged put
  uint32_t issued = 0;   // version of the last issued put
  bool put_inflight = false;
};

struct Op {
  bool is_put = false;
  uint32_t key = 0;
};

struct Slot {
  ipc::Request* req = nullptr;
  bool busy = false;
  Op op;
  uint32_t version = 0;         // put: version written
  uint32_t acked_at_issue = 0;  // get: what it must at least see
  uint32_t inflight_at_issue = 0;
  uint32_t issued_at_issue = 0;
  uint64_t t0 = 0;
  uint64_t op_index = 0;
  uint32_t span = 0;  // local span index + 1 (traced)
};

struct World {
  simdev::DeviceRegistry devices{nullptr};
  std::unique_ptr<core::Runtime> runtime;
  core::Stack* stack = nullptr;
  ipc::ClientChannel channel;
  std::vector<Slot> slots;
  std::vector<KeyState> keys;
  std::vector<std::string> paths;
  std::unique_ptr<Zipf> zipf;
  Rng rng;
  uint64_t next_op = 0;

  ~World() {
    if (runtime) runtime->Stop();
  }
};

struct Totals {
  LatencyRecorder read, write;
  uint64_t attempted = 0, failed = 0, ok_ops = 0;
  uint64_t user_reads = 0, user_bytes_written = 0;
  uint64_t submit_rejects = 0;
  uint64_t first_exhausted_op = 0;
  std::vector<Span> spans;
};

struct Names {
  uint16_t get = 0, put = 0, submit = 0;
};

// Fills slot `s` with an op on `key` (a put's value is already stamped
// in its buffer) and submits it on the client's queue pair, stamping
// the submit time for the queue-wait histogram when traced. Returns
// how often the ring refused it.
uint64_t Issue(World& w, Slot& s, ipc::OpCode op, uint32_t key,
               telemetry::Telemetry* tel) {
  ipc::Request* req = s.req;
  uint8_t* const data = req->data;
  req->Reuse();
  req->data = data;
  req->client_uid = w.channel.creds.uid;
  req->stack_id = w.stack->id;
  req->op = op;
  req->SetPath(w.paths[key]);
  req->length = kValue;
  if (tel != nullptr) req->submit_ns = tel->NowNs();
  s.busy = true;
  uint64_t rejects = 0;
  s.t0 = NowNs();
  while (!w.channel.qp->Submit(req)) {
    ++rejects;
    std::this_thread::yield();
  }
  w.channel.qp->total_submitted.fetch_add(1, std::memory_order_relaxed);
  w.runtime->RingDoorbell();
  return rejects;
}

// Drives the pipeline until `deadline` (or until `max_ops` ops have
// been issued), then drains it. `totals` is null during set-up.
void Pump(World& w, uint64_t seed, uint64_t deadline, uint64_t max_ops,
          telemetry::Telemetry* tel, Verifier& verifier, FailureLog& failures,
          Totals* totals, const Names* names, uint32_t parent) {
  std::vector<uint32_t> free_slots;
  for (uint32_t i = 0; i < w.slots.size(); ++i) free_slots.push_back(i);
  Op pending;
  bool have_pending = false;
  uint64_t issued = 0;
  uint32_t busy = 0;
  ipc::QueuePair* qp = w.channel.qp;
  const uint64_t pass_base = w.next_op;
  while (true) {
    bool stop = issued >= max_ops || NowNs() >= deadline;
    while (!stop && !free_slots.empty()) {
      if (!have_pending) {
        pending.is_put = w.rng.NextDouble() < kPutShare;
        pending.key = static_cast<uint32_t>(w.zipf->Sample(w.rng.NextDouble()));
        have_pending = true;
      }
      KeyState& ks = w.keys[pending.key];
      // Puts to one key are serialized so its version order is known.
      if (pending.is_put && ks.put_inflight) break;
      have_pending = false;
      Slot& s = w.slots[free_slots.back()];
      free_slots.pop_back();
      s.op = pending;
      s.op_index = ++w.next_op;
      if (pending.is_put) {
        s.version = ++ks.issued;
        ks.put_inflight = true;
        Stamp(s.req->data, seed, pending.key, s.version);
      } else {
        s.acked_at_issue = ks.acked;
        s.inflight_at_issue = ks.put_inflight ? ks.issued : 0;
        s.issued_at_issue = ks.issued;
      }
      ++busy;
      ++issued;
      const uint64_t rejects =
          Issue(w, s, pending.is_put ? ipc::OpCode::kPut : ipc::OpCode::kGet,
                pending.key, tel);
      if (totals != nullptr) totals->submit_rejects += rejects;
      const uint64_t t_sub = NowNs();
      if (totals != nullptr && names != nullptr) {
        const uint32_t op_span = static_cast<uint32_t>(totals->spans.size());
        totals->spans.push_back(Span{s.t0, 0, parent,
                                     pending.is_put ? names->put : names->get,
                                     0, static_cast<uint32_t>(s.op_index)});
        totals->spans.push_back(Span{s.t0, t_sub - s.t0,
                                     0x80000000u | op_span, names->submit, 0,
                                     static_cast<uint32_t>(s.op_index)});
        s.span = op_span + 1;
      }
      stop = issued >= max_ops || NowNs() >= deadline;
    }
    if (stop && busy == 0) break;
    // Completion notifications are drained so the cq never fills; the
    // request state is what signals completion.
    while (qp->PollCompletion().has_value()) {
    }
    for (uint32_t i = 0; i < w.slots.size(); ++i) {
      Slot& s = w.slots[i];
      if (!s.busy || !s.req->IsDone()) continue;
      const uint64_t t1 = NowNs();
      s.busy = false;
      --busy;
      free_slots.push_back(i);
      KeyState& ks = w.keys[s.op.key];
      Status st = s.req->ToStatus();
      if (st.ok() && !s.op.is_put && s.req->result_u64 != kValue) {
        st = Status::Internal("get returned " +
                              std::to_string(s.req->result_u64) + " bytes");
      }
      if (s.op.is_put) {
        ks.put_inflight = false;
        if (st.ok()) ks.acked = s.version;
      } else if (st.ok()) {
        const int64_t v = StampedVersion(s.req->data, seed, s.op.key);
        // Linearizable outcomes: the value acknowledged when the get
        // was issued, a put in flight at issue, or a put issued while
        // the get was in flight.
        const bool valid =
            v >= 0 && (static_cast<uint32_t>(v) == s.acked_at_issue ||
                       (s.inflight_at_issue != 0 &&
                        static_cast<uint32_t>(v) == s.inflight_at_issue) ||
                       (static_cast<uint32_t>(v) > s.issued_at_issue &&
                        static_cast<uint32_t>(v) <= ks.issued));
        if (!valid) {
          verifier.Mismatch("kvs_pipelined: get of key " +
                            std::to_string(s.op.key) + " returned " +
                            (v < 0 ? std::string("a malformed value")
                                   : "version " + std::to_string(v)) +
                            ", last acknowledged put is version " +
                            std::to_string(s.acked_at_issue));
        }
      }
      if (totals == nullptr) {
        if (!st.ok()) Fatal("kvs_pipelined set-up op failed: " + st.ToString());
        continue;
      }
      ++totals->attempted;
      if (st.ok()) {
        ++totals->ok_ops;
        (s.op.is_put ? totals->write : totals->read).Record(t1 - s.t0);
        if (s.op.is_put) {
          totals->user_bytes_written += kValue;
        } else {
          ++totals->user_reads;
        }
      } else {
        ++totals->failed;
        const Status named(st.code(),
                           std::string(s.op.is_put ? "put" : "get") +
                               " of key " + std::to_string(s.op.key) +
                               " failed");
        failures.Note(s.op_index - pass_base, named);
        if (st.code() == StatusCode::kResourceExhausted &&
            totals->first_exhausted_op == 0) {
          totals->first_exhausted_op = s.op_index - pass_base;
        }
      }
      if (s.span != 0) {
        totals->spans[s.span - 1].dur_ns = t1 - s.t0;
        s.span = 0;
      }
    }
  }
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
  w->stack = *stack;
  CheckOk(w->runtime->Start(), "runtime start");
  auto channel = w->runtime->ipc().Connect(ipc::Credentials{300, 1000, 1000});
  CheckOk(channel.status(), "connect");
  w->channel = *channel;
  for (uint32_t i = 0; i < kDepth; ++i) {
    Slot s;
    s.req = w->channel.NewRequest(kValue);
    if (s.req == nullptr) Fatal("client segment exhausted");
    w->slots.push_back(s);
  }
  w->keys.resize(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) {
    w->paths.push_back("kvs::/ycsb/user" + std::to_string(k));
  }
  w->zipf = std::make_unique<Zipf>(kKeys, kZipfTheta, Mix64(seed, 0x2000));
  w->rng.Seed(Mix64(seed, 0x2001));

  // Preload: one put per key, pipelined through the same slots.
  const uint64_t t_preload = NowNs();
  Verifier verifier;
  FailureLog failures;
  {
    std::vector<uint32_t> free_slots;
    for (uint32_t i = 0; i < kDepth; ++i) free_slots.push_back(i);
    uint32_t next_key = 0, done = 0;
    ipc::QueuePair* qp = w->channel.qp;
    while (done < kKeys) {
      while (next_key < kKeys && !free_slots.empty()) {
        Slot& s = w->slots[free_slots.back()];
        free_slots.pop_back();
        Stamp(s.req->data, seed, next_key, 1);
        s.op = Op{true, next_key};
        Issue(*w, s, ipc::OpCode::kPut, next_key++, nullptr);
      }
      while (qp->PollCompletion().has_value()) {
      }
      for (uint32_t i = 0; i < kDepth; ++i) {
        Slot& s = w->slots[i];
        if (!s.busy || !s.req->IsDone()) continue;
        CheckOk(s.req->ToStatus(), "preload put");
        s.busy = false;
        w->keys[s.op.key].acked = w->keys[s.op.key].issued = 1;
        free_slots.push_back(i);
        ++done;
      }
    }
  }
  const uint64_t t_warm = NowNs();
  Pump(*w, seed, ~uint64_t{0}, kWarmupOps, tel, verifier, failures, nullptr,
       nullptr, 0);
  if (verifier.mismatches() != 0) Fatal(verifier.first());
  const uint64_t t_end = NowNs();
  if (spans != nullptr) {
    const uint32_t id = spans->Add(Span{
        t_setup, t_end - t_setup, 0, spans->Name("setup"),
        0, 0});
    spans->Add(Span{t_preload, t_warm - t_preload, id,
                    spans->Name("preload"), 0, 0});
    spans->Add(Span{t_warm, t_end - t_warm, id,
                    spans->Name("warmup"), 0, 0});
  }
  return w;
}

struct PassResult {
  Totals totals;
  double measure_s = 0;
  LayerCounters before, after;
};

PassResult Measure(World& w, uint64_t seed, uint64_t ops,
                   telemetry::Telemetry* tel, Verifier& verifier,
                   FailureLog& failures, SpanLog* spans) {
  PassResult r;
  Names names;
  uint32_t measure_id = 0;
  if (spans != nullptr) {
    names.get = spans->Name("generickvs.get");
    names.put = spans->Name("generickvs.put");
    names.submit = spans->Name("ipc.submit");
    measure_id = spans->Add(Span{NowNs(), 0, 0, spans->Name("measure"), 0, 0});
  }
  r.before = ReadLayerCounters(*w.runtime, "kvs_y", "");
  const uint64_t t0 = NowNs();
  Pump(w, seed, ~uint64_t{0}, ops, tel, verifier, failures, &r.totals,
       spans ? &names : nullptr, measure_id);
  const uint64_t t1 = NowNs();
  r.measure_s = static_cast<double>(t1 - t0) / 1e9;
  r.after = ReadLayerCounters(*w.runtime, "kvs_y", "");
  if (spans != nullptr) {
    spans->Finish(measure_id, t1);
    spans->Append(std::move(r.totals.spans));
  }
  return r;
}

}  // namespace

WorkloadResult RunKvsPipelined(const RunArgs& args) {
  WorkloadResult out;
  out.threads = 1 + kWorkers;
  Verifier verifier;
  FailureLog failures;

  // Trials are bounded by op count, not time, so every trial crosses
  // the log limit whatever the speed; the run repeats them until its
  // untraced time is spent (half the run when traced).
  const uint64_t budget_ns = static_cast<uint64_t>(
      (args.trace ? args.seconds / 2 : args.seconds) * 1e9);
  const uint64_t t_begin = NowNs();
  std::vector<double> setup_times;
  std::vector<std::vector<Metric>> per_trial;
  double peak_rss_mb = 0;  // after the first trial: later set-ups only add heap churn
  std::vector<double> exhausted_at;
  for (int i = 0; i == 0 || NowNs() - t_begin < budget_ns; ++i) {
    const uint64_t t0 = NowNs();
    auto world = Setup(args.seed, nullptr, nullptr);
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    PassResult p = Measure(*world, args.seed, kTrialOps, nullptr, verifier,
                           failures, nullptr);
    out.attempted += p.totals.attempted;
    out.failed += p.totals.failed;
    if (i == 0) peak_rss_mb = PeakRssMb();
    per_trial.push_back(RateAndLatency(
        static_cast<double>(p.totals.ok_ops) / p.measure_s, p.totals.read,
        p.totals.write));
    exhausted_at.push_back(static_cast<double>(p.totals.first_exhausted_op));
    if (i == 0) {
      out.notes.push_back("labkvs log fill after a trial: " +
                          std::to_string(p.after.log_records) + " of " +
                          std::to_string(p.after.log_capacity) + " records");
    }
  }
  const std::vector<Metric> untraced = MedianOfTrials(per_trial);
  const double ops_per_s = untraced.front().value;

  if (!args.trace) {
    out.end_to_end = untraced;
    out.E2e("setup_s", Median(setup_times), "s");
    out.E2e("peak_rss_mb", peak_rss_mb, "MiB");
    out.Extra("labmods.labkvs.first_exhausted_op", Median(exhausted_at), "op");
  } else {
    telemetry::Telemetry tel;
    SpanLog spans;
    auto world = Setup(args.seed, &tel, &spans);
    tel.metrics().Reset();
    PassResult traced = Measure(*world, args.seed, kTrialOps, &tel,
                                verifier, failures, &spans);
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
    out.Layer("ipc.submit_ns_p50", spans.P50Us("ipc.submit") * 1e3, "ns");
    out.Layer("ipc.submit_rejects_per_op",
              traced.totals.attempted == 0
                  ? 0.0
                  : static_cast<double>(traced.totals.submit_rejects) /
                        static_cast<double>(traced.totals.attempted),
              "1/op");
    AddStoreLayerMetrics(out, traced.before, traced.after,
                         traced.totals.attempted, traced.totals.user_reads,
                         traced.totals.user_bytes_written, /*labfs=*/false);
    out.Layer("labmods.labkvs.first_exhausted_op",
              static_cast<double>(traced.totals.first_exhausted_op), "op");
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
