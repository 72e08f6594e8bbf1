// Shared pieces of the benchmark binary: run arguments, the result
// record every workload fills, a fixed-memory latency recorder, the
// in-memory span log of traced runs, and first-failure bookkeeping.
//
// Nothing here instruments LabStor itself: the workloads time public
// calls from outside and read counters the modules already expose.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/stack.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for span dumps of traced runs.
  std::string out_dir = ".bench_out";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// SplitMix64 finalizer: the benchmark's one hash for deriving seeds
// and data stamps.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
inline uint64_t Mix64(uint64_t a, uint64_t b) { return Mix64(a ^ Mix64(b)); }

// Latency recorder with fixed memory (so peak RSS does not grow with
// throughput): 1 ns buckets below 2048 ns, then 1024 buckets per power
// of two (0.1% precision) up to 2^64 ns. Sub-microsecond ops such as an
// inline stat would otherwise move by whole buckets between runs.
// Percentiles use the nearest-rank definition (rank = ceil(n * p)).
class LatencyRecorder {
 public:
  static constexpr uint64_t kLinearNs = 2048;
  static constexpr uint64_t kSubBuckets = 1024;
  static constexpr size_t kBuckets = kLinearNs + (64 - 11) * kSubBuckets;

  LatencyRecorder() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++count_;
    ++counts_[Bucket(ns)];
  }
  void Merge(const LatencyRecorder& other);
  uint64_t count() const { return count_; }
  // p in (0, 1]; returns microseconds (bucket midpoint), 0 when empty.
  double PercentileUs(double p) const;

 private:
  static size_t Bucket(uint64_t ns) {
    if (ns < kLinearNs) return ns;
    const int shift = 63 - __builtin_clzll(ns) - 10;  // keep 11 bits
    return kLinearNs + (shift - 1) * kSubBuckets + ((ns >> shift) - kSubBuckets);
  }
  // Midpoint of bucket `b` in nanoseconds.
  static double MidNs(size_t b);

  uint64_t count_ = 0;
  std::vector<uint32_t> counts_;
};

// First failing status of a run and the (1-based) index of the op that
// returned it, across all client threads.
class FailureLog {
 public:
  void Note(uint64_t op_index, const labstor::Status& st);
  uint64_t first_op() const { return first_op_; }
  const std::string& first_status() const { return first_status_; }

 private:
  std::mutex mu_;
  uint64_t first_op_ = 0;
  std::string first_status_;
};

// Output mismatches: any one makes the run incorrect.
class Verifier {
 public:
  void Mismatch(const std::string& what);
  uint64_t mismatches() const { return count_.load(); }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::atomic<uint64_t> count_{0};
  mutable std::mutex mu_;
  std::string first_;
};

// Spans recorded by the benchmark's own code in traced runs: one per
// phase (setup, preload, measure) and one per op, plus sub-spans
// around calls into a layer. Held in memory, written at exit.
struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t parent = 0;  // index + 1 of the causing span, 0 = root
  uint16_t name = 0;
  uint16_t thread = 0;
  uint32_t op = 0;  // op index within the thread (0 for phases)
  uint32_t reserved = 0;
};

class SpanLog {
 public:
  // Caps memory at kMaxSpans; spans beyond it are counted, not kept.
  static constexpr size_t kMaxSpans = 2'000'000;

  uint16_t Name(const std::string& name);
  // Reserves a slot and returns its 1-based id (0 when full).
  uint32_t Add(const Span& span);
  // Sets the end of span `id` (a phase added before its work ran).
  void Finish(uint32_t id, uint64_t end_ns);
  // Appends a thread's own buffer (kept to avoid a shared lock on the
  // op path); parents with the top bit set index into that buffer.
  void Append(std::vector<Span>&& spans);
  // Nearest-rank p50 (microseconds) of the spans named `name`.
  double P50Us(const std::string& name) const;
  // Binary dump: one JSON header line (names, count, record layout)
  // followed by packed Span records.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// One metric of the result record.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload returns to main.
struct WorkloadResult {
  bool correct = true;
  std::string first_mismatch;
  uint64_t mismatches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t first_failed_op = 0;
  std::string first_failure;
  uint32_t threads = 0;  // threads the workload runs, Runtime workers included
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Workload-specific end-to-end numbers (printed, not gated).
  std::vector<Metric> extra;
  std::vector<std::string> notes;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
};

// Untraced runs are split into trials of about `trial_seconds` each.
inline int TrialCount(double seconds, double trial_seconds) {
  return seconds < 2 * trial_seconds
             ? 1
             : static_cast<int>(seconds / trial_seconds);
}

double Median(std::vector<double> v);
// The five latency/throughput metrics every workload reports.
std::vector<Metric> RateAndLatency(double ops_per_s, const LatencyRecorder& read,
                                   const LatencyRecorder& write);
// Per-metric median over trials that each report the same list. A run
// is several trials (fresh set-up, measure) so that one disturbed
// stretch of a shared host does not decide the run's numbers.
std::vector<Metric> MedianOfTrials(
    const std::vector<std::vector<Metric>>& trials);
double PeakRssMb();
labstor::core::StackSpec MustParseStack(const std::string& yaml);
// Aborts the run with a message (for set-up steps that must succeed).
[[noreturn]] void Fatal(const std::string& what);
void CheckOk(const labstor::Status& st, const std::string& what);

// Zipf(theta) over [0, n) by inverse CDF; ranks are scrambled by a
// seeded permutation so hot items spread over the key space.
class Zipf {
 public:
  Zipf(uint64_t n, double theta, uint64_t seed);
  uint64_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> perm_;
};

WorkloadResult RunFsRwAsync(const RunArgs& args);
WorkloadResult RunKvsPipelined(const RunArgs& args);
WorkloadResult RunFsMetaSync(const RunArgs& args);
WorkloadResult RunDesClusterOpen(const RunArgs& args);

}  // namespace perfbench
