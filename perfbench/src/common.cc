#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"

namespace perfbench {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  count_ += other.count_;
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
}

double LatencyRecorder::MidNs(size_t b) {
  if (b < kLinearNs) return static_cast<double>(b);
  const size_t shift = (b - kLinearNs) / kSubBuckets + 1;
  const uint64_t low = (kSubBuckets + (b - kLinearNs) % kSubBuckets) << shift;
  return static_cast<double>(low) + static_cast<double>(uint64_t{1} << shift) / 2;
}

double LatencyRecorder::PercentileUs(double p) const {
  if (count_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  size_t i = 0;
  for (; i + 1 < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) break;
  }
  return MidNs(i) / 1e3;
}

void FailureLog::Note(uint64_t op_index, const labstor::Status& st) {
  std::lock_guard<std::mutex> lock(mu_);
  if (first_op_ == 0 || op_index < first_op_) {
    first_op_ = op_index;
    first_status_ = st.ToString();
  }
}

void Verifier::Mismatch(const std::string& what) {
  if (count_.fetch_add(1) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    first_ = what;
  }
}

uint16_t SpanLog::Name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

uint32_t SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::Finish(uint32_t id, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  s.dur_ns = end_ns - s.start_ns;
}

void SpanLog::Append(std::vector<Span>&& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  // Parents with the top bit set index into the batch itself.
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span& s : spans) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      continue;
    }
    if ((s.parent & 0x80000000u) != 0) {
      s.parent = base + (s.parent & 0x7FFFFFFFu) + 1;
    }
    spans_.push_back(s);
  }
  spans.clear();
}

double SpanLog::P50Us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint16_t id = 0;
  bool found = false;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      id = static_cast<uint16_t>(i);
      found = true;
    }
  }
  if (!found) return 0.0;
  std::vector<uint64_t> durs;
  for (const Span& s : spans_) {
    if (s.name == id) durs.push_back(s.dur_ns);
  }
  if (durs.empty()) return 0.0;
  std::sort(durs.begin(), durs.end());
  return durs[(durs.size() + 1) / 2 - 1] / 1e3;  // rank ceil(n / 2)
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string header = "{\"format\": \"perfbench-spans-1\", \"record\": "
                       "\"<Q start_ns, Q dur_ns, I parent, H name, H thread, "
                       "I op, I reserved> little-endian, 32 bytes\", \"count\": " +
                       std::to_string(spans_.size()) +
                       ", \"dropped\": " + std::to_string(dropped_) +
                       ", \"names\": [";
  for (size_t i = 0; i < names_.size(); ++i) {
    header += (i == 0 ? "\"" : ", \"") + names_[i] + "\"";
  }
  header += "]}\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  static_assert(sizeof(Span) == 32, "span records are 32 bytes");
  if (!spans_.empty()) {
    ok = ok && std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f) ==
                   spans_.size();
  }
  return std::fclose(f) == 0 && ok;
}

std::vector<Metric> RateAndLatency(double ops_per_s, const LatencyRecorder& read,
                                   const LatencyRecorder& write) {
  return {{"ops_per_s", ops_per_s, "ops/s"},
          {"read_p50_us", read.PercentileUs(0.50), "us"},
          {"read_p99_us", read.PercentileUs(0.99), "us"},
          {"write_p50_us", write.PercentileUs(0.50), "us"},
          {"write_p99_us", write.PercentileUs(0.99), "us"}};
}

std::vector<Metric> MedianOfTrials(
    const std::vector<std::vector<Metric>>& trials) {
  std::vector<Metric> out;
  if (trials.empty()) return out;
  out = trials.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& t : trials) values.push_back(t[m].value);
    out[m].value = Median(values);
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

labstor::core::StackSpec MustParseStack(const std::string& yaml) {
  auto spec = labstor::core::StackSpec::Parse(yaml);
  if (!spec.ok()) Fatal("stack parse failed: " + spec.status().ToString());
  return *spec;
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const labstor::Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what + ": " + st.ToString());
}

Zipf::Zipf(uint64_t n, double theta, uint64_t seed) : cdf_(n), perm_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (uint64_t i = 0; i < n; ++i) perm_[i] = static_cast<uint32_t>(i);
  labstor::Rng rng(seed);
  for (uint64_t i = n - 1; i > 0; --i) {
    std::swap(perm_[i], perm_[rng.Uniform(i + 1)]);
  }
}

uint64_t Zipf::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = it == cdf_.end() ? cdf_.size() - 1
                                       : static_cast<size_t>(it - cdf_.begin());
  return perm_[rank];
}

}  // namespace perfbench
