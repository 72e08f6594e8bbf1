// Per-layer numbers of the real-mode workloads, read from counters the
// LabStor modules already expose (Runtime, LabMods, SimDevice) and from
// the telemetry sink attached in traced runs.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/runtime.h"
#include "telemetry/metrics.h"

namespace perfbench {

struct LayerCounters {
  // core
  uint64_t requests = 0;
  uint64_t idle_sleeps = 0;
  uint64_t doorbell_rings = 0;
  uint64_t generation = 0;
  uint64_t client_retries = 0;
  // labmods
  uint64_t lru_hits = 0;
  uint64_t lru_misses = 0;
  uint64_t lru_resident = 0;
  uint64_t log_records = 0;
  uint64_t log_capacity = 0;
  uint64_t allocator_steals = 0;
  uint64_t kvs_keys = 0;
  bool fused = false;
  // simdev
  uint64_t dev_reads = 0;
  uint64_t dev_bytes_written = 0;
};

// `store_uuid` names the labfs or labkvs instance, `lru_uuid` the LRU
// cache (empty when the stack has none).
LayerCounters ReadLayerCounters(labstor::core::Runtime& runtime,
                                const std::string& store_uuid,
                                const std::string& lru_uuid);

// ipc.* and core.* from the telemetry histograms and counter deltas;
// per-op ratios divide by the `ops` attempted. `op_p50_us` is the
// traced op latency p50 seen by the client.
void AddAsyncLayerMetrics(WorkloadResult& out,
                          const labstor::telemetry::MetricsSnapshot& snap,
                          const LayerCounters& before,
                          const LayerCounters& after, uint64_t ops,
                          double op_p50_us);

// labmods.* (LRU, labfs/labkvs log) and simdev.* deltas.
void AddStoreLayerMetrics(WorkloadResult& out, const LayerCounters& before,
                          const LayerCounters& after, uint64_t ops,
                          uint64_t user_reads, uint64_t user_bytes_written,
                          bool labfs = true);

// Nearest-rank style percentile of a telemetry histogram, ns -> us
// unless `raw`.
double HistPercentile(const labstor::telemetry::MetricsSnapshot& snap,
                      const std::string& name, double p, bool raw = false);

void WriteSpans(const SpanLog& spans, const RunArgs& args);

}  // namespace perfbench
