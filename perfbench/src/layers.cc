#include "layers.h"

#include <sys/stat.h>

#include <cstdio>

#include "labmods/labfs.h"
#include "labmods/labkvs.h"
#include "labmods/lru_cache.h"

namespace perfbench {

using namespace labstor;

namespace {
double PerOp(uint64_t delta, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(delta) / static_cast<double>(ops);
}
}  // namespace

LayerCounters ReadLayerCounters(core::Runtime& runtime,
                                const std::string& store_uuid,
                                const std::string& lru_uuid) {
  LayerCounters c;
  c.requests = runtime.requests_processed();
  c.idle_sleeps = runtime.idle_sleeps();
  c.doorbell_rings = runtime.doorbell_rings();
  c.generation = runtime.assignment_generation();
  if (!lru_uuid.empty()) {
    if (auto mod = runtime.registry().Find(lru_uuid); mod.ok()) {
      if (auto* lru = dynamic_cast<labmods::LruCacheMod*>(*mod)) {
        c.lru_hits = lru->hits();
        c.lru_misses = lru->misses();
        c.lru_resident = lru->resident_pages();
      }
    }
  }
  if (auto mod = runtime.registry().Find(store_uuid); mod.ok()) {
    if (auto* fs = dynamic_cast<labmods::LabFsMod*>(*mod)) {
      c.log_records = fs->log_records();
      c.log_capacity = fs->log()->region_bytes() / sizeof(labmods::LogRecord);
      c.allocator_steals = fs->allocator_steals();
    } else if (auto* kvs = dynamic_cast<labmods::LabKvsMod*>(*mod)) {
      c.log_records = kvs->log()->records_appended();
      c.log_capacity = kvs->log()->region_bytes() / sizeof(labmods::LogRecord);
      c.kvs_keys = kvs->key_count();
    }
  }
  if (auto dev = runtime.devices().Find("nvme0"); dev.ok()) {
    c.dev_reads = (*dev)->stats().reads.load();
    c.dev_bytes_written = (*dev)->stats().bytes_written.load();
  }
  return c;
}

double HistPercentile(const telemetry::MetricsSnapshot& snap,
                      const std::string& name, double p, bool raw) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count() == 0) return 0.0;
  const double v = static_cast<double>(it->second.Percentile(p * 100.0));
  return raw ? v : v / 1e3;
}

void AddAsyncLayerMetrics(WorkloadResult& out,
                          const telemetry::MetricsSnapshot& snap,
                          const LayerCounters& before,
                          const LayerCounters& after, uint64_t ops,
                          double op_p50_us) {
  const double wait50 = HistPercentile(snap, "ipc.queue.wait_ns", 0.50);
  const double exec50 = HistPercentile(snap, "runtime.worker.exec_ns", 0.50);
  out.Layer("ipc.queue_wait_us_p50", wait50, "us");
  out.Layer("ipc.queue_wait_us_p99",
            HistPercentile(snap, "ipc.queue.wait_ns", 0.99), "us");
  out.Layer("ipc.queue_depth_p99",
            HistPercentile(snap, "ipc.queue.depth", 0.99, /*raw=*/true),
            "requests");
  out.Layer("core.worker_exec_us_p50", exec50, "us");
  out.Layer("core.worker_exec_us_p99",
            HistPercentile(snap, "runtime.worker.exec_ns", 0.99), "us");
  out.Layer("core.client_overhead_us_p50", op_p50_us - wait50 - exec50, "us");
  out.Layer("core.idle_sleeps_per_op",
            PerOp(after.idle_sleeps - before.idle_sleeps, ops), "1/op");
  out.Layer("core.doorbell_rings_per_op",
            PerOp(after.doorbell_rings - before.doorbell_rings, ops), "1/op");
  out.Layer("core.rebalances",
            static_cast<double>(after.generation - before.generation), "count");
  out.Layer("core.requests_per_op",
            PerOp(after.requests - before.requests, ops), "1/op");
  out.Layer("core.client_retries",
            static_cast<double>(after.client_retries - before.client_retries),
            "count");
}

void AddStoreLayerMetrics(WorkloadResult& out, const LayerCounters& before,
                          const LayerCounters& after, uint64_t ops,
                          uint64_t user_reads, uint64_t user_bytes_written,
                          bool labfs) {
  const uint64_t hits = after.lru_hits - before.lru_hits;
  const uint64_t misses = after.lru_misses - before.lru_misses;
  if (hits + misses > 0) {
    out.Layer("labmods.lru_cache.hit_ratio",
              static_cast<double>(hits) / static_cast<double>(hits + misses),
              "fraction");
    out.Layer("labmods.lru_cache.resident_pages",
              static_cast<double>(after.lru_resident), "pages");
  }
  const char* store = labfs ? "labmods.labfs." : "labmods.labkvs.";
  out.Layer(std::string(store) + "log_records_per_op",
            PerOp(after.log_records - before.log_records, ops), "1/op");
  out.Layer(std::string(store) + "log_fill_frac",
            after.log_capacity == 0
                ? 0.0
                : static_cast<double>(after.log_records) /
                      static_cast<double>(after.log_capacity),
            "fraction");
  if (labfs) {
    out.Layer("labmods.labfs.allocator_steals",
              static_cast<double>(after.allocator_steals), "count");
  } else {
    out.Layer("labmods.labkvs.key_count", static_cast<double>(after.kvs_keys),
              "keys");
  }
  out.Layer("simdev.bytes_written_per_user_byte",
            PerOp(after.dev_bytes_written - before.dev_bytes_written,
                  user_bytes_written),
            "B/B");
  out.Layer("simdev.reads_per_user_read",
            PerOp(after.dev_reads - before.dev_reads, user_reads), "1/op");
}

void WriteSpans(const SpanLog& spans, const RunArgs& args) {
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string path = args.out_dir + "/" + args.workload + ".spans";
  if (!spans.Write(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
