// The three app mixes and the metric catalog. README.md says why each mix
// was chosen and which layer metric should move which end-to-end metric.
#include "cpp/bench.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"sync-heavy",
       {{"water-ns", 2},
        {"ferret", 4},
        {"bfs", 2},
        {"dedup", 1},
        {"canneal", 4},
        {"pca", 16}}},
      {"bulk-sharing",
       {{"ocean", 16},
        {"lu-con", 16},
        {"lu-non", 8},
        {"fft", 32},
        {"radix", 32},
        {"pagerank", 32}}},
      {"compute-bound",
       {{"matrix_multiply", 16},
        {"string_match", 16},
        {"linear_regression", 16},
        {"blackscholes", 16},
        {"wordcount", 16},
        {"swaptions", 16},
        {"racey", 16}}},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kAll = {
      {"slowdown_x", "x"},
      {"pf_slowdown_x", "x"},
      {"setup_s", "s"},
      {"mem_peak_mb", "MB"},
  };
  return kAll;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kAll = {
      {"env.create_ms", "ms"},
      {"env.destroy_ms", "ms"},
      {"mem.store_calls", "count"},
      {"mem.load_calls", "count"},
      {"mem.store_mb", "MB"},
      {"mem.load_mb", "MB"},
      {"mem.tick_calls", "count"},
      {"mem.access_ns", "ns"},
      {"mem.stores_with_copy", "count"},
      {"mem.pages_diffed", "count"},
      {"mem.page_faults", "count"},
      {"mem.mprotect_calls", "count"},
      {"mem.resident_mb", "MB"},
      {"sync.lock_p50_us", "us"},
      {"sync.lock_p99_us", "us"},
      {"sync.unlock_p50_us", "us"},
      {"sync.unlock_p99_us", "us"},
      {"sync.condwait_p50_us", "us"},
      {"sync.condwait_p99_us", "us"},
      {"sync.atomic_p50_us", "us"},
      {"sync.atomic_p99_us", "us"},
      {"sync.busy_share", "frac"},
      {"sync.lock_growth_x", "x"},
      {"sync.barrier_calls", "count"},
      {"kendo.park_ms", "ms"},
      {"kendo.turn_parks", "count"},
      {"kendo.turn_spins", "count"},
      {"kendo.handoffs", "count"},
      {"kendo.wakeups", "count"},
      {"kendo.handoff_frac", "frac"},
      {"slice.created", "count"},
      {"slice.merged", "count"},
      {"slice.merge_frac", "frac"},
      {"slice.close_turn_ms", "ms"},
      {"slice.close_us_per_slice", "us"},
      {"slice.offturn_prepared", "count"},
      {"prop.slices", "count"},
      {"prop.mb", "MB"},
      {"prop.plans_built", "count"},
      {"prop.plan_reuse_frac", "frac"},
      {"prop.prelock_frac", "frac"},
      {"prop.coalesced_spans", "count"},
      {"prop.coalesce_saved_frac", "frac"},
      {"prop.lazy_pages_applied", "count"},
      {"gc.runs", "count"},
      {"gc.slices_pruned", "count"},
      {"gc.metadata_peak_mb", "MB"},
      {"gc.arena_retries", "count"},
      {"gc.metadata_overflows", "count"},
      {"thread.spawn_p50_us", "us"},
      {"thread.join_wait_ms", "ms"},
      {"alloc.malloc_calls", "count"},
      {"alloc.malloc_p50_us", "us"},
      {"exec.regions", "count"},
      {"exec.items", "count"},
      {"exec.donations", "count"},
      {"verify.record_x", "x"},
      {"verify.verify_x", "x"},
      {"app.max_slowdown_x", "x"},
      {"app.min_slowdown_x", "x"},
      {"trace.overhead_x", "x"},
      {"run.wall_s", "s"},
      {"run.pf_wall_s", "s"},
  };
  return kAll;
}

}  // namespace perfbench
