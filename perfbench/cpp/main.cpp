// perfbench entry point.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--smoke] [--out-dir=<dir>]
//   perfbench --selftest
//
// One process runs the workload's apps closed-loop, one app at a time, each
// on a fresh dmt::Env with 4 worker threads. Until --seconds have passed,
// each pass runs every app, on an input of its own drawn from --seed, under
// pthreads (several times: its runs are short), rfdet-ci and rfdet-pf, and
// checks every signature. After the timed passes every app does one
// fingerprint record -> verify round-trip under rfdet-ci (harness::DetCheck;
// its file goes to $TMPDIR). --trace 1 adds a rfdet-ci run wrapped in
// TracedEnv to each pass and reports per-layer metrics instead of end-to-end
// ones; the spans of the first traced pass are written as Chrome trace-event
// JSON. --smoke runs every app at scale 1. README.md has the details.
//
// The last stdout line is "PERFBENCH_RESULT <json>"; every line before it
// is for people. A record of the host, sizes, seed and metrics goes to
// --out-dir.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cpp/bench.h"
#include "cpp/traced_env.h"
#include "rfdet/harness/harness.h"
#include "rfdet/simd/kernels.h"

namespace perfbench {
namespace {

constexpr size_t kThreads = 4;        // the paper's Figure 7 setting
constexpr int kPthreadsReps = 3;      // pthreads runs per app per pass
constexpr double kAppBoundS = 60.0;   // wall bound of one app run
constexpr size_t kMaxTraceSpans = 400'000;

struct Options {
  explicit Options(const harness::Flags& flags)
      : workload(flags.Str("workload", "")),
        seed(static_cast<uint64_t>(flags.Int("seed", 1))),
        seconds(std::strtod(flags.Str("seconds", "10").c_str(), nullptr)),
        trace(flags.Bool("trace", false)),
        smoke(flags.Bool("smoke", false)),
        out_dir(flags.Str("out-dir", ".")) {}

  std::string workload;
  uint64_t seed;
  double seconds;
  bool trace;
  bool smoke;
  std::string out_dir;
};

// A measurement must not depend on the caller's environment: refuse the
// runtime's tuning overrides and anything but a Release build.
std::string HermeticError() {
  for (const char* var : {"RFDET_KERNELS", "RFDET_TURN_WAIT",
                          "RFDET_EXEC_GRAIN", "RFDET_COALESCE"}) {
    if (std::getenv(var) != nullptr) {
      return std::string(var) + " is set; unset it to measure";
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  return "";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();  // drop the NUL padding
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

// Nearest-rank percentile; 0 without samples.
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * xs.size()));
  return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

dmt::BackendConfig Config(dmt::BackendKind kind) {
  dmt::BackendConfig c;
  c.kind = kind;
  c.region_bytes = 64u << 20;
  c.static_bytes = 32u << 20;
  return c;
}

struct Run {
  double create_s = 0, run_s = 0, destroy_s = 0;
  uint64_t signature = 0;
  rfdet::StatsSnapshot stats;
};

// One app run on a fresh Env; `trace` wraps the Env in a TracedEnv.
Run RunOnce(const apps::Workload& app, const apps::Params& params,
            dmt::BackendKind kind, Watchdog& dog, RunTrace* trace = nullptr) {
  const dmt::BackendConfig config = Config(kind);
  dog.Arm(app.Name() + " on " + std::string(dmt::ToString(kind)) +
          (trace ? " (traced)" : ""));
  Run out;
  const uint64_t t0 = NowNs();
  std::unique_ptr<dmt::Env> env;
  if (trace) {
    env = TracedEnv::Create(config, *trace);
  } else {
    env = dmt::CreateEnv(config);
  }
  const uint64_t t1 = NowNs();
  out.signature = app.Run(*env, params).signature;
  const uint64_t t2 = NowNs();
  out.stats = env->Stats();
  const uint64_t t3 = NowNs();
  env.reset();
  const uint64_t t4 = NowNs();
  dog.Disarm();
  if (trace) trace->root = {t1, t2 - t1, Op::kRun};
  out.create_s = static_cast<double>(t1 - t0) / 1e9;
  out.run_s = static_cast<double>(t2 - t1) / 1e9;
  out.destroy_s = static_cast<double>(t4 - t3) / 1e9;
  return out;
}

// Each pass runs its own input, drawn from the run's seed, so a run's
// medians average over several inputs instead of resting on one.
uint64_t PassSeed(uint64_t seed, size_t pass) { return seed * 1000 + pass; }

// One app's samples; the per-backend vectors have one entry per pass.
struct AppSamples {
  const apps::Workload* app = nullptr;
  AppSpec spec;
  apps::Params params;  // seed set per pass
  uint64_t first_ci_signature = 0;  // pass 0, checked against the record
  std::vector<double> ci_s, pf_s, traced_s;
  // rfdet-ci CreateEnv and ~Env, and their sum, of the same runs as ci_s.
  std::vector<double> create_s, destroy_s, setup_s;
  std::vector<double> pthreads_s;       // every pthreads run
  std::vector<double> pthreads_pass_s;  // per pass: median of its runs
  std::vector<rfdet::StatsSnapshot> ci_stats, pf_stats;
};

using Samples = std::vector<double> AppSamples::*;

// Median over passes of the app's time under `backend` divided by its
// pthreads time on the same input.
double Slowdown(const AppSamples& a, Samples backend) {
  std::vector<double> ratios;
  for (size_t k = 0; k < (a.*backend).size(); ++k) {
    ratios.push_back(Ratio((a.*backend)[k], a.pthreads_pass_s[k]));
  }
  return Median(ratios);
}

// Figure 7: the geomean over apps of Slowdown.
double GeoMeanSlowdown(const std::vector<AppSamples>& apps, Samples backend) {
  std::vector<double> xs;
  for (const AppSamples& a : apps) xs.push_back(Slowdown(a, backend));
  return harness::GeoMean(xs);
}

using StatField = std::function<double(const rfdet::StatsSnapshot&)>;

// Σ over apps of the app's median of `field` over passes.
double StatSum(const std::vector<AppSamples>& apps, bool pf,
               const StatField& field) {
  double sum = 0;
  for (const AppSamples& a : apps) {
    std::vector<double> xs;
    for (const auto& s : pf ? a.pf_stats : a.ci_stats) xs.push_back(field(s));
    sum += Median(xs);
  }
  return sum;
}

double SumOfMedians(const std::vector<AppSamples>& apps, Samples samples) {
  double sum = 0;
  for (const AppSamples& a : apps) sum += Median(a.*samples);
  return sum;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string NumList(const std::vector<double>& xs) {
  std::string out = "[";
  for (const double x : xs) {
    if (out.size() > 1) out += ',';
    out += Num(x);
  }
  return out + "]";
}

int Main(const Options& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  if (const std::string err = HermeticError(); !err.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", err.c_str());
    return 2;
  }

  std::vector<AppSamples> apps;
  std::string sizes;
  for (const AppSpec& a : spec->apps) {
    AppSamples s;
    s.app = apps::FindWorkload(a.app);
    if (s.app == nullptr) {
      std::fprintf(stderr, "perfbench: unknown app '%s'\n", a.app.c_str());
      return 2;
    }
    s.spec = a;
    if (opt.smoke) s.spec.scale = 1;
    s.params.threads = kThreads;
    s.params.seed = PassSeed(opt.seed, 0);
    s.params.scale = s.spec.scale;
    sizes += (sizes.empty() ? "" : ",") + a.app + "@" +
             std::to_string(s.spec.scale);
    apps.push_back(std::move(s));
  }

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string cpu = CpuModel();
  const char* kernels =
      rfdet::simd::KernelTierName(rfdet::simd::Kernels().tier);
  std::printf("perfbench: host nproc=%ld cpu=\"%s\" kernels=%s build=%s\n",
              nproc, cpu.c_str(), kernels, PERFBENCH_BUILD_TYPE);
  std::printf("perfbench: workload=%s seed=%llu threads=%zu seconds=%g "
              "trace=%d apps=%s\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
              kThreads, opt.seconds, opt.trace ? 1 : 0, sizes.c_str());
  std::fflush(stdout);

  Watchdog dog(kAppBoundS);
  Verdict verdict;

  // Timed closed loop.
  TraceSummary summary;
  std::deque<RunTrace> first_pass_traces;  // written out at the end
  uint32_t next_run_id = 1;
  const uint64_t start = NowNs();
  size_t passes = 0;
  while (passes == 0 ||
         static_cast<double>(NowNs() - start) / 1e9 < opt.seconds) {
    for (AppSamples& a : apps) {
      const apps::Workload& app = *a.app;
      a.params.seed = PassSeed(opt.seed, passes);
      std::vector<LabeledSig> det, pth;
      std::vector<double> pthreads_s;
      for (int r = 0; r < kPthreadsReps; ++r) {
        const Run p = RunOnce(app, a.params, dmt::BackendKind::kPthreads, dog);
        pthreads_s.push_back(p.run_s);
        pth.push_back({"pthreads", p.signature});
      }
      a.pthreads_s.insert(a.pthreads_s.end(), pthreads_s.begin(),
                          pthreads_s.end());
      a.pthreads_pass_s.push_back(Median(pthreads_s));
      const Run ci = RunOnce(app, a.params, dmt::BackendKind::kRfdetCi, dog);
      a.ci_s.push_back(ci.run_s);
      if (passes == 0) a.first_ci_signature = ci.signature;
      a.ci_stats.push_back(ci.stats);
      a.create_s.push_back(ci.create_s);
      a.destroy_s.push_back(ci.destroy_s);
      a.setup_s.push_back(ci.create_s + ci.destroy_s);

      const Run pf = RunOnce(app, a.params, dmt::BackendKind::kRfdetPf, dog);
      a.pf_s.push_back(pf.run_s);
      a.pf_stats.push_back(pf.stats);
      det.push_back({"rfdet-pf", pf.signature});

      if (opt.trace) {
        RunTrace later_pass;  // summarized below, not written out
        RunTrace& trace =
            passes == 0 ? first_pass_traces.emplace_back() : later_pass;
        trace.id = next_run_id++;
        trace.label = "rfdet-ci " + app.Name() + "@" +
                      std::to_string(a.spec.scale) + " pass " +
                      std::to_string(passes + 1);
        const Run t = RunOnce(app, a.params, dmt::BackendKind::kRfdetCi,
                              dog, &trace);
        a.traced_s.push_back(t.run_s);
        det.push_back({"rfdet-ci (traced)", t.signature});
        Accumulate(trace, summary);
      }
      CheckAppRuns(app, ci.signature, det, pth, verdict);
    }
    ++passes;
  }
  const double measured_s = static_cast<double>(NowNs() - start) / 1e9;

  // One fingerprint record -> verify round-trip per app, on the first
  // pass's input. It runs after the timed passes so that the recording run is as
  // warm as the runs it is compared with (verify.record_x).
  double record_s = 0, verify_s = 0;
  for (AppSamples& a : apps) {
    const std::string what = a.app->Name() + " on rfdet-ci (record/verify)";
    a.params.seed = PassSeed(opt.seed, 0);
    dog.Arm(what);
    const harness::DetCheckOutcome rt = harness::DetCheck(
        *a.app, a.params, Config(dmt::BackendKind::kRfdetCi), 2);
    dog.Disarm();
    record_s += rt.record_seconds;
    verify_s += rt.verify_seconds;
    verdict.Expect(rt.ok && rt.rollup != 0,
                   what + ": " + (rt.ok ? "fingerprint recorded nothing"
                                        : rt.failure));
    verdict.Expect(rt.signature == a.first_ci_signature,
                   what + ": record signature " + std::to_string(rt.signature) +
                       " != pass-1 rfdet-ci " +
                       std::to_string(a.first_ci_signature));
  }

  for (const std::string& m : verdict.messages) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", m.c_str());
  }

  // ---- metrics ---------------------------------------------------------------
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;
  const std::string per_pass =
      "median of " + std::to_string(passes) + " passes";
  const double ci_wall = SumOfMedians(apps, &AppSamples::ci_s);
  const double pf_wall = SumOfMedians(apps, &AppSamples::pf_s);
  double max_slowdown = 0, min_slowdown = 0;
  for (const AppSamples& a : apps) {
    const double x = Slowdown(a, &AppSamples::ci_s);
    max_slowdown = std::max(max_slowdown, x);
    min_slowdown = min_slowdown == 0 ? x : std::min(min_slowdown, x);
    const std::string name = "app." + a.app->Name() + ".slowdown_x";
    std::printf("%-34s %8.2f x  @%d: ci %.4f s, pf %.4f s, pthreads %.5f s "
                "(medians of %zu, %zu, %zu runs)\n",
                name.c_str(), x, a.spec.scale, Median(a.ci_s), Median(a.pf_s),
                Median(a.pthreads_s), a.ci_s.size(), a.pf_s.size(),
                a.pthreads_s.size());
  }
  const double failed_frac =
      Ratio(static_cast<double>(verdict.failed),
            static_cast<double>(verdict.attempted));

  if (!opt.trace) {
    metrics["slowdown_x"] = GeoMeanSlowdown(apps, &AppSamples::ci_s);
    notes["slowdown_x"] = "geomean over apps of ci / pthreads, " + per_pass;
    metrics["pf_slowdown_x"] = GeoMeanSlowdown(apps, &AppSamples::pf_s);
    notes["pf_slowdown_x"] = "geomean over apps of pf / pthreads, " + per_pass;
    // An app's median over passes drops its cold first teardown and the
    // odd slow munmap.
    metrics["setup_s"] = SumOfMedians(apps, &AppSamples::setup_s);
    notes["setup_s"] =
        "rfdet-ci CreateEnv + ~Env: sum over apps of each " + per_pass;
    double mem_peak = 0;
    for (const AppSamples& a : apps) {
      std::vector<double> xs;
      for (const auto& s : a.ci_stats) {
        xs.push_back(
            static_cast<double>(s.resident_bytes + s.metadata_peak_bytes) /
            1e6);
      }
      mem_peak = std::max(mem_peak, Median(xs));
    }
    metrics["mem_peak_mb"] = mem_peak;
    notes["mem_peak_mb"] = "max over apps of ci resident + metadata peak";
  } else {
    const double np = static_cast<double>(passes);
    auto stat = [&](const StatField& f) { return StatSum(apps, false, f); };
    auto pf_stat = [&](const StatField& f) { return StatSum(apps, true, f); };
    using S = rfdet::StatsSnapshot;
    auto u = [](uint64_t v) { return static_cast<double>(v); };

    metrics["env.create_ms"] = SumOfMedians(apps, &AppSamples::create_s) * 1e3;
    metrics["env.destroy_ms"] =
        SumOfMedians(apps, &AppSamples::destroy_s) * 1e3;

    metrics["mem.store_calls"] = u(summary.stores) / np;
    metrics["mem.load_calls"] = u(summary.loads) / np;
    metrics["mem.store_mb"] = u(summary.store_bytes) / 1e6 / np;
    metrics["mem.load_mb"] = u(summary.load_bytes) / 1e6 / np;
    metrics["mem.tick_calls"] = u(summary.ticks) / np;
    metrics["mem.access_ns"] = Median(summary.access_ns);
    notes["mem.access_ns"] =
        "median of " + std::to_string(summary.access_ns.size()) +
        " sampled Store/Load/Tick calls (1 in " +
        std::to_string(TracedEnv::kAccessSampleEvery) + ")";
    metrics["mem.stores_with_copy"] =
        stat([&](const S& s) { return u(s.stores_with_copy); });
    metrics["mem.pages_diffed"] =
        stat([&](const S& s) { return u(s.pages_diffed); });
    metrics["mem.page_faults"] =
        pf_stat([&](const S& s) { return u(s.page_faults); });
    metrics["mem.mprotect_calls"] =
        pf_stat([&](const S& s) { return u(s.mprotect_calls); });
    metrics["mem.resident_mb"] =
        stat([&](const S& s) { return u(s.resident_bytes) / 1e6; });

    const std::pair<const char*, const std::vector<double>*> lat[] = {
        {"sync.lock", &summary.lock_us},
        {"sync.unlock", &summary.unlock_us},
        {"sync.condwait", &summary.condwait_us},
        {"sync.atomic", &summary.atomic_us},
    };
    for (const auto& [name, xs] : lat) {
      const std::string n = name;
      metrics[n + "_p50_us"] = Percentile(*xs, 0.50);
      metrics[n + "_p99_us"] = Percentile(*xs, 0.99);
      notes[n + "_p50_us"] = std::to_string(xs->size()) + " samples";
      notes[n + "_p99_us"] = std::to_string(xs->size()) + " samples";
    }
    metrics["sync.busy_share"] = Ratio(summary.worker_sync_s, summary.worker_s);
    metrics["sync.lock_growth_x"] =
        Ratio(Median(summary.lock_last_us), Median(summary.lock_first_us));
    metrics["sync.barrier_calls"] = u(summary.barrier_calls) / np;

    const double wakeups = stat([&](const S& s) { return u(s.turn_wakeups); });
    const double handoffs =
        stat([&](const S& s) { return u(s.turn_handoffs); });
    metrics["kendo.park_ms"] = stat([&](const S& s) { return u(s.park_ns) / 1e6; });
    metrics["kendo.turn_parks"] = stat([&](const S& s) { return u(s.turn_parks); });
    metrics["kendo.turn_spins"] = stat([&](const S& s) { return u(s.turn_spins); });
    metrics["kendo.handoffs"] = handoffs;
    metrics["kendo.wakeups"] = wakeups;
    metrics["kendo.handoff_frac"] = Ratio(handoffs, wakeups);

    const double created =
        stat([&](const S& s) { return u(s.slices_created); });
    const double merged = stat([&](const S& s) { return u(s.slices_merged); });
    const double close_ms =
        stat([&](const S& s) { return u(s.close_turn_ns) / 1e6; });
    metrics["slice.created"] = created;
    metrics["slice.merged"] = merged;
    metrics["slice.merge_frac"] = Ratio(merged, created + merged);
    metrics["slice.close_turn_ms"] = close_ms;
    metrics["slice.close_us_per_slice"] = Ratio(close_ms * 1e3, created);
    metrics["slice.offturn_prepared"] =
        stat([&](const S& s) { return u(s.offturn_prepared_slices); });

    const double prop_slices =
        stat([&](const S& s) { return u(s.slices_propagated); });
    const double prop_bytes =
        stat([&](const S& s) { return u(s.bytes_propagated); });
    const double plans = stat([&](const S& s) { return u(s.apply_plans_built); });
    metrics["prop.slices"] = prop_slices;
    metrics["prop.mb"] = prop_bytes / 1e6;
    metrics["prop.plans_built"] = plans;
    metrics["prop.plan_reuse_frac"] =
        prop_slices > 0 ? 1.0 - plans / prop_slices : 0;
    metrics["prop.prelock_frac"] = Ratio(
        stat([&](const S& s) { return u(s.prelock_slices); }), prop_slices);
    metrics["prop.coalesced_spans"] =
        stat([&](const S& s) { return u(s.coalesced_spans); });
    metrics["prop.coalesce_saved_frac"] = Ratio(
        stat([&](const S& s) { return u(s.coalesce_bytes_saved); }),
        prop_bytes);
    metrics["prop.lazy_pages_applied"] =
        stat([&](const S& s) { return u(s.lazy_pages_applied); });

    metrics["gc.runs"] = stat([&](const S& s) { return u(s.gc_count); });
    metrics["gc.slices_pruned"] =
        stat([&](const S& s) { return u(s.slices_pruned); });
    double meta_peak = 0;
    for (const AppSamples& a : apps) {
      std::vector<double> xs;
      for (const S& s : a.ci_stats) xs.push_back(u(s.metadata_peak_bytes) / 1e6);
      meta_peak = std::max(meta_peak, Median(xs));
    }
    metrics["gc.metadata_peak_mb"] = meta_peak;
    metrics["gc.arena_retries"] =
        stat([&](const S& s) { return u(s.arena_gc_retries); });
    metrics["gc.metadata_overflows"] =
        stat([&](const S& s) { return u(s.metadata_overflows); });

    metrics["thread.spawn_p50_us"] = Percentile(summary.spawn_us, 0.50);
    metrics["thread.join_wait_ms"] = summary.join_s * 1e3 / np;
    metrics["alloc.malloc_calls"] = u(summary.malloc_us.size()) / np;
    metrics["alloc.malloc_p50_us"] = Percentile(summary.malloc_us, 0.50);
    metrics["exec.regions"] = stat([&](const S& s) { return u(s.exec_regions); });
    metrics["exec.items"] = stat([&](const S& s) { return u(s.exec_items); });
    metrics["exec.donations"] =
        stat([&](const S& s) { return u(s.exec_donations); });

    metrics["verify.record_x"] = Ratio(record_s, ci_wall);
    metrics["verify.verify_x"] = Ratio(verify_s, ci_wall);
    notes["verify.record_x"] = "record run (after the timed passes) / ci pass";

    metrics["app.max_slowdown_x"] = max_slowdown;
    metrics["app.min_slowdown_x"] = min_slowdown;
    metrics["trace.overhead_x"] =
        Ratio(SumOfMedians(apps, &AppSamples::traced_s), ci_wall);
    notes["trace.overhead_x"] = "traced / untraced rfdet-ci pass, " + per_pass;
    metrics["run.wall_s"] = ci_wall;
    metrics["run.pf_wall_s"] = pf_wall;

    std::vector<const RunTrace*> runs;
    for (const RunTrace& t : first_pass_traces) runs.push_back(&t);
    const std::string path = opt.out_dir + "/" + spec->name + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    const size_t spans = WriteChromeTrace(path, runs, kMaxTraceSpans);
    std::printf("perfbench: wrote %zu spans of pass 1 to %s\n", spans,
                path.c_str());
  }

  // ---- report ----------------------------------------------------------------
  const std::vector<MetricDef>& catalog =
      opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("perfbench: %zu passes in %.1f s; %zu/%zu app runs failed "
              "(failed_frac %.4f)\n",
              passes, measured_s, verdict.failed, verdict.attempted,
              failed_frac);
  auto line = [](const std::string& name, double v, const std::string& unit,
                 const std::string& note) {
    std::printf("%-26s %14.6g %-5s  %s\n", name.c_str(), v, unit.c_str(),
                note.c_str());
  };
  std::string json_metrics;
  for (const MetricDef& m : catalog) {
    const double v = metrics.at(m.name);
    line(m.name, v, m.unit, notes[m.name]);
    json_metrics += (json_metrics.empty() ? "" : ",");
    json_metrics += "\"" + m.name + "\":{\"value\":" + Num(v) +
                    ",\"unit\":\"" + m.unit + "\"}";
  }
  // Absolute pass times follow the host's speed from run to run (README.md,
  // "Why the gated metrics are ratios"), so they are printed and recorded
  // but are not result metrics.
  if (!opt.trace) {
    line("wall_s", ci_wall, "s",
         "rfdet-ci pass: sum over apps of each " + per_pass + "; not gated");
    line("pf_wall_s", pf_wall, "s",
         "rfdet-pf pass: sum over apps of each " + per_pass + "; not gated");
  }
  line("failed_frac", failed_frac, "frac",
       "failed / attempted app runs; in the result as failed, attempted");
  const bool correct = verdict.failed == 0;
  const std::string result =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(verdict.attempted) +
      ",\"failed\":" + std::to_string(verdict.failed) + ",\"metrics\":{" +
      json_metrics + "}}";

  // The record: host, sizes, seed and threads travel with every result.
  const std::string record_path =
      opt.out_dir + "/" + spec->name + "-seed" + std::to_string(opt.seed) +
      "-trace" + (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::string app_json;
    for (const AppSamples& a : apps) {
      app_json += std::string(app_json.empty() ? "" : ",") + "{\"app\":\"" +
                  a.app->Name() + "\",\"scale\":" +
                  std::to_string(a.spec.scale) +
                  ",\"ci_s\":" + Num(Median(a.ci_s)) +
                  ",\"pf_s\":" + Num(Median(a.pf_s)) +
                  ",\"pthreads_s\":" + Num(Median(a.pthreads_s)) +
                  ",\"slowdown_x\":" + Num(Slowdown(a, &AppSamples::ci_s)) +
                  ",\"per_pass\":{\"ci_s\":" + NumList(a.ci_s) +
                  ",\"setup_s\":" + NumList(a.setup_s) +
                  ",\"pf_s\":" + NumList(a.pf_s) +
                  ",\"pthreads_s\":" + NumList(a.pthreads_pass_s) + "}}";
    }
    std::fprintf(
        f,
        "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%zu,\"trace\":%d,"
        "\"smoke\":%s,\"nproc\":%ld,\"cpu\":\"%s\",\"kernels\":\"%s\","
        "\"build\":\"%s\",\"passes\":%zu,\"wall_s\":%s,\"pf_wall_s\":%s,"
        "\"failed_frac\":%s,\"apps\":[%s],"
        "\"result\":%s}\n",
        spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
        kThreads, opt.trace ? 1 : 0, opt.smoke ? "true" : "false", nproc,
        JsonEscape(cpu).c_str(), kernels, PERFBENCH_BUILD_TYPE, passes,
        Num(ci_wall).c_str(), Num(pf_wall).c_str(), Num(failed_frac).c_str(),
        app_json.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("PERFBENCH_RESULT %s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const harness::Flags flags(argc, argv);
  if (flags.Bool("selftest", false)) return perfbench::SelfTest();
  const perfbench::Options opt(flags);
  if (opt.workload.empty() || !flags.Positional().empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<name> --seed=<n> --seconds=<s> "
                 "--trace=<0|1> [--smoke] [--out-dir=<dir>]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  return perfbench::Main(opt);
}
