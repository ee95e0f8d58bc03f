// perfbench — the repository's end-to-end benchmark.
//
// Runs the registered apps:: workloads closed-loop from one process, one
// app at a time, each on a fresh dmt::Env, under the pthreads, rfdet-ci
// and rfdet-pf backends, checks every output, and prints the end-to-end
// metrics (untraced mode) or the per-layer metrics measured from outside
// the runtime by a forwarding dmt::Env decorator (traced mode).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "rfdet/apps/workload.h"
#include "rfdet/backends/backends.h"

namespace perfbench {

// ---- workloads (workloads.cpp) ---------------------------------------------

struct AppSpec {
  std::string app;  // apps:: registry name
  int scale = 1;
};

struct WorkloadSpec {
  std::string name;
  std::vector<AppSpec> apps;  // measured sizes; --smoke runs each at scale 1
};

[[nodiscard]] const std::vector<WorkloadSpec>& Workloads();
[[nodiscard]] const WorkloadSpec* FindWorkload(std::string_view name);

// ---- metric catalog (workloads.cpp) -----------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

// What --trace 0 reports, and what --trace 1 reports; every workload
// reports every name of its mode.
[[nodiscard]] const std::vector<MetricDef>& EndToEndMetrics();
[[nodiscard]] const std::vector<MetricDef>& PerLayerMetrics();

// ---- result checks (checks.cpp) ----------------------------------------------

// Tally of checked app runs: every run is attempted; a run whose output
// disagrees with its reference fails, with a message naming app and backend.
struct Verdict {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> messages;

  void Expect(bool ok, std::string what);
};

struct LabeledSig {
  std::string label;  // backend (and run kind) that produced it
  uint64_t signature = 0;
};

// Checks one app's runs on one input against `reference`, the signature of
// its rfdet-ci run on that input: every other deterministic run (rfdet-pf,
// a traced or recording rfdet-ci run) must equal it for every app, racy
// ones included (strong determinism across monitors); pthreads runs must
// equal it for RaceFree() apps and are only counted for the racy ones.
void CheckAppRuns(const apps::Workload& app, uint64_t reference,
                  const std::vector<LabeledSig>& deterministic,
                  const std::vector<LabeledSig>& pthreads, Verdict& verdict);

// Ends the process when one app run exceeds its wall bound, so a hung turn
// fails the benchmark with a message naming app and backend instead of
// stalling it.
class Watchdog {
 public:
  explicit Watchdog(double bound_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Arm(std::string what);
  void Disarm();

 private:
  void Loop();

  double bound_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string what_;
  uint64_t generation_ = 0;
  bool armed_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// ---- self-test (selftest.cpp) -------------------------------------------------

// Returns 0 when the checker, the decorator and the metric catalog pass.
int SelfTest();

}  // namespace perfbench
