// Output checks: signature agreement across backends and the per-app wall
// bound. The fingerprint record -> verify round-trip is harness::DetCheck.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "cpp/bench.h"

namespace perfbench {

void Verdict::Expect(bool ok, std::string what) {
  ++attempted;
  if (!ok) {
    ++failed;
    messages.push_back(std::move(what));
  }
}

namespace {

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void CheckAppRuns(const apps::Workload& app, uint64_t reference,
                  const std::vector<LabeledSig>& deterministic,
                  const std::vector<LabeledSig>& pthreads, Verdict& verdict) {
  for (const LabeledSig& run : deterministic) {
    verdict.Expect(run.signature == reference,
                   app.Name() + " on " + run.label + ": signature " +
                       Hex(run.signature) + " != rfdet-ci " +
                       Hex(reference));
  }
  for (const LabeledSig& run : pthreads) {
    verdict.Expect(!app.RaceFree() || run.signature == reference,
                   app.Name() + " on " + run.label + ": signature " +
                       Hex(run.signature) + " != rfdet-ci " +
                       Hex(reference) + " for a race-free app");
  }
}

Watchdog::Watchdog(double bound_s)
    : bound_s_(bound_s), thread_([this] { Loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::Arm(std::string what) {
  {
    std::scoped_lock lock(mu_);
    what_ = std::move(what);
    armed_ = true;
    ++generation_;
  }
  cv_.notify_all();
}

void Watchdog::Disarm() {
  std::scoped_lock lock(mu_);
  armed_ = false;
}

void Watchdog::Loop() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (!armed_) {
      cv_.wait(lock);
      continue;
    }
    const uint64_t generation = generation_;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(bound_s_));
    const bool changed = cv_.wait_until(lock, deadline, [&] {
      return stop_ || !armed_ || generation_ != generation;
    });
    if (!changed) {
      std::fprintf(stderr,
                   "perfbench: %s exceeded its %.0f s wall bound; "
                   "ending the run\n",
                   what_.c_str(), bound_s_);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
}

}  // namespace perfbench
