// perfbench --selftest: the result checker, the TracedEnv decorator and the
// metric catalog, without timing anything. run.py --selftest adds the smoke
// runs of every workload on top.
#include <cstdio>
#include <set>
#include <string>

#include "cpp/bench.h"
#include "cpp/traced_env.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
    ++g_failures;
  }
}

// An Env that records which virtual was called.
class FakeEnv final : public dmt::Env {
 public:
  explicit FakeEnv(std::set<std::string>& calls) : calls_(calls) {}

  std::string Name() const override { return Note("Name"), "fake"; }
  bool Deterministic() const override { return Note("Deterministic"), true; }
  size_t Tid() const override { return Note("Tid"), 0; }
  GAddr AllocStatic(size_t, size_t) override {
    return Note("AllocStatic"), 64;
  }
  GAddr Malloc(size_t) override { return Note("Malloc"), 128; }
  void Free(GAddr) override { Note("Free"); }
  void Store(GAddr, const void*, size_t) override { Note("Store"); }
  void Load(GAddr, void*, size_t) override { Note("Load"); }
  void Tick(uint64_t) override { Note("Tick"); }
  GAddr TryMalloc(size_t) override { return Note("TryMalloc"), 256; }
  size_t Spawn(std::function<void()> fn) override {
    Note("Spawn");
    fn();
    return 1;
  }
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override {
    Note("TrySpawn");
    fn();
    *out_tid = 2;
    return 0;
  }
  void Join(size_t) override { Note("Join"); }
  uint64_t AtomicLoad(GAddr) override { return Note("AtomicLoad"), 7; }
  void AtomicStore(GAddr, uint64_t) override { Note("AtomicStore"); }
  uint64_t AtomicFetchAdd(GAddr, uint64_t) override {
    return Note("AtomicFetchAdd"), 8;
  }
  bool AtomicCas(GAddr, uint64_t& expected, uint64_t) override {
    Note("AtomicCas");
    expected = 9;
    return false;
  }
  size_t CreateMutex() override { return Note("CreateMutex"), 3; }
  size_t CreateCond() override { return Note("CreateCond"), 4; }
  size_t CreateBarrier(size_t) override { return Note("CreateBarrier"), 5; }
  void Lock(size_t) override { Note("Lock"); }
  void Unlock(size_t) override { Note("Unlock"); }
  void Wait(size_t, size_t) override { Note("Wait"); }
  void Signal(size_t) override { Note("Signal"); }
  void Broadcast(size_t) override { Note("Broadcast"); }
  void Barrier(size_t) override { Note("Barrier"); }
  dmt::ExecHints ExecDefaults() const override {
    Note("ExecDefaults");
    return {.pool_threads = 11, .grain = 12, .donation = false};
  }
  void NoteExec(rfdet::ExecEvent, uint64_t) override { Note("NoteExec"); }
  rfdet::StatsSnapshot Stats() const override {
    Note("Stats");
    rfdet::StatsSnapshot s;
    s.gc_count = 13;
    return s;
  }
  size_t FootprintBytes() const override {
    return Note("FootprintBytes"), 14;
  }
  uint64_t FinalizeFingerprint() override {
    return Note("FinalizeFingerprint"), 15;
  }
  std::string LastDivergenceReport() const override {
    return Note("LastDivergenceReport"), "div";
  }
  std::string RaceReportText() const override {
    return Note("RaceReportText"), "race";
  }
  bool Checkpoint() override { return Note("Checkpoint"), true; }
  bool Restored() const override { return Note("Restored"), true; }

 private:
  void Note(const char* name) const { calls_.insert(name); }
  std::set<std::string>& calls_;
};

// Every dmt::Env virtual, as declared in rfdet/api/env.h. run.py --selftest
// checks this list against the header so a new virtual cannot be missed.
const char* const kEnvVirtuals[] = {
    "Name",        "Deterministic",  "Tid",
    "AllocStatic", "Malloc",         "Free",
    "Store",       "Load",           "Tick",
    "TryMalloc",   "Spawn",          "TrySpawn",
    "Join",        "AtomicLoad",     "AtomicStore",
    "AtomicFetchAdd", "AtomicCas",   "CreateMutex",
    "CreateCond",  "CreateBarrier",  "Lock",
    "Unlock",      "Wait",           "Signal",
    "Broadcast",   "Barrier",        "ExecDefaults",
    "NoteExec",    "Stats",          "FootprintBytes",
    "FinalizeFingerprint", "LastDivergenceReport", "RaceReportText",
    "Checkpoint",  "Restored",
};

void TestDecoratorForwardsEveryVirtual() {
  std::set<std::string> calls;
  RunTrace trace;
  int bodies = 0;
  {
    TracedEnv traced(std::make_unique<FakeEnv>(calls), trace);
    dmt::Env& env = traced;
    Expect(env.Name() == "fake", "Name result");
    Expect(env.Deterministic(), "Deterministic result");
    Expect(env.Tid() == 0, "Tid result");
    Expect(env.AllocStatic(8, 16) == 64, "AllocStatic result");
    Expect(env.Malloc(8) == 128, "Malloc result");
    env.Free(128);
    uint64_t word = 0;
    env.Store(64, &word, sizeof word);
    env.Load(64, &word, sizeof word);
    env.Tick(100);
    Expect(env.TryMalloc(8) == 256, "TryMalloc result");
    Expect(env.Spawn([&] { ++bodies; }) == 1, "Spawn result");
    size_t tid = 0;
    Expect(env.TrySpawn([&] { ++bodies; }, &tid) == 0 && tid == 2,
           "TrySpawn result");
    env.Join(1);
    Expect(env.AtomicLoad(64) == 7, "AtomicLoad result");
    env.AtomicStore(64, 1);
    Expect(env.AtomicFetchAdd(64, 1) == 8, "AtomicFetchAdd result");
    uint64_t expected = 0;
    Expect(!env.AtomicCas(64, expected, 1) && expected == 9,
           "AtomicCas result");
    Expect(env.CreateMutex() == 3, "CreateMutex result");
    Expect(env.CreateCond() == 4, "CreateCond result");
    Expect(env.CreateBarrier(2) == 5, "CreateBarrier result");
    env.Lock(3);
    env.Unlock(3);
    env.Wait(4, 3);
    env.Signal(4);
    env.Broadcast(4);
    env.Barrier(5);
    const dmt::ExecHints hints = env.ExecDefaults();
    Expect(hints.pool_threads == 11 && hints.grain == 12 && !hints.donation,
           "ExecDefaults result");
    env.NoteExec(rfdet::ExecEvent::kItem, 1);
    Expect(env.Stats().gc_count == 13, "Stats result");
    Expect(env.FootprintBytes() == 14, "FootprintBytes result");
    Expect(env.FinalizeFingerprint() == 15, "FinalizeFingerprint result");
    Expect(env.LastDivergenceReport() == "div", "LastDivergenceReport result");
    Expect(env.RaceReportText() == "race", "RaceReportText result");
    Expect(env.Checkpoint(), "Checkpoint result");
    Expect(env.Restored(), "Restored result");
  }
  Expect(bodies == 2, "spawned bodies ran through the decorator");
  for (const char* name : kEnvVirtuals) {
    Expect(calls.count(name) == 1, std::string("decorator forwards ") + name);
  }
  Expect(calls.size() == std::size(kEnvVirtuals),
         "fake Env saw only known virtuals");

  TraceSummary summary;
  Accumulate(trace, summary);
  Expect(summary.lock_us.size() == 1 && summary.unlock_us.size() == 1 &&
             summary.condwait_us.size() == 1 && summary.atomic_us.size() == 4 &&
             summary.spawn_us.size() == 2 && summary.malloc_us.size() == 2 &&
             summary.barrier_calls == 1,
         "one span per timed call");
  Expect(summary.stores == 1 && summary.loads == 1 && summary.ticks == 1 &&
             summary.store_bytes == 8 && summary.load_bytes == 8,
         "access counters");
  Expect(summary.access_ns.size() == 1, "first access of a lane is sampled");
}

void TestCheckerRejectsMismatch() {
  const apps::Workload* clean = apps::FindWorkload("fft");
  const apps::Workload* racy = apps::FindWorkload("racey");
  Expect(clean != nullptr && clean->RaceFree(), "fft is race-free");
  Expect(racy != nullptr && !racy->RaceFree(), "racey is racy");
  if (clean == nullptr || racy == nullptr) return;

  Verdict ok;
  CheckAppRuns(*clean, 1, {{"rfdet-ci", 1}, {"rfdet-pf", 1}},
               {{"pthreads", 1}}, ok);
  Expect(ok.attempted == 3 && ok.failed == 0, "matching runs pass");

  Verdict pf;
  CheckAppRuns(*racy, 1, {{"rfdet-ci", 1}, {"rfdet-pf", 2}}, {}, pf);
  Expect(pf.failed == 1 && pf.messages.size() == 1 &&
             pf.messages[0].find("racey on rfdet-pf") == 0,
         "ci != pf is rejected, even for a racy app");

  Verdict pth;
  CheckAppRuns(*clean, 1, {{"rfdet-ci", 1}}, {{"pthreads", 3}}, pth);
  Expect(pth.failed == 1, "pthreads mismatch is rejected for a race-free app");

  Verdict racy_pth;
  CheckAppRuns(*racy, 1, {{"rfdet-ci", 1}}, {{"pthreads", 3}}, racy_pth);
  Expect(racy_pth.attempted == 2 && racy_pth.failed == 0,
         "pthreads mismatch is only counted for a racy app");
}

void TestCatalog() {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& m : *list) {
      Expect(names.insert(m.name).second, "metric name used once: " + m.name);
      Expect(!m.unit.empty(), "metric has a unit: " + m.name);
    }
  }
  Expect(PerLayerMetrics().size() <= 128, "at most 128 per-layer metrics");
  for (const WorkloadSpec& w : Workloads()) {
    for (const AppSpec& a : w.apps) {
      Expect(apps::FindWorkload(a.app) != nullptr, "registered app " + a.app);
    }
  }
}

}  // namespace

int SelfTest() {
  TestDecoratorForwardsEveryVirtual();
  TestCheckerRejectsMismatch();
  TestCatalog();
  std::printf("selftest: %s (%d failures)\n", g_failures ? "FAILED" : "ok",
              g_failures);
  if (g_failures == 0) {
    // One virtual name per line, for run.py to compare with env.h.
    for (const char* name : kEnvVirtuals) std::printf("virtual %s\n", name);
  }
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
