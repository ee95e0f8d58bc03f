// TracedEnv — a forwarding dmt::Env decorator that times the calls into
// each layer's public entry points from outside the runtime.
//
// Every call is forwarded unchanged to the wrapped Env. Sync, thread,
// allocation, executor and fingerprint calls are each recorded as a span
// on the calling thread's lane; Store/Load/Tick are counted on every call
// and timed on a deterministic 1-in-kAccessSampleEvery sample per thread,
// because timing every access would perturb the run. Spans stay in memory
// (one RunTrace per app run) and are written out at the end as Chrome
// trace-event JSON.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rfdet/api/env.h"
#include "rfdet/backends/backends.h"

namespace perfbench {

using dmt::GAddr;

enum class Op : uint8_t {
  kRun,  // root span: one app run (recorded by main.cpp)
  kThread,  // a spawned thread's body
  kCreateEnv,
  kDestroyEnv,
  kStore,
  kLoad,
  kTick,
  kLock,
  kUnlock,
  kWait,
  kSignal,
  kBroadcast,
  kBarrier,
  kAtomic,
  kSpawn,
  kJoin,
  kMalloc,
  kFree,
  kNoteExec,
  kFinalize,
};

[[nodiscard]] const char* OpName(Op op);

// Nanoseconds on the steady clock since the first call.
[[nodiscard]] uint64_t NowNs();

struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  Op op = Op::kRun;
};

// The calls one thread made into the Env during one app run.
struct Lane {
  size_t tid = 0;       // dmt tid of the thread
  bool worker = false;  // a spawned thread (not the main thread)
  std::vector<Span> spans;
  uint64_t stores = 0, loads = 0, ticks = 0;
  uint64_t store_bytes = 0, load_bytes = 0;
  uint64_t accesses = 0;  // Store + Load + Tick calls; drives the sample
};

// Everything the decorator saw during one app run. All spans of a run
// share its id.
struct RunTrace {
  uint32_t id = 0;
  std::string label;  // e.g. "rfdet-ci water-ns@2"
  Span root;          // the whole run on the main lane (set by main.cpp)
  std::deque<Lane> lanes;  // deque: lanes never move once added
};

class TracedEnv final : public dmt::Env {
 public:
  static constexpr uint64_t kAccessSampleEvery = 256;

  // Creates the inner Env, timing CreateEnv as a span of `trace`.
  static std::unique_ptr<TracedEnv> Create(const dmt::BackendConfig& config,
                                           RunTrace& trace);
  TracedEnv(std::unique_ptr<dmt::Env> inner, RunTrace& trace);
  // Destroys the inner Env, timing it as a span of the trace.
  ~TracedEnv() override;

  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] bool Deterministic() const override;
  [[nodiscard]] size_t Tid() const override;

  GAddr AllocStatic(size_t bytes, size_t align) override;
  GAddr Malloc(size_t bytes) override;
  void Free(GAddr addr) override;
  void Store(GAddr addr, const void* src, size_t len) override;
  void Load(GAddr addr, void* dst, size_t len) override;
  void Tick(uint64_t words) override;
  GAddr TryMalloc(size_t bytes) override;

  size_t Spawn(std::function<void()> fn) override;
  int TrySpawn(std::function<void()> fn, size_t* out_tid) override;
  void Join(size_t tid) override;

  uint64_t AtomicLoad(GAddr addr) override;
  void AtomicStore(GAddr addr, uint64_t value) override;
  uint64_t AtomicFetchAdd(GAddr addr, uint64_t delta) override;
  bool AtomicCas(GAddr addr, uint64_t& expected, uint64_t desired) override;

  size_t CreateMutex() override;
  size_t CreateCond() override;
  size_t CreateBarrier(size_t parties) override;
  void Lock(size_t mutex_id) override;
  void Unlock(size_t mutex_id) override;
  void Wait(size_t cond_id, size_t mutex_id) override;
  void Signal(size_t cond_id) override;
  void Broadcast(size_t cond_id) override;
  void Barrier(size_t barrier_id) override;

  [[nodiscard]] dmt::ExecHints ExecDefaults() const override;
  void NoteExec(rfdet::ExecEvent event, uint64_t n) override;

  [[nodiscard]] rfdet::StatsSnapshot Stats() const override;
  [[nodiscard]] size_t FootprintBytes() const override;
  uint64_t FinalizeFingerprint() override;
  [[nodiscard]] std::string LastDivergenceReport() const override;
  [[nodiscard]] std::string RaceReportText() const override;
  bool Checkpoint() override;
  [[nodiscard]] bool Restored() const override;

 private:
  Lane& ThisLane();
  std::function<void()> Body(std::function<void()> fn);
  template <typename F>
  decltype(auto) Timed(Op op, F&& call);
  template <typename F>
  void Access(Lane& lane, Op op, F&& call);

  std::unique_ptr<dmt::Env> inner_;
  RunTrace& trace_;
  const uint64_t generation_;  // tells this Env's lanes from earlier ones
  std::mutex lanes_mu_;
};

// What perfbench reports from a set of traced runs; counts are summed
// over the runs, latency samples pooled.
struct TraceSummary {
  uint64_t stores = 0, loads = 0, ticks = 0;
  uint64_t store_bytes = 0, load_bytes = 0;
  uint64_t barrier_calls = 0;
  std::vector<double> access_ns;
  std::vector<double> lock_us, unlock_us, condwait_us, atomic_us;
  std::vector<double> spawn_us, malloc_us;
  // Lock latency of the first and the last tenth of each run's locks,
  // ordered by start time.
  std::vector<double> lock_first_us, lock_last_us;
  double worker_s = 0;       // Σ spawned-thread body time
  double worker_sync_s = 0;  // Σ sync-call time on spawned threads
  double join_s = 0;         // Σ Join time
};

void Accumulate(const RunTrace& run, TraceSummary& into);

// Writes the runs as Chrome trace-event JSON, which Perfetto opens
// offline: one process per run, one thread lane per dmt tid, the run as the
// root span. Stops after `max_spans` spans; returns the number written.
size_t WriteChromeTrace(const std::string& path,
                        const std::vector<const RunTrace*>& runs,
                        size_t max_spans);

}  // namespace perfbench
