#include "cpp/traced_env.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <type_traits>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generation{0};

// The lane the calling thread last used, valid while its generation
// matches the TracedEnv's.
thread_local Lane* tl_lane = nullptr;
thread_local uint64_t tl_generation = 0;

bool IsSync(Op op) {
  switch (op) {
    case Op::kLock:
    case Op::kUnlock:
    case Op::kWait:
    case Op::kSignal:
    case Op::kBroadcast:
    case Op::kBarrier:
    case Op::kAtomic:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kRun: return "Run";
    case Op::kThread: return "Thread";
    case Op::kCreateEnv: return "CreateEnv";
    case Op::kDestroyEnv: return "~Env";
    case Op::kStore: return "Store";
    case Op::kLoad: return "Load";
    case Op::kTick: return "Tick";
    case Op::kLock: return "Lock";
    case Op::kUnlock: return "Unlock";
    case Op::kWait: return "Wait";
    case Op::kSignal: return "Signal";
    case Op::kBroadcast: return "Broadcast";
    case Op::kBarrier: return "Barrier";
    case Op::kAtomic: return "Atomic";
    case Op::kSpawn: return "Spawn";
    case Op::kJoin: return "Join";
    case Op::kMalloc: return "Malloc";
    case Op::kFree: return "Free";
    case Op::kNoteExec: return "NoteExec";
    case Op::kFinalize: return "FinalizeFingerprint";
  }
  return "?";
}

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::unique_ptr<TracedEnv> TracedEnv::Create(const dmt::BackendConfig& config,
                                             RunTrace& trace) {
  const uint64_t t0 = NowNs();
  auto inner = dmt::CreateEnv(config);
  const uint64_t t1 = NowNs();
  auto env = std::make_unique<TracedEnv>(std::move(inner), trace);
  env->ThisLane().spans.push_back({t0, t1 - t0, Op::kCreateEnv});
  return env;
}

TracedEnv::TracedEnv(std::unique_ptr<dmt::Env> inner, RunTrace& trace)
    : inner_(std::move(inner)),
      trace_(trace),
      generation_(g_generation.fetch_add(1) + 1) {}

TracedEnv::~TracedEnv() {
  Lane& lane = ThisLane();
  const uint64_t t0 = NowNs();
  inner_.reset();
  lane.spans.push_back({t0, NowNs() - t0, Op::kDestroyEnv});
  tl_lane = nullptr;
  tl_generation = 0;
}

Lane& TracedEnv::ThisLane() {
  if (tl_generation != generation_) {
    std::scoped_lock lock(lanes_mu_);
    Lane& lane = trace_.lanes.emplace_back();
    lane.tid = inner_->Tid();
    tl_lane = &lane;
    tl_generation = generation_;
  }
  return *tl_lane;
}

template <typename F>
decltype(auto) TracedEnv::Timed(Op op, F&& call) {
  Lane& lane = ThisLane();
  const uint64_t t0 = NowNs();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    call();
    lane.spans.push_back({t0, NowNs() - t0, op});
  } else {
    auto result = call();
    lane.spans.push_back({t0, NowNs() - t0, op});
    return result;
  }
}

template <typename F>
void TracedEnv::Access(Lane& lane, Op op, F&& call) {
  if (lane.accesses++ % kAccessSampleEvery != 0) {
    call();
    return;
  }
  const uint64_t t0 = NowNs();
  call();
  lane.spans.push_back({t0, NowNs() - t0, op});
}

std::function<void()> TracedEnv::Body(std::function<void()> fn) {
  return [this, fn = std::move(fn)] {
    Lane& lane = ThisLane();
    lane.worker = true;
    const uint64_t t0 = NowNs();
    fn();
    lane.spans.push_back({t0, NowNs() - t0, Op::kThread});
  };
}

std::string TracedEnv::Name() const { return inner_->Name(); }
bool TracedEnv::Deterministic() const { return inner_->Deterministic(); }
size_t TracedEnv::Tid() const { return inner_->Tid(); }

dmt::GAddr TracedEnv::AllocStatic(size_t bytes, size_t align) {
  return inner_->AllocStatic(bytes, align);
}
dmt::GAddr TracedEnv::Malloc(size_t bytes) {
  return Timed(Op::kMalloc, [&] { return inner_->Malloc(bytes); });
}
dmt::GAddr TracedEnv::TryMalloc(size_t bytes) {
  return Timed(Op::kMalloc, [&] { return inner_->TryMalloc(bytes); });
}
void TracedEnv::Free(GAddr addr) {
  Timed(Op::kFree, [&] { inner_->Free(addr); });
}

void TracedEnv::Store(GAddr addr, const void* src, size_t len) {
  Lane& lane = ThisLane();
  ++lane.stores;
  lane.store_bytes += len;
  Access(lane, Op::kStore, [&] { inner_->Store(addr, src, len); });
}
void TracedEnv::Load(GAddr addr, void* dst, size_t len) {
  Lane& lane = ThisLane();
  ++lane.loads;
  lane.load_bytes += len;
  Access(lane, Op::kLoad, [&] { inner_->Load(addr, dst, len); });
}
void TracedEnv::Tick(uint64_t words) {
  Lane& lane = ThisLane();
  ++lane.ticks;
  Access(lane, Op::kTick, [&] { inner_->Tick(words); });
}

size_t TracedEnv::Spawn(std::function<void()> fn) {
  return Timed(Op::kSpawn,
               [&] { return inner_->Spawn(Body(std::move(fn))); });
}
int TracedEnv::TrySpawn(std::function<void()> fn, size_t* out_tid) {
  return Timed(Op::kSpawn, [&] {
    return inner_->TrySpawn(Body(std::move(fn)), out_tid);
  });
}
void TracedEnv::Join(size_t tid) {
  Timed(Op::kJoin, [&] { inner_->Join(tid); });
}

uint64_t TracedEnv::AtomicLoad(GAddr addr) {
  return Timed(Op::kAtomic, [&] { return inner_->AtomicLoad(addr); });
}
void TracedEnv::AtomicStore(GAddr addr, uint64_t value) {
  Timed(Op::kAtomic, [&] { inner_->AtomicStore(addr, value); });
}
uint64_t TracedEnv::AtomicFetchAdd(GAddr addr, uint64_t delta) {
  return Timed(Op::kAtomic,
               [&] { return inner_->AtomicFetchAdd(addr, delta); });
}
bool TracedEnv::AtomicCas(GAddr addr, uint64_t& expected, uint64_t desired) {
  return Timed(Op::kAtomic,
               [&] { return inner_->AtomicCas(addr, expected, desired); });
}

size_t TracedEnv::CreateMutex() { return inner_->CreateMutex(); }
size_t TracedEnv::CreateCond() { return inner_->CreateCond(); }
size_t TracedEnv::CreateBarrier(size_t parties) {
  return inner_->CreateBarrier(parties);
}
void TracedEnv::Lock(size_t mutex_id) {
  Timed(Op::kLock, [&] { inner_->Lock(mutex_id); });
}
void TracedEnv::Unlock(size_t mutex_id) {
  Timed(Op::kUnlock, [&] { inner_->Unlock(mutex_id); });
}
void TracedEnv::Wait(size_t cond_id, size_t mutex_id) {
  Timed(Op::kWait, [&] { inner_->Wait(cond_id, mutex_id); });
}
void TracedEnv::Signal(size_t cond_id) {
  Timed(Op::kSignal, [&] { inner_->Signal(cond_id); });
}
void TracedEnv::Broadcast(size_t cond_id) {
  Timed(Op::kBroadcast, [&] { inner_->Broadcast(cond_id); });
}
void TracedEnv::Barrier(size_t barrier_id) {
  Timed(Op::kBarrier, [&] { inner_->Barrier(barrier_id); });
}

dmt::ExecHints TracedEnv::ExecDefaults() const {
  return inner_->ExecDefaults();
}
void TracedEnv::NoteExec(rfdet::ExecEvent event, uint64_t n) {
  Timed(Op::kNoteExec, [&] { inner_->NoteExec(event, n); });
}

rfdet::StatsSnapshot TracedEnv::Stats() const { return inner_->Stats(); }
size_t TracedEnv::FootprintBytes() const { return inner_->FootprintBytes(); }
uint64_t TracedEnv::FinalizeFingerprint() {
  return Timed(Op::kFinalize, [&] { return inner_->FinalizeFingerprint(); });
}
std::string TracedEnv::LastDivergenceReport() const {
  return inner_->LastDivergenceReport();
}
std::string TracedEnv::RaceReportText() const {
  return inner_->RaceReportText();
}
bool TracedEnv::Checkpoint() { return inner_->Checkpoint(); }
bool TracedEnv::Restored() const { return inner_->Restored(); }

void Accumulate(const RunTrace& run, TraceSummary& into) {
  std::vector<Span> locks;
  for (const Lane& lane : run.lanes) {
    into.stores += lane.stores;
    into.loads += lane.loads;
    into.ticks += lane.ticks;
    into.store_bytes += lane.store_bytes;
    into.load_bytes += lane.load_bytes;
    for (const Span& s : lane.spans) {
      const double us = static_cast<double>(s.dur_ns) / 1e3;
      const double sec = static_cast<double>(s.dur_ns) / 1e9;
      if (lane.worker && IsSync(s.op)) into.worker_sync_s += sec;
      switch (s.op) {
        case Op::kThread: into.worker_s += sec; break;
        case Op::kStore:
        case Op::kLoad:
        case Op::kTick:
          into.access_ns.push_back(static_cast<double>(s.dur_ns));
          break;
        case Op::kLock:
          into.lock_us.push_back(us);
          locks.push_back(s);
          break;
        case Op::kUnlock: into.unlock_us.push_back(us); break;
        case Op::kWait: into.condwait_us.push_back(us); break;
        case Op::kAtomic: into.atomic_us.push_back(us); break;
        case Op::kBarrier: ++into.barrier_calls; break;
        case Op::kSpawn: into.spawn_us.push_back(us); break;
        case Op::kJoin: into.join_s += sec; break;
        case Op::kMalloc: into.malloc_us.push_back(us); break;
        default: break;
      }
    }
  }
  std::sort(locks.begin(), locks.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const size_t tenth = locks.size() / 10;
  for (size_t i = 0; i < tenth; ++i) {
    into.lock_first_us.push_back(static_cast<double>(locks[i].dur_ns) / 1e3);
    into.lock_last_us.push_back(
        static_cast<double>(locks[locks.size() - 1 - i].dur_ns) / 1e3);
  }
}

size_t WriteChromeTrace(const std::string& path,
                        const std::vector<const RunTrace*>& runs,
                        size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t written = 0;
  const char* sep = "";
  auto event = [&](const char* name, uint32_t pid, size_t tid,
                   const Span& s) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%u}}",
                 sep, name, pid, tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, pid);
    sep = ",";
    ++written;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (const RunTrace* run : runs) {
    if (written >= max_spans) break;
    std::fprintf(f,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}}",
                 sep, run->id, run->label.c_str());
    sep = ",";
    event(run->label.c_str(), run->id, 0, run->root);
    for (const Lane& lane : run->lanes) {
      std::fprintf(f,
                   ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                   "\"tid\":%zu,\"args\":{\"name\":\"dmt tid %zu\"}}",
                   run->id, lane.tid, lane.tid);
      for (const Span& s : lane.spans) {
        if (written >= max_spans) break;
        event(OpName(s.op), run->id, lane.tid, s);
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return written;
}

}  // namespace perfbench
