#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/cpu.h"
#include "src/sim/disk.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/util/pool.h"
#include "src/util/rng.h"

namespace renonfs {
namespace {

TEST(SchedulerTest, EventsFireInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Schedule(Milliseconds(30), [&]() { order.push_back(3); });
  sched.Schedule(Milliseconds(10), [&]() { order.push_back(1); });
  sched.Schedule(Milliseconds(20), [&]() { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Milliseconds(30));
}

TEST(SchedulerTest, SameInstantIsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.Schedule(Milliseconds(5), [&order, i]() { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.Schedule(Milliseconds(5), [&]() { fired = true; });
  EXPECT_TRUE(handle.pending());
  sched.Cancel(handle);
  sched.Run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(handle.pending());
}

TEST(SchedulerTest, RunUntilStopsAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  sched.Schedule(Milliseconds(10), [&]() { ++count; });
  sched.Schedule(Milliseconds(100), [&]() { ++count; });
  sched.RunUntil(Milliseconds(50));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), Milliseconds(50));
  sched.Run();
  EXPECT_EQ(count, 2);
}

TEST(SchedulerTest, NestedScheduling) {
  Scheduler sched;
  SimTime second_fire = 0;
  sched.Schedule(Milliseconds(1), [&]() {
    sched.Schedule(Milliseconds(2), [&]() { second_fire = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(second_fire, Milliseconds(3));
}

TEST(TimerTest, RestartReplacesDeadline) {
  Scheduler sched;
  int fires = 0;
  Timer timer(sched, [&]() { ++fires; });
  timer.Start(Milliseconds(10));
  timer.Start(Milliseconds(50));  // restart: first deadline cancelled
  sched.RunUntil(Milliseconds(20));
  EXPECT_EQ(fires, 0);
  sched.Run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StopPreventsFire) {
  Scheduler sched;
  int fires = 0;
  Timer timer(sched, [&]() { ++fires; });
  timer.Start(Milliseconds(10));
  timer.Stop();
  sched.Run();
  EXPECT_EQ(fires, 0);
}

CoTask<int> ReturnAfterDelay(Scheduler& sched, SimTime delay, int value) {
  co_await sched.Delay(delay);
  co_return value;
}

TEST(CoTaskTest, AwaitReturnsValue) {
  Scheduler sched;
  int result = 0;
  auto outer = [](Scheduler& s, int& out) -> CoTask<void> {
    out = co_await ReturnAfterDelay(s, Milliseconds(5), 42);
  }(sched, result);
  sched.Run();
  EXPECT_TRUE(outer.done());
  EXPECT_EQ(result, 42);
}

TEST(CoTaskTest, ImmediateCompletionAwaitable) {
  Scheduler sched;
  int result = 0;
  auto outer = [](Scheduler& s, int& out) -> CoTask<void> {
    // Completes synchronously; the awaiter must not hang.
    out = co_await ReturnAfterDelay(s, 0, 7);
  }(sched, result);
  sched.Run();
  EXPECT_TRUE(outer.done());
  EXPECT_EQ(result, 7);
}

TEST(CoTaskTest, DetachedTaskRunsToCompletion) {
  Scheduler sched;
  bool finished = false;
  auto task = [](Scheduler& s, bool& done_flag) -> CoTask<void> {
    co_await s.Delay(Milliseconds(3));
    done_flag = true;
  }(sched, finished);
  task.Detach();
  sched.Run();
  EXPECT_TRUE(finished);
}

TEST(CoTaskTest, SequentialDelaysAccumulate) {
  Scheduler sched;
  SimTime finish = -1;
  auto task = [](Scheduler& s, SimTime& out) -> CoTask<void> {
    co_await s.Delay(Milliseconds(10));
    co_await s.Delay(Milliseconds(10));
    co_await s.Delay(Milliseconds(10));
    out = s.now();
  }(sched, finish);
  task.Detach();
  sched.Run();
  EXPECT_EQ(finish, Milliseconds(30));
}

TEST(SimFutureTest, SetBeforeAwait) {
  Scheduler sched;
  SimFuture<int> future;
  SimPromise<int> promise(future);
  promise.Set(9);
  int got = 0;
  auto task = [](SimFuture<int> f, int& out) -> CoTask<void> { out = co_await f; }(future, got);
  sched.Run();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(got, 9);
}

TEST(SimFutureTest, SetAfterAwaitResumes) {
  Scheduler sched;
  SimFuture<std::string> future;
  SimPromise<std::string> promise(future);
  std::string got;
  auto task =
      [](SimFuture<std::string> f, std::string& out) -> CoTask<void> { out = co_await f; }(future,
                                                                                           got);
  sched.Schedule(Milliseconds(4), [&]() { promise.Set("hello"); });
  sched.Run();
  EXPECT_EQ(got, "hello");
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Scheduler sched;
  Semaphore sem(2);
  int active = 0;
  int peak = 0;
  auto worker = [](Scheduler& s, Semaphore& sm, int& act, int& pk) -> CoTask<void> {
    co_await sm.Acquire();
    ++act;
    pk = std::max(pk, act);
    co_await s.Delay(Milliseconds(10));
    --act;
    sm.Release();
  };
  std::vector<CoTask<void>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(worker(sched, sem, active, peak));
  }
  sched.Run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  // 6 jobs, 2 at a time, 10ms each -> 30ms.
  EXPECT_EQ(sched.now(), Milliseconds(30));
}

TEST(SemaphoreTest, TryAcquire) {
  Semaphore sem(1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(WaitGroupTest, WaitsForAll) {
  Scheduler sched;
  WaitGroup group;
  SimTime done_at = -1;
  group.Add(3);
  for (int i = 1; i <= 3; ++i) {
    sched.Schedule(Milliseconds(i * 10), [&]() { group.Done(); });
  }
  auto waiter = [](Scheduler& s, WaitGroup& g, SimTime& out) -> CoTask<void> {
    co_await g.Wait();
    out = s.now();
  }(sched, group, done_at);
  waiter.Detach();
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(30));
}

TEST(WaitGroupTest, EmptyWaitReturnsImmediately) {
  Scheduler sched;
  WaitGroup group;
  bool done = false;
  auto waiter = [](WaitGroup& g, bool& out) -> CoTask<void> {
    co_await g.Wait();
    out = true;
  }(group, done);
  EXPECT_TRUE(done);
  EXPECT_TRUE(waiter.done());
}

TEST(CpuTest, FifoSerialization) {
  Scheduler sched;
  CpuResource cpu(sched);
  std::vector<SimTime> completions;
  cpu.Charge(Milliseconds(10), [&]() { completions.push_back(sched.now()); });
  cpu.Charge(Milliseconds(5), [&]() { completions.push_back(sched.now()); });
  sched.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], Milliseconds(10));
  EXPECT_EQ(completions[1], Milliseconds(15));
  EXPECT_EQ(cpu.busy_accum(), Milliseconds(15));
}

TEST(CpuTest, SpeedFactorScalesCost) {
  Scheduler sched;
  CpuResource fast(sched, 10.0);
  SimTime done_at = -1;
  fast.Charge(Milliseconds(10), [&]() { done_at = sched.now(); });
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(1));
}

TEST(CpuTest, IdleGapThenNewWork) {
  Scheduler sched;
  CpuResource cpu(sched);
  SimTime done_at = -1;
  sched.Schedule(Milliseconds(100), [&]() {
    cpu.Charge(Milliseconds(10), [&]() { done_at = sched.now(); });
  });
  sched.Run();
  // Work starts at 100ms (CPU idle before), not queued behind idle time.
  EXPECT_EQ(done_at, Milliseconds(110));
  EXPECT_EQ(cpu.busy_accum(), Milliseconds(10));
}

TEST(DiskTest, LatencyIncludesTransfer) {
  Scheduler sched;
  DiskProfile profile;
  profile.avg_access = Milliseconds(30);
  profile.transfer_bytes_per_sec = 1024 * 1024;  // 1 MB/s
  DiskModel disk(sched, profile);
  SimTime done_at = -1;
  disk.Submit(1024 * 1024, [&]() { done_at = sched.now(); });
  sched.Run();
  EXPECT_EQ(done_at, Milliseconds(30) + Seconds(1));
  EXPECT_EQ(disk.ops_completed(), 1u);
}

TEST(DiskTest, OpsQueue) {
  Scheduler sched;
  DiskProfile profile;
  profile.avg_access = Milliseconds(10);
  profile.transfer_bytes_per_sec = 1e12;  // negligible transfer
  DiskModel disk(sched, profile);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(0, [&]() { completions.push_back(sched.now()); });
  }
  sched.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[2], Milliseconds(30));
}

// --- timing-wheel edge cases ------------------------------------------------
// Events fire in strict (time, seq) order: earlier instants first, and
// same-instant events in the order they were scheduled. These pin the
// corners where a wheel implementation most easily drifts from that
// contract.

TEST(SchedulerWheelTest, CancelAtSameTickFromEarlierEvent) {
  Scheduler sched;
  bool b_fired = false;
  Scheduler::EventHandle b;
  // Same instant, lower sequence number: fires first and cancels b before
  // the batch reaches it.
  sched.Schedule(Milliseconds(5), [&]() { sched.Cancel(b); });
  b = sched.Schedule(Milliseconds(5), [&]() { b_fired = true; });
  sched.Run();
  EXPECT_FALSE(b_fired);
}

TEST(SchedulerWheelTest, HandleNotPendingInsideOwnCallback) {
  Scheduler sched;
  Scheduler::EventHandle handle;
  bool pending_inside = true;
  handle = sched.Schedule(Milliseconds(1), [&]() {
    pending_inside = handle.pending();
    sched.Cancel(handle);  // self-cancel mid-fire must be a no-op
  });
  sched.Run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(SchedulerWheelTest, SameTickFifoAcrossWheelLevels) {
  Scheduler sched;
  std::vector<int> order;
  // seq 0 sits at a high wheel level until the cursor approaches, then
  // cascades into the same level-0 slot as the late-scheduled seq for the
  // identical instant. FIFO order (by scheduling sequence) must survive.
  sched.Schedule(Milliseconds(100), [&]() { order.push_back(0); });
  sched.Schedule(Milliseconds(99), [&]() {
    sched.Schedule(Milliseconds(1), [&]() { order.push_back(1); });
  });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerWheelTest, SameInstantOrderSurvivesHigherSlotCascade) {
  Scheduler sched;
  std::vector<int> order;
  // 4096 ns is the start of a level-2 slot (64^2 one-ns ticks) as seen from
  // time 0, where ids 0 and 1 are scheduled onto it. A callback inside the
  // slot's level-1 predecessor then schedules onto that same instant (id 2)
  // and into the slot's span (id 3, listed first); id 4 joins later (below).
  // The instant fires every event on it in scheduling order, then id 3.
  const SimTime slot_start = Nanoseconds(4096);
  sched.Schedule(slot_start, [&]() { order.push_back(0); });
  sched.Schedule(slot_start, [&]() { order.push_back(1); });
  sched.Schedule(Nanoseconds(4000), [&]() {
    sched.Schedule(Nanoseconds(104), [&]() { order.push_back(3); });
    sched.Schedule(slot_start - sched.now(), [&]() { order.push_back(2); });
  });
  // Stop short of the slot: the clock moves to 4050 while the cursor stays
  // behind, and a same-instant event scheduled now joins the slot unfired.
  sched.RunUntil(Nanoseconds(4050));
  sched.Schedule(slot_start - sched.now(), [&]() { order.push_back(4); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
}

TEST(SchedulerWheelTest, RestartedTimerFiresAfterEventScheduledBetweenStarts) {
  Scheduler sched;
  std::vector<int> order;
  Timer timer(sched, [&]() { order.push_back(1); });
  timer.Start(Milliseconds(1));
  sched.Schedule(Milliseconds(2), [&]() { order.push_back(0); });
  // Restarting the still-pending timer moves its node in place; it must take
  // a fresh sequence number, like a cancel plus a new Schedule, and so fire
  // after the event scheduled before the restart for the same instant.
  timer.Start(Milliseconds(2));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerWheelTest, FarFutureOverflowCascades) {
  Scheduler sched;
  std::vector<SimTime> fired_at;
  auto log = [&]() { fired_at.push_back(sched.now()); };
  sched.Schedule(SimTime{1} << 60, log);  // top wheel levels
  sched.Schedule(SimTime{1} << 40, log);
  sched.Schedule(Milliseconds(1), log);
  sched.Run();
  ASSERT_EQ(fired_at.size(), 3u);
  EXPECT_EQ(fired_at[0], Milliseconds(1));
  EXPECT_EQ(fired_at[1], SimTime{1} << 40);
  EXPECT_EQ(fired_at[2], SimTime{1} << 60);
  EXPECT_EQ(sched.now(), SimTime{1} << 60);
}

TEST(SchedulerWheelTest, RunUntilDeadlineMidSlot) {
  Scheduler sched;
  int fired = 0;
  // Raw nanosecond ticks sharing one level-1 span; the deadline lands
  // exactly on the middle event (which must fire) and strictly before the
  // third (which must not).
  sched.Schedule(Nanoseconds(100), [&]() { ++fired; });
  sched.Schedule(Nanoseconds(120), [&]() { ++fired; });
  sched.Schedule(Nanoseconds(121), [&]() { ++fired; });
  sched.RunUntil(Nanoseconds(120));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), Nanoseconds(120));
  sched.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SchedulerWheelTest, CancelledTailThenRescheduleEarlier) {
  Scheduler sched;
  auto handle = sched.Schedule(Seconds(10), []() {});
  sched.Cancel(handle);
  sched.Run();  // drains the cancelled node; the clock must not move
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.now(), 0);
  // The wheel cursor drifted to the cancelled tick; a new near event must
  // still land relative to the (unmoved) clock and fire on time.
  bool fired = false;
  sched.Schedule(Milliseconds(1), [&]() { fired = true; });
  sched.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), Milliseconds(1));
}

// FNV-1a over each (id, fire-time) pair, both as little-endian 64-bit words.
uint64_t FireLogDigest(const std::vector<std::pair<int, SimTime>>& log) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [id, at] : log) {
    mix(static_cast<uint64_t>(id));
    mix(static_cast<uint64_t>(at));
  }
  return hash;
}

TEST(SchedulerWheelTest, MatchesLegacyHeapOnSeededRandomSchedule) {
  // One seeded script of bursts, cancels, and bounded drains. The golden
  // length and digest of its (id, fire-time) log were recorded on a
  // std::priority_queue scheduler ordered by (time, seq) — an independent
  // reference for the determinism contract the scenario replay subsystem
  // leans on. Half the events land on a shared grid of wheel-slot starts
  // (2^17 ns), so events scheduled in different rounds meet on one instant
  // and the log pins same-instant FIFO order too.
  constexpr size_t kGoldenLength = 907;
  constexpr uint64_t kGoldenDigest = 0xb20795cb610e04e6ull;
  constexpr SimTime kGrid = SimTime{1} << 17;
  Scheduler sched;
  Rng rng(42);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<Scheduler::EventHandle> handles;
  int next_id = 0;
  for (int round = 0; round < 200; ++round) {
    const uint64_t burst = 1 + rng.UniformUint64(8);
    for (uint64_t i = 0; i < burst; ++i) {
      const int id = next_id++;
      const SimTime now = sched.now();
      const SimTime delay =
          rng.Bernoulli(0.5)
              ? static_cast<SimTime>(rng.UniformUint64(static_cast<uint64_t>(Milliseconds(2))))
              : (now / kGrid + 1 + static_cast<SimTime>(rng.UniformUint64(20))) * kGrid - now;
      handles.push_back(sched.Schedule(
          delay, [&log, &sched, id]() { log.emplace_back(id, sched.now()); }));
    }
    if (rng.Bernoulli(0.3)) {
      sched.Cancel(handles[rng.UniformUint64(handles.size())]);
    }
    sched.RunFor(
        static_cast<SimTime>(rng.UniformUint64(static_cast<uint64_t>(Milliseconds(1)))));
  }
  sched.Run();
  EXPECT_EQ(log.size(), kGoldenLength);
  EXPECT_EQ(FireLogDigest(log), kGoldenDigest);
}

// Drives a Scheduler and a std::set keyed by (at, seq) in lockstep: every
// Schedule, Timer::Start, Cancel and Timer::Stop is applied to both, each
// fire appends the wheel's (now, id) to one log and pops the model's minimum
// into the other, so the two logs agree exactly when the wheel fires in
// strict (time, seq) order. Ids at and above kTimerIdBase are Timers.
class WheelVersusSetModel {
 public:
  static constexpr int kTimers = 8;
  static constexpr int kTimerIdBase = 1 << 30;
  // Past this many plain events, callbacks stop adding new ones.
  static constexpr int kMaxEvents = 6000;
  // Every event lands at or before this, so now + delay never overflows.
  static constexpr SimTime kHorizon = (SimTime{1} << 62) + (SimTime{1} << 61);

  using Log = std::vector<std::pair<SimTime, int>>;

  explicit WheelVersusSetModel(uint64_t seed) : rng_(seed) {
    for (int t = 0; t < kTimers; ++t) {
      timers_.push_back(
          std::make_unique<Timer>(sched_, [this, t]() { Fire(kTimerIdBase + t); }));
    }
  }

  // Log-uniform up to 2^62 ns, so every wheel level sees traffic; a quarter
  // land on a shared grid of slot starts at a random level, so events from
  // different rounds meet on one instant.
  SimTime DrawDelay() {
    const SimTime now = sched_.now();
    SimTime delay;
    if (rng_.Bernoulli(0.25)) {
      const SimTime grid = SimTime{1} << (6 * (1 + rng_.UniformUint64(8)));
      delay = (now / grid + 1 + static_cast<SimTime>(rng_.UniformUint64(4))) * grid - now;
    } else {
      const uint64_t bits = rng_.UniformUint64(63);
      delay = static_cast<SimTime>(rng_.UniformUint64(uint64_t{1} << bits));
    }
    return std::min(delay, kHorizon - now);
  }

  void Add(SimTime delay) {
    const int id = static_cast<int>(handles_.size());
    handles_.push_back(sched_.Schedule(delay, [this, id]() { Fire(id); }));
    Insert(id, sched_.now() + delay);
  }

  void CancelRandom() {
    if (handles_.empty()) {
      return;
    }
    const int id = static_cast<int>(rng_.UniformUint64(handles_.size()));
    EXPECT_EQ(handles_[id].pending(), pending_.count(id) == 1) << "event " << id;
    sched_.Cancel(handles_[id]);
    Erase(id);
  }

  void RestartRandomTimer() {
    const int t = static_cast<int>(rng_.UniformUint64(kTimers));
    const SimTime delay = DrawDelay();
    timers_[t]->Start(delay);
    Erase(kTimerIdBase + t);
    Insert(kTimerIdBase + t, sched_.now() + delay);
  }

  void StopRandomTimer() {
    const int t = static_cast<int>(rng_.UniformUint64(kTimers));
    EXPECT_EQ(timers_[t]->pending(), pending_.count(kTimerIdBase + t) == 1) << "timer " << t;
    timers_[t]->Stop();
    Erase(kTimerIdBase + t);
  }

  // Cancels everything, leaving the wheel empty with its cursor wherever the
  // last fire or cascade put it.
  void CancelAll() {
    std::vector<int> ids;
    for (const auto& [id, key] : pending_) {
      ids.push_back(id);
    }
    for (const int id : ids) {
      if (id >= kTimerIdBase) {
        timers_[id - kTimerIdBase]->Stop();
      } else {
        sched_.Cancel(handles_[id]);
      }
      Erase(id);
    }
  }

  // Anything the model still holds at or before the deadline was missed.
  void RunUntil(SimTime deadline) {
    sched_.RunUntil(deadline);
    EXPECT_EQ(sched_.now(), deadline);
    while (!model_.empty() && std::get<0>(*model_.begin()) <= deadline) {
      PopModel();
    }
  }

  void Drain() {
    sched_.Run();
    while (!model_.empty()) {
      PopModel();
    }
  }

  Scheduler& sched() { return sched_; }
  Rng& rng() { return rng_; }
  const Log& fired() const { return fired_; }
  const Log& expected() const { return expected_; }

 private:
  using Key = std::tuple<SimTime, uint64_t, int>;  // (at, seq, id)

  void Insert(int id, SimTime at) {
    const Key key{at, model_seq_++, id};
    model_.insert(key);
    pending_[id] = key;
  }

  void Erase(int id) {
    const auto it = pending_.find(id);
    if (it != pending_.end()) {
      model_.erase(it->second);
      pending_.erase(it);
    }
  }

  void PopModel() {
    const auto [at, seq, id] = *model_.begin();
    expected_.emplace_back(at, id);
    Erase(id);
  }

  // Every callback: log, pop the model, then schedule (some at delay 0, the
  // same instant), cancel, and restart or stop a Timer.
  void Fire(int id) {
    fired_.emplace_back(sched_.now(), id);
    if (model_.empty()) {
      expected_.emplace_back(-1, -1);
    } else {
      PopModel();
    }
    if (static_cast<int>(handles_.size()) < kMaxEvents) {
      for (uint64_t n = rng_.UniformUint64(3); n > 0; --n) {
        Add(DrawDelay());
      }
      if (rng_.Bernoulli(0.15)) {
        Add(0);
      }
    }
    if (rng_.Bernoulli(0.2)) {
      CancelRandom();
    }
    if (rng_.Bernoulli(0.2)) {
      RestartRandomTimer();
    }
    if (rng_.Bernoulli(0.1)) {
      StopRandomTimer();
    }
  }

  Scheduler sched_;
  Rng rng_;
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<Scheduler::EventHandle> handles_;
  std::set<Key> model_;
  std::map<int, Key> pending_;
  uint64_t model_seq_ = 0;
  Log fired_;
  Log expected_;
};

TEST(SchedulerWheelTest, MatchesSetModelAcrossAllLevelsWithCallbackChurn) {
  for (const uint64_t seed : {1, 2, 3}) {
    WheelVersusSetModel fuzz(seed);
    Rng& rng = fuzz.rng();
    for (int round = 0; round < 300; ++round) {
      for (uint64_t n = 1 + rng.UniformUint64(6); n > 0; --n) {
        fuzz.Add(fuzz.DrawDelay());
      }
      if (rng.Bernoulli(0.3)) {
        fuzz.CancelRandom();
      }
      if (rng.Bernoulli(0.3)) {
        fuzz.RestartRandomTimer();
      }
      if (rng.Bernoulli(0.1)) {
        fuzz.StopRandomTimer();
      }
      if (rng.Bernoulli(0.1)) {
        // An idle gap: with the wheel empty the clock runs on alone, and the
        // next Schedule snaps the lagging cursor forward to it.
        fuzz.CancelAll();
        EXPECT_TRUE(fuzz.sched().empty());
      }
      const uint64_t gap_bits = rng.UniformUint64(41);
      const SimTime now = fuzz.sched().now();
      fuzz.RunUntil(std::min(
          now + static_cast<SimTime>(rng.UniformUint64(uint64_t{1} << gap_bits)),
          WheelVersusSetModel::kHorizon));
    }
    // A final ladder, one event per wheel level, so the drain cascades down
    // from the top level on every seed.
    for (int level = 0; level < 11; ++level) {
      const SimTime room = WheelVersusSetModel::kHorizon - fuzz.sched().now();
      fuzz.Add(std::min(SimTime{1} << (6 * level), room));
    }
    fuzz.Drain();
    ASSERT_EQ(fuzz.fired().size(), fuzz.expected().size()) << "seed " << seed;
    for (size_t i = 0; i < fuzz.fired().size(); ++i) {
      ASSERT_EQ(fuzz.fired()[i], fuzz.expected()[i]) << "seed " << seed << " fire " << i;
    }
    // The schedule reached the top wheel levels and put several events on
    // one instant.
    size_t far = 0;
    size_t same_instant = 0;
    for (size_t i = 0; i < fuzz.fired().size(); ++i) {
      far += fuzz.fired()[i].first >= (SimTime{1} << 60);
      same_instant += i > 0 && fuzz.fired()[i].first == fuzz.fired()[i - 1].first;
    }
    EXPECT_GT(fuzz.fired().size(), 4000u);
    EXPECT_GT(far, 0u);
    EXPECT_GT(same_instant, 0u);
  }
}

TEST(SchedulerWheelTest, EventPoolRecyclesNodes) {
  Scheduler sched;
  for (int i = 0; i < 10000; ++i) {
    sched.Schedule(Nanoseconds(1), []() {});
    sched.Run();
  }
  const Scheduler::PoolStats stats = sched.pool_stats();
  EXPECT_EQ(stats.nodes_total, 256u);  // one slab; churn never grew the arena
  EXPECT_EQ(stats.nodes_in_use, 0u);
  EXPECT_EQ(stats.nodes_free, 256u);
  EXPECT_LE(stats.high_water, 2u);
  EXPECT_EQ(stats.callable_heap_allocs, 0u);  // stateless lambda stays inline
}

TEST(SchedulerWheelTest, TimerRestartIsAllocationFree) {
  Scheduler sched;
  uint64_t fires = 0;
  Timer timer(sched, [&fires]() { ++fires; });
  for (int i = 0; i < 10000; ++i) {
    timer.Start(Microseconds(10));
    if ((i & 7) == 0) {
      sched.RunFor(Microseconds(5));
    }
  }
  sched.Run();
  const Scheduler::PoolStats stats = sched.pool_stats();
  EXPECT_EQ(stats.nodes_total, 256u);
  EXPECT_EQ(stats.nodes_in_use, 0u);
  EXPECT_EQ(stats.callable_heap_allocs, 0u);
  EXPECT_GE(fires, 1u);
}

// --- virtual events: next_seq / HasFired ------------------------------------
// A stamp (at, next_seq()) taken at some point must read as fired exactly
// when a real event scheduled at that point would have fired. Medium's
// eventless queue entries rely on it.

TEST(SchedulerStampTest, StampPeekedBeforeSameInstantEventCountsAsFired) {
  Scheduler sched;
  const uint64_t stamp = sched.next_seq();
  EXPECT_EQ(sched.next_seq(), stamp);  // peeking consumes nothing
  bool fired_inside = false;
  sched.Schedule(Milliseconds(5), [&]() {
    fired_inside = sched.HasFired(Milliseconds(5), stamp);
  });
  EXPECT_EQ(sched.next_seq(), stamp + 1);
  sched.Run();
  EXPECT_TRUE(fired_inside);
}

TEST(SchedulerStampTest, StampPeekedAfterSameInstantEventIsPending) {
  Scheduler sched;
  bool fired_in_first = true;
  bool fired_in_second = false;
  uint64_t stamp = 0;
  sched.Schedule(Milliseconds(5), [&]() {
    fired_in_first = sched.HasFired(Milliseconds(5), stamp);
  });
  stamp = sched.next_seq();
  sched.Schedule(Milliseconds(5), [&]() {
    fired_in_second = sched.HasFired(Milliseconds(5), stamp);
  });
  sched.Run();
  EXPECT_FALSE(fired_in_first);
  EXPECT_TRUE(fired_in_second);
}

TEST(SchedulerStampTest, EarlierInstantsAlwaysCountAsFired) {
  Scheduler sched;
  bool earlier = false;
  bool later = true;
  sched.Schedule(Milliseconds(5), [&]() {
    earlier = sched.HasFired(Milliseconds(5) - 1, ~uint64_t{0});
    later = sched.HasFired(Milliseconds(5) + 1, 0);
  });
  sched.Run();
  EXPECT_TRUE(earlier);
  EXPECT_FALSE(later);
}

TEST(SchedulerStampTest, DeadlineStampCountsAsFiredAfterRunUntil) {
  Scheduler sched;
  sched.Schedule(Milliseconds(10), []() {});
  // Peeked after the deadline's own event: as a real event it would fire
  // last at the deadline, and RunUntil fires everything at the deadline.
  const uint64_t stamp = sched.next_seq();
  EXPECT_FALSE(sched.HasFired(Milliseconds(10), stamp));
  sched.RunUntil(Milliseconds(10));
  EXPECT_TRUE(sched.HasFired(Milliseconds(10), stamp));
  EXPECT_FALSE(sched.HasFired(Milliseconds(10) + 1, 0));
}

TEST(FixedPoolTest, RecyclesBlocksAndTracksHighWater) {
  FixedPool pool("sim-test-pool", 64, 8, 4);
  void* a = pool.Allocate();
  void* b = pool.Allocate();
  pool.Free(a);
  void* c = pool.Allocate();
  EXPECT_EQ(pool.stats().in_use, 2u);
  EXPECT_EQ(pool.stats().high_water, 2u);
  if (FixedPool::bypass()) {
    // Sanitized build: every block is a fresh heap allocation by design.
    EXPECT_EQ(pool.stats().recycles, 0u);
  } else {
    EXPECT_EQ(c, a);  // the freed block came back off the freelist
    EXPECT_EQ(pool.stats().recycles, 1u);
    EXPECT_EQ(pool.stats().fresh_allocs, 2u);
  }
  EXPECT_EQ(FixedPool::Find("sim-test-pool"), &pool);
  pool.Free(b);
  pool.Free(c);
  EXPECT_EQ(pool.stats().in_use, 0u);
}

}  // namespace
}  // namespace renonfs
