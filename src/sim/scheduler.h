// Discrete-event scheduler.
//
// A Scheduler owns the simulated clock and the set of pending events. Events
// scheduled for the same instant fire in FIFO order of their scheduling
// (stable via a sequence number), which keeps runs deterministic — the
// scenario record/replay subsystem (src/scenario) depends on this ordering
// being bit-for-bit stable.
//
// The implementation is a hierarchical timing wheel: 11 levels of 64 slots,
// 6 bits of the absolute nanosecond tick per level, a uint64 occupancy
// bitmap per level. Insertion is O(1) (the level is the highest 6-bit digit
// where the event time differs from the wheel cursor). Finding the next
// tick is O(1): a summary word of non-empty levels names the lowest one,
// which always holds the earliest slot, and countr_zero on that level's
// bitmap finds the slot; far-future slots cascade lazily toward level 0 as
// the cursor advances. Events are fixed-size pooled nodes with small-buffer
// callable storage, so the steady state allocates nothing; slots are doubly
// linked, so Cancel unlinks and recycles the node in O(1) (the 4.3BSD
// callout wheel's untimeout() move) instead of leaving a tombstone to
// cascade and drain. Level-0 slots are 1 ns wide, so a slot holds exactly
// one instant; its list is already in sequence order when it fires, which
// is what makes the order a strict (time, seq) comparison. See DESIGN.md §14.
//
// EventHandle holds a raw pointer + generation counter into the wheel's node
// arena, so a handle must not outlive its Scheduler. Nodes are never
// returned to the OS while the Scheduler lives (type-stable memory), which
// is what makes reading a recycled node's generation safe.
#ifndef RENONFS_SRC_SIM_SCHEDULER_H_
#define RENONFS_SRC_SIM_SCHEDULER_H_

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/util/logging.h"

namespace renonfs {

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  struct EventNode;

  // Handle for cancelling a scheduled event; default-constructed handles are
  // inert. A handle is a (node, generation) pair — no allocation — and must
  // not outlive the Scheduler that issued them.
  class EventHandle {
   public:
    EventHandle() = default;
    bool pending() const;

   private:
    friend class Scheduler;
    EventNode* node_ = nullptr;
    uint64_t gen_ = 0;
  };

  // Type-erased callable storage sized for the real datapath captures — the
  // fattest in-tree event today is Medium's delivery closure wrapping a
  // UDP datagram handler (64 bytes). Anything larger spills to one heap
  // block, counted in PoolStats::callable_heap_allocs; the nfsstat pool
  // table surfaces the count, and it should stay zero in normal runs.
  class EventCallable {
   public:
    static constexpr size_t kInlineBytes = 80;

    EventCallable() = default;
    ~EventCallable() { Destroy(); }
    EventCallable(const EventCallable&) = delete;
    EventCallable& operator=(const EventCallable&) = delete;

    // Returns true when the callable spilled to the heap.
    template <typename F>
    bool Emplace(F&& fn) {
      using Decayed = std::decay_t<F>;
      if constexpr (sizeof(Decayed) <= kInlineBytes &&
                    alignof(Decayed) <= alignof(std::max_align_t)) {
        target_ = static_cast<void*>(inline_);
        ::new (target_) Decayed(std::forward<F>(fn));
        invoke_ = [](void* p) { (*static_cast<Decayed*>(p))(); };
        destroy_ = [](void* p) { static_cast<Decayed*>(p)->~Decayed(); };
        return false;
      } else {
        target_ = new Decayed(std::forward<F>(fn));
        invoke_ = [](void* p) { (*static_cast<Decayed*>(p))(); };
        destroy_ = [](void* p) { delete static_cast<Decayed*>(p); };
        return true;
      }
    }
    void Invoke() { invoke_(target_); }
    void Destroy() {
      if (destroy_ != nullptr) {
        destroy_(target_);
        destroy_ = nullptr;
        invoke_ = nullptr;
        target_ = nullptr;
      }
    }

   private:
    void (*invoke_)(void*) = nullptr;
    void (*destroy_)(void*) = nullptr;
    void* target_ = nullptr;
    alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
  };

  // One pooled event. `next`/`prev` thread the node through its wheel slot
  // (doubly linked so Cancel can unlink in O(1); `next` alone threads the
  // freelist); `gen` increments on every recycle so stale handles read as
  // not-pending instead of aliasing the node's next tenant. `wheel_level` is
  // -1 whenever the node is not linked into a slot (freelist, or drained
  // into the current fire batch) — the `cancelled` flag only matters in that
  // drained window, where there is no list left to unlink from.
  struct EventNode {
    SimTime at = 0;
    uint64_t seq = 0;
    uint64_t gen = 0;
    bool cancelled = false;
    int8_t wheel_level = -1;
    uint8_t wheel_slot = 0;
    EventNode* next = nullptr;
    EventNode* prev = nullptr;
    EventCallable fn;
  };

  // Schedules fn to run `delay` after now. delay must be >= 0. Any callable
  // is accepted; it is stored in the node's inline buffer.
  template <typename F>
  EventHandle Schedule(SimTime delay, F&& fn) {
    CHECK_GE(delay, 0);
    EventNode* node = AcquireNode(delay);
    if (node->fn.Emplace(std::forward<F>(fn))) {
      ++callable_heap_allocs_;
    }
    InsertWheel(node);
    EventHandle handle;
    handle.node_ = node;
    handle.gen_ = node->gen;
    return handle;
  }
  void Cancel(EventHandle& handle);

  // Fast path for restartable timers: if `handle` is a live, slot-linked
  // wheel event, move its node to `delay` after now in place — unlink,
  // restamp (fresh seq, so ordering matches a cancel+reschedule), relink —
  // keeping the already-emplaced callable. Returns false (doing nothing)
  // on stale/fired handles or a node that is mid-fire; callers then fall
  // back to Cancel + Schedule.
  bool Reschedule(EventHandle& handle, SimTime delay);

  // The sequence stamp the next Schedule() will carry, without consuming it.
  // Paired with HasFired, this lets a component record a "virtual event" at
  // (at, next_seq()) that costs no scheduler work yet orders against real
  // events exactly as a real event scheduled at that point would have: real
  // events scheduled later carry stamps >= it, earlier ones stamps < it.
  uint64_t next_seq() const { return next_seq_; }

  // True once a virtual event stamped (at, seq) would have fired: `at` lies
  // in the past, or `at` is now and either no callback is running (RunUntil
  // has finished every event at or before now) or the firing event's stamp
  // is >= seq. See DESIGN.md §14.
  bool HasFired(SimTime at, uint64_t seq) const {
    return at < now_ || (at == now_ && (!firing_ || seq <= firing_seq_));
  }

  // Runs events until the queue drains or the optional deadline is reached.
  // Returns the number of events executed.
  size_t Run();
  size_t RunUntil(SimTime deadline);
  size_t RunFor(SimTime duration) { return RunUntil(now_ + duration); }

  // Cancel unlinks eagerly, so cancelled events leave the count at once.
  bool empty() const { return wheel_size_ == 0; }
  size_t events_executed() const { return events_executed_; }

  // Event-node arena occupancy. Exported as
  // sim.pool.event.* metrics diagnostics by World::InitObservability.
  struct PoolStats {
    uint64_t nodes_total = 0;
    uint64_t nodes_free = 0;
    uint64_t nodes_in_use = 0;
    uint64_t high_water = 0;
    uint64_t callable_heap_allocs = 0;
  };
  PoolStats pool_stats() const;

  // Awaitable pause: co_await scheduler.Delay(Milliseconds(5));
  struct DelayAwaiter {
    Scheduler& scheduler;
    SimTime delay;
    bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> handle) {
      scheduler.Schedule(delay, [handle]() { handle.resume(); });
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter Delay(SimTime delay) { return DelayAwaiter{*this, delay}; }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  // 11 levels x 6 bits = 66 bits: every non-negative int64 tick has a home.
  static constexpr int kLevels = 11;
  static constexpr size_t kNodesPerSlab = 256;

  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  EventNode* AcquireNode(SimTime delay);
  void RecycleNode(EventNode* node);
  void GrowArena();
  void InsertWheel(EventNode* node);
  // Removes a slot-linked node from its slot (O(1) via the prev link),
  // clearing the occupancy bit if the slot empties. Does not recycle.
  void UnlinkNode(EventNode* node);
  // Clears an emptied slot's occupancy bit, and its level's summary bit
  // when that was the level's last occupied slot.
  void ClearOccupied(int level, int index) {
    occupied_[level] &= ~(uint64_t{1} << index);
    if (occupied_[level] == 0) {
      nonempty_levels_ &= ~(uint32_t{1} << level);
    }
  }
  // Advances cur_tick_ (cascading far slots down) to the earliest pending
  // tick <= cap. Returns false when the wheel is empty or the earliest
  // possible event lies beyond cap; cur_tick_ never passes cap.
  bool FindNextTick(SimTime cap);
  // Fires every live event in the level-0 slot at cur_tick_ (in seq order,
  // re-draining for same-tick events scheduled by callbacks). Returns the
  // number executed.
  size_t FireCurrentTick();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t events_executed_ = 0;
  // Stamp of the callback being invoked, for HasFired.
  bool firing_ = false;
  uint64_t firing_seq_ = 0;

  // Wheel cursor: <= every pending event's time. Advances past now_ only
  // transiently inside RunUntil (to slot starts while cascading, never past
  // the deadline), so Schedule always inserts at times >= cur_tick_.
  SimTime cur_tick_ = 0;
  size_t wheel_size_ = 0;  // nodes in slots, cancelled included
  std::array<uint64_t, kLevels> occupied_{};
  // Bit L set iff occupied_[L] != 0; its lowest set bit names the level
  // holding the earliest pending slot.
  uint32_t nonempty_levels_ = 0;
  std::array<std::array<Slot, kSlotsPerLevel>, kLevels> slots_{};
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;
  uint64_t nodes_total_ = 0;
  uint64_t nodes_in_use_ = 0;
  uint64_t nodes_high_water_ = 0;
  uint64_t callable_heap_allocs_ = 0;
  std::vector<EventNode*> fire_buf_;  // reused per-tick batch scratch
};

inline bool Scheduler::EventHandle::pending() const {
  return node_ != nullptr && node_->gen == gen_ && !node_->cancelled;
}

// One-shot restartable timer; used for RPC retransmit timers, reassembly
// timeouts, TCP retransmit timers, etc. Stop() is safe if not running.
// Start/Stop ride the scheduler's pooled event nodes, so restarting a timer
// on a retransmit-heavy path allocates nothing after warm-up.
class Timer {
 public:
  // analyze:allow(event-alloc: one callable per Timer at construction, not one per Start)
  Timer(Scheduler& scheduler, std::function<void()> on_fire)
      : scheduler_(scheduler), on_fire_(std::move(on_fire)) {}
  ~Timer() { Stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  void Start(SimTime delay) {
    // Restart-in-place when the previous shot is still pending: the wheel
    // moves the node without touching the freelist or the callable.
    if (scheduler_.Reschedule(handle_, delay)) {
      return;
    }
    Stop();
    handle_ = scheduler_.Schedule(delay, [this]() { on_fire_(); });
  }
  void Stop() { scheduler_.Cancel(handle_); }
  bool pending() const { return handle_.pending(); }

 private:
  Scheduler& scheduler_;
  // analyze:allow(event-alloc: constructed once per Timer, not per event)
  std::function<void()> on_fire_;
  Scheduler::EventHandle handle_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_SIM_SCHEDULER_H_
