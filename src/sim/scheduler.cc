#include "src/sim/scheduler.h"

#include <bit>
#include <limits>
#include <utility>

namespace renonfs {

Scheduler::~Scheduler() = default;  // ~EventCallable destroys pending callables

Scheduler::PoolStats Scheduler::pool_stats() const {
  PoolStats stats;
  stats.nodes_total = nodes_total_;
  stats.nodes_in_use = nodes_in_use_;
  stats.nodes_free = nodes_total_ - nodes_in_use_;
  stats.high_water = nodes_high_water_;
  stats.callable_heap_allocs = callable_heap_allocs_;
  return stats;
}

void Scheduler::GrowArena() {
  slabs_.push_back(std::make_unique<EventNode[]>(kNodesPerSlab));
  EventNode* slab = slabs_.back().get();
  for (size_t i = kNodesPerSlab; i > 0; --i) {
    slab[i - 1].next = free_list_;
    free_list_ = &slab[i - 1];
  }
  nodes_total_ += kNodesPerSlab;
}

Scheduler::EventNode* Scheduler::AcquireNode(SimTime delay) {
  if (wheel_size_ == 0) {
    // The cursor may have drifted past now_ draining cancelled tail events;
    // with nothing pending it can safely snap back to the clock. (Done here,
    // not in InsertWheel: a cascade transiently empties the wheel while
    // re-dealing a slot, and rewinding the cursor mid-cascade would loop.)
    cur_tick_ = now_;
  }
  if (free_list_ == nullptr) {
    GrowArena();
  }
  EventNode* node = free_list_;
  free_list_ = node->next;
  node->next = nullptr;
  node->prev = nullptr;
  node->cancelled = false;
  node->at = now_ + delay;
  node->seq = next_seq_++;
  ++nodes_in_use_;
  if (nodes_in_use_ > nodes_high_water_) {
    nodes_high_water_ = nodes_in_use_;
  }
  return node;
}

void Scheduler::RecycleNode(EventNode* node) {
  ++node->gen;  // stale handles on this node stop reporting pending
  node->fn.Destroy();
  node->next = free_list_;
  free_list_ = node;
  --wheel_size_;
  --nodes_in_use_;
}

void Scheduler::InsertWheel(EventNode* node) {
  const uint64_t diff =
      static_cast<uint64_t>(node->at) ^ static_cast<uint64_t>(cur_tick_);
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int index = static_cast<int>(
      (static_cast<uint64_t>(node->at) >> (level * kLevelBits)) &
      (kSlotsPerLevel - 1));
  Slot& slot = slots_[level][index];
  node->next = nullptr;
  node->prev = slot.tail;
  if (slot.tail == nullptr) {
    slot.head = node;
  } else {
    slot.tail->next = node;
  }
  slot.tail = node;
  node->wheel_level = static_cast<int8_t>(level);
  node->wheel_slot = static_cast<uint8_t>(index);
  occupied_[level] |= uint64_t{1} << index;
  nonempty_levels_ |= uint32_t{1} << level;
  ++wheel_size_;
}

void Scheduler::UnlinkNode(EventNode* node) {
  Slot& slot = slots_[node->wheel_level][node->wheel_slot];
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    slot.head = node->next;
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    slot.tail = node->prev;
  }
  if (slot.head == nullptr) {
    ClearOccupied(node->wheel_level, node->wheel_slot);
  }
  node->wheel_level = -1;
  node->next = nullptr;
  node->prev = nullptr;
}

bool Scheduler::FindNextTick(SimTime cap) {
  for (;;) {
    if (nonempty_levels_ == 0) {
      return false;
    }
    // The lowest non-empty level holds the earliest candidate: a level-L node
    // shares every digit above L with the cursor and exceeds it at digit L,
    // so it lies past the cursor's level-L slot, which is where every
    // lower-level node lies. For level 0 the slot start IS the event time;
    // higher levels give a lower bound (their slots are wider).
    const int level = std::countr_zero(nonempty_levels_);
    const int shift = level * kLevelBits;
    const int cursor = static_cast<int>(
        (static_cast<uint64_t>(cur_tick_) >> shift) & (kSlotsPerLevel - 1));
    // Pending events never sit below the cursor digit at their level.
    const uint64_t mask = occupied_[level] >> cursor;
    CHECK(mask != 0) << "timing wheel: occupied slot behind the cursor";
    const int index = cursor + std::countr_zero(mask);
    // The cursor enters a far slot's span only by cascading that slot, so no
    // slot at level 1 or above is ever occupied at the cursor's own digit.
    CHECK(level == 0 || index > cursor)
        << "timing wheel: far slot occupied at the cursor digit";
    const int base_shift = shift + kLevelBits;
    const uint64_t base =
        base_shift >= 64
            ? 0
            : static_cast<uint64_t>(cur_tick_) & ~((uint64_t{1} << base_shift) - 1);
    const SimTime slot_start =
        static_cast<SimTime>(base | (static_cast<uint64_t>(index) << shift));
    if (slot_start > cap) {
      return false;
    }
    cur_tick_ = slot_start;
    if (level == 0) {
      return true;
    }
    // Cascade: deal the slot's nodes down relative to the advanced cursor.
    // Each node lands at a strictly lower level (its level-`level` digit now
    // matches the cursor's), so this terminates.
    Slot& slot = slots_[level][index];
    EventNode* node = slot.head;
    slot.head = nullptr;
    slot.tail = nullptr;
    ClearOccupied(level, index);
    while (node != nullptr) {
      EventNode* next = node->next;
      // Cancelled nodes never sit in slots (Cancel unlinks them eagerly), so
      // every node here is live and re-deals to a strictly lower level.
      --wheel_size_;  // InsertWheel re-counts it
      InsertWheel(node);
      node = next;
    }
  }
}

size_t Scheduler::FireCurrentTick() {
  const int index =
      static_cast<int>(static_cast<uint64_t>(cur_tick_) & (kSlotsPerLevel - 1));
  Slot& slot = slots_[0][index];
  size_t executed = 0;
  // Re-drain after each batch: callbacks may schedule more work for this same
  // instant, and it must fire now, after the batch (it carries a higher seq).
  while (slot.head != nullptr) {
    fire_buf_.clear();
    for (EventNode* node = slot.head; node != nullptr; node = node->next) {
      // Every slot list is already in seq order, so the batch fires in
      // strict (time, seq) order as drained: inserts and Reschedule append
      // fresh, ever-larger seqs, and a cascade re-deals a slot in list order
      // into lower levels that are empty at that moment (anything there
      // would be due before the slot's start and would have fired first).
      CHECK(fire_buf_.empty() || fire_buf_.back()->seq < node->seq)
          << "timing wheel: slot out of seq order";
      // Out of the slot list: a Cancel from a callback in this batch falls
      // back to the `cancelled` flag instead of unlinking.
      node->wheel_level = -1;
      fire_buf_.push_back(node);
    }
    slot.head = nullptr;
    slot.tail = nullptr;
    ClearOccupied(0, index);
    for (EventNode* node : fire_buf_) {
      if (node->cancelled) {
        RecycleNode(node);
        continue;
      }
      now_ = node->at;
      // Mark consumed before invoking: the handle must read not-pending
      // inside its own callback, and a Cancel from the callback must be a
      // harmless no-op.
      node->cancelled = true;
      firing_ = true;
      firing_seq_ = node->seq;
      node->fn.Invoke();
      firing_ = false;
      node->fn.Destroy();
      RecycleNode(node);
      ++executed;
      ++events_executed_;
    }
  }
  return executed;
}

void Scheduler::Cancel(EventHandle& handle) {
  EventNode* node = handle.node_;
  handle.node_ = nullptr;
  if (node == nullptr || node->gen != handle.gen_ || node->cancelled) {
    return;
  }
  if (node->wheel_level >= 0) {
    // Slot-linked: unlink and recycle right now (O(1) via the prev link) —
    // no tombstone for the cascade or fire paths to step over.
    UnlinkNode(node);
    RecycleNode(node);
  } else {
    // Drained into the in-flight fire batch; the fire loop reaps it.
    node->cancelled = true;
  }
}

bool Scheduler::Reschedule(EventHandle& handle, SimTime delay) {
  CHECK_GE(delay, 0);
  EventNode* node = handle.node_;
  if (node == nullptr || node->gen != handle.gen_ || node->cancelled ||
      node->wheel_level < 0) {
    return false;
  }
  UnlinkNode(node);
  --wheel_size_;  // InsertWheel re-counts it
  node->at = now_ + delay;
  node->seq = next_seq_++;
  InsertWheel(node);
  return true;
}

size_t Scheduler::Run() { return RunUntil(std::numeric_limits<SimTime>::max()); }

size_t Scheduler::RunUntil(SimTime deadline) {
  size_t executed = 0;
  while (FindNextTick(deadline)) {
    executed += FireCurrentTick();
  }
  if (deadline != std::numeric_limits<SimTime>::max() && now_ < deadline) {
    now_ = deadline;
  }
  return executed;
}

}  // namespace renonfs
