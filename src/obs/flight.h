// Time-series flight recorder.
//
// Final counters say *that* a soak went bad; the flight recorder says
// *when*. A FlightRecorder ticks on a fixed simulated-time cadence, reads
// every MetricsRegistry counter, and keeps the per-tick delta in a bounded
// ring — old frames are evicted, so a recorder can stay attached to an
// arbitrarily long run and still hold the recent window when something
// fails. Chaos/fault failure dumps include the timeline next to the profile,
// trace tail, and metrics they already print.
//
// A tick works by registry index: it reads the sources in registration order
// into a reused scratch vector and subtracts the previous read index by index
// into the ring slot it overwrites. Names, the name-sorted order and the JSON
// are produced only by the exports, so in steady state a tick allocates
// nothing. A counter registered after Start() counts from 0, as
// MetricsSnapshot::DeltaSince defines it. Gauges (MetricsRegistry::
// RegisterGauge) are levels, not counts: a frame keeps their end-of-window
// value instead of differencing it.
//
// The recorder is observation-only: its tick reads counters and writes its
// own ring, never simulation state, so enabling it does not change what the
// simulation does — only (trivially) how many scheduler events exist. It
// holds no frame storage until Start().
//
// Exports: JSONL (one frame per line, non-zero counter deltas only plus a
// "gauges" object of levels when the registry has gauges — the
// `nfsstat --timeline` artifact, validated by scripts/validate_trace.py
// --timeline) and a long-format CSV of counter deltas (at_ms,name,delta).
#ifndef RENONFS_SRC_OBS_FLIGHT_H_
#define RENONFS_SRC_OBS_FLIGHT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace renonfs {

struct FlightOptions {
  SimTime interval = Milliseconds(250);  // tick cadence (simulated time)
  size_t capacity = 240;                 // frames kept (ring)
};

class FlightRecorder {
 public:
  FlightRecorder(Scheduler& scheduler, const MetricsRegistry& registry,
                 FlightOptions options = {});
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Arms the periodic tick; idempotent. Stop() cancels the pending shot.
  void Start();
  void Stop();

  // One frame: the counter deltas accumulated over the tick window ending
  // at `at` (delta.at holds the window length, as DeltaSince defines it), and
  // the end-of-window level of every gauge. Both are sorted by name.
  struct Frame {
    SimTime at = 0;
    MetricsSnapshot delta;
    std::vector<std::pair<std::string, uint64_t>> gauges;
  };

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return options_.capacity; }
  uint64_t frames_captured() const { return captured_; }
  uint64_t frames_evicted() const { return captured_ - size(); }
  // Heap bytes held for frames and the previous read; 0 before Start().
  size_t storage_bytes() const;

  // Buffered frames, oldest first.
  std::vector<Frame> Frames() const;

  std::string ToJsonl() const;
  std::string ToCsv() const;
  // Last `n` frames, one compact human-readable line each (failure dumps).
  std::string Tail(size_t n) const;

 private:
  // A frame as the tick stores it: values by registry index. Slots captured
  // before a late registration are shorter than the registry.
  struct Slot {
    SimTime at = 0;
    SimTime window = 0;
    std::vector<uint64_t> values;  // counter delta, or gauge level
  };
  // Registry indices in name order, split into counters and gauges.
  struct ExportOrder {
    std::vector<size_t> counters;
    std::vector<size_t> gauges;
  };

  void Tick();
  ExportOrder NameOrder() const;
  // Ring slots, oldest first.
  const Slot& SlotAt(size_t i) const { return ring_[(next_ + i) % ring_.size()]; }

  Scheduler& scheduler_;
  const MetricsRegistry& registry_;
  FlightOptions options_;
  Timer timer_;
  bool running_ = false;
  SimTime last_at_ = 0;
  std::vector<uint64_t> last_;     // previous read, registry order
  std::vector<uint64_t> scratch_;  // this tick's read; swapped into last_
  std::vector<Slot> ring_;
  size_t next_ = 0;  // ring write position once full
  uint64_t captured_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_FLIGHT_H_
