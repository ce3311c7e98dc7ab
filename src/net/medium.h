// Shared transmission medium: an Ethernet segment, the campus 80 Mbit token
// ring, or a 56 Kbps point-to-point line.
//
// The medium is modelled as a single FIFO resource: frames queue, serialize
// at the link bandwidth, then arrive at the link-layer destination after the
// propagation delay. A finite queue produces tail drops under congestion,
// and an optional random loss probability models noisy lines. Background
// cross-traffic is injected as anonymous frames that occupy bandwidth and
// queue slots (the paper's runs shared production networks). A frame that
// will never be delivered (background, or lost on the wire) schedules no
// event: it is a lazy queue entry, reaped once its arrival has passed.
#ifndef RENONFS_SRC_NET_MEDIUM_H_
#define RENONFS_SRC_NET_MEDIUM_H_

#include <cstdint>
#include <functional>
#include <vector>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/net/frame.h"
#include "src/obs/trace.h"
#include "src/sim/scheduler.h"
#include "src/util/rng.h"

namespace renonfs {

struct MediumConfig {
  std::string name = "link";
  double bits_per_sec = 10e6;
  SimTime propagation_delay = Microseconds(50);
  size_t mtu = 1500;               // max IP packet (header + payload) per frame
  size_t framing_bytes = 18;       // link-layer header/trailer overhead
  size_t queue_limit = 30;         // frames queued or in flight before tail drop
  double loss_probability = 0.0;   // random per-frame loss

  static MediumConfig Ethernet10(std::string name) {
    MediumConfig c;
    c.name = std::move(name);
    c.bits_per_sec = 10e6;
    c.propagation_delay = Microseconds(50);
    c.mtu = 1500;
    c.framing_bytes = 18;
    c.queue_limit = 50;  // IFQ_MAXLEN in 4.3BSD
    return c;
  }

  // The campus backbone: an 80 Mbit/sec token ring (ProNET-80 class) with a
  // small MTU, which is why 8 KB UDP datagrams fragment heavily crossing it.
  static MediumConfig TokenRing80(std::string name) {
    MediumConfig c;
    c.name = std::move(name);
    c.bits_per_sec = 80e6;
    c.propagation_delay = Microseconds(100);
    c.mtu = 2044;
    c.framing_bytes = 12;
    c.queue_limit = 40;
    return c;
  }

  static MediumConfig SerialLine56K(std::string name) {
    MediumConfig c;
    c.name = std::move(name);
    c.bits_per_sec = 56e3;
    c.propagation_delay = Milliseconds(4);
    c.mtu = 1006;
    c.framing_bytes = 8;
    c.queue_limit = 20;  // ~20 KB of router buffering on the serial card
    return c;
  }
};

// Data-level faults injected per frame while a corruption storm is active
// (see FaultInjector::CorruptionStormAt). All probabilities are per frame and
// independent; every decision is drawn from the medium's seeded Rng, so the
// same seed and schedule corrupt exactly the same frames.
struct CorruptionConfig {
  double bit_flip = 0.0;    // flip 1-3 random bits in the payload
  double truncate = 0.0;    // cut a random-length tail off the payload
  double duplicate = 0.0;   // deliver a second copy of the frame
  double reorder = 0.0;     // hold the frame back so later frames pass it
  SimTime reorder_delay = Milliseconds(2);  // extra latency for held frames

  bool Active() const {
    return bit_flip > 0.0 || truncate > 0.0 || duplicate > 0.0 || reorder > 0.0;
  }
};

struct MediumStats {
  uint64_t frames_delivered = 0;
  uint64_t frames_dropped_queue = 0;
  uint64_t frames_dropped_loss = 0;
  // Queue overflow also damages one already-queued frame (see Transmit):
  // it still occupies line time but is never delivered.
  uint64_t frames_damaged = 0;
  uint64_t frames_dropped_down = 0;  // link administratively/physically down
  uint64_t bytes_on_wire = 0;
  uint64_t background_frames = 0;
  // Corruption-storm damage (frames delivered with altered content/order).
  uint64_t frames_bit_flipped = 0;
  uint64_t frames_truncated = 0;
  uint64_t frames_duplicated = 0;
  uint64_t frames_reordered = 0;

  uint64_t FramesCorrupted() const {
    return frames_bit_flipped + frames_truncated + frames_duplicated + frames_reordered;
  }
};

class Medium {
 public:
  using Receiver = std::function<void(Frame)>;

  Medium(Scheduler& scheduler, MediumConfig config, Rng rng)
      : scheduler_(scheduler), config_(std::move(config)), rng_(rng) {}
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  const MediumConfig& config() const { return config_; }
  const MediumStats& stats() const { return stats_; }

  // Registers the receive handler for a node attached to this medium.
  void Attach(HostId node, Receiver receiver);
  bool IsAttached(HostId node) const { return taps_.contains(node); }

  // Queues a frame for transmission to frame.link_next_hop. Returns false on
  // overflow. An overflow also damages one random frame already in the
  // queue: on a real store-and-forward gateway, fragments of concurrent
  // datagrams interleave, so pressure that drops the newcomer has usually
  // already cost some in-flight datagram a fragment too. The damaged frame
  // still occupies line time but is never delivered — this is what makes
  // flooding retransmission strategies collapse while window-limited ones
  // (the RPC congestion window, TCP) stay efficient.
  bool Transmit(Frame frame);

  // Injects an anonymous background frame of the given wire size.
  void InjectBackground(size_t wire_bytes);

  // Largest IP payload (transport bytes) that fits in one frame.
  size_t MaxFragmentPayload() const { return config_.mtu - kIpHeaderBytes; }

  // Fault injection (see src/fault/injector.h). A down link swallows every
  // frame: senders learn nothing, exactly like a yanked cable or a dead
  // modem. Frames already serialized onto the wire at SetLinkDown() time
  // still arrive (they have left the transmitter).
  void SetLinkDown(bool down) { down_ = down; }
  bool link_down() const { return down_; }

  // Transient loss storm: while set, the effective per-frame loss is
  // max(config().loss_probability, p). Pass 0 to end the storm.
  void SetTransientLoss(double p) { transient_loss_ = p; }
  double transient_loss() const { return transient_loss_; }

  // Transient latency storm: added to every frame's arrival time.
  void SetExtraLatency(SimTime extra) { extra_latency_ = extra; }
  SimTime extra_latency() const { return extra_latency_; }

  // Corruption storm: while the config is active, each transmitted frame may
  // be bit-flipped, truncated, duplicated or reordered. Corrupted copies are
  // deep copies — the sender's retained chain (retransmit buffers, caches)
  // shares clusters with the frame and must never see the damage. Pass a
  // default-constructed config to end the storm. When the config is inactive
  // the transmit path draws nothing from the Rng, so enabling corruption in
  // one run cannot perturb the loss pattern of another.
  void SetCorruption(CorruptionConfig config) { corruption_ = config; }
  const CorruptionConfig& corruption() const { return corruption_; }

  // Observability: every delivered frame records a kMediumTraverse event
  // (arg = wire bytes) on the given track.
  void set_tracer(Tracer* tracer, uint16_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

 private:
  // One frame queued or in flight, in transmit order. A frame with a
  // delivery event carries a nonzero ticket and leaves the queue when that
  // event fires. An eventless frame (ticket 0) is a virtual event stamped
  // (arrival, seq) — see Scheduler::HasFired — and ReapEventless() drops it
  // once that stamp has fired: exactly where an arrival event scheduled at
  // injection would have removed it. `alive` is cleared by collateral damage.
  struct Queued {
    SimTime arrival;
    uint64_t seq;
    uint64_t ticket;
    bool alive;
  };

  // Claims the line for `wire_bytes` of serialization time; returns the
  // absolute arrival instant at the link-layer destination.
  SimTime ClaimLine(size_t wire_bytes, SimTime extra_delay = 0) {
    const SimTime serialization = TransmissionTime(wire_bytes, config_.bits_per_sec);
    busy_until_ = std::max(busy_until_, scheduler_.now()) + serialization;
    stats_.bytes_on_wire += wire_bytes;
    return busy_until_ + config_.propagation_delay + extra_latency_ + extra_delay;
  }

  // Claims the line and schedules `on_delivered` at the arrival instant
  // (unless the frame is damaged in the queue meanwhile). Runs on every
  // delivered frame, so the callable forwards straight into the scheduler's
  // pooled inline storage — no std::function.
  template <typename F>
  void StartOrQueue(size_t wire_bytes, F&& on_delivered, SimTime extra_delay = 0) {
    const SimTime arrival = ClaimLine(wire_bytes, extra_delay);
    const uint64_t ticket = ++last_ticket_;
    pending_.push_back(Queued{arrival, scheduler_.next_seq(), ticket, true});
    scheduler_.Schedule(arrival - scheduler_.now(),
                        [this, ticket, done = std::forward<F>(on_delivered)]() mutable {
                          if (Dequeue(ticket)) {
                            done();
                          }
                        });
  }
  // Claims the line for a frame that will never be delivered; it holds a
  // queue slot until its arrival instant but costs the scheduler nothing.
  void QueueEventless(size_t wire_bytes) {
    const SimTime arrival = ClaimLine(wire_bytes);
    pending_.push_back(Queued{arrival, scheduler_.next_seq(), 0, true});
  }
  // Removes the entry for `ticket`; returns whether it was still undamaged.
  bool Dequeue(uint64_t ticket);
  // Drops every eventless entry whose arrival has fired. Runs before each
  // read of the queue (Transmit, InjectBackground), so occupancy and victim
  // selection see exactly the entries an event-per-frame queue would hold.
  void ReapEventless();
  // Queues one (possibly damaged) copy of the frame for delivery.
  void Deliver(Frame frame, SimTime extra_delay);

  Scheduler& scheduler_;
  MediumConfig config_;
  Rng rng_;
  MediumStats stats_;
  std::unordered_map<HostId, Receiver> taps_;
  SimTime busy_until_ = 0;
  bool down_ = false;
  Tracer* tracer_ = nullptr;
  uint16_t trace_track_ = 0;
  double transient_loss_ = 0.0;
  SimTime extra_latency_ = 0;
  CorruptionConfig corruption_;
  // Queued and in-flight frames; occupancy is pending_.size() once reaped.
  std::vector<Queued> pending_;
  uint64_t last_ticket_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_NET_MEDIUM_H_
