#include "src/net/medium.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/logging.h"

namespace renonfs {

void Medium::Attach(HostId node, Receiver receiver) {
  CHECK(!taps_.contains(node)) << config_.name << ": node " << node << " attached twice";
  taps_[node] = std::move(receiver);
}

bool Medium::Transmit(Frame frame) {
  if (down_) {
    // A dead line gives the transmitter no feedback: the frame just never
    // arrives. Returning true keeps the sender's accounting identical to a
    // frame lost in flight.
    ++stats_.frames_dropped_down;
    return true;
  }
  ReapEventless();
  if (pending_.size() >= config_.queue_limit) {
    ++stats_.frames_dropped_queue;
    // Collateral damage: overflow pressure sometimes costs a recently queued
    // frame as well (fragment interleaving on a real store-and-forward
    // gateway — the frames contending with the dropped one arrived around
    // the same time, i.e. near the queue tail; frames at the head are
    // already committed to the line). The victim keeps its slot and line
    // time but never arrives.
    if (!pending_.empty() && rng_.Bernoulli(0.4)) {
      const size_t tail_window = std::min<size_t>(pending_.size(), 4);
      const size_t victim = pending_.size() - 1 - rng_.UniformUint64(tail_window);
      if (pending_[victim].alive) {
        pending_[victim].alive = false;
        ++stats_.frames_damaged;
      }
    }
    return false;
  }
  const double loss = std::max(config_.loss_probability, transient_loss_);
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    // Lost on the wire: it still occupies the sender's bandwidth slot, but
    // never arrives. Model as a queued transmission with no delivery.
    ++stats_.frames_dropped_loss;
    QueueEventless(frame.WireBytes(config_.framing_bytes));
    return true;
  }
  SimTime extra_delay = 0;
  if (corruption_.Active()) {
    // Data-level faults. Order matters for determinism: every branch draws
    // exactly the probabilities it declares, so the Rng consumption per frame
    // is a pure function of the config and the draws themselves.
    if (corruption_.duplicate > 0.0 && rng_.Bernoulli(corruption_.duplicate)) {
      ++stats_.frames_duplicated;
      Frame copy;
      copy.src = frame.src;
      copy.dst = frame.dst;
      copy.link_next_hop = frame.link_next_hop;
      copy.proto = frame.proto;
      copy.datagram_id = frame.datagram_id;
      copy.frag_offset = frame.frag_offset;
      copy.more_fragments = frame.more_fragments;
      copy.payload = frame.payload.Clone();
      Deliver(std::move(copy), 0);
    }
    if (corruption_.bit_flip > 0.0 && rng_.Bernoulli(corruption_.bit_flip) &&
        !frame.payload.Empty()) {
      // Deep-copy before flipping: the payload's clusters are shared with the
      // sender's retained copy (RPC retransmit buffers, the TCP send buffer),
      // which must keep the original bytes.
      std::vector<uint8_t> bytes = frame.payload.ContiguousCopy();
      const int flips = 1 + static_cast<int>(rng_.UniformUint64(3));
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng_.UniformUint64(bytes.size() * 8);
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      frame.payload = MbufChain::FromBytes(bytes.data(), bytes.size());
      ++stats_.frames_bit_flipped;
    }
    if (corruption_.truncate > 0.0 && rng_.Bernoulli(corruption_.truncate) &&
        !frame.payload.Empty()) {
      std::vector<uint8_t> bytes = frame.payload.ContiguousCopy();
      const size_t keep = rng_.UniformUint64(bytes.size());  // [0, len)
      frame.payload = MbufChain::FromBytes(bytes.data(), keep);
      ++stats_.frames_truncated;
    }
    if (corruption_.reorder > 0.0 && rng_.Bernoulli(corruption_.reorder)) {
      // Held back past its slot: frames transmitted after this one arrive
      // first, which is how a real store-and-forward mesh reorders.
      extra_delay = corruption_.reorder_delay;
      ++stats_.frames_reordered;
    }
  }
  Deliver(std::move(frame), extra_delay);
  return true;
}

void Medium::Deliver(Frame frame, SimTime extra_delay) {
  const size_t wire_bytes = frame.WireBytes(config_.framing_bytes);
  auto shared = std::make_shared<Frame>(std::move(frame));
  StartOrQueue(
      wire_bytes,
      [this, shared, wire_bytes]() {
        auto tap = taps_.find(shared->link_next_hop);
        if (tap == taps_.end()) {
          // No such neighbor; the frame dies on the segment.
          return;
        }
        ++stats_.frames_delivered;
        if (tracer_ != nullptr) {
          tracer_->Record(trace_track_, TraceEventKind::kMediumTraverse, 0, 0, wire_bytes);
        }
        tap->second(std::move(*shared));
      },
      extra_delay);
}

void Medium::InjectBackground(size_t wire_bytes) {
  if (down_) {
    ++stats_.frames_dropped_down;
    return;
  }
  ReapEventless();
  if (pending_.size() >= config_.queue_limit) {
    ++stats_.frames_dropped_queue;
    return;
  }
  ++stats_.background_frames;
  QueueEventless(wire_bytes);
}

bool Medium::Dequeue(uint64_t ticket) {
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [ticket](const Queued& q) { return q.ticket == ticket; });
  CHECK(it != pending_.end());
  const bool alive = it->alive;
  pending_.erase(it);
  return alive;
}

void Medium::ReapEventless() {
  std::erase_if(pending_, [this](const Queued& q) {
    return q.ticket == 0 && scheduler_.HasFired(q.arrival, q.seq);
  });
}

}  // namespace renonfs
