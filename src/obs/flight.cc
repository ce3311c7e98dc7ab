#include "src/obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace renonfs {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

FlightRecorder::FlightRecorder(Scheduler& scheduler, const MetricsRegistry& registry,
                               FlightOptions options)
    : scheduler_(scheduler),
      registry_(registry),
      options_(options),
      timer_(scheduler, [this]() { Tick(); }) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
  if (options_.interval <= 0) {
    options_.interval = Milliseconds(250);
  }
}

FlightRecorder::~FlightRecorder() { Stop(); }

void FlightRecorder::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ring_.reserve(options_.capacity);
  registry_.ReadCounters(&last_);
  last_at_ = scheduler_.now();
  timer_.Start(options_.interval);
}

void FlightRecorder::Stop() {
  running_ = false;
  timer_.Stop();
}

void FlightRecorder::Tick() {
  const SimTime now = scheduler_.now();
  registry_.ReadCounters(&scratch_);
  Slot* slot = nullptr;
  if (ring_.size() < options_.capacity) {
    slot = &ring_.emplace_back();
  } else {
    slot = &ring_[next_];  // overwrite the oldest
    next_ = (next_ + 1) % options_.capacity;
  }
  slot->at = now;
  slot->window = now - last_at_;
  slot->values.resize(scratch_.size());
  // The registry only appends, so last_ is a prefix of scratch_ by index;
  // anything registered since the previous read counts from 0.
  for (size_t i = 0; i < scratch_.size(); ++i) {
    const bool counts = i < last_.size() && !registry_.counter_is_gauge(i);
    slot->values[i] = scratch_[i] - (counts ? last_[i] : 0);
  }
  last_.swap(scratch_);
  last_at_ = now;
  ++captured_;
  if (running_) {
    timer_.Start(options_.interval);
  }
}

size_t FlightRecorder::storage_bytes() const {
  size_t bytes = (last_.capacity() + scratch_.capacity()) * sizeof(uint64_t) +
                 ring_.capacity() * sizeof(Slot);
  for (const Slot& slot : ring_) {
    bytes += slot.values.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

FlightRecorder::ExportOrder FlightRecorder::NameOrder() const {
  std::vector<size_t> by_name(registry_.counter_count());
  std::iota(by_name.begin(), by_name.end(), size_t{0});
  std::sort(by_name.begin(), by_name.end(), [this](size_t a, size_t b) {
    return registry_.counter_name(a) < registry_.counter_name(b);
  });
  ExportOrder order;
  for (size_t index : by_name) {
    (registry_.counter_is_gauge(index) ? order.gauges : order.counters).push_back(index);
  }
  return order;
}

std::vector<FlightRecorder::Frame> FlightRecorder::Frames() const {
  const ExportOrder order = NameOrder();
  std::vector<Frame> frames(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Slot& slot = SlotAt(i);
    Frame& frame = frames[i];
    frame.at = slot.at;
    frame.delta.at = slot.window;
    for (size_t index : order.counters) {
      if (index < slot.values.size()) {
        frame.delta.counters.emplace_back(registry_.counter_name(index), slot.values[index]);
      }
    }
    for (size_t index : order.gauges) {
      if (index < slot.values.size()) {
        frame.gauges.emplace_back(registry_.counter_name(index), slot.values[index]);
      }
    }
  }
  return frames;
}

std::string FlightRecorder::ToJsonl() const {
  const ExportOrder order = NameOrder();
  std::string out;
  char buf[192];
  // Appends `"name":value` members for the slot's `indices`; zeros are
  // skipped when `skip_zero` (quiet counters stay out of the timeline).
  auto append_members = [&](const Slot& slot, const std::vector<size_t>& indices,
                            bool skip_zero) {
    bool first = true;
    for (size_t index : indices) {
      if (index >= slot.values.size() || (skip_zero && slot.values[index] == 0)) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                    JsonEscape(registry_.counter_name(index)).c_str(),
                    static_cast<unsigned long long>(slot.values[index]));
      out += buf;
      first = false;
    }
  };
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Slot& slot = SlotAt(i);
    std::snprintf(buf, sizeof(buf), "{\"at_ms\":%.3f,\"window_ms\":%.3f,\"counters\":{",
                  static_cast<double>(slot.at) / 1e6, static_cast<double>(slot.window) / 1e6);
    out += buf;
    append_members(slot, order.counters, /*skip_zero=*/true);
    out += '}';
    if (!order.gauges.empty()) {
      out += ",\"gauges\":{";
      append_members(slot, order.gauges, /*skip_zero=*/false);
      out += '}';
    }
    out += "}\n";
  }
  return out;
}

std::string FlightRecorder::ToCsv() const {
  const ExportOrder order = NameOrder();
  std::string out = "at_ms,name,delta\n";
  char buf[192];
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Slot& slot = SlotAt(i);
    for (size_t index : order.counters) {
      if (index >= slot.values.size() || slot.values[index] == 0) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%.3f,%s,%llu\n", static_cast<double>(slot.at) / 1e6,
                    registry_.counter_name(index).c_str(),
                    static_cast<unsigned long long>(slot.values[index]));
      out += buf;
    }
  }
  return out;
}

std::string FlightRecorder::Tail(size_t n) const {
  const ExportOrder order = NameOrder();
  const size_t start = ring_.size() > n ? ring_.size() - n : 0;
  std::string out;
  char buf[160];
  std::vector<std::pair<size_t, uint64_t>> top;  // (registry index, delta)
  for (size_t i = start; i < ring_.size(); ++i) {
    const Slot& slot = SlotAt(i);
    // The few biggest movers of the window, largest delta first.
    top.clear();
    for (size_t index : order.counters) {
      if (index < slot.values.size() && slot.values[index] != 0) {
        top.emplace_back(index, slot.values[index]);
      }
    }
    std::sort(top.begin(), top.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::snprintf(buf, sizeof(buf), "[%12.3f ms]", static_cast<double>(slot.at) / 1e6);
    out += buf;
    const size_t shown = std::min<size_t>(top.size(), 5);
    for (size_t k = 0; k < shown; ++k) {
      std::snprintf(buf, sizeof(buf), " %s=+%llu", registry_.counter_name(top[k].first).c_str(),
                    static_cast<unsigned long long>(top[k].second));
      out += buf;
    }
    if (top.size() > shown) {
      std::snprintf(buf, sizeof(buf), " (+%zu more)", top.size() - shown);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace renonfs
