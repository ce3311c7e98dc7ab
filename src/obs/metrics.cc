#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/util/logging.h"

namespace renonfs {

size_t Log2Histogram::BucketIndex(uint64_t value) {
  if (value == 0) {
    return 0;
  }
  size_t bit = 0;
  while (value >>= 1) {
    ++bit;
  }
  return bit + 1;  // value in [2^bit, 2^(bit+1) - 1]
}

uint64_t Log2Histogram::BucketLowerBound(size_t index) {
  if (index == 0) {
    return 0;
  }
  return uint64_t{1} << (index - 1);
}

uint64_t Log2Histogram::BucketUpperBound(size_t index) {
  if (index == 0) {
    return 0;
  }
  if (index >= 64) {
    return ~uint64_t{0};
  }
  return (uint64_t{1} << index) - 1;
}

void Log2Histogram::Add(uint64_t value) {
  ++buckets_[BucketIndex(value)];
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  max_ = std::max(max_, value);
  sum_ += value;
  ++count_;
}

uint64_t Log2Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(p * static_cast<double>(count_) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::clamp(BucketUpperBound(i), min_, max_);
    }
  }
  return max_;
}

std::string Log2Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "count=%llu p50=%llu p95=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(Percentile(0.50)),
                static_cast<unsigned long long>(Percentile(0.95)),
                static_cast<unsigned long long>(Percentile(0.99)),
                static_cast<unsigned long long>(max_));
  return buf;
}

namespace {

const std::pair<std::string, uint64_t>* FindEntry(
    const std::vector<std::pair<std::string, uint64_t>>& entries,
    const std::string& name) {
  auto it = std::lower_bound(entries.begin(), entries.end(), name,
                             [](const auto& entry, const std::string& key) {
                               return entry.first < key;
                             });
  if (it == entries.end() || it->first != name) {
    return nullptr;
  }
  return &*it;
}

}  // namespace

uint64_t MetricsSnapshot::Value(const std::string& name) const {
  if (const auto* entry = FindEntry(counters, name)) {
    return entry->second;
  }
  if (const auto* entry = FindEntry(diagnostics, name)) {
    return entry->second;
  }
  return 0;
}

bool MetricsSnapshot::Has(const std::string& name) const {
  return FindEntry(counters, name) != nullptr || FindEntry(diagnostics, name) != nullptr;
}

uint64_t MetricsSnapshot::Hash() const {
  // FNV-1a, 64-bit. Fold in `at`, then each name byte-wise and each value as
  // 8 little-endian bytes; a length byte separates name from value so the
  // encoding is prefix-free.
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = kOffset;
  auto mix_byte = [&h](uint8_t byte) {
    h ^= byte;
    h *= kPrime;
  };
  auto mix_u64 = [&mix_byte](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  mix_u64(static_cast<uint64_t>(at));
  for (const auto& [name, value] : counters) {
    mix_u64(name.size());
    for (char c : name) {
      mix_byte(static_cast<uint8_t>(c));
    }
    mix_u64(value);
  }
  return h;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  delta.at = at - earlier.at;
  delta.counters.reserve(counters.size());
  for (const auto& [name, value] : counters) {
    delta.counters.emplace_back(name, value - earlier.Value(name));
  }
  // Diagnostics are gauges (occupancy, high-water), not cumulative counters;
  // differencing them is meaningless, so the later sample passes through.
  delta.diagnostics = diagnostics;
  return delta;
}

std::string MetricsSnapshot::ToText() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "# counters @ %.3f ms\n", static_cast<double>(at) / 1e6);
  std::string out = buf;
  for (const auto& [name, value] : counters) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-48s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  if (!diagnostics.empty()) {
    out += "# diagnostics (unhashed)\n";
    for (const auto& [name, value] : diagnostics) {
      char line[256];
      std::snprintf(line, sizeof(line), "%-48s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"at_ns\":%lld,\"counters\":{", static_cast<long long>(at));
  std::string out = buf;
  bool first = true;
  for (const auto& [name, value] : counters) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
    first = false;
  }
  out += "}";
  if (!diagnostics.empty()) {
    out += ",\"diagnostics\":{";
    first = true;
    for (const auto& [name, value] : diagnostics) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += line;
      first = false;
    }
    out += "}";
  }
  out += "}";
  return out;
}

void MetricsRegistry::CheckUnregistered(const std::string& name) const {
  for (const auto& [existing, unused] : counters_) {
    CHECK(existing != name) << "metrics: name registered twice: " << name;
  }
  for (const auto& [existing, unused] : diagnostics_) {
    CHECK(existing != name) << "metrics: name registered twice: " << name;
  }
}

void MetricsRegistry::RegisterCounter(std::string name, Source source) {
  CheckUnregistered(name);
  counters_.emplace_back(std::move(name), std::move(source));
  gauges_.push_back(false);
}

void MetricsRegistry::RegisterGauge(std::string name, Source source) {
  CheckUnregistered(name);
  counters_.emplace_back(std::move(name), std::move(source));
  gauges_.push_back(true);
}

void MetricsRegistry::RegisterDiagnostic(std::string name, Source source) {
  CheckUnregistered(name);
  diagnostics_.emplace_back(std::move(name), std::move(source));
}

void MetricsRegistry::ReadCounters(std::vector<uint64_t>* values) const {
  values->resize(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    (*values)[i] = counters_[i].second();
  }
}

const Log2Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot(SimTime now) const {
  MetricsSnapshot snapshot;
  snapshot.at = now;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, source] : counters_) {
    snapshot.counters.emplace_back(name, source());
  }
  std::sort(snapshot.counters.begin(), snapshot.counters.end());
  snapshot.diagnostics.reserve(diagnostics_.size());
  for (const auto& [name, source] : diagnostics_) {
    snapshot.diagnostics.emplace_back(name, source());
  }
  std::sort(snapshot.diagnostics.begin(), snapshot.diagnostics.end());
  return snapshot;
}

std::string MetricsRegistry::DumpText(SimTime now) const {
  std::string out = Snapshot(now).ToText();
  if (!histograms_.empty()) {
    out += "# histograms\n";
    for (const auto& [name, histogram] : histograms_) {
      char line[256];
      std::snprintf(line, sizeof(line), "%-36s %s\n", name.c_str(),
                    histogram.ToString().c_str());
      out += line;
    }
  }
  return out;
}

std::string MetricsRegistry::DumpJson(SimTime now) const {
  std::string out = Snapshot(now).ToJson();
  out.pop_back();  // strip the closing '}' to append the histogram section
  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, histogram] : histograms_) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
                  "\"p50\":%llu,\"p95\":%llu,\"p99\":%llu}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.sum()),
                  static_cast<unsigned long long>(histogram.min()),
                  static_cast<unsigned long long>(histogram.max()),
                  static_cast<unsigned long long>(histogram.Percentile(0.50)),
                  static_cast<unsigned long long>(histogram.Percentile(0.95)),
                  static_cast<unsigned long long>(histogram.Percentile(0.99)));
    out += line;
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace renonfs
