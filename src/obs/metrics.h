// Unified metrics registry.
//
// The simulator's layers each keep their own stats structs (RpcServerStats,
// RpcTransportStats, TcpStackStats, MediumStats, FsFaultStats, MbufStats,
// ...). The registry unifies them behind hierarchical dotted names
// ("server.rpc.nfsd_slot_waits") without moving any counters: a source is
// registered once as a pointer or closure and read at snapshot time, so the
// hot paths keep bumping their plain uint64_t fields.
//
// Naming convention: <side>.<layer>.<counter>, where side is "server",
// "client<i>", "net.<medium>", "fs", or "mbuf", and layer mirrors the source
// struct ("rpc", "nfs", "tcp", "udp", "net", "recovery", "disk", "cpu").
// Per-proc NFS counters append the proc name: "server.nfs.proc.read".
//
// Latency histograms are push-model (log2 buckets, microsecond samples) and
// live in the registry under the same naming scheme
// ("client.nfs.lat_us.read"), giving p50/p95/p99 per NFS procedure.
#ifndef RENONFS_SRC_OBS_METRICS_H_
#define RENONFS_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace renonfs {

// Power-of-two bucketed histogram: bucket 0 counts the value 0, bucket i
// (i >= 1) counts values in [2^(i-1), 2^i - 1]. 65 buckets cover uint64.
class Log2Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;

  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  void Add(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t bucket_count(size_t index) const { return buckets_[index]; }

  // Value at or below which `p` (0..1] of the samples fall: the upper bound
  // of the bucket holding the sample of that rank, clamped to the observed
  // [min, max]. 0 when empty.
  uint64_t Percentile(double p) const;

  std::string ToString() const;  // "count=N p50=... p95=... p99=... max=..."

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

struct MetricsSnapshot {
  SimTime at = 0;
  // Sorted by name; names are unique.
  std::vector<std::pair<std::string, uint64_t>> counters;
  // Diagnostics are gauges about the simulator's own machinery (allocator
  // pool occupancy) rather than simulated behaviour. They are visible to
  // Value()/Has() and the dumps but EXCLUDED from Hash(): pool warmth
  // legitimately differs across Worlds in one process, and must not fail
  // replay divergence checks.
  std::vector<std::pair<std::string, uint64_t>> diagnostics;

  uint64_t Value(const std::string& name) const;  // 0 if absent
  bool Has(const std::string& name) const;
  // Order-sensitive FNV-1a over `at` and every (name, value) pair. Two
  // deterministic runs of the same scenario must produce equal hashes; the
  // replay path (src/scenario) compares these to detect divergence.
  uint64_t Hash() const;
  // Counter-wise difference (this - earlier); names absent earlier count
  // from 0. `at` becomes the window length.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& earlier) const;

  std::string ToText() const;
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  using Source = std::function<uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void RegisterCounter(std::string name, Source source);
  void RegisterCounter(std::string name, const uint64_t* counter) {
    RegisterCounter(std::move(name), [counter]() { return *counter; });
  }
  // A gauge: a level that may fall (live leases, clusters in use) rather than
  // a cumulative count. Snapshots keep it in MetricsSnapshot::counters, so
  // Hash() covers it exactly like a counter; only the flight recorder treats
  // it differently, exporting its end-of-window level instead of a delta.
  void RegisterGauge(std::string name, Source source);
  // A diagnostic gauge: snapshotted into MetricsSnapshot::diagnostics, which
  // Hash() skips (see the field comment). Names share the counter namespace.
  void RegisterDiagnostic(std::string name, Source source);

  // Counters and gauges by registration index. The order is fixed once a
  // source is registered (later registrations only append), so a reader can
  // difference two reads index by index without names.
  size_t counter_count() const { return counters_.size(); }
  const std::string& counter_name(size_t i) const { return counters_[i].first; }
  bool counter_is_gauge(size_t i) const { return gauges_[i]; }
  // Reads every counter and gauge source into `values`, in registration
  // order: no names, no sort, and no allocation once `values` has capacity.
  void ReadCounters(std::vector<uint64_t>* values) const;

  // Named histogram, created on first use.
  Log2Histogram& Histogram(const std::string& name) { return histograms_[name]; }
  const Log2Histogram* FindHistogram(const std::string& name) const;
  const std::map<std::string, Log2Histogram>& histograms() const { return histograms_; }

  MetricsSnapshot Snapshot(SimTime now) const;

  // Counters and histograms, text and JSON.
  std::string DumpText(SimTime now) const;
  std::string DumpJson(SimTime now) const;

 private:
  void CheckUnregistered(const std::string& name) const;

  // Counters and gauges, in registration order.
  std::vector<std::pair<std::string, Source>> counters_;
  std::vector<bool> gauges_;  // by counters_ index
  std::vector<std::pair<std::string, Source>> diagnostics_;
  std::map<std::string, Log2Histogram> histograms_;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_OBS_METRICS_H_
