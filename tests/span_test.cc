// Span-collector tests: the conservation invariant under a fault-heavy
// chaos soak, head-sampling determinism, the flight recorder (ring eviction,
// equivalence with snapshot deltas, gauge levels, lazy storage), top-K
// slow-op retention, and timing-neutrality of the passive sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/flight.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/scheduler.h"
#include "src/workload/chaos.h"
#include "src/workload/world.h"

namespace renonfs {
namespace {

class DumpOnFailure {
 public:
  explicit DumpOnFailure(World& world) : world_(world) {}
  ~DumpOnFailure() {
    if (::testing::Test::HasFailure()) {
      DumpObservability(world_, std::cerr);
    }
  }

 private:
  World& world_;
};

WorldOptions QuietWorldOptions() {
  WorldOptions options;
  options.topology_options.ethernet_background = 0;
  options.topology_options.ring_background = 0;
  options.topology_options.ethernet_loss = 0;
  options.topology_options.ring_loss = 0;
  options.topology_options.serial_loss = 0;
  options.mount = NfsMountOptions::Reno();
  options.mount.hard = true;
  options.mount.max_tries = 3;
  return options;
}

ChaosOptions OpMixChaos(uint32_t operations) {
  ChaosOptions chaos;
  chaos.workload = ChaosWorkload::kOpMix;
  chaos.opmix.operations = operations;
  chaos.crash = false;
  chaos.flap = false;
  return chaos;
}

// The invariant the collector is built around: every sampled op's component
// breakdown sums to its measured wall-clock latency exactly — under the
// nastiest schedule we can assemble (loss storm + slow disk + a crash/reboot
// + a link flap on the 56K serial path), not just on the happy path. The
// per-op CHECK in Finish() would abort the process on the first violation;
// the stats counters make the count visible here too.
TEST(SpanChaosTest, ConservationHoldsUnderFaultHeavySoak) {
  World world(QuietWorldOptions());
  DumpOnFailure dump_on_failure(world);

  ChaosOptions chaos = OpMixChaos(150);
  chaos.crash = true;
  chaos.crash_at = Seconds(20);
  chaos.crash_downtime = Seconds(10);
  chaos.flap = true;
  chaos.flap_at = Seconds(45);
  chaos.flaps = 2;
  chaos.flap_down = Seconds(1);
  chaos.flap_up = Seconds(2);
  FaultSpec loss;
  loss.kind = FaultKind::kLossStorm;
  loss.at = Seconds(5);
  loss.duration = Seconds(25);
  loss.magnitude = 0.2;
  chaos.schedule.push_back(loss);
  FaultSpec slow;
  slow.kind = FaultKind::kDiskSlow;
  slow.at = Seconds(60);
  slow.duration = Seconds(30);
  slow.magnitude = 8.0;
  chaos.schedule.push_back(slow);

  ChaosReport report = RunChaos(world, chaos);

  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
  EXPECT_TRUE(report.integrity_ok) << report.integrity_error;

  const SpanStats& stats = world.spans().stats();
  EXPECT_GT(stats.ops_completed, 0u);
  EXPECT_GT(stats.conservation_checks, 0u);
  EXPECT_EQ(stats.conservation_failures, 0u);
  EXPECT_EQ(stats.pool_exhausted_drops, 0u);
  EXPECT_EQ(stats.conservation_checks, stats.ops_completed);

  // The aggregate preserves the per-op invariant: summed components equal
  // summed latency, per proc and in total.
  SpanCollector::ProcBreakdown total = world.spans().TotalBreakdown();
  EXPECT_GT(total.ops, 0u);
  SimTime comp_sum = 0;
  for (size_t c = 0; c < kNumLatencyComponents; ++c) {
    comp_sum += total.comp[c];
  }
  EXPECT_EQ(comp_sum, total.total);

  // The chaos report carries the attribution and the flight-recorder dump.
  EXPECT_FALSE(report.top_components.empty());
  EXPECT_EQ(report.span_conservation_failures, 0u);
  EXPECT_EQ(report.span_pool_spills, 0u);
  EXPECT_NE(report.timeline_jsonl.find("at_ms"), std::string::npos);
}

// Head sampling is a pure function of (seed, xid): two collectors built with
// the same options agree on every xid, a different seed picks a different
// subset, and the keep rate tracks 1/period.
TEST(SpanTest, SamplingIsDeterministicPerSeed) {
  SpanOptions quarter;
  quarter.seed = 42;
  quarter.sample_period = 4;
  SpanCollector a(quarter);
  SpanCollector b(quarter);

  SpanOptions other = quarter;
  other.seed = 43;
  SpanCollector c(other);

  uint32_t kept = 0;
  bool differs = false;
  for (uint32_t xid = 1; xid <= 4096; ++xid) {
    ASSERT_EQ(a.Sampled(xid), b.Sampled(xid)) << "xid " << xid;
    kept += a.Sampled(xid) ? 1 : 0;
    differs = differs || (a.Sampled(xid) != c.Sampled(xid));
  }
  EXPECT_TRUE(differs);  // a different seed must select a different subset
  // 1/4 of 4096 = 1024; allow generous slack for the hash.
  EXPECT_GT(kept, 700u);
  EXPECT_LT(kept, 1400u);

  SpanOptions all = quarter;
  all.sample_period = 1;
  SpanOptions off = quarter;
  off.sample_period = 0;
  SpanCollector every(all);
  SpanCollector none(off);
  for (uint32_t xid = 1; xid <= 64; ++xid) {
    EXPECT_TRUE(every.Sampled(xid));
    EXPECT_FALSE(none.Sampled(xid));
  }
}

// Two same-seed worlds running the same workload sample the same ops and
// produce identical aggregate attribution.
TEST(SpanTest, SampledRunsAgreeAcrossWorlds) {
  auto run = [] {
    World world(QuietWorldOptions());
    ChaosReport report = RunChaos(world, OpMixChaos(80));
    EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
    SpanCollector::ProcBreakdown total = world.spans().TotalBreakdown();
    return std::make_pair(world.spans().stats().ops_completed, total.total);
  };
  auto first = run();
  auto second = run();
  EXPECT_GT(first.first, 0u);
  EXPECT_EQ(first, second);
}

// The flight recorder is a bounded ring: frames past capacity evict the
// oldest, the counters account for every captured frame, and the surviving
// frames keep strictly increasing timestamps.
TEST(SpanTest, FlightRecorderRingEvictsOldestFrames) {
  Scheduler sched;
  MetricsRegistry registry;
  uint64_t counter = 0;
  registry.RegisterCounter("test.ticks", &counter);

  FlightOptions options;
  options.interval = Milliseconds(10);
  options.capacity = 4;
  FlightRecorder flight(sched, registry, options);
  flight.Start();
  flight.Start();  // idempotent

  for (int i = 1; i <= 9; ++i) {
    counter += static_cast<uint64_t>(i);
    sched.RunUntil(Milliseconds(10 * i));
  }
  flight.Stop();
  flight.Stop();  // idempotent

  EXPECT_EQ(flight.size(), 4u);
  EXPECT_GE(flight.frames_captured(), 6u);
  EXPECT_EQ(flight.frames_evicted(), flight.frames_captured() - flight.size());

  SimTime last_at = 0;
  for (const FlightRecorder::Frame& frame : flight.Frames()) {
    EXPECT_GT(frame.at, last_at);
    last_at = frame.at;
  }
  EXPECT_NE(flight.ToJsonl().find("at_ms"), std::string::npos);
  EXPECT_NE(flight.ToCsv().find("at_ms"), std::string::npos);

  // Stopped: no further frames accumulate.
  const uint64_t captured = flight.frames_captured();
  sched.RunUntil(Milliseconds(200));
  EXPECT_EQ(flight.frames_captured(), captured);
}

// Reference exports over frames built the straightforward way, from a full
// MetricsSnapshot per tick and DeltaSince the previous one. The recorder's
// index-ordered ring must reproduce them byte for byte.
struct ReferenceFrame {
  SimTime at = 0;
  MetricsSnapshot delta;
};

std::string ReferenceJsonl(const std::deque<ReferenceFrame>& frames) {
  std::string out;
  char buf[192];
  for (const ReferenceFrame& f : frames) {
    std::snprintf(buf, sizeof(buf), "{\"at_ms\":%.3f,\"window_ms\":%.3f,\"counters\":{",
                  static_cast<double>(f.at) / 1e6, static_cast<double>(f.delta.at) / 1e6);
    out += buf;
    bool first = true;
    for (const auto& [name, value] : f.delta.counters) {
      if (value != 0) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                      static_cast<unsigned long long>(value));
        out += buf;
        first = false;
      }
    }
    out += "}}\n";
  }
  return out;
}

std::string ReferenceCsv(const std::deque<ReferenceFrame>& frames) {
  std::string out = "at_ms,name,delta\n";
  char buf[192];
  for (const ReferenceFrame& f : frames) {
    for (const auto& [name, value] : f.delta.counters) {
      if (value != 0) {
        std::snprintf(buf, sizeof(buf), "%.3f,%s,%llu\n", static_cast<double>(f.at) / 1e6,
                      name.c_str(), static_cast<unsigned long long>(value));
        out += buf;
      }
    }
  }
  return out;
}

std::string ReferenceTail(const std::deque<ReferenceFrame>& frames, size_t n) {
  const size_t start = frames.size() > n ? frames.size() - n : 0;
  std::string out;
  char buf[160];
  for (size_t i = start; i < frames.size(); ++i) {
    std::vector<const std::pair<std::string, uint64_t>*> top;
    for (const auto& c : frames[i].delta.counters) {
      if (c.second != 0) {
        top.push_back(&c);
      }
    }
    std::sort(top.begin(), top.end(),
              [](const auto* a, const auto* b) { return a->second > b->second; });
    std::snprintf(buf, sizeof(buf), "[%12.3f ms]", static_cast<double>(frames[i].at) / 1e6);
    out += buf;
    const size_t shown = std::min<size_t>(top.size(), 5);
    for (size_t k = 0; k < shown; ++k) {
      std::snprintf(buf, sizeof(buf), " %s=+%llu", top[k]->first.c_str(),
                    static_cast<unsigned long long>(top[k]->second));
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

// The recorder differences by registry index and names frames only at
// export; the result must equal full snapshots differenced by name, across
// pseudo-random bumps (zeros and ties included), a counter registered
// mid-run, and several ring wrap-arounds.
TEST(SpanTest, FlightRecorderMatchesSnapshotDeltas) {
  Scheduler sched;
  MetricsRegistry registry;
  // Registered out of name order, so index order and export order differ.
  const std::vector<std::string> names = {"rpc.calls", "disk.busy_ns", "zeta.idle", "net.frames",
                                          "cpu.ns.copy", "a.first", "lease.granted", "m.ties"};
  std::deque<uint64_t> values(names.size() + 1, 0);  // stable addresses
  for (size_t i = 0; i < names.size(); ++i) {
    registry.RegisterCounter(names[i], &values[i]);
  }

  FlightOptions options;
  options.interval = Milliseconds(10);
  options.capacity = 7;
  FlightRecorder flight(sched, registry, options);
  MetricsSnapshot last = registry.Snapshot(sched.now());
  flight.Start();

  std::deque<ReferenceFrame> reference;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  constexpr int kTicks = 40;
  for (int tick = 1; tick <= kTicks; ++tick) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] += next() % 4;  // small bumps: plenty of zeros and ties
    }
    // Late enough that the ring still holds frames from before it; it starts
    // non-zero, so its first delta is its full value.
    if (tick == kTicks - 4) {
      registry.RegisterCounter("late.registered", &values[names.size()]);
    }
    sched.RunUntil(Milliseconds(10) * tick);
    const MetricsSnapshot snapshot = registry.Snapshot(sched.now());
    reference.push_back({sched.now(), snapshot.DeltaSince(last)});
    if (reference.size() > options.capacity) {
      reference.pop_front();
    }
    last = snapshot;
  }
  flight.Stop();

  ASSERT_EQ(flight.frames_captured(), static_cast<uint64_t>(kTicks));
  ASSERT_EQ(flight.size(), reference.size());
  EXPECT_EQ(flight.ToJsonl(), ReferenceJsonl(reference));
  EXPECT_EQ(flight.ToCsv(), ReferenceCsv(reference));
  EXPECT_EQ(flight.Tail(5), ReferenceTail(reference, 5));
  EXPECT_EQ(flight.Tail(100), ReferenceTail(reference, 100));
  const std::vector<FlightRecorder::Frame> frames = flight.Frames();
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].at, reference[i].at);
    EXPECT_EQ(frames[i].delta.at, reference[i].delta.at);
    EXPECT_EQ(frames[i].delta.counters, reference[i].delta.counters);
    EXPECT_TRUE(frames[i].gauges.empty());
  }
}

// A gauge is a level: when it falls the frame shows the new level, never the
// 2^64 - k that differencing an unsigned level would produce. Snapshots keep
// the gauge among the hashed counters.
TEST(SpanTest, FlightRecorderExportsGaugeLevels) {
  Scheduler sched;
  MetricsRegistry registry;
  uint64_t ops = 0;
  uint64_t live = 5;
  registry.RegisterCounter("test.ops", &ops);
  registry.RegisterGauge("test.live", [&live] { return live; });
  EXPECT_TRUE(registry.Snapshot(0).Has("test.live"));

  FlightOptions options;
  options.interval = Milliseconds(10);
  FlightRecorder flight(sched, registry, options);
  flight.Start();
  const std::vector<uint64_t> levels = {3, 0, 7, 7};
  for (size_t i = 0; i < levels.size(); ++i) {
    ops += 2;
    live = levels[i];
    sched.RunUntil(Milliseconds(10) * static_cast<SimTime>(i + 1));
  }
  flight.Stop();

  const std::vector<FlightRecorder::Frame> frames = flight.Frames();
  ASSERT_EQ(frames.size(), levels.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].gauges,
              (std::vector<std::pair<std::string, uint64_t>>{{"test.live", levels[i]}}));
    EXPECT_EQ(frames[i].delta.counters,
              (std::vector<std::pair<std::string, uint64_t>>{{"test.ops", 2}}));
  }
  EXPECT_EQ(flight.ToJsonl(),
            "{\"at_ms\":10.000,\"window_ms\":10.000,\"counters\":{\"test.ops\":2},"
            "\"gauges\":{\"test.live\":3}}\n"
            "{\"at_ms\":20.000,\"window_ms\":10.000,\"counters\":{\"test.ops\":2},"
            "\"gauges\":{\"test.live\":0}}\n"
            "{\"at_ms\":30.000,\"window_ms\":10.000,\"counters\":{\"test.ops\":2},"
            "\"gauges\":{\"test.live\":7}}\n"
            "{\"at_ms\":40.000,\"window_ms\":10.000,\"counters\":{\"test.ops\":2},"
            "\"gauges\":{\"test.live\":7}}\n");
  EXPECT_EQ(flight.ToCsv().find("test.live"), std::string::npos);
  EXPECT_EQ(flight.Tail(10).find("test.live"), std::string::npos);
}

// World registers the lease recall p99 as a gauge: a percentile can fall
// between frames, and differenced as a counter it would wrap.
TEST(SpanTest, WorldTimelineCarriesRecallP99AsGauge) {
  World world(QuietWorldOptions());
  ChaosReport report = RunChaos(world, OpMixChaos(40));
  ASSERT_TRUE(report.workload_status.ok()) << report.workload_status;
  const std::string frame =
      report.timeline_jsonl.substr(0, report.timeline_jsonl.find('\n'));
  const size_t gauges = frame.find("\"gauges\":{");
  ASSERT_NE(gauges, std::string::npos) << frame;
  const size_t recall = frame.find("\"server.lease.recall_p99_us\":");
  EXPECT_NE(recall, std::string::npos) << frame;
  EXPECT_GT(recall, gauges) << frame;  // in the gauges object, not the counters
}

// Every World builds a recorder, but most runs never start it: until Start()
// it holds no frame storage. Once the ring is full, further ticks reuse the
// slots and the previous-read buffers without growing them.
TEST(SpanTest, FlightRecorderAllocatesOnlyOnceStarted) {
  Scheduler sched;
  MetricsRegistry registry;
  uint64_t counter = 0;
  registry.RegisterCounter("test.ticks", &counter);
  registry.RegisterCounter("test.other", &counter);

  FlightOptions options;
  options.interval = Milliseconds(10);
  options.capacity = 4;
  FlightRecorder flight(sched, registry, options);
  sched.RunUntil(Milliseconds(100));
  EXPECT_EQ(flight.storage_bytes(), 0u);
  EXPECT_EQ(flight.size(), 0u);

  flight.Start();
  EXPECT_GT(flight.storage_bytes(), 0u);
  sched.RunUntil(Milliseconds(100) + Milliseconds(10) * 5);  // fills the ring
  const size_t full = flight.storage_bytes();
  for (int i = 1; i <= 20; ++i) {
    ++counter;
    sched.RunUntil(Milliseconds(150) + Milliseconds(10) * i);
  }
  EXPECT_EQ(flight.frames_captured(), 25u);
  EXPECT_EQ(flight.storage_bytes(), full);
}

// Slow-op retention: at most top_k entries per proc, sorted slowest-first,
// and each retained breakdown still satisfies the conservation invariant.
TEST(SpanTest, TopKSlowOpRetention) {
  World world(QuietWorldOptions());
  DumpOnFailure dump_on_failure(world);
  ChaosReport report = RunChaos(world, OpMixChaos(200));
  EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;

  const SpanCollector& spans = world.spans();
  ASSERT_GT(spans.stats().ops_completed, spans.options().top_k);

  std::vector<OpBreakdown> all = spans.SlowOps();
  ASSERT_FALSE(all.empty());
  SimTime prev = all.front().total();
  for (const OpBreakdown& op : all) {
    EXPECT_LE(op.total(), prev);
    prev = op.total();
    EXPECT_GE(op.attempts, 1u);
    SimTime sum = 0;
    for (size_t c = 0; c < kNumLatencyComponents; ++c) {
      sum += op.comp[c];
    }
    EXPECT_EQ(sum, op.total()) << "xid " << op.xid;
  }
  for (uint32_t proc = 0; proc < kSpanProcSlots; ++proc) {
    EXPECT_LE(spans.SlowOps(proc).size(), spans.options().top_k);
  }
}

// The sink is passive: detaching it must not change a single scheduler tick
// or any replay-hashed counter. (The span/flight gauges are registered as
// diagnostics precisely so the hashes stay comparable.)
TEST(SpanTest, TracingIsTimingNeutral) {
  auto run = [](bool traced) {
    World world(QuietWorldOptions());
    if (!traced) {
      world.tracer().set_sink(nullptr);
    }
    ChaosReport report = RunChaos(world, OpMixChaos(80));
    EXPECT_TRUE(report.workload_status.ok()) << report.workload_status;
    return std::make_pair(world.scheduler().now(), world.MetricsNow().Hash());
  };
  auto traced = run(true);
  auto untraced = run(false);
  EXPECT_EQ(traced.first, untraced.first);   // identical simulated end time
  EXPECT_EQ(traced.second, untraced.second); // identical replay hash
}

}  // namespace
}  // namespace renonfs
