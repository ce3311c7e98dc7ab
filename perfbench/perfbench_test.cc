// Tests of the benchmark's own code: the percentile helper, the published
// metric table, and host-time attribution. run.py runs this binary after
// every build, before the first measurement.
#include <cstring>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "percentile.h"
#include "sampler.h"
#include "spec.h"
#include "src/sim/scheduler.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // descending: Summarize must sort
  }
  return v;
}

TEST(PercentileTest, SlowlinkSizedRunReportsP99) {
  // About 3,000 RPCs: p99 has 30 samples beyond it.
  const TailSummary s = Summarize(Ramp(3000));
  EXPECT_EQ(s.samples, 3000u);
  EXPECT_DOUBLE_EQ(s.median, 1500.5);
  ASSERT_TRUE(s.tail_valid);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 2970.0);
  EXPECT_EQ(s.beyond_tail, 30u);
}

TEST(PercentileTest, SmallRunFallsBackToTenBeyond) {
  const TailSummary s = Summarize(Ramp(500));
  ASSERT_TRUE(s.tail_valid);
  EXPECT_EQ(s.beyond_tail, kMinTailSamples);
  EXPECT_DOUBLE_EQ(s.tail, 490.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 98.0);
  EXPECT_DOUBLE_EQ(s.median, 250.5);
}

TEST(PercentileTest, TooFewSamplesHaveNoTail) {
  EXPECT_FALSE(Summarize(Ramp(10)).tail_valid);
  EXPECT_TRUE(Summarize(Ramp(11)).tail_valid);
  EXPECT_EQ(Summarize({}).samples, 0u);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
}

TEST(SpecTest, NamesUnitsAndDirectionsAreWellFormed) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string_view> seen;
  auto check = [&](const MetricSpec& m) {
    EXPECT_TRUE(std::regex_match(std::string(m.name), name_re)) << m.name;
    EXPECT_TRUE(std::regex_match(std::string(m.unit), unit_re)) << m.name;
    EXPECT_TRUE(m.better == "higher" || m.better == "lower") << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  };
  for (const MetricSpec& m : kEndToEnd) {
    check(m);
  }
  for (const MetricSpec& m : kPerLayer) {
    check(m);
  }
  for (std::string_view w : kWorkloads) {
    EXPECT_TRUE(std::regex_match(std::string(w), name_re)) << w;
  }
  bool setup = false;
  for (const MetricSpec& m : kEndToEnd) {
    setup |= m.name == "setup_s" && m.unit == "s" && m.better == "lower";
  }
  EXPECT_TRUE(setup);
}

TEST(SpecTest, EveryLayerHasAHostShareMetric) {
  std::set<std::string_view> names;
  for (const MetricSpec& m : kPerLayer) {
    names.insert(m.name);
  }
  for (std::string_view layer : kLayers) {
    const std::string name =
        (layer == "sim" ? std::string("sim.sched") : std::string(layer)) + ".host_share";
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(AttributionTest, PathsMapToModules) {
  EXPECT_EQ(LayerOfPath("/x/src/sim/scheduler.cc"), "sim");
  EXPECT_EQ(LayerOfPath("/x/src/sim/audit.cc"), "harness");
  EXPECT_EQ(LayerOfPath("/x/src/workload/nhfsstone.cc"), "harness");
  EXPECT_EQ(LayerOfPath("/x/src/nfs/client.cc"), "nfs");
  EXPECT_EQ(LayerOfPath("/home/src/repo/src/mbuf/mbuf.h"), "mbuf");
  EXPECT_EQ(LayerOfPath("/x/perfbench/perfbench.cc"), "harness");
  EXPECT_EQ(LayerOfPath("/usr/include/c++/13/bits/stl_vector.h"), "");
  EXPECT_EQ(LayerOfPath("??"), "");
}

TEST(AttributionTest, LibraryFramesPassTheChargeToTheirCaller) {
  // memcpy in libc (no chain), an inlined std::vector in xdr, then rpc.
  const std::vector<std::vector<std::string>> stack = {
      {}, {"/usr/include/c++/13/bits/stl_vector.h", "/r/src/xdr/xdr.cc"}, {"/r/src/rpc/client.cc"}};
  EXPECT_EQ(ChargeSample(stack), "xdr");
  EXPECT_EQ(ChargeSample({{}, {"??"}}), "other");
  EXPECT_EQ(ChargeSample({}), "other");
}

TEST(AttributionTest, SharesSumToOneWithOtherExplicit) {
  const std::map<std::string, uint64_t> counts = {{"sim", 5}, {"mbuf", 3}, {"other", 2}};
  const std::map<std::string, double> shares = LayerShares(counts);
  EXPECT_EQ(shares.size(), kLayers.size());
  ASSERT_TRUE(shares.count("other"));
  EXPECT_DOUBLE_EQ(shares.at("other"), 0.2);
  double total = 0;
  for (const auto& [layer, share] : shares) {
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AttributionTest, SchedulerAddressSymbolisesToSim) {
  // A code address inside src/sim/scheduler.cc, as the sampler would see it.
  size_t (renonfs::Scheduler::*fn)(renonfs::SimTime) = &renonfs::Scheduler::RunUntil;
  uintptr_t pc = 0;
  static_assert(sizeof(fn) >= sizeof(pc));
  std::memcpy(&pc, &fn, sizeof(pc));
  pc += 4;  // inside the function, past its first instruction
  const auto symbols = Symbolize({pc});
  ASSERT_EQ(symbols.count(pc), 1u);
  const std::vector<std::string>& chain = symbols.at(pc);
  ASSERT_FALSE(chain.empty());
  EXPECT_NE(chain.back().find("src/sim/scheduler.cc"), std::string::npos) << chain.back();
  EXPECT_EQ(ChargeSample({chain}), "sim");
}

}  // namespace
}  // namespace perfbench
