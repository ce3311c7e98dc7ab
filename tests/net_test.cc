#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/address.h"
#include "src/net/medium.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/net/udp.h"
#include "src/sim/cost_profile.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return out;
}

class TwoHostLan : public ::testing::Test {
 protected:
  TwoHostLan() : net_(1) {
    a_ = net_.AddNode(CostProfile::MicroVax2(), "a");
    b_ = net_.AddNode(CostProfile::MicroVax2(), "b");
    lan_ = net_.AddMedium(MediumConfig::Ethernet10("lan"));
    a_->AttachMedium(lan_);
    b_->AttachMedium(lan_);
    a_->AddRoute(b_->id(), lan_, b_->id());
    b_->AddRoute(a_->id(), lan_, a_->id());
    udp_a_ = std::make_unique<UdpStack>(a_);
    udp_b_ = std::make_unique<UdpStack>(b_);
  }

  Network net_;
  Node* a_;
  Node* b_;
  Medium* lan_;
  std::unique_ptr<UdpStack> udp_a_;
  std::unique_ptr<UdpStack> udp_b_;
};

TEST_F(TwoHostLan, SmallDatagramDelivered) {
  std::optional<std::vector<uint8_t>> received;
  SockAddr from{};
  udp_b_->Bind(2049, [&](SockAddr src, MbufChain payload) {
    from = src;
    received = payload.ContiguousCopy();
  });
  const auto data = Pattern(100);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, data);
  EXPECT_EQ(from.host, a_->id());
  EXPECT_EQ(from.port, 900);
}

TEST_F(TwoHostLan, LargeDatagramFragmentsAndReassembles) {
  std::optional<std::vector<uint8_t>> received;
  udp_b_->Bind(2049, [&](SockAddr, MbufChain payload) { received = payload.ContiguousCopy(); });
  // 8 KB + RPC-ish overhead: must fragment into ~6 Ethernet frames.
  const auto data = Pattern(8300);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, data);
  EXPECT_GE(a_->stats().frames_sent, 6u);
  EXPECT_EQ(b_->stats().datagrams_delivered, 1u);
}

TEST_F(TwoHostLan, DeliveryTakesSerializationTime) {
  SimTime arrival = -1;
  udp_b_->Bind(2049, [&](SockAddr, MbufChain) { arrival = net_.scheduler().now(); });
  const auto data = Pattern(1000);
  udp_a_->SendTo(900, SockAddr{b_->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  // ~1 KB at 10 Mbit/s is ~0.84 ms on the wire alone, plus CPU costs on a
  // 0.9 MIPS machine; must be well above zero and below 30 ms.
  EXPECT_GT(arrival, Microseconds(800));
  EXPECT_LT(arrival, Milliseconds(30));
}

TEST_F(TwoHostLan, UnboundPortDropsDatagram) {
  const auto data = Pattern(64);
  udp_a_->SendTo(900, SockAddr{b_->id(), 7777}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  EXPECT_EQ(udp_b_->stats().no_port_drops, 1u);
}

TEST_F(TwoHostLan, NoRouteCounted) {
  const auto data = Pattern(64);
  udp_a_->SendTo(900, SockAddr{999, 2049}, MbufChain::FromBytes(data.data(), data.size()));
  net_.scheduler().Run();
  EXPECT_EQ(a_->stats().send_drops_no_route, 1u);
}

TEST(MediumTest, QueueOverflowDropsFrames) {
  Scheduler sched;
  MediumConfig config = MediumConfig::Ethernet10("lan");
  config.queue_limit = 2;
  Medium medium(sched, config, Rng(1));
  medium.Attach(2, [](Frame) {});
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.src = 1;
    f.dst = 2;
    f.link_next_hop = 2;
    f.payload = MbufChain::FromString(std::string(1000, 'x'));
    accepted += medium.Transmit(std::move(f)) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(medium.stats().frames_dropped_queue, 3u);
  sched.Run();
  EXPECT_EQ(medium.stats().frames_delivered, 2u);
}

TEST(MediumTest, RandomLossDropsFraction) {
  Scheduler sched;
  MediumConfig config = MediumConfig::Ethernet10("lossy");
  config.loss_probability = 0.3;
  config.queue_limit = 1000000;
  Medium medium(sched, config, Rng(7));
  int delivered = 0;
  medium.Attach(2, [&](Frame) { ++delivered; });
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    Frame f;
    f.src = 1;
    f.dst = 2;
    f.link_next_hop = 2;
    f.payload = MbufChain::FromString("ping");
    medium.Transmit(std::move(f));
  }
  sched.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / total, 0.7, 0.04);
}

TEST(MediumTest, BackgroundTrafficOccupiesBandwidth) {
  Scheduler sched;
  Medium medium(sched, MediumConfig::Ethernet10("lan"), Rng(1));
  medium.Attach(2, [](Frame) {});
  medium.InjectBackground(10000);  // 8 ms at 10 Mbit/s
  SimTime arrival = -1;
  medium.Attach(3, [&](Frame) { arrival = sched.now(); });
  Frame f;
  f.src = 1;
  f.dst = 3;
  f.link_next_hop = 3;
  f.payload = MbufChain::FromString("x");
  medium.Transmit(std::move(f));
  sched.Run();
  EXPECT_GT(arrival, Milliseconds(8));  // queued behind the background frame
}

Frame FrameTo(HostId next_hop, size_t payload_bytes) {
  Frame f;
  f.src = 1;
  f.dst = next_hop;
  f.link_next_hop = next_hop;
  f.payload = MbufChain::FromString(std::string(payload_bytes, 'x'));
  return f;
}

// Background frames schedule no arrival event, yet must free their queue
// slot at the same point in the firing order as an event would have: after
// every event scheduled before the injection at that instant, before every
// event scheduled after it.
TEST(MediumTest, BackgroundSlotFreesAtItsArrivalInSchedulingOrder) {
  for (const bool scheduled_after : {false, true}) {
    Scheduler sched;
    MediumConfig config = MediumConfig::Ethernet10("lan");
    config.queue_limit = 3;
    Medium medium(sched, config, Rng(1));
    int delivered = 0;
    medium.Attach(2, [&](Frame) { ++delivered; });
    const SimTime first_arrival =
        TransmissionTime(1000, config.bits_per_sec) + config.propagation_delay;
    std::optional<bool> accepted;
    auto transmit = [&]() { accepted = medium.Transmit(FrameTo(2, 100)); };
    if (!scheduled_after) {
      sched.Schedule(first_arrival, transmit);
    }
    for (size_t i = 0; i < config.queue_limit; ++i) {
      medium.InjectBackground(1000);
    }
    if (scheduled_after) {
      sched.Schedule(first_arrival, transmit);
    }
    sched.Run();
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(*accepted, scheduled_after) << "scheduled_after=" << scheduled_after;
    EXPECT_EQ(medium.stats().frames_dropped_queue, scheduled_after ? 0u : 1u);
    EXPECT_EQ(delivered, scheduled_after ? 1 : 0);
    EXPECT_EQ(medium.stats().background_frames, config.queue_limit);
  }
}

TEST(MediumTest, OverflowDamageCountsOnBackgroundEntries) {
  Scheduler sched;
  MediumConfig config = MediumConfig::Ethernet10("lan");
  config.queue_limit = 4;
  Medium medium(sched, config, Rng(3));
  medium.Attach(2, [](Frame) {});
  for (size_t i = 0; i < config.queue_limit; ++i) {
    medium.InjectBackground(1500);
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(medium.Transmit(FrameTo(2, 100)));
  }
  // Every queued entry is a background frame, so every victim is one; the
  // tail window holds all four, and a victim is counted once.
  EXPECT_EQ(medium.stats().frames_dropped_queue, 40u);
  EXPECT_GE(medium.stats().frames_damaged, 1u);
  EXPECT_LE(medium.stats().frames_damaged, 4u);
  sched.Run();
  EXPECT_EQ(medium.stats().frames_delivered, 0u);
}

// Bursty background traffic against a foreground stream that overloads the
// ring: the queue-slot accounting decides every drop and damage, so these
// counts pin the lazy background entries to the event-per-frame model they
// replaced (values recorded with one arrival event per background frame).
TEST(MediumTest, SeededBackgroundTrafficPinsRingCounters) {
  Scheduler sched;
  Medium ring(sched, MediumConfig::TokenRing80("ring"), Rng(11));
  ring.Attach(2, [](Frame) {});
  BackgroundTraffic traffic(sched, &ring, 0.5, Rng(5));
  traffic.Start();
  std::function<void()> send = [&]() {
    ring.Transmit(FrameTo(2, 1400));
    sched.Schedule(Microseconds(160), send);
  };
  sched.Schedule(0, send);
  sched.RunUntil(Seconds(2));
  const MediumStats& stats = ring.stats();
  EXPECT_EQ(stats.background_frames, 3568u);
  EXPECT_EQ(stats.frames_dropped_queue, 9443u);
  EXPECT_EQ(stats.bytes_on_wire, 20043800u);
  EXPECT_EQ(stats.frames_delivered, 11858u);
  EXPECT_EQ(stats.frames_damaged, 220u);
}

TopologyOptions QuietOptions() {
  TopologyOptions options;
  options.ethernet_background = 0;
  options.ring_background = 0;
  options.ethernet_loss = 0;
  options.ring_loss = 0;
  options.serial_loss = 0;
  return options;
}

struct RoutedPath {
  explicit RoutedPath(TopologyKind kind, TopologyOptions options = QuietOptions()) {
    topo = BuildTopology(kind, options);
    udp_client = std::make_unique<UdpStack>(topo.client);
    udp_server = std::make_unique<UdpStack>(topo.server);
  }
  Topology topo;
  std::unique_ptr<UdpStack> udp_client;
  std::unique_ptr<UdpStack> udp_server;
};

class TopologyTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyTest, RoundTripAcrossPath) {
  RoutedPath path(GetParam());
  auto& sched = path.topo.scheduler();

  // Server echoes; client records the reply.
  path.udp_server->Bind(2049, [&](SockAddr from, MbufChain payload) {
    path.udp_server->SendTo(2049, from, std::move(payload));
  });
  std::optional<std::vector<uint8_t>> reply;
  path.udp_client->Bind(901, [&](SockAddr, MbufChain payload) {
    reply = payload.ContiguousCopy();
  });

  const auto data = Pattern(1024);
  path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                          MbufChain::FromBytes(data.data(), data.size()));
  sched.Run();
  ASSERT_TRUE(reply.has_value()) << TopologyKindName(GetParam());
  EXPECT_EQ(*reply, data);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyTest,
                         ::testing::Values(TopologyKind::kSameLan, TopologyKind::kTokenRingPath,
                                           TopologyKind::kSlowLinkPath));

TEST(TopologyLatencyTest, SlowLinkMuchSlowerThanLan) {
  auto rtt_of = [](TopologyKind kind) {
    RoutedPath path(kind);
    auto& sched = path.topo.scheduler();
    path.udp_server->Bind(2049, [&](SockAddr from, MbufChain payload) {
      path.udp_server->SendTo(2049, from, std::move(payload));
    });
    SimTime rtt = -1;
    path.udp_client->Bind(901, [&](SockAddr, MbufChain) { rtt = sched.now(); });
    const auto data = Pattern(512);
    path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                            MbufChain::FromBytes(data.data(), data.size()));
    sched.Run();
    return rtt;
  };
  const SimTime lan = rtt_of(TopologyKind::kSameLan);
  const SimTime ring = rtt_of(TopologyKind::kTokenRingPath);
  const SimTime slow = rtt_of(TopologyKind::kSlowLinkPath);
  EXPECT_GT(ring, lan);
  EXPECT_GT(slow, 2 * ring);
  // 512B + headers twice over 56 Kbps alone is ~160 ms.
  EXPECT_GT(slow, Milliseconds(150));
}

TEST(TopologyLatencyTest, FragmentLossKillsWholeDatagram) {
  TopologyOptions options = QuietOptions();
  options.ring_loss = 0.5;  // drop half the frames on the ring
  options.seed = 3;
  RoutedPath path(TopologyKind::kTokenRingPath, options);
  auto& sched = path.topo.scheduler();
  int delivered = 0;
  path.udp_server->Bind(2049, [&](SockAddr, MbufChain) { ++delivered; });
  // 8 KB datagrams need ~5 ring fragments; P(all survive) ~ 0.5^5 ~ 3%.
  const auto data = Pattern(8192);
  for (int i = 0; i < 40; ++i) {
    path.udp_client->SendTo(901, SockAddr{path.topo.server->id(), 2049},
                            MbufChain::FromBytes(data.data(), data.size()));
  }
  sched.Run();
  EXPECT_LT(delivered, 8);  // nearly all datagrams lost
  EXPECT_GT(path.topo.server->stats().reassembly_timeouts, 0u);
}

TEST(NicModelTest, TunedInterfaceUsesLessCpu) {
  auto cpu_for = [](NicConfig nic) {
    Network net(1);
    Node* a = net.AddNode(CostProfile::MicroVax2(), "a");
    Node* b = net.AddNode(CostProfile::MicroVax2(), "b");
    Medium* lan = net.AddMedium(MediumConfig::Ethernet10("lan"));
    a->AttachMedium(lan);
    b->AttachMedium(lan);
    a->AddRoute(b->id(), lan, b->id());
    a->set_nic_config(nic);
    UdpStack udp_a(a);
    UdpStack udp_b(b);
    udp_b.Bind(2049, [](SockAddr, MbufChain) {});
    const auto data = Pattern(8192);
    for (int i = 0; i < 50; ++i) {
      udp_a.SendTo(900, SockAddr{b->id(), 2049}, MbufChain::FromBytes(data.data(), data.size()));
    }
    net.scheduler().Run();
    return a->cpu().busy_accum();
  };
  const SimTime stock = cpu_for(NicConfig::Stock());
  const SimTime tuned = cpu_for(NicConfig::Tuned());
  EXPECT_LT(tuned, stock);
  // Mapped transmit + no tx interrupts should save a clearly visible slice.
  EXPECT_LT(static_cast<double>(tuned), 0.9 * static_cast<double>(stock));
}

}  // namespace
}  // namespace renonfs
