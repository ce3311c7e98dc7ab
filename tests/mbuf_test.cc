#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/util/rng.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

class MbufTest : public ::testing::Test {
 protected:
  void SetUp() override { MbufStats::Instance().Reset(); }
};

TEST_F(MbufTest, AppendAndCopyOutRoundTrip) {
  const auto data = Pattern(5000);
  MbufChain chain;
  chain.Append(data.data(), data.size());
  EXPECT_EQ(chain.Length(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(chain.CopyOut(0, data.size(), out.data()));
  EXPECT_EQ(out, data);
}

TEST_F(MbufTest, LargeAppendUsesClusters) {
  MbufChain chain;
  const auto data = Pattern(8192);
  chain.Append(data.data(), data.size());
  EXPECT_GE(chain.ClusterCount(), 4u);  // 8 KB / 2 KB clusters
  EXPECT_EQ(chain.ContiguousCopy(), data);
}

TEST_F(MbufTest, CopyOutOfRangeFails) {
  MbufChain chain = MbufChain::FromString("abc");
  uint8_t buf[8];
  EXPECT_FALSE(chain.CopyOut(1, 3, buf));
  EXPECT_TRUE(chain.CopyOut(1, 2, buf));
  EXPECT_EQ(buf[0], 'b');
}

TEST_F(MbufTest, PrependUsesLeadingSpaceAfterTrim) {
  MbufChain chain = MbufChain::FromString("XXheader-body");
  chain.TrimFront(2);
  uint8_t* hdr = chain.Prepend(2);
  hdr[0] = 'A';
  hdr[1] = 'B';
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "ABheader-body");
}

TEST_F(MbufTest, PrependAllocatesWhenNoSpace) {
  MbufChain chain = MbufChain::FromString("data");
  const size_t before = chain.MbufCount();
  uint8_t* hdr = chain.Prepend(4);
  std::memcpy(hdr, "HDR:", 4);
  EXPECT_GE(chain.MbufCount(), before + 1);
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "HDR:data");
}

TEST_F(MbufTest, CopyRangeSharesClusters) {
  MbufChain chain;
  const auto data = Pattern(6000);
  chain.Append(data.data(), data.size());
  MbufStats::Instance().Reset();

  MbufChain slice = chain.CopyRange(1000, 4000);
  EXPECT_EQ(slice.Length(), 4000u);
  EXPECT_GT(MbufStats::Instance().cluster_shares, 0u);
  EXPECT_GT(MbufStats::Instance().bytes_shared, 0u);
  // Sharing, not copying: no cluster-sized copy happened.
  EXPECT_LT(MbufStats::Instance().bytes_copied, 200u);

  std::vector<uint8_t> expect(data.begin() + 1000, data.begin() + 5000);
  EXPECT_EQ(slice.ContiguousCopy(), expect);
}

TEST_F(MbufTest, SharedClusterNotWritable) {
  MbufChain chain;
  const auto data = Pattern(3000);
  chain.Append(data.data(), data.size());
  MbufChain clone = chain.Clone();
  // Appending to the original must not corrupt the clone.
  const auto more = Pattern(100, 99);
  chain.Append(more.data(), more.size());
  std::vector<uint8_t> expect = data;
  EXPECT_EQ(clone.ContiguousCopy(), expect);
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, TrimFrontAcrossMbufs) {
  MbufChain chain;
  const auto data = Pattern(5000);
  chain.Append(data.data(), data.size());
  chain.TrimFront(2500);
  EXPECT_EQ(chain.Length(), 2500u);
  std::vector<uint8_t> expect(data.begin() + 2500, data.end());
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, TrimBackAcrossMbufs) {
  MbufChain chain;
  const auto data = Pattern(5000);
  chain.Append(data.data(), data.size());
  chain.TrimBack(2500);
  EXPECT_EQ(chain.Length(), 2500u);
  std::vector<uint8_t> expect(data.begin(), data.begin() + 2500);
  EXPECT_EQ(chain.ContiguousCopy(), expect);
  // Chain still usable for appends afterwards.
  chain.Append("zz", 2);
  EXPECT_EQ(chain.Length(), 2502u);
}

TEST_F(MbufTest, TrimAllEmptiesChain) {
  MbufChain chain = MbufChain::FromString("abcdef");
  chain.TrimFront(6);
  EXPECT_TRUE(chain.Empty());
  chain.Append("x", 1);
  EXPECT_EQ(chain.Length(), 1u);
}

TEST_F(MbufTest, SplitOffPreservesBothHalves) {
  MbufChain chain;
  const auto data = Pattern(4096);
  chain.Append(data.data(), data.size());
  MbufChain rest = chain.SplitOff(1500);
  EXPECT_EQ(chain.Length(), 1500u);
  EXPECT_EQ(rest.Length(), 4096u - 1500u);
  std::vector<uint8_t> lo(data.begin(), data.begin() + 1500);
  std::vector<uint8_t> hi(data.begin() + 1500, data.end());
  EXPECT_EQ(chain.ContiguousCopy(), lo);
  EXPECT_EQ(rest.ContiguousCopy(), hi);
}

TEST_F(MbufTest, ConcatMovesBytes) {
  MbufChain a = MbufChain::FromString("hello ");
  MbufChain b = MbufChain::FromString("world");
  a.Concat(std::move(b));
  auto bytes = a.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello world");
  EXPECT_TRUE(b.Empty());  // NOLINT(bugprone-use-after-move): moved-from is valid-empty
}

TEST_F(MbufTest, AppendSharedClusterZeroCopy) {
  auto cluster = NewCluster();
  const auto data = Pattern(2048);
  std::memcpy(cluster->data(), data.data(), data.size());
  MbufStats::Instance().Reset();

  MbufChain chain;
  chain.AppendSharedCluster(cluster, 100, 1000);
  EXPECT_EQ(chain.Length(), 1000u);
  EXPECT_EQ(MbufStats::Instance().bytes_copied, 0u);
  EXPECT_EQ(MbufStats::Instance().bytes_shared, 1000u);
  std::vector<uint8_t> expect(data.begin() + 100, data.begin() + 1100);
  EXPECT_EQ(chain.ContiguousCopy(), expect);
}

TEST_F(MbufTest, AppendSpaceContiguous) {
  MbufChain chain;
  uint8_t* p = chain.AppendSpace(4);
  std::memcpy(p, "abcd", 4);
  uint8_t* q = chain.AppendSpace(4);
  std::memcpy(q, "efgh", 4);
  auto bytes = chain.ContiguousCopy();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "abcdefgh");
}

TEST_F(MbufTest, AppendZeros) {
  MbufChain chain;
  chain.AppendZeros(3000);
  EXPECT_EQ(chain.Length(), 3000u);
  auto bytes = chain.ContiguousCopy();
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; }));
}

TEST_F(MbufTest, InternetChecksumMatchesReference) {
  // RFC 1071 example-style check against a straightforward reference.
  const auto data = Pattern(1999);
  MbufChain chain;
  chain.Append(data.data(), data.size());

  uint64_t sum = 0;
  for (size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint64_t>(data[i]) << 8 | data[i + 1];
  }
  sum += static_cast<uint64_t>(data.back()) << 8;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  EXPECT_EQ(chain.InternetChecksum(), static_cast<uint16_t>(~sum & 0xffff));
}

TEST_F(MbufTest, ChecksumInvariantUnderFragmentationLayout) {
  // The checksum must not depend on how bytes are spread across mbufs.
  const auto data = Pattern(4321);
  MbufChain whole;
  whole.Append(data.data(), data.size());

  MbufChain pieces;
  size_t off = 0;
  Rng rng(21);
  while (off < data.size()) {
    const size_t n = std::min<size_t>(data.size() - off, 1 + rng.UniformUint64(700));
    pieces.Concat(whole.CopyRange(off, n));
    off += n;
  }
  EXPECT_EQ(pieces.InternetChecksum(), whole.InternetChecksum());
}

// RFC 1071 reference: sum network-order byte pairs over the contiguous
// bytes (an odd last byte padded with zero), fold, complement.
uint16_t BytePairChecksum(const std::vector<uint8_t>& data) {
  uint64_t sum = 0;
  for (size_t i = 0; i < data.size(); i += 2) {
    const uint64_t lo = i + 1 < data.size() ? data[i + 1] : 0;
    sum += static_cast<uint64_t>(data[i]) << 8 | lo;
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum & 0xffff);
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return out;
}

// Spreads `data` over a chain of random odd and even segment lengths: cluster
// pieces are CopyRange views into a source chain shifted by a random pad, so
// they start at arbitrary (often unaligned) addresses, and short pieces are
// small-mbuf copies.
MbufChain RandomlySegmented(const std::vector<uint8_t>& data, Rng& rng) {
  const size_t pad = rng.UniformUint64(8);
  MbufChain source;
  source.AppendZeros(pad);
  source.Append(data.data(), data.size());
  MbufChain out;
  size_t off = 0;
  while (off < data.size()) {
    const size_t cap = rng.Bernoulli(0.3) ? 4 : 700;
    const size_t n = std::min<size_t>(data.size() - off, 1 + rng.UniformUint64(cap));
    if (n <= Mbuf::kSmallCapacity && rng.Bernoulli(0.3)) {
      out.Concat(MbufChain::FromBytes(data.data() + off, n));
    } else {
      out.Concat(source.CopyRange(pad + off, n));
    }
    off += n;
  }
  return out;
}

TEST_F(MbufTest, ChecksumMatchesBytePairReferenceOnRandomChains) {
  Rng rng(1071);
  bool saw_odd_offset = false;
  bool saw_unaligned_address = false;
  for (int round = 0; round < 300; ++round) {
    const auto data = RandomBytes(rng, rng.UniformUint64(5000));
    const MbufChain chain = RandomlySegmented(data, rng);
    ASSERT_EQ(chain.ContiguousCopy(), data);
    size_t offset = 0;
    chain.ForEachSegment([&](const uint8_t* p, size_t n) {
      saw_odd_offset |= (offset & 1) != 0;
      saw_unaligned_address |= (reinterpret_cast<uintptr_t>(p) & 7) != 0;
      offset += n;
    });
    ASSERT_EQ(chain.InternetChecksum(), BytePairChecksum(data)) << "round " << round;
  }
  EXPECT_TRUE(saw_odd_offset);
  EXPECT_TRUE(saw_unaligned_address);
}

TEST_F(MbufTest, ChecksumMatchesReferenceForEveryShortLength) {
  // Every length around the 16-byte unroll and its 8/2/1-byte tails, both
  // contiguous and split into odd pieces at an unaligned start.
  Rng rng(16);
  for (size_t len = 0; len <= 40; ++len) {
    const auto data = RandomBytes(rng, len);
    const MbufChain whole = MbufChain::FromBytes(data.data(), data.size());
    EXPECT_EQ(whole.InternetChecksum(), BytePairChecksum(data)) << "len " << len;
    for (int split = 0; split < 4; ++split) {
      EXPECT_EQ(RandomlySegmented(data, rng).InternetChecksum(), BytePairChecksum(data))
          << "len " << len << " split " << split;
    }
  }
}

TEST_F(MbufTest, ChecksumEdgePayloads) {
  Rng rng(0xffff);
  // All-zero data sums to 0 and checksums to 0xffff; all-0xff data of even
  // length sums to the one's-complement "negative zero" 0xffff and checksums
  // to 0 (an odd length leaves a padded 0xff00 word: checksum 0x00ff).
  for (const size_t len : {1, 2, 3, 17, 1500, 8192}) {
    for (const uint8_t fill : {0x00, 0xff}) {
      const std::vector<uint8_t> data(len, fill);
      const uint16_t expected = BytePairChecksum(data);
      EXPECT_EQ(expected, fill == 0 ? 0xffff : (len % 2 == 1 ? 0x00ff : 0));
      EXPECT_EQ(MbufChain::FromBytes(data.data(), len).InternetChecksum(), expected);
      EXPECT_EQ(RandomlySegmented(data, rng).InternetChecksum(), expected);
    }
  }
  // Random bytes closed by the word that makes the true sum fold to 0xffff:
  // the checksum is 0, never the other zero 0xffff.
  for (int round = 0; round < 20; ++round) {
    auto data = RandomBytes(rng, 2 * (1 + rng.UniformUint64(2000)));
    const uint16_t folded = static_cast<uint16_t>(~BytePairChecksum(data));
    const uint16_t closing = static_cast<uint16_t>(0xffff - folded);
    data.push_back(static_cast<uint8_t>(closing >> 8));
    data.push_back(static_cast<uint8_t>(closing & 0xff));
    ASSERT_EQ(BytePairChecksum(data), 0);
    EXPECT_EQ(MbufChain::FromBytes(data.data(), data.size()).InternetChecksum(), 0);
    EXPECT_EQ(RandomlySegmented(data, rng).InternetChecksum(), 0);
  }
}

TEST_F(MbufTest, ChecksumDetectsSingleBitFlip) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    auto data = RandomBytes(rng, 1 + rng.UniformUint64(3000));
    const uint16_t before = RandomlySegmented(data, rng).InternetChecksum();
    data[rng.UniformUint64(data.size())] ^= static_cast<uint8_t>(1u << rng.UniformUint64(8));
    const uint16_t after = RandomlySegmented(data, rng).InternetChecksum();
    EXPECT_NE(after, before) << "round " << round;
    EXPECT_EQ(after, BytePairChecksum(data)) << "round " << round;
  }
}

TEST_F(MbufTest, ForEachSegmentCoversAllBytes) {
  MbufChain chain;
  const auto data = Pattern(3333);
  chain.Append(data.data(), data.size());
  size_t total = 0;
  std::vector<uint8_t> gathered;
  chain.ForEachSegment([&](const uint8_t* p, size_t n) {
    total += n;
    gathered.insert(gathered.end(), p, p + n);
  });
  EXPECT_EQ(total, data.size());
  EXPECT_EQ(gathered, data);
}

// Property-style sweep: random op sequences preserve a byte-accurate model.
class MbufPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MbufPropertyTest, RandomOpsMatchVectorModel) {
  Rng rng(GetParam());
  MbufChain chain;
  std::vector<uint8_t> model;
  for (int step = 0; step < 200; ++step) {
    const uint64_t op = rng.UniformUint64(5);
    switch (op) {
      case 0: {  // append
        const auto data = Pattern(rng.UniformUint64(3000), static_cast<uint8_t>(step));
        chain.Append(data.data(), data.size());
        model.insert(model.end(), data.begin(), data.end());
        break;
      }
      case 1: {  // trim front
        const size_t n = rng.UniformUint64(model.size() + 1);
        chain.TrimFront(n);
        model.erase(model.begin(), model.begin() + n);
        break;
      }
      case 2: {  // trim back
        const size_t n = rng.UniformUint64(model.size() + 1);
        chain.TrimBack(n);
        model.resize(model.size() - n);
        break;
      }
      case 3: {  // clone a range and self-concat
        if (model.empty()) {
          break;
        }
        const size_t off = rng.UniformUint64(model.size());
        const size_t n = rng.UniformUint64(model.size() - off + 1);
        MbufChain slice = chain.CopyRange(off, n);
        chain.Concat(std::move(slice));
        model.insert(model.end(), model.begin() + off, model.begin() + off + n);
        break;
      }
      case 4: {  // split and rejoin (identity)
        const size_t at = rng.UniformUint64(model.size() + 1);
        MbufChain rest = chain.SplitOff(at);
        chain.Concat(std::move(rest));
        break;
      }
    }
    ASSERT_EQ(chain.Length(), model.size()) << "step " << step;
  }
  EXPECT_EQ(chain.ContiguousCopy(), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbufPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace renonfs
