#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "tests/nfs_test_util.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return out;
}

// Convenience: write a whole file through the client API.
CoTask<Status> WriteFile(NfsClient& client, NfsFh dir, std::string name,
                         std::vector<uint8_t> bytes, NfsFh* out_fh = nullptr) {
  auto fh_or = co_await client.Create(dir, name);
  if (!fh_or.ok()) {
    co_return fh_or.status();
  }
  if (out_fh != nullptr) {
    *out_fh = fh_or.value();
  }
  Status open_status = co_await client.Open(fh_or.value());
  if (!open_status.ok()) {
    co_return open_status;
  }
  Status write_status = co_await client.Write(fh_or.value(), 0, bytes.data(), bytes.size());
  if (!write_status.ok()) {
    co_return write_status;
  }
  Status close_status = co_await client.Close(fh_or.value());
  co_return close_status;
}

CoTask<StatusOr<std::vector<uint8_t>>> ReadFile(NfsClient& client, NfsFh fh, size_t len) {
  Status open_status = co_await client.Open(fh);
  if (!open_status.ok()) {
    co_return open_status;
  }
  std::vector<uint8_t> bytes(len);
  auto read_or = co_await client.Read(fh, 0, len, bytes.data());
  if (!read_or.ok()) {
    co_return read_or.status();
  }
  bytes.resize(read_or.value());
  Status close_status = co_await client.Close(fh);
  if (!close_status.ok()) {
    co_return close_status;
  }
  co_return bytes;
}

TEST(NfsIntegrationTest, CreateWriteReadBack) {
  NfsWorld world;
  const auto data = Pattern(100 * 1024);
  NfsFh fh;
  auto write_task = WriteFile(world.client(), world.client().root(), "big.dat", data, &fh);
  EXPECT_TRUE(world.Run(write_task).ok());

  auto read_task = ReadFile(world.client(), fh, 200 * 1024);
  auto bytes_or = world.Run(read_task);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value(), data);

  // Server really has the data (check through LocalFs).
  auto server_ino = world.fs->Lookup(world.fs->root(), "big.dat");
  ASSERT_TRUE(server_ino.ok());
  auto server_data = world.fs->Read(*server_ino, 0, 200 * 1024);
  ASSERT_TRUE(server_data.ok());
  EXPECT_EQ(*server_data, data);
}

TEST(NfsIntegrationTest, WorksOverTcpTransport) {
  NfsWorld world(1, NfsMountOptions::RenoTcp());
  const auto data = Pattern(64 * 1024, 9);
  NfsFh fh;
  auto write_task = WriteFile(world.client(), world.client().root(), "t.dat", data, &fh);
  EXPECT_TRUE(world.Run(write_task).ok());
  auto read_task = ReadFile(world.client(), fh, 128 * 1024);
  auto bytes_or = world.Run(read_task);
  ASSERT_TRUE(bytes_or.ok());
  EXPECT_EQ(bytes_or.value(), data);
  EXPECT_EQ(world.client().transport_stats().retransmits, 0u);
}

TEST(NfsIntegrationTest, LookupPathWalksComponents) {
  NfsWorld world;
  auto setup = [](NfsClient& c) -> CoTask<Status> {
    auto a = co_await c.Mkdir(c.root(), "usr");
    if (!a.ok()) {
      co_return a.status();
    }
    auto b = co_await c.Mkdir(a.value(), "include");
    if (!b.ok()) {
      co_return b.status();
    }
    auto f = co_await c.Create(b.value(), "stdio.h");
    co_return f.status();
  }(world.client());
  EXPECT_TRUE(world.Run(setup).ok());

  auto lookup = world.client().LookupPath("usr/include/stdio.h");
  auto fh_or = world.Run(lookup);
  ASSERT_TRUE(fh_or.ok());
  auto attr_task = world.client().Getattr(fh_or.value());
  auto attr_or = world.Run(attr_task);
  ASSERT_TRUE(attr_or.ok());
  EXPECT_EQ(attr_or->type, FileType::kRegular);
}

TEST(NfsIntegrationTest, NameCacheEliminatesRepeatLookupRpcs) {
  NfsWorld world;
  auto setup = [](NfsClient& c) -> CoTask<Status> {
    auto f = co_await c.Create(c.root(), "cached");
    co_return f.status();
  }(world.client());
  ASSERT_TRUE(world.Run(setup).ok());

  const uint64_t before = world.client().stats().lookup_rpcs();
  auto lookups = [](NfsClient& c) -> CoTask<Status> {
    for (int i = 0; i < 20; ++i) {
      auto fh = co_await c.Lookup(c.root(), "cached");
      if (!fh.ok()) {
        co_return fh.status();
      }
    }
    co_return Status::Ok();
  }(world.client());
  ASSERT_TRUE(world.Run(lookups).ok());
  // Create seeded the name cache; repeated lookups need no LOOKUP RPC.
  EXPECT_EQ(world.client().stats().lookup_rpcs(), before);
}

TEST(NfsIntegrationTest, NoNameCacheIssuesRpcPerLookup) {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.name_cache = false;
  NfsWorld world(1, mount);
  auto setup = [](NfsClient& c) -> CoTask<Status> {
    auto f = co_await c.Create(c.root(), "raw");
    co_return f.status();
  }(world.client());
  ASSERT_TRUE(world.Run(setup).ok());

  const uint64_t before = world.client().stats().lookup_rpcs();
  auto lookups = [](NfsClient& c) -> CoTask<Status> {
    for (int i = 0; i < 10; ++i) {
      auto fh = co_await c.Lookup(c.root(), "raw");
      if (!fh.ok()) {
        co_return fh.status();
      }
    }
    co_return Status::Ok();
  }(world.client());
  ASSERT_TRUE(world.Run(lookups).ok());
  EXPECT_EQ(world.client().stats().lookup_rpcs(), before + 10);
}

TEST(NfsIntegrationTest, AttrCacheFiveSecondTimeout) {
  NfsWorld world;
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "attrs", Pattern(10), &fh);
  ASSERT_TRUE(world.Run(setup).ok());

  const uint64_t base = world.client().stats().getattr_rpcs();
  auto stat_twice = [](NfsClient& c, NfsFh f) -> CoTask<Status> {
    auto a = co_await c.Getattr(f);
    if (!a.ok()) {
      co_return a.status();
    }
    auto b = co_await c.Getattr(f);  // immediately: cached
    co_return b.status();
  }(world.client(), fh);
  ASSERT_TRUE(world.Run(stat_twice).ok());
  const uint64_t after_two = world.client().stats().getattr_rpcs();
  EXPECT_LE(after_two - base, 1u);  // at most one RPC for the pair

  // Let the 5 s TTL lapse; the next Getattr must go to the server.
  world.scheduler().RunFor(Seconds(6));
  auto stat_again = world.client().Getattr(fh);
  ASSERT_TRUE(world.Run(stat_again).ok());
  EXPECT_EQ(world.client().stats().getattr_rpcs(), after_two + 1);
}

TEST(NfsIntegrationTest, DelayedWritePolicyDefersUntilClose) {
  NfsWorld world;  // Reno default: delayed writes, push on close
  auto task = [](NfsWorld& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "delay");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    const auto data = Pattern(3000);
    co_await c.Write(fh_or.value(), 0, data.data(), data.size());
    // Delayed policy: nothing pushed yet.
    if (c.stats().write_rpcs() != 0) {
      co_return InternalError("write RPC before close under delayed policy");
    }
    Status status = co_await c.Close(fh_or.value());
    if (!status.ok()) {
      co_return status;
    }
    if (c.stats().write_rpcs() == 0) {
      co_return InternalError("close did not push dirty data");
    }
    co_return Status::Ok();
  }(world);
  EXPECT_TRUE(world.Run(task).ok());
}

TEST(NfsIntegrationTest, WriteThroughPushesImmediately) {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.biods = 0;  // no biods => write-through, as in Table #5
  NfsWorld world(1, mount);
  auto task = [](NfsWorld& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "sync");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    const auto data = Pattern(100);
    co_await c.Write(fh_or.value(), 0, data.data(), data.size());
    if (c.stats().write_rpcs() != 1) {
      co_return InternalError("write-through did not push immediately");
    }
    co_return Status::Ok();
  }(world);
  EXPECT_TRUE(world.Run(task).ok());
}

TEST(NfsIntegrationTest, AsyncPolicyPushesFullBlocksInBackground) {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.write_policy = WritePolicy::kAsync;
  NfsWorld world(1, mount);
  auto task = [](NfsWorld& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "async");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    const auto data = Pattern(kNfsMaxData);  // exactly one full block
    co_await c.Write(fh_or.value(), 0, data.data(), data.size());
    co_return Status::Ok();
  }(world);
  ASSERT_TRUE(world.Run(task).ok());
  world.scheduler().RunFor(Seconds(10));  // let the biod finish
  EXPECT_EQ(world.client().stats().write_rpcs(), 1u);
}

TEST(NfsIntegrationTest, PushBeforeReadCausesReReadOfOwnWrites) {
  // Reno: reading after writing pushes dirty blocks and invalidates the
  // cache, so the client re-reads data it just wrote (Table #3's +50% read
  // RPCs). The Ultrix-like client trusts its own writes and reads from
  // cache.
  auto reads_after_write_then_read = [](NfsMountOptions mount) {
    NfsWorld world(1, mount);
    auto task = [](NfsWorld& w) -> CoTask<Status> {
      NfsClient& c = w.client();
      auto fh_or = co_await c.Create(c.root(), "rw");
      if (!fh_or.ok()) {
        co_return fh_or.status();
      }
      co_await c.Open(fh_or.value());
      const auto data = Pattern(2 * kNfsMaxData);
      co_await c.Write(fh_or.value(), 0, data.data(), data.size());
      std::vector<uint8_t> back(data.size());
      auto read_or = co_await c.Read(fh_or.value(), 0, back.size(), back.data());
      if (!read_or.ok()) {
        co_return read_or.status();
      }
      if (back != data) {
        co_return InternalError("read-back mismatch");
      }
      co_return Status::Ok();
    }(world);
    CHECK(world.Run(task).ok());
    return world.client().stats().read_rpcs();
  };

  const uint64_t reno_reads = reads_after_write_then_read(NfsMountOptions::Reno());
  const uint64_t noconsist_reads =
      reads_after_write_then_read(NfsMountOptions::RenoNoConsist());
  EXPECT_GE(reno_reads, 2u);        // re-read both blocks from the server
  EXPECT_EQ(noconsist_reads, 0u);   // served entirely from cache
}

TEST(NfsIntegrationTest, UltrixPartialWritePrereadsBlock) {
  // Without dirty-region bufs, modifying the middle of an existing block
  // requires pre-reading it from the server. Use a second client so the
  // writer's cache is cold.
  NfsWorld world(2, NfsMountOptions::UltrixLike());
  NfsFh fh;
  auto setup = WriteFile(world.client(0), world.client(0).root(), "pre", Pattern(4000), &fh);
  ASSERT_TRUE(world.Run(setup).ok());

  auto modify = [](NfsClient& c, NfsFh f) -> CoTask<Status> {
    co_await c.Open(f);
    const auto patch = Pattern(10, 0x77);
    Status status = co_await c.Write(f, 100, patch.data(), patch.size());
    if (!status.ok()) {
      co_return status;
    }
    co_return co_await c.Close(f);
  }(world.client(1), fh);
  ASSERT_TRUE(world.Run(modify).ok());
  EXPECT_GE(world.client(1).stats().read_rpcs(), 1u);  // the pre-read

  // Data must still be correct, seen from the first client after the TTL.
  world.scheduler().RunFor(Seconds(6));
  auto verify = ReadFile(world.client(0), fh, 8192);
  auto bytes_or = world.Run(verify);
  ASSERT_TRUE(bytes_or.ok());
  auto expect = Pattern(4000);
  for (int i = 0; i < 10; ++i) {
    expect[100 + i] = Pattern(10, 0x77)[i];
  }
  EXPECT_EQ(bytes_or.value(), expect);
}

TEST(NfsIntegrationTest, RenoPartialWriteNeedsNoPreread) {
  NfsWorld world;  // Reno: dirty-region bufs
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "nopre", Pattern(4000), &fh);
  ASSERT_TRUE(world.Run(setup).ok());
  world.scheduler().RunFor(Seconds(30));
  world.client().mutable_stats().rpc_counts[kNfsRead] = 0;

  auto modify = [](NfsClient& c, NfsFh f) -> CoTask<Status> {
    co_await c.Open(f);
    const auto patch = Pattern(10, 0x77);
    Status status = co_await c.Write(f, 100, patch.data(), patch.size());
    if (!status.ok()) {
      co_return status;
    }
    co_return co_await c.Close(f);
  }(world.client(), fh);
  ASSERT_TRUE(world.Run(modify).ok());
  EXPECT_EQ(world.client().stats().read_rpcs(), 0u);  // no pre-read

  auto verify = ReadFile(world.client(), fh, 8192);
  auto bytes_or = world.Run(verify);
  ASSERT_TRUE(bytes_or.ok());
  auto expect = Pattern(4000);
  for (int i = 0; i < 10; ++i) {
    expect[100 + i] = Pattern(10, 0x77)[i];
  }
  EXPECT_EQ(bytes_or.value(), expect);
}

TEST(NfsIntegrationTest, CloseOpenConsistencyBetweenTwoClients) {
  NfsWorld world(2);
  // Client 0 creates and writes; client 1 opens afterwards and must see it.
  NfsFh fh0;
  auto write_task =
      WriteFile(world.client(0), world.client(0).root(), "shared", Pattern(20000, 3), &fh0);
  ASSERT_TRUE(world.Run(write_task).ok());

  auto read_task = [](NfsClient& c) -> CoTask<StatusOr<std::vector<uint8_t>>> {
    auto fh_or = co_await c.Lookup(c.root(), "shared");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    std::vector<uint8_t> bytes(40000);
    auto n_or = co_await c.Read(fh_or.value(), 0, bytes.size(), bytes.data());
    if (!n_or.ok()) {
      co_return n_or.status();
    }
    bytes.resize(n_or.value());
    co_return bytes;
  }(world.client(1));
  auto bytes_or = world.Run(read_task);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value(), Pattern(20000, 3));
}

TEST(NfsIntegrationTest, SecondClientSeesUpdateAfterCloseAndTtl) {
  NfsWorld world(2);
  NfsFh fh0;
  auto v1 = WriteFile(world.client(0), world.client(0).root(), "evolving", Pattern(5000, 1), &fh0);
  ASSERT_TRUE(world.Run(v1).ok());

  // Client 1 reads version 1.
  auto read1 = [](NfsClient& c) -> CoTask<StatusOr<std::vector<uint8_t>>> {
    auto fh_or = co_await c.Lookup(c.root(), "evolving");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    std::vector<uint8_t> bytes(10000);
    auto n_or = co_await c.Read(fh_or.value(), 0, bytes.size(), bytes.data());
    if (!n_or.ok()) {
      co_return n_or.status();
    }
    bytes.resize(n_or.value());
    co_await c.Close(fh_or.value());
    co_return bytes;
  }(world.client(1));
  ASSERT_EQ(world.Run(read1).value(), Pattern(5000, 1));

  // Client 0 rewrites and closes (pushes).
  auto v2 = [](NfsClient& c, NfsFh f) -> CoTask<Status> {
    co_await c.Open(f);
    const auto data = Pattern(5000, 2);
    co_await c.Write(f, 0, data.data(), data.size());
    co_return co_await c.Close(f);
  }(world.client(0), fh0);
  ASSERT_TRUE(world.Run(v2).ok());

  // After the attribute TTL, client 1's re-open sees the new modify time and
  // flushes its cache.
  world.scheduler().RunFor(Seconds(6));
  auto read2 = [](NfsClient& c) -> CoTask<StatusOr<std::vector<uint8_t>>> {
    auto fh_or = co_await c.Lookup(c.root(), "evolving");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    std::vector<uint8_t> bytes(10000);
    auto n_or = co_await c.Read(fh_or.value(), 0, bytes.size(), bytes.data());
    if (!n_or.ok()) {
      co_return n_or.status();
    }
    bytes.resize(n_or.value());
    co_return bytes;
  }(world.client(1));
  EXPECT_EQ(world.Run(read2).value(), Pattern(5000, 2));
}

TEST(NfsIntegrationTest, NoConsistRemoveBeforePushSkipsWrites) {
  // The create-delete win: with no push-on-close, deleting the file discards
  // the delayed writes entirely — zero write RPCs (Table #5 "no consist").
  NfsWorld world(1, NfsMountOptions::RenoNoConsist());
  auto task = [](NfsWorld& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "ephemeral");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    co_await c.Open(fh_or.value());
    const auto data = Pattern(100 * 1024);
    co_await c.Write(fh_or.value(), 0, data.data(), data.size());
    co_await c.Close(fh_or.value());  // no push
    co_return co_await c.Remove(c.root(), "ephemeral");
  }(world);
  ASSERT_TRUE(world.Run(task).ok());
  EXPECT_EQ(world.client().stats().write_rpcs(), 0u);
}

TEST(NfsIntegrationTest, ReaddirListsAndCaches) {
  NfsWorld world;
  auto setup = [](NfsClient& c) -> CoTask<Status> {
    for (int i = 0; i < 30; ++i) {
      auto f = co_await c.Create(c.root(), "entry" + std::to_string(i));
      if (!f.ok()) {
        co_return f.status();
      }
    }
    co_return Status::Ok();
  }(world.client());
  ASSERT_TRUE(world.Run(setup).ok());

  auto list1 = world.client().Readdir(world.client().root());
  auto entries_or = world.Run(list1);
  ASSERT_TRUE(entries_or.ok());
  EXPECT_EQ(entries_or->size(), 30u);
  const uint64_t rpcs_after_first = world.client().stats().rpc_counts[kNfsReaddir];
  EXPECT_GE(rpcs_after_first, 1u);

  auto list2 = world.client().Readdir(world.client().root());
  auto entries2_or = world.Run(list2);
  ASSERT_TRUE(entries2_or.ok());
  EXPECT_EQ(entries2_or->size(), 30u);
  // Unchanged directory: served from the listing cache.
  EXPECT_EQ(world.client().stats().rpc_counts[kNfsReaddir], rpcs_after_first);
}

TEST(NfsIntegrationTest, RenameLinkSymlinkReadlink) {
  NfsWorld world;
  auto task = [](NfsWorld& w) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "orig");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    Status status = co_await c.Rename(c.root(), "orig", c.root(), "renamed");
    if (!status.ok()) {
      co_return status;
    }
    status = co_await c.Link(fh_or.value(), c.root(), "hardlink");
    if (!status.ok()) {
      co_return status;
    }
    status = co_await c.Symlink(c.root(), "sym", "renamed");
    if (!status.ok()) {
      co_return status;
    }
    auto sym_or = co_await c.Lookup(c.root(), "sym");
    if (!sym_or.ok()) {
      co_return sym_or.status();
    }
    auto target_or = co_await c.Readlink(sym_or.value());
    if (!target_or.ok()) {
      co_return target_or.status();
    }
    if (target_or.value() != "renamed") {
      co_return InternalError("bad symlink target");
    }
    auto renamed_or = co_await c.Lookup(c.root(), "renamed");
    if (!renamed_or.ok()) {
      co_return renamed_or.status();
    }
    auto hardlink_or = co_await c.Lookup(c.root(), "hardlink");
    if (!hardlink_or.ok()) {
      co_return hardlink_or.status();
    }
    if (!(renamed_or.value() == hardlink_or.value())) {
      co_return InternalError("hard link resolves differently");
    }
    co_return Status::Ok();
  }(world);
  EXPECT_TRUE(world.Run(task).ok());
}

TEST(NfsIntegrationTest, StatfsReportsServerVolume) {
  NfsWorld world;
  auto task = world.client().Statfs();
  auto stat_or = world.Run(task);
  ASSERT_TRUE(stat_or.ok());
  EXPECT_EQ(stat_or->bsize, kFsBlockSize);
}

TEST(NfsIntegrationTest, StaleFileHandleError) {
  NfsWorld world;
  auto task = world.client().Getattr(NfsFh::Make(1, 9999));
  auto attr_or = world.Run(task);
  ASSERT_FALSE(attr_or.ok());
  EXPECT_EQ(attr_or.status().code(), ErrorCode::kStale);
}

TEST(NfsIntegrationTest, SetattrTruncateVisibleOnRead) {
  NfsWorld world;
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "trunc", Pattern(9000), &fh);
  ASSERT_TRUE(world.Run(setup).ok());

  auto truncate = [](NfsClient& c, NfsFh f) -> CoTask<Status> {
    SetAttrRequest request;
    request.size = 1000;
    co_return co_await c.Setattr(f, request);
  }(world.client(), fh);
  ASSERT_TRUE(world.Run(truncate).ok());

  auto verify = ReadFile(world.client(), fh, 9000);
  auto bytes_or = world.Run(verify);
  ASSERT_TRUE(bytes_or.ok());
  EXPECT_EQ(bytes_or->size(), 1000u);
}

TEST(NfsIntegrationTest, SetattrTruncateOfCachedFileDropsBlocksPastCut) {
  NfsWorld world;
  const auto data = Pattern(3 * kNfsMaxData, 5);
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "cached", data, &fh);
  ASSERT_TRUE(world.Run(setup).ok());
  auto warm = ReadFile(world.client(), fh, data.size());
  auto warm_or = world.Run(warm);
  ASSERT_TRUE(warm_or.ok()) << warm_or.status();
  ASSERT_EQ(warm_or.value(), data);
  ASSERT_EQ(world.client().buf_cache().FileBufCount(fh.Key()), 3u);

  // Cut inside block 1: block 2 lies wholly past it.
  const uint64_t cut = kNfsMaxData + 1000;
  auto truncate = [](NfsClient& c, NfsFh f, uint64_t size) -> CoTask<Status> {
    SetAttrRequest request;
    request.size = size;
    co_return co_await c.Setattr(f, request);
  }(world.client(), fh, cut);
  ASSERT_TRUE(world.Run(truncate).ok());
  EXPECT_LE(world.client().buf_cache().FileBufCount(fh.Key()), 2u);

  // The read asks for the old length and gets exactly the bytes below the
  // cut: the client's local size followed the truncation.
  auto verify = ReadFile(world.client(), fh, data.size());
  auto bytes_or = world.Run(verify);
  ASSERT_TRUE(bytes_or.ok()) << bytes_or.status();
  EXPECT_EQ(bytes_or.value(), std::vector<uint8_t>(data.begin(), data.begin() + cut));
  auto server_ino = world.fs->Lookup(world.fs->root(), "cached");
  ASSERT_TRUE(server_ino.ok());
  auto server_data = world.fs->Read(*server_ino, 0, data.size());
  ASSERT_TRUE(server_data.ok());
  EXPECT_EQ(server_data->size(), cut);
}

TEST(NfsIntegrationTest, SetattrTruncateSavesDirtyBytesBelowCut) {
  // Delayed writes: 4 KB sit dirty in the client cache when the truncation
  // to 2 KB arrives. Like 4.4BSD's nfs_setattr, the client must push the
  // bytes below the cut before truncating, not drop them with the cache.
  NfsWorld world;
  const auto data = Pattern(4096, 11);
  auto task = [](NfsWorld& w,
                 std::vector<uint8_t> bytes) -> CoTask<StatusOr<std::vector<uint8_t>>> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "dirty");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    const NfsFh fh = fh_or.value();
    co_await c.Open(fh);
    Status written = co_await c.Write(fh, 0, bytes.data(), bytes.size());
    if (!written.ok()) {
      co_return written;
    }
    if (c.stats().write_rpcs() != 0) {
      co_return InternalError("write pushed before the truncation");
    }
    SetAttrRequest request;
    request.size = 2048;
    Status truncated = co_await c.Setattr(fh, request);
    if (!truncated.ok()) {
      co_return truncated;
    }
    std::vector<uint8_t> back(bytes.size());
    auto read_or = co_await c.Read(fh, 0, back.size(), back.data());
    if (!read_or.ok()) {
      co_return read_or.status();
    }
    back.resize(read_or.value());
    Status closed = co_await c.Close(fh);
    if (!closed.ok()) {
      co_return closed;
    }
    co_return back;
  }(world, data);
  auto back_or = world.Run(task);
  ASSERT_TRUE(back_or.ok()) << back_or.status();
  const std::vector<uint8_t> kept(data.begin(), data.begin() + 2048);
  EXPECT_EQ(back_or.value(), kept);
  auto server_ino = world.fs->Lookup(world.fs->root(), "dirty");
  ASSERT_TRUE(server_ino.ok());
  auto server_data = world.fs->Read(*server_ino, 0, data.size());
  ASSERT_TRUE(server_data.ok());
  EXPECT_EQ(*server_data, kept);
}

TEST(NfsIntegrationTest, ServerCountsPerProcCalls) {
  NfsWorld world;
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "counted", Pattern(10), &fh);
  ASSERT_TRUE(world.Run(setup).ok());
  EXPECT_GE(world.server->stats().proc_counts[kNfsCreate], 1u);
  EXPECT_GE(world.server->stats().proc_counts[kNfsWrite], 1u);
  EXPECT_GT(world.server->stats().disk_writes, 0u);
}

TEST(NfsIntegrationTest, RsizeBelowBlockSizeSplitsReads) {
  NfsMountOptions mount = NfsMountOptions::Reno();
  mount.rsize = 2048;
  mount.wsize = 2048;
  mount.read_ahead = 0;
  NfsWorld world(1, mount);
  NfsFh fh;
  auto setup = WriteFile(world.client(), world.client().root(), "small-io", Pattern(8192), &fh);
  ASSERT_TRUE(world.Run(setup).ok());
  EXPECT_GE(world.client().stats().write_rpcs(), 4u);  // 8 KB at 2 KB wsize

  world.scheduler().RunFor(Seconds(30));
  world.client().mutable_stats().rpc_counts[kNfsRead] = 0;
  auto verify = ReadFile(world.client(), fh, 8192);
  auto bytes_or = world.Run(verify);
  ASSERT_TRUE(bytes_or.ok());
  EXPECT_EQ(bytes_or.value(), Pattern(8192));
  EXPECT_GE(world.client().stats().read_rpcs(), 4u);  // 8 KB at 2 KB rsize
}

// Property test: a random sequence of client writes/reads/truncates matches
// a byte-accurate reference model, across personalities.
struct PersonalityCase {
  const char* name;
  NfsMountOptions (*make)();
};

// Print a case by name: gtest's default dumps the struct's raw bytes, which
// are pointers and so differ from run to run under ASLR, and --gtest_list_tests
// shows that dump next to each test name.
void PrintTo(const PersonalityCase& c, std::ostream* os) { *os << c.name; }

class NfsDataIntegrityTest : public ::testing::TestWithParam<PersonalityCase> {};

TEST_P(NfsDataIntegrityTest, RandomOpsMatchModel) {
  NfsWorld world(1, GetParam().make());
  Rng ops_rng(2024);
  std::vector<uint8_t> expected;

  auto task = [](NfsWorld& w, Rng& rng, std::vector<uint8_t>& model) -> CoTask<Status> {
    NfsClient& c = w.client();
    auto fh_or = co_await c.Create(c.root(), "model");
    if (!fh_or.ok()) {
      co_return fh_or.status();
    }
    const NfsFh fh = fh_or.value();
    co_await c.Open(fh);
    for (int step = 0; step < 60; ++step) {
      const uint64_t op = rng.UniformUint64(10);
      if (op < 5) {  // write at random offset
        const size_t off = rng.UniformUint64(40000);
        const size_t len = 1 + rng.UniformUint64(12000);
        std::vector<uint8_t> data(len);
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.NextUint64());
        }
        Status status = co_await c.Write(fh, off, data.data(), len);
        if (!status.ok()) {
          co_return status;
        }
        if (model.size() < off + len) {
          model.resize(off + len, 0);
        }
        std::copy(data.begin(), data.end(), model.begin() + static_cast<ptrdiff_t>(off));
      } else if (op < 8) {  // read and verify
        const size_t off = rng.UniformUint64(model.size() + 1000);
        const size_t len = 1 + rng.UniformUint64(16000);
        std::vector<uint8_t> got(len);
        auto n_or = co_await c.Read(fh, off, len, got.data());
        if (!n_or.ok()) {
          co_return n_or.status();
        }
        const size_t expect_n =
            off >= model.size() ? 0 : std::min(len, model.size() - off);
        if (n_or.value() != expect_n) {
          co_return InternalError("short/long read vs model");
        }
        for (size_t i = 0; i < expect_n; ++i) {
          if (got[i] != model[off + i]) {
            co_return InternalError("data mismatch vs model");
          }
        }
      } else if (op == 8) {  // close + reopen (push/revalidate)
        Status status = co_await c.Close(fh);
        if (!status.ok()) {
          co_return status;
        }
        status = co_await c.Open(fh);
        if (!status.ok()) {
          co_return status;
        }
      } else {  // flush
        Status status = co_await c.Flush(fh);
        if (!status.ok()) {
          co_return status;
        }
      }
    }
    co_return co_await c.Close(fh);
  }(world, ops_rng, expected);
  EXPECT_TRUE(world.Run(task).ok());

  // After a final flush the server must hold exactly the model bytes —
  // except under no-consistency, where unpushed data may remain client-side.
  auto flush = world.client().FlushAll();
  ASSERT_TRUE(world.Run(flush).ok());
  auto ino = world.fs->Lookup(world.fs->root(), "model");
  ASSERT_TRUE(ino.ok());
  auto server_bytes = world.fs->Read(*ino, 0, expected.size() + 1000);
  ASSERT_TRUE(server_bytes.ok());
  EXPECT_EQ(*server_bytes, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Personalities, NfsDataIntegrityTest,
    ::testing::Values(PersonalityCase{"reno", &NfsMountOptions::Reno},
                      PersonalityCase{"reno_tcp", &NfsMountOptions::RenoTcp},
                      PersonalityCase{"reno_udp_fixed", &NfsMountOptions::RenoUdpFixed},
                      PersonalityCase{"reno_nopush", &NfsMountOptions::RenoNoPush},
                      PersonalityCase{"ultrix", &NfsMountOptions::UltrixLike}),
    [](const ::testing::TestParamInfo<PersonalityCase>& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace renonfs
