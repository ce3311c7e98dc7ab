// Microbenchmarks (google-benchmark) for the data-path primitives: mbuf
// chain operations, the zero-copy cluster sharing, XDR encode/decode, and
// the internet checksum. These quantify the Section 2 design rationale in
// wall-clock terms on the build machine: building RPCs directly in mbuf
// chains avoids the marshal-then-copy of the layered approach.
#include <benchmark/benchmark.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/nfs/wire.h"
#include "src/rpc/message.h"
#include "src/vfs/buf_cache.h"
#include "src/xdr/xdr.h"

namespace renonfs {
namespace {

std::vector<uint8_t> Payload(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 17);
  }
  return out;
}

void BM_MbufAppendCopy8K(benchmark::State& state) {
  const auto data = Payload(8192);
  for (auto _ : state) {
    MbufChain chain;
    chain.Append(data.data(), data.size());
    benchmark::DoNotOptimize(chain.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_MbufAppendCopy8K);

void BM_MbufCloneShared8K(benchmark::State& state) {
  const auto data = Payload(8192);
  MbufChain source;
  source.Append(data.data(), data.size());
  for (auto _ : state) {
    MbufChain clone = source.Clone();  // cluster refcount bumps, no copy
    benchmark::DoNotOptimize(clone.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_MbufCloneShared8K);

void BM_InternetChecksum8K(benchmark::State& state) {
  const auto data = Payload(8192);
  MbufChain chain;
  chain.Append(data.data(), data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.InternetChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_InternetChecksum8K);

void BM_InternetChecksum8KOddSegments(benchmark::State& state) {
  // Four cluster segments, the first starting one byte into its cluster
  // (an unaligned address), so the other three start at odd chain offsets
  // and their folded sums take the byte swap. 8191 bytes: a cluster holds
  // at most 2048.
  const auto data = Payload(Cluster::kSize * 4);
  MbufChain chain;
  for (size_t i = 0; i < 4; ++i) {
    auto cluster = NewCluster();
    std::memcpy(cluster->data(), data.data() + i * Cluster::kSize, Cluster::kSize);
    const size_t off = i == 0 ? 1 : 0;
    chain.AppendSharedCluster(std::move(cluster), off, Cluster::kSize - off);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.InternetChecksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * chain.Length()));
}
BENCHMARK(BM_InternetChecksum8KOddSegments);

void BM_BufReplyAppendCopy8K(benchmark::State& state) {
  // The pre-loaning READ reply: the cache block's bytes are copied into the
  // reply chain.
  const auto data = Payload(8192);
  Buf buf(1, 0, 8192);
  buf.CopyIn(0, data.data(), data.size());
  for (auto _ : state) {
    MbufChain reply;
    buf.AppendTo(&reply, 0, 8192);
    benchmark::DoNotOptimize(reply.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_BufReplyAppendCopy8K);

void BM_BufReplyShareInto8K(benchmark::State& state) {
  // The page loan: the block's clusters are appended by reference; only
  // refcounts move.
  const auto data = Payload(8192);
  Buf buf(1, 0, 8192);
  buf.CopyIn(0, data.data(), data.size());
  for (auto _ : state) {
    MbufChain reply;
    buf.ShareInto(&reply, 0, 8192);
    benchmark::DoNotOptimize(reply.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_BufReplyShareInto8K);

void BM_XdrEncodeReadReplyChain(benchmark::State& state) {
  // The Reno path: attach the 8 KB data by sharing clusters.
  const auto data = Payload(8192);
  MbufChain body;
  body.Append(data.data(), data.size());
  FileAttr attr;
  for (auto _ : state) {
    MbufChain reply;
    XdrEncoder enc(&reply);
    ReadReply read_reply;
    read_reply.attr = attr;
    read_reply.data = body.Clone();
    EncodeReadReply(enc, std::move(read_reply));
    benchmark::DoNotOptimize(reply.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_XdrEncodeReadReplyChain);

void BM_XdrEncodeReadReplyBuffered(benchmark::State& state) {
  // The reference-port path: marshal through a contiguous buffer, then copy
  // into network buffers.
  const auto data = Payload(8192);
  FileAttr attr;
  for (auto _ : state) {
    BufferedXdrEncoder enc;
    enc.PutUint32(0);  // nfsstat
    EncodeFattrBuffered(enc, attr);
    enc.PutVarOpaque(data.data(), data.size());
    MbufChain reply = enc.CopyIntoChain();
    benchmark::DoNotOptimize(reply.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_XdrEncodeReadReplyBuffered);

void BM_XdrDecodeCallHeader(benchmark::State& state) {
  MbufChain message;
  XdrEncoder enc(&message);
  RpcCallHeader header;
  header.xid = 1;
  header.prog = kNfsProgram;
  header.vers = kNfsVersion;
  header.proc = kNfsLookup;
  EncodeCallHeader(enc, header);
  for (auto _ : state) {
    XdrDecoder dec(&message);
    auto decoded = DecodeCallHeader(dec);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_XdrDecodeCallHeader);

void BM_FragmentAndReassembleSize(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const auto data = Payload(size);
  MbufChain whole;
  whole.Append(data.data(), data.size());
  for (auto _ : state) {
    // Fragment into 1480-byte pieces (Ethernet) and concatenate back.
    MbufChain assembled;
    size_t off = 0;
    while (off < whole.Length()) {
      const size_t take = std::min<size_t>(1480, whole.Length() - off);
      assembled.Concat(whole.CopyRange(off, take));
      off += take;
    }
    benchmark::DoNotOptimize(assembled.Length());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_FragmentAndReassembleSize)->Arg(1024)->Arg(8192)->Arg(65536);

}  // namespace
}  // namespace renonfs

BENCHMARK_MAIN();
