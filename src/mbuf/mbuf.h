// BSD-style network buffers.
//
// All RPC requests and replies in this library are built and decomposed
// directly in mbuf chains, mirroring the 4.3BSD Reno NFS implementation's
// nfsm_build/nfsm_disect approach (Section 2 of the paper). A chain is a
// singly linked list of Mbufs; an Mbuf stores its bytes either inline
// (small mbuf, 108 bytes) or in a reference-counted 2 KB cluster. Cluster
// reference counting is what makes the zero-copy paths possible: cloning a
// range of a chain shares the underlying clusters instead of copying, just
// as the kernel shares mbuf clusters between the buffer cache, the socket
// layer, and retransmission queues.
//
// MbufChain is a value type owning its mbufs. Operations never block and
// cost no simulated time themselves; the modules that *would* copy on real
// hardware charge CpuResource explicitly and use MbufStats to keep the
// accounting honest.
#ifndef RENONFS_SRC_MBUF_MBUF_H_
#define RENONFS_SRC_MBUF_MBUF_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace renonfs {

class Cluster;

// Process-global ledger of every live cluster: who allocated it (an opaque
// owner id — a BufCache*, or nullptr for plain chain allocations) and which
// layer it belongs to. The runtime invariant auditor (src/sim/audit.h) diffs
// this ledger against what the registered owners can still enumerate to find
// clusters that outlived their owner — the dynamic face of the
// crash-epoch/lifetime bug class the static analyzer (tools/analyze) hunts
// at compile time. Maintained by Cluster's constructor/destructor, so the
// accounting can never drift from reality.
class ClusterLedger {
 public:
  struct Entry {
    const void* owner;  // allocation owner id; nullptr == anonymous chain
    const char* layer;  // static string: "mbuf-chain", "bufcache", ...
  };

  static ClusterLedger& Instance();

  void OnAlloc(const Cluster* cluster, const void* owner, const char* layer);
  void OnFree(const Cluster* cluster);

  uint64_t allocs() const { return allocs_; }
  uint64_t frees() const { return frees_; }
  // Rebases the cumulative counters (like MbufStats::Reset, for comparing
  // runs within one process). Live-cluster tracking is untouched, and the
  // allocs - frees == live invariant keeps holding.
  void ResetCounters() {
    allocs_ = live_.size();
    frees_ = 0;
  }
  uint64_t live() const { return live_.size(); }
  size_t LiveOwnedBy(const void* owner) const;

  void ForEachLive(const std::function<void(const Cluster*, const Entry&)>& fn) const;

 private:
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
  std::unordered_map<const Cluster*, Entry> live_;
};

// Allocation and copy counters, global across the process. Tests reset them;
// benchmarks read them to report copy-avoidance numbers.
struct MbufStats {
  uint64_t small_allocs = 0;
  uint64_t cluster_allocs = 0;
  uint64_t cluster_shares = 0;   // times a cluster was shared instead of copied
  uint64_t bytes_shared = 0;     // payload bytes moved by reference
  uint64_t bytes_copied = 0;     // payload bytes physically copied by chain ops

  static MbufStats& Instance();
  void Reset() { *this = MbufStats{}; }
};

class Cluster {
 public:
  static constexpr size_t kSize = 2048;

  explicit Cluster(const void* owner = nullptr, const char* layer = "mbuf-chain") {
    ClusterLedger::Instance().OnAlloc(this, owner, layer);
  }
  ~Cluster() { ClusterLedger::Instance().OnFree(this); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

 private:
  std::array<uint8_t, kSize> bytes_;
};

// Allocates a cluster from the process-wide "cluster" FixedPool
// (src/util/pool.h) instead of the general heap; the Cluster constructor and
// destructor still run on every cycle, so the ClusterLedger sees exactly one
// OnAlloc/OnFree pair per logical cluster — pooling recycles memory, never
// live objects, and the invariant auditor's accounting is unaffected.
std::shared_ptr<Cluster> NewCluster(const void* owner = nullptr,
                                    const char* layer = "mbuf-chain");

class Mbuf {
 public:
  static constexpr size_t kSmallCapacity = 108;  // MLEN in 4.3BSD

  static std::unique_ptr<Mbuf> MakeSmall();
  static std::unique_ptr<Mbuf> MakeCluster();
  // Wraps an existing cluster (e.g. loaned out of a buffer cache block).
  static std::unique_ptr<Mbuf> WrapCluster(std::shared_ptr<Cluster> cluster, size_t off,
                                           size_t len);

  bool has_cluster() const { return cluster_ != nullptr; }
  size_t capacity() const { return cluster_ ? Cluster::kSize : kSmallCapacity; }
  size_t offset() const { return off_; }
  size_t length() const { return len_; }
  size_t leading_space() const { return off_; }
  size_t trailing_space() const { return capacity() - off_ - len_; }

  uint8_t* data() { return storage() + off_; }
  const uint8_t* data() const { return storage() + off_; }

  // A cluster shared with another chain (or a cache) must not be written.
  bool writable() const { return !cluster_ || cluster_.use_count() == 1; }

  Mbuf* next() { return next_.get(); }
  const Mbuf* next() const { return next_.get(); }

  // Mbuf headers are fixed-size and churn hard on the datapath, so they
  // recycle through the process-wide "mbuf" FixedPool (heap under ASan).
  static void* operator new(size_t size);
  static void operator delete(void* p) noexcept;

 private:
  friend class MbufChain;
  Mbuf() = default;

  uint8_t* storage() { return cluster_ ? cluster_->data() : inline_.data(); }
  const uint8_t* storage() const { return cluster_ ? cluster_->data() : inline_.data(); }

  std::shared_ptr<Cluster> cluster_;
  std::array<uint8_t, kSmallCapacity> inline_{};
  size_t off_ = 0;
  size_t len_ = 0;
  std::unique_ptr<Mbuf> next_;
};

class MbufChain {
 public:
  MbufChain() = default;
  MbufChain(MbufChain&&) noexcept;
  MbufChain& operator=(MbufChain&&) noexcept;
  MbufChain(const MbufChain&) = delete;
  MbufChain& operator=(const MbufChain&) = delete;
  ~MbufChain() = default;

  static MbufChain FromBytes(const void* bytes, size_t len);
  static MbufChain FromString(const std::string& s) { return FromBytes(s.data(), s.size()); }

  size_t Length() const { return length_; }
  bool Empty() const { return length_ == 0; }
  size_t MbufCount() const;
  size_t ClusterCount() const;

  // Appends a physical copy of the bytes (fills trailing space, then new
  // mbufs/clusters as needed).
  void Append(const void* bytes, size_t len);
  void AppendZeros(size_t len);

  // Returns a pointer to `len` contiguous writable bytes at the tail,
  // allocating a new mbuf if the current tail cannot hold them contiguously.
  // len must be <= Mbuf::kSmallCapacity.
  uint8_t* AppendSpace(size_t len);

  // Appends a shared reference to a cluster: no copy, bumps the refcount.
  void AppendSharedCluster(std::shared_ptr<Cluster> cluster, size_t off, size_t len);

  // Returns a pointer to `len` contiguous bytes newly opened *before* the
  // current head (uses leading space or prepends a small mbuf). For
  // protocol headers and RPC record marks. len <= Mbuf::kSmallCapacity.
  uint8_t* Prepend(size_t len);

  // Transfers other's mbufs to the tail of this chain.
  void Concat(MbufChain&& other);

  // Copies out [off, off+len) into dst. Returns false if out of range.
  bool CopyOut(size_t off, size_t len, void* dst) const;
  std::vector<uint8_t> ContiguousCopy() const;

  // Builds a new chain covering [off, off+len): clusters are shared
  // (refcount bump, zero copy), small-mbuf bytes are copied.
  MbufChain CopyRange(size_t off, size_t len) const;
  MbufChain Clone() const { return CopyRange(0, length_); }

  // Removes bytes from the front/back of the chain.
  void TrimFront(size_t len);
  void TrimBack(size_t len);

  // Splits this chain at `at`; this keeps [0, at), the remainder is returned.
  MbufChain SplitOff(size_t at);

  // Invokes visit(ptr, len) for each non-empty segment in order.
  template <typename Visitor>
  void ForEachSegment(Visitor&& visit) const {
    for (const Mbuf* m = head_.get(); m != nullptr; m = m->next()) {
      if (m->length() > 0) {
        visit(m->data(), m->length());
      }
    }
  }

  // Internet checksum (RFC 1071 16-bit one's complement) over the contents.
  // Each segment is summed a 64-bit word at a time in native byte order and
  // folded; segments that start on the other byte lane are byte-swapped into
  // place (DESIGN.md §9).
  uint16_t InternetChecksum() const;

  Mbuf* head() { return head_.get(); }
  const Mbuf* head() const { return head_.get(); }

 private:
  Mbuf* EnsureTail(size_t want_contiguous, bool prefer_cluster);
  void AppendMbuf(std::unique_ptr<Mbuf> mbuf);

  std::unique_ptr<Mbuf> head_;
  Mbuf* tail_ = nullptr;
  size_t length_ = 0;
};

}  // namespace renonfs

#endif  // RENONFS_SRC_MBUF_MBUF_H_
