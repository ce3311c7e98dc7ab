#include "src/nfs/client.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/nfs/lease.h"
#include "src/util/logging.h"

namespace renonfs {

namespace {
NfsFh FhFromKey(uint64_t key) {
  return NfsFh::Make(static_cast<uint32_t>(key >> 32), static_cast<Ino>(key & 0xffffffffu));
}
}  // namespace

const char* NfsTransportKindName(NfsTransportKind kind) {
  switch (kind) {
    case NfsTransportKind::kUdpFixedRto:
      return "UDP fixed-RTO";
    case NfsTransportKind::kUdpDynamicRto:
      return "UDP dynamic-RTO+cwnd";
    case NfsTransportKind::kTcp:
      return "TCP";
  }
  return "?";
}

NfsMountOptions NfsMountOptions::Reno() { return NfsMountOptions{}; }

NfsMountOptions NfsMountOptions::RenoUdpFixed() {
  NfsMountOptions o;
  o.transport = NfsTransportKind::kUdpFixedRto;
  return o;
}

NfsMountOptions NfsMountOptions::RenoTcp() {
  NfsMountOptions o;
  o.transport = NfsTransportKind::kTcp;
  return o;
}

NfsMountOptions NfsMountOptions::RenoNoPush() {
  NfsMountOptions o;
  o.push_on_close = false;
  return o;
}

NfsMountOptions NfsMountOptions::RenoNoConsist() {
  NfsMountOptions o;
  o.push_on_close = false;
  o.push_dirty_before_read = false;
  o.open_consistency = false;
  return o;
}

NfsMountOptions NfsMountOptions::UltrixLike() {
  NfsMountOptions o;
  o.transport = NfsTransportKind::kUdpFixedRto;
  o.name_cache = false;
  o.dirty_region_bufs = false;
  o.push_dirty_before_read = false;
  o.write_policy = WritePolicy::kAsync;
  o.async_partial_blocks = true;
  return o;
}

NfsMountOptions NfsMountOptions::Leases() {
  // Everything Reno does stays on: when a lease is denied or lost the mount
  // must degrade to exactly the plain push-on-close behavior.
  NfsMountOptions o;
  o.leases = true;
  return o;
}

NfsClient::NfsClient(Node* node, UdpStack* udp, TcpStack* tcp, SockAddr server, NfsFh root,
                     NfsMountOptions options, uint16_t local_port)
    : node_(node),
      server_(server),
      root_(root),
      options_(options),
      name_cache_([&options] {
        NameCacheOptions nc;
        nc.enabled = options.name_cache;
        return nc;
      }()),
      attr_cache_([&options] {
        AttrCacheOptions ac;
        ac.enabled = options.attr_cache;
        ac.ttl = options.attr_ttl;
        return ac;
      }()),
      cache_([&options] {
        BufCacheOptions bc;
        bc.block_size = kNfsMaxData;
        bc.capacity_blocks = options.cache_blocks;
        bc.vnode_chained = true;  // client cache structure is not under test
        return bc;
      }()),
      biods_(std::max<size_t>(options.biods, 1)),
      sync_timer_(node->scheduler(), [this]() {
        SyncDaemonPass().Detach();
        sync_timer_.Start(options_.sync_interval);
      }),
      lease_timer_(node->scheduler(), [this]() {
        LeaseRenewalPass().Detach();
        lease_timer_.Start(options_.lease_term / 4);
      }) {
  if (options_.sync_interval > 0) {
    sync_timer_.Start(options_.sync_interval);
  }
  if (options_.leases && udp != nullptr && options_.transport != NfsTransportKind::kTcp) {
    // The recall callback channel: bare datagrams from the server, well away
    // from the RPC port range. Well-known offset so the server can compute
    // it, but the client still tells the server explicitly in LeaseArgs.
    callback_udp_ = udp;
    callback_port_ = static_cast<uint16_t>(local_port + 5000);
    callback_udp_->Bind(callback_port_, [this](SockAddr from, MbufChain payload) {
      OnRecallDatagram(from, std::move(payload));
    });
    lease_timer_.Start(options_.lease_term / 4);
  }
  switch (options_.transport) {
    case NfsTransportKind::kUdpFixedRto: {
      CHECK(udp != nullptr);
      UdpRpcOptions rpc_options = UdpRpcOptions::FixedRto(options_.timeo);
      rpc_options.max_tries = options_.max_tries;
      rpc_options.hard = options_.hard;
      rpc_options.intr = options_.intr;
      transport_ = std::make_unique<UdpRpcTransport>(udp, local_port, server_, rpc_options);
      break;
    }
    case NfsTransportKind::kUdpDynamicRto: {
      CHECK(udp != nullptr);
      UdpRpcOptions rpc_options = UdpRpcOptions::DynamicRto(options_.timeo);
      rpc_options.max_tries = options_.max_tries;
      rpc_options.hard = options_.hard;
      rpc_options.intr = options_.intr;
      rpc_options.cwnd.slow_start = options_.cwnd_slow_start;
      rpc_options.rto.big_deviation_multiplier = options_.big_rto_multiplier;
      transport_ = std::make_unique<UdpRpcTransport>(udp, local_port, server_, rpc_options);
      break;
    }
    case NfsTransportKind::kTcp: {
      CHECK(tcp != nullptr);
      TcpRpcOptions rpc_options;
      rpc_options.tcp = options_.tcp;
      rpc_options.hard = options_.hard;
      rpc_options.intr = options_.intr;
      rpc_options.max_tries = options_.hard ? 0 : options_.tcp_soft_cycles;
      transport_ = std::make_unique<TcpRpcTransport>(tcp, local_port, server_, rpc_options);
      break;
    }
  }
}

NfsClient::~NfsClient() {
  sync_timer_.Stop();
  lease_timer_.Stop();
  if (callback_udp_ != nullptr) {
    callback_udp_->Unbind(callback_port_);
  }
}

CoTask<void> NfsClient::SyncDaemonPass() {
  // Push every delayed-dirty buffer, like the periodic update(8)/sync pass.
  std::vector<std::pair<uint64_t, uint32_t>> dirty;
  for (Buf* buf : cache_.DirtyBufs()) {
    dirty.emplace_back(buf->file(), buf->block());
  }
  // Claim every push in the owning file's in-flight group before starting:
  // Close()/Flush() must wait for these pushes like they wait for biod
  // pushes (the B_BUSY buffer lock in 4.3BSD). Otherwise close-then-remove
  // can overtake a sync push whose reply was lost — its retransmission then
  // re-executes against the removed file and latches a spurious ESTALE
  // after the last close already reported success.
  for (const auto& [key, block] : dirty) {
    (void)block;
    StateFor(FhFromKey(key)).async_writes.Add(1);
  }
  for (const auto& [key, block] : dirty) {
    Status status = co_await PushBufRegion(FhFromKey(key), block);
    LatchWriteError(FhFromKey(key), block, status);
    StateFor(FhFromKey(key)).async_writes.Done();
  }
}

void NfsClient::LatchWriteError(NfsFh file, uint32_t block, const Status& status) {
  if (status.ok()) {
    return;
  }
  FileState& state = StateFor(file);
  if (state.write_error.ok()) {
    state.write_error = status;  // first error wins, like nfsnode n_error
    ++stats_.write_errors_latched;
  }
  // Transient transport failures (server down, call interrupted) leave the
  // buffer dirty for the next sync pass. Server-side verdicts — ENOSPC,
  // EIO, ESTALE — will fail identically on every retry, so the dirty data
  // is discarded; otherwise the sync daemon would re-push the same doomed
  // buffer every 30 seconds forever and umount could never drain the cache.
  switch (status.code()) {
    case ErrorCode::kTimeout:
    case ErrorCode::kUnavailable:
    case ErrorCode::kCancelled:
      return;
    default:
      break;
  }
  Buf* buf = cache_.Find(file.Key(), block);
  if (buf != nullptr && buf->dirty()) {
    cache_.Remove(file.Key(), block);
    ++stats_.dirty_bufs_discarded;
  }
}

Status NfsClient::TakeWriteError(FileState& state) {
  Status error = state.write_error;
  state.write_error = Status::Ok();
  return error;
}

NfsClient::FileState& NfsClient::StateFor(NfsFh fh) {
  FileState& state = files_[fh.Key()];
  state.fh = fh;
  return state;
}

// --- RPC plumbing ------------------------------------------------------------

void NfsClient::set_metrics(MetricsRegistry* registry, const std::string& prefix) {
  for (uint32_t proc = 0; proc < kNfsProcCount; ++proc) {
    lat_hist_[proc] = &registry->Histogram(prefix + NfsProcName(proc));
  }
}

CoTask<StatusOr<MbufChain>> NfsClient::CallRpc(uint32_t proc, MbufChain args,
                                               RpcCallInfo* info) {
  CHECK_LT(proc, kNfsProcCount);
  ++stats_.rpc_counts[proc];
  const SimTime start = node_->scheduler().now();
  auto result = co_await transport_->Call(proc, TimerClassForProc(proc), std::move(args), info);
  if (lat_hist_[proc] != nullptr) {
    lat_hist_[proc]->Add(static_cast<uint64_t>((node_->scheduler().now() - start) / 1000));
  }
  co_return result;
}

// Reno's absorption of retried non-idempotent procedures: the error a
// re-execution echoes (RetryEchoError), seen on a retransmitted call, means an
// earlier transmission did the work and only its reply was lost — the
// server's duplicate cache forgot it across a reboot or evicted it. The work
// being done is what the caller asked for, so the error is counted and
// reported absorbed; any other status stays the caller's to return.
bool NfsClient::AbsorbRetryError(uint32_t proc, const Status& status, const RpcCallInfo& info) {
  if (status.ok() || status.code() != RetryEchoError(proc) || info.transmissions <= 1) {
    return false;
  }
  ++stats_.retry_errors_absorbed;
  return true;
}

CoTask<StatusOr<FileAttr>> NfsClient::RpcGetattr(NfsFh file) {
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeFh(enc, file);
  auto attr_or =
      DecodeNfsReply<FileAttr>(kNfsGetattr, co_await CallRpc(kNfsGetattr, std::move(args)));
  if (attr_or.ok()) {
    NoteAttrs(file, attr_or.value());
  }
  co_return attr_or;
}

CoTask<StatusOr<DirOpReply>> NfsClient::RpcLookup(NfsFh dir, const std::string& name) {
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeDirOpArgs(enc, DirOpArgs{dir, name});
  auto reply_or =
      DecodeNfsReply<DirOpReply>(kNfsLookup, co_await CallRpc(kNfsLookup, std::move(args)));
  if (reply_or.ok()) {
    NoteAttrs(reply_or->file, reply_or->attr);
  }
  co_return reply_or;
}

CoTask<StatusOr<ReadReply>> NfsClient::RpcRead(NfsFh file, uint32_t offset, uint32_t count) {
  MbufChain args;
  XdrEncoder enc(&args);
  ReadArgs read_args;
  read_args.file = file;
  read_args.offset = offset;
  read_args.count = count;
  EncodeReadArgs(enc, read_args);
  auto reply_or = DecodeNfsReply<ReadReply>(kNfsRead, co_await CallRpc(kNfsRead, std::move(args)));
  if (reply_or.ok()) {
    NoteAttrs(file, reply_or->attr);
  }
  co_return reply_or;
}

CoTask<StatusOr<FileAttr>> NfsClient::RpcWrite(NfsFh file, uint32_t offset, MbufChain data) {
  MbufChain args;
  XdrEncoder enc(&args);
  WriteArgs write_args;
  write_args.file = file;
  write_args.offset = offset;
  write_args.data = std::move(data);
  EncodeWriteArgs(enc, std::move(write_args));
  auto attr_or = DecodeNfsReply<FileAttr>(kNfsWrite, co_await CallRpc(kNfsWrite, std::move(args)));
  if (attr_or.ok()) {
    NoteAttrs(file, attr_or.value());
  }
  co_return attr_or;
}

// --- lease plumbing ----------------------------------------------------------

bool NfsClient::LeaseValid(uint64_t key, uint32_t kind) {
  auto it = leases_.find(key);
  if (it == leases_.end()) {
    return false;
  }
  LeaseState& state = it->second;
  if (state.kind == 0 || state.vacating || state.stale_boot) {
    return false;
  }
  if (kind == kLeaseWrite && state.kind != kLeaseWrite) {
    return false;
  }
  if (node_->scheduler().now() >= state.expires_at) {
    // The record is kept: EnsureSafeToPush needs it to decide the fate of
    // any dirty data written under the dead lease.
    if (!state.expiry_counted) {
      state.expiry_counted = true;
      ++stats_.lease_expirations;
    }
    return false;
  }
  return true;
}

bool NfsClient::CanAskLease(uint64_t key) const {
  if (callback_udp_ == nullptr) {
    return false;
  }
  if (WriteLeaseLapsed(key)) {
    // A lapsed write lease with (possibly) dirty data behind it: only the
    // push-safety path may re-acquire, after deciding whether that data is
    // still pushable. A plain read-lease request here would resurrect the
    // record to "live write" and smuggle stale bytes past the mtime check.
    return false;
  }
  auto it = leases_.find(key);
  if (it == leases_.end()) {
    return true;
  }
  return !it->second.vacating && node_->scheduler().now() >= it->second.denied_until;
}

bool NfsClient::WriteLeaseLapsed(uint64_t key) const {
  auto it = leases_.find(key);
  if (it == leases_.end() || it->second.kind != kLeaseWrite || it->second.vacating) {
    return false;
  }
  return it->second.stale_boot || node_->scheduler().now() >= it->second.expires_at;
}

void NfsClient::CheckBootVerifier(uint32_t verifier) {
  if (seen_boot_verifier_ && verifier == server_boot_verifier_) {
    return;
  }
  if (seen_boot_verifier_) {
    // The server rebooted: every lease of the old incarnation died with it.
    // Mark rather than erase — EnsureSafeToPush distinguishes "lost to a
    // reboot" (reclaimable during grace) from "never held".
    for (auto& [key, state] : leases_) {
      (void)key;
      if (state.kind != 0 && !state.stale_boot) {
        state.stale_boot = true;
        ++stats_.lease_expirations;
      }
    }
  }
  seen_boot_verifier_ = true;
  server_boot_verifier_ = verifier;
}

void NfsClient::NoteLeaseReply(uint64_t key, const LeaseReply& reply, SimTime sent_at) {
  CheckBootVerifier(reply.boot_verifier);
  LeaseState& state = leases_[key];
  if (reply.granted != kLeaseGranted) {
    // Denial (conflict or grace): degrade to the plain semantics for a
    // while. Without the cooldown every operation would re-ask and the
    // lease traffic would double the RPC load it exists to remove.
    state.kind = 0;
    state.vacating = false;
    state.stale_boot = false;
    state.denied_until = sent_at + options_.lease_term / 4;
    ++stats_.leases_denied;
    return;
  }
  const SimTime term = static_cast<SimTime>(reply.term_us) * Microseconds(1);
  const bool fresh = state.kind == 0 || state.stale_boot;
  state.kind = std::max(state.kind, reply.kind);
  // Expiry runs from the moment the request left, shortened by an eighth of
  // the term: the server starts the clock on receipt, so a client that
  // stops trusting the lease term/8 early can never outlive the server-side
  // grant, whatever the network delay or clock skew [Gray89].
  state.expires_at = sent_at + term - term / 8;
  state.boot_verifier = reply.boot_verifier;
  state.vacating = false;
  state.stale_boot = false;
  state.expiry_counted = false;
  state.denied_until = 0;
  if (fresh) {
    ++stats_.leases_granted;
  } else {
    ++stats_.lease_renewals;
  }
}

CoTask<StatusOr<LeaseReply>> NfsClient::RpcLease(NfsFh file, uint32_t kind, bool reclaim) {
  MbufChain args;
  XdrEncoder enc(&args);
  LeaseArgs lease_args;
  lease_args.file = file;
  lease_args.kind = kind;
  lease_args.term_us = static_cast<uint32_t>(options_.lease_term / Microseconds(1));
  lease_args.client_host = node_->id();
  lease_args.callback_port = callback_port_;
  lease_args.reclaim = reclaim ? 1 : 0;
  EncodeLeaseArgs(enc, lease_args);
  // Snapshot before the call: the expiry must be pessimistic by the full
  // round trip (see NoteLeaseReply).
  const SimTime sent_at = node_->scheduler().now();
  auto reply_or =
      DecodeNfsReply<LeaseReply>(kNfsLease, co_await CallRpc(kNfsLease, std::move(args)));
  if (reply_or.ok()) {
    NoteLeaseReply(file.Key(), reply_or.value(), sent_at);
    NoteAttrs(file, reply_or->attr);
  }
  co_return reply_or;
}

CoTask<void> NfsClient::MaybeAcquireLease(NfsFh file, uint32_t kind) {
  if (callback_udp_ == nullptr) {
    co_return;
  }
  const uint64_t key = file.Key();
  if (LeaseValid(key, kind)) {
    co_return;
  }
  auto it = leases_.find(key);
  if (it != leases_.end() && it->second.kind == kLeaseWrite && !it->second.vacating) {
    // A lapsed write lease: the dirty data's fate (push vs discard) must be
    // settled by the push-safety path, not papered over by a fresh grant —
    // re-acquiring first would make stale bytes look pushable.
    Status settled = co_await EnsureSafeToPush(file);
    (void)settled;  // transport errors keep the data dirty; retried later
    co_return;
  }
  if (!CanAskLease(key)) {
    co_return;
  }
  auto reply_or = co_await RpcLease(file, kind, /*reclaim=*/false);
  (void)reply_or;  // denial recorded by NoteLeaseReply; transport errors
                   // leave no record and the plain semantics carry on
}

CoTask<Status> NfsClient::EnsureSafeToPush(NfsFh file) {
  if (!options_.leases) {
    co_return Status::Ok();
  }
  const uint64_t key = file.Key();
  {
    auto it = leases_.find(key);
    if (it == leases_.end() || it->second.kind != kLeaseWrite) {
      co_return Status::Ok();  // plain semantics govern this file
    }
    if (it->second.vacating) {
      co_return Status::Ok();  // the push-then-vacate path of a recall
    }
    if (!it->second.stale_boot && node_->scheduler().now() < it->second.expires_at) {
      co_return Status::Ok();  // live write lease: push freely
    }
  }
  // The write lease lapsed — partition or server reboot — with dirty data
  // still buffered. Re-acquire before pushing anything: if the file was
  // granted to someone else meanwhile, our bytes would overwrite theirs.
  const bool reclaim = leases_.find(key)->second.stale_boot;
  auto reply_or = co_await RpcLease(file, kLeaseWrite, reclaim);
  if (!reply_or.ok()) {
    if (reply_or.status().code() == ErrorCode::kStale) {
      // The file was unlinked while its data sat write-cached behind the
      // lease — a REMOVE whose victim the name cache no longer knew, or
      // another client's unlink after our lease lapsed. The bytes have no
      // home under this handle and never will; dropping them is the
      // unlink's semantics, not data loss.
      stats_.dirty_bufs_discarded += cache_.DirtyBufs(key).size();
      ++stats_.lease_stale_discards;
      DiscardFile(file);
      leases_.erase(key);
      co_return Status::Ok();
    }
    // Transport failure: nothing pushed, data stays dirty, a later sync
    // pass retries the whole decision.
    co_return reply_or.status();
  }
  FileState& state = StateFor(file);
  const bool mtime_unchanged =
      state.data_mtime < 0 || state.data_mtime == reply_or->attr.mtime;
  if (mtime_unchanged &&
      (reply_or->granted == kLeaseGranted || reply_or->granted == kLeaseDeniedGrace)) {
    // Untouched since our writes. Re-granted: push under the new lease.
    // Grace denial: no lease, but the grace window also guarantees no one
    // else holds one, so plain write-through semantics are safe.
    co_return Status::Ok();
  }
  // Conflict denial, or the mtime moved: another client owns the file now
  // and our buffered bytes predate its writes. Discard — exactly the
  // write-sharing race leases exist to arbitrate, and the partitioned
  // loser must not push [Gray89].
  stats_.dirty_bufs_discarded += cache_.DirtyBufs(key).size();
  ++stats_.lease_stale_discards;
  DiscardFile(file);
  co_return Status::Ok();  // nothing left to push
}

void NfsClient::OnRecallDatagram(SockAddr from, MbufChain payload) {
  (void)from;
  XdrDecoder dec(&payload);
  auto args_or = DecodeRecallArgs(dec);
  if (!args_or.ok()) {
    return;  // corrupt callback datagram; the server will retransmit
  }
  HandleRecall(args_or.value()).Detach();
}

CoTask<void> NfsClient::HandleRecall(RecallArgs args) {
  ++stats_.lease_recalls;
  const uint64_t key = args.file.Key();
  auto it = leases_.find(key);
  if (it == leases_.end() || it->second.kind == 0) {
    // Nothing held from our side (already vacated, or the grant never made
    // it back). Ack anyway so the server stops retransmitting.
    co_await RpcVacate(args.file, args.kind, args.serial);
    co_return;
  }
  if (it->second.vacating) {
    it->second.last_recall_serial = args.serial;  // retransmitted recall
    co_return;
  }
  it->second.vacating = true;
  it->second.last_recall_serial = args.serial;
  const uint32_t kind = it->second.kind;
  if (kind == kLeaseWrite) {
    // Push-dirty-then-vacate: the conflicting reader the server is serving
    // must see our buffered writes. A failed push vacates anyway — the data
    // stays dirty locally and the plain semantics (latched error, sync
    // retry) take over once the lease is gone.
    Status pushed = co_await PushDirty(args.file);
    (void)pushed;
  } else {
    // Read lease: a writer is coming; the cached view is about to go stale.
    cache_.InvalidateFile(key);
    attr_cache_.Invalidate(key);
    StateFor(args.file).data_mtime = -1;
  }
  // Erase before the vacate RPC: no operation may ride the dead lease while
  // the acknowledgement is in flight.
  leases_.erase(key);
  co_await RpcVacate(args.file, kind, args.serial);
}

CoTask<void> NfsClient::RpcVacate(NfsFh file, uint32_t kind, uint32_t serial) {
  ++stats_.lease_vacates;
  MbufChain args;
  XdrEncoder enc(&args);
  VacateArgs vacate;
  vacate.file = file;
  vacate.kind = kind;
  vacate.serial = serial;
  vacate.client_host = node_->id();
  vacate.callback_port = callback_port_;
  EncodeVacateArgs(enc, vacate);
  auto body_or = co_await CallRpc(kNfsVacate, std::move(args));
  (void)body_or;  // best-effort: server-side term expiry is the backstop
}

void NfsClient::VacateIfHeld(NfsFh file) {
  auto it = leases_.find(file.Key());
  if (it == leases_.end() || it->second.kind == 0 || it->second.vacating) {
    return;
  }
  const uint32_t kind = it->second.kind;
  leases_.erase(it);
  RpcVacate(file, kind, /*serial=*/0).Detach();
}

CoTask<void> NfsClient::LeaseRenewalPass() {
  if (callback_udp_ == nullptr) {
    co_return;
  }
  const SimTime now = node_->scheduler().now();
  std::vector<uint64_t> renew;
  for (auto& [key, state] : leases_) {
    if (state.kind != kLeaseWrite || state.vacating || state.stale_boot) {
      continue;
    }
    if (now >= state.expires_at) {
      continue;  // lapsed: EnsureSafeToPush owns that decision
    }
    if (state.expires_at - now > options_.lease_term / 2) {
      continue;  // plenty of term left
    }
    if (cache_.DirtyBufs(key).empty()) {
      continue;  // nothing at stake; let it lapse quietly
    }
    renew.push_back(key);
  }
  for (uint64_t key : renew) {
    auto reply_or = co_await RpcLease(FhFromKey(key), kLeaseWrite, /*reclaim=*/false);
    (void)reply_or;
  }
}

// --- cache plumbing -----------------------------------------------------------

void NfsClient::NoteAttrs(NfsFh file, const FileAttr& attr) {
  attr_cache_.Put(file.Key(), attr, node_->scheduler().now());
}

void NfsClient::InvalidateDirCaches(NfsFh dir) {
  const uint64_t key = dir.Key();
  name_cache_epoch_.erase(key);
  dir_listings_.erase(key);
  attr_cache_.Invalidate(key);
}

void NfsClient::DiscardFile(NfsFh file) {
  const uint64_t key = file.Key();
  cache_.InvalidateFile(key);  // dirty blocks of a removed file are dropped
  attr_cache_.Invalidate(key);
  auto it = files_.find(key);
  if (it != files_.end()) {
    it->second.written_since_read = false;
    it->second.data_mtime = -1;
    it->second.local_size = 0;
  }
}

CoTask<StatusOr<FileAttr>> NfsClient::GetattrCached(NfsFh file) {
  const uint64_t key = file.Key();
  if (options_.leases && LeaseValid(key, kLeaseRead)) {
    // A live lease bounds staleness better than any TTL: the server promised
    // to recall before letting anyone change the file, so even an aged cache
    // entry is authoritative [Gray89].
    auto held = attr_cache_.GetStale(key);
    if (held.has_value()) {
      node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
      ++stats_.lease_reads_saved;
      co_return *held;
    }
  }
  auto cached = attr_cache_.Get(key, node_->scheduler().now());
  if (cached.has_value()) {
    node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
    co_return *cached;
  }
  if (options_.leases && CanAskLease(key)) {
    // LEASE doubles as GETATTR on the server, so acquiring here costs the
    // same one RPC a plain attribute fetch would.
    auto reply_or = co_await RpcLease(file, kLeaseRead, /*reclaim=*/false);
    if (!reply_or.ok()) {
      co_return reply_or.status();
    }
    co_return reply_or->attr;
  }
  auto attr_or = co_await RpcGetattr(file);
  co_return attr_or;
}

// --- namespace operations ------------------------------------------------------

CoTask<StatusOr<NfsFh>> NfsClient::Lookup(NfsFh dir, std::string name) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  const uint64_t dir_key = dir.Key();

  auto dir_attr_or = co_await GetattrCached(dir);
  if (!dir_attr_or.ok()) {
    co_return dir_attr_or.status();
  }
  // Name cache entries are valid only while the directory is unchanged.
  auto epoch = name_cache_epoch_.find(dir_key);
  if (epoch != name_cache_epoch_.end() && epoch->second != dir_attr_or->mtime) {
    name_cache_.InvalidateDir(dir_key);
    dir_listings_.erase(dir_key);
    name_cache_epoch_.erase(epoch);
  }

  if (name_cache_.enabled()) {
    node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
    auto hit = name_cache_.Lookup(dir_key, name);
    if (hit.has_value()) {
      co_return FhFromKey(*hit);
    }
  }

  auto reply_or = co_await RpcLookup(dir, name);
  if (!reply_or.ok()) {
    co_return reply_or.status();
  }
  name_cache_.Enter(dir_key, name, reply_or->file.Key());
  // Probe afresh rather than reusing the pre-await iterator: other lookups
  // ran while the RPC was in flight and may have erased it (see the
  // InvalidateDir branch above) — reusing `epoch` here was a latent
  // use-after-erase that the await-stale analyzer flagged.
  if (!name_cache_epoch_.contains(dir_key)) {
    name_cache_epoch_[dir_key] = dir_attr_or->mtime;
  }
  co_return reply_or->file;
}

CoTask<StatusOr<NfsFh>> NfsClient::LookupPath(std::string path) {
  NfsFh current = root_;
  size_t start = 0;
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) {
      slash = path.size();
    }
    const std::string component = path.substr(start, slash - start);
    start = slash + 1;
    if (component.empty()) {
      continue;
    }
    auto next_or = co_await Lookup(current, component);
    if (!next_or.ok()) {
      co_return next_or.status();
    }
    current = next_or.value();
  }
  co_return current;
}

CoTask<StatusOr<FileAttr>> NfsClient::Getattr(NfsFh file) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  auto attr_or = co_await GetattrCached(file);
  co_return attr_or;
}

CoTask<Status> NfsClient::Setattr(NfsFh file, SetAttrRequest request) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  if (request.size.has_value()) {
    // 4.4BSD nfs_setattr saves dirty buffers before it truncates (vinvalbuf
    // with V_SAVE): local writes below the cut must reach the server before
    // the SETATTR, because the cache is dropped after it. Dirty blocks wholly
    // past the cut die with the truncation, unpushed.
    co_await StateFor(file).async_writes.Wait();
    const uint64_t key = file.Key();
    for (Buf* buf : cache_.DirtyBufs(key)) {
      if (static_cast<uint64_t>(buf->block()) * kNfsMaxData >= *request.size) {
        cache_.Remove(key, buf->block());
      }
    }
    Status pushed = co_await PushDirty(file);
    if (!pushed.ok()) {
      co_return pushed;
    }
    Status latched = TakeWriteError(StateFor(file));
    if (!latched.ok()) {
      co_return latched;  // the saved bytes did not reach the server
    }
  }
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeSetattrArgs(enc, SetattrArgs{file, request});
  auto attr_or =
      DecodeNfsReply<FileAttr>(kNfsSetattr, co_await CallRpc(kNfsSetattr, std::move(args)));
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  NoteAttrs(file, attr_or.value());
  if (request.size.has_value()) {
    // Truncation changes the data; drop the cached blocks (their dirty
    // bytes below the cut were pushed above).
    cache_.InvalidateFile(file.Key());
    FileState& state = StateFor(file);
    state.data_mtime = std::max(state.data_mtime, attr_or->mtime);
    state.local_size = *request.size;
  }
  co_return Status::Ok();
}

CoTask<StatusOr<NfsFh>> NfsClient::CreateEntry(uint32_t proc, NfsFh dir, std::string name,
                                               uint32_t mode) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  CreateArgs create_args;
  create_args.dir = dir;
  create_args.name = name;
  create_args.attrs.mode = mode;
  EncodeCreateArgs(enc, create_args);
  RpcCallInfo info;
  auto reply_or = DecodeNfsReply<DirOpReply>(proc, co_await CallRpc(proc, std::move(args), &info));
  if (!reply_or.ok()) {
    if (!AbsorbRetryError(proc, reply_or.status(), info)) {
      co_return reply_or.status();
    }
    // The entry exists because an earlier transmission made it: recover its
    // handle with a LOOKUP and proceed.
    auto lookup_or = co_await RpcLookup(dir, name);
    if (!lookup_or.ok()) {
      co_return reply_or.status();  // the original EEXIST stands
    }
    reply_or = std::move(lookup_or);
  }
  const DirOpReply& reply = reply_or.value();
  NoteAttrs(reply.file, reply.attr);
  if (proc == kNfsCreate) {
    StateFor(reply.file).data_mtime = reply.attr.mtime;
  }
  // The directory changed: purge its cached names (the BSD cache_purge on a
  // modified directory), then enter the newly created entry.
  name_cache_.InvalidateDir(dir.Key());
  InvalidateDirCaches(dir);
  name_cache_.Enter(dir.Key(), name, reply.file.Key());
  co_return reply.file;
}

CoTask<Status> NfsClient::Remove(NfsFh dir, std::string name) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  // Identify the victim (if we know it) so its cached data can be dropped.
  std::optional<uint64_t> victim = name_cache_.Lookup(dir.Key(), name);
  if (!victim.has_value() && options_.leases) {
    // namei holds the victim vnode before VOP_REMOVE; a name-cache miss
    // (another create purged the directory) must be repaired with a LOOKUP.
    // On a lease mount this is load-bearing: write-caching keeps dirty data
    // past close, and an unidentified victim's buffers would outlive the
    // unlink only to land ESTALE at the next sync pass or flush. Plain
    // mounts flushed at close, so a missed victim orphans nothing dirty.
    auto lookup_or = co_await RpcLookup(dir, name);
    if (lookup_or.ok()) {
      victim = lookup_or.value().file.Key();
    }
  }

  MbufChain args;
  XdrEncoder enc(&args);
  EncodeDirOpArgs(enc, DirOpArgs{dir, name});
  RpcCallInfo info;
  const Status status =
      DecodeNfsReply<NfsStatOnly>(kNfsRemove, co_await CallRpc(kNfsRemove, std::move(args), &info))
          .status();
  if (!status.ok() && !AbsorbRetryError(kNfsRemove, status, info)) {
    co_return status;
  }
  name_cache_.InvalidateDir(dir.Key());
  InvalidateDirCaches(dir);
  if (victim.has_value()) {
    if (options_.leases) {
      // Hand the lease back before forgetting the file so the server does
      // not have to recall it from us (we are the ones who unlinked it).
      VacateIfHeld(FhFromKey(*victim));
    }
    DiscardFile(FhFromKey(*victim));
    // A write error latched for the victim (say, a sync push that raced an
    // earlier unlink) dies with it: dropping the bytes is the unlink's
    // semantics, and the error must not surface at an unrelated flush.
    (void)TakeWriteError(StateFor(FhFromKey(*victim)));
  }
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Rmdir(NfsFh dir, std::string name) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeDirOpArgs(enc, DirOpArgs{dir, name});
  RpcCallInfo info;
  const Status status =
      DecodeNfsReply<NfsStatOnly>(kNfsRmdir, co_await CallRpc(kNfsRmdir, std::move(args), &info))
          .status();
  if (!status.ok() && !AbsorbRetryError(kNfsRmdir, status, info)) {
    co_return status;
  }
  name_cache_.Invalidate(dir.Key(), name);
  InvalidateDirCaches(dir);
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Rename(NfsFh from_dir, std::string from_name, NfsFh to_dir,
                                 std::string to_name) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeRenameArgs(enc, RenameArgs{from_dir, from_name, to_dir, to_name});
  RpcCallInfo info;
  const Status status =
      DecodeNfsReply<NfsStatOnly>(kNfsRename, co_await CallRpc(kNfsRename, std::move(args), &info))
          .status();
  if (!status.ok() && !AbsorbRetryError(kNfsRename, status, info)) {
    co_return status;
  }
  InvalidateDirCaches(from_dir);
  InvalidateDirCaches(to_dir);
  name_cache_.Invalidate(from_dir.Key(), from_name);
  name_cache_.Invalidate(to_dir.Key(), to_name);
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Link(NfsFh file, NfsFh dir, std::string name) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeLinkArgs(enc, LinkArgs{file, dir, name});
  RpcCallInfo info;
  const Status status =
      DecodeNfsReply<NfsStatOnly>(kNfsLink, co_await CallRpc(kNfsLink, std::move(args), &info))
          .status();
  if (!status.ok() && !AbsorbRetryError(kNfsLink, status, info)) {
    co_return status;
  }
  InvalidateDirCaches(dir);
  attr_cache_.Invalidate(file.Key());  // nlink changed
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Symlink(NfsFh dir, std::string name, std::string target) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  SymlinkArgs symlink_args;
  symlink_args.dir = dir;
  symlink_args.name = name;
  symlink_args.target = target;
  EncodeSymlinkArgs(enc, symlink_args);
  RpcCallInfo info;
  const Status status = DecodeNfsReply<NfsStatOnly>(
                            kNfsSymlink, co_await CallRpc(kNfsSymlink, std::move(args), &info))
                            .status();
  if (!status.ok() && !AbsorbRetryError(kNfsSymlink, status, info)) {
    co_return status;
  }
  InvalidateDirCaches(dir);
  co_return Status::Ok();
}

CoTask<StatusOr<std::string>> NfsClient::Readlink(NfsFh file) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeFh(enc, file);
  co_return DecodeNfsReply<std::string>(kNfsReadlink,
                                        co_await CallRpc(kNfsReadlink, std::move(args)));
}

CoTask<StatusOr<std::vector<ReaddirEntry>>> NfsClient::Readdir(NfsFh dir) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  auto dir_attr_or = co_await GetattrCached(dir);
  if (!dir_attr_or.ok()) {
    co_return dir_attr_or.status();
  }
  const uint64_t key = dir.Key();
  auto cached = dir_listings_.find(key);
  if (cached != dir_listings_.end() && cached->second.mtime == dir_attr_or->mtime) {
    node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
    co_return cached->second.entries;
  }

  std::vector<ReaddirEntry> all;
  uint32_t cookie = 0;
  for (;;) {
    MbufChain args;
    XdrEncoder enc(&args);
    ReaddirArgs readdir_args;
    readdir_args.dir = dir;
    readdir_args.cookie = cookie;
    readdir_args.count = static_cast<uint32_t>(options_.rsize);
    EncodeReaddirArgs(enc, readdir_args);
    auto reply_or =
        DecodeNfsReply<ReaddirReply>(kNfsReaddir, co_await CallRpc(kNfsReaddir, std::move(args)));
    if (!reply_or.ok()) {
      co_return reply_or.status();
    }
    for (ReaddirEntry& entry : reply_or->entries) {
      cookie = entry.cookie;
      all.push_back(std::move(entry));
    }
    if (reply_or->eof || reply_or->entries.empty()) {
      break;
    }
  }
  dir_listings_[key] = DirListing{dir_attr_or->mtime, all};
  co_return all;
}

CoTask<StatusOr<FsStat>> NfsClient::Statfs() {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  MbufChain args;
  XdrEncoder enc(&args);
  EncodeFh(enc, root_);
  auto reply_or =
      DecodeNfsReply<StatfsReply>(kNfsStatfs, co_await CallRpc(kNfsStatfs, std::move(args)));
  if (!reply_or.ok()) {
    co_return reply_or.status();
  }
  co_return reply_or->stat;
}

// --- open-file I/O ----------------------------------------------------------

CoTask<Status> NfsClient::Open(NfsFh file) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  FileState& state = StateFor(file);
  ++state.open_count;
  if (!options_.open_consistency) {
    co_return Status::Ok();
  }
  if (options_.leases && LeaseValid(file.Key(), kLeaseRead)) {
    // The lease already guarantees no other client changed the file, so the
    // open-time revalidation RPC is pure overhead.
    ++stats_.lease_reads_saved;
    co_return Status::Ok();
  }
  // Close/open consistency: the open fetches fresh attributes from the
  // server (not the attribute cache) and compares the modify time, so a
  // writer's close is always visible to the next opener.
  StatusOr<FileAttr> attr_or = IoError("unset");
  if (options_.leases && CanAskLease(file.Key())) {
    auto reply_or = co_await RpcLease(file, kLeaseRead, /*reclaim=*/false);
    if (!reply_or.ok()) {
      co_return reply_or.status();
    }
    attr_or = reply_or->attr;
  } else {
    attr_or = co_await RpcGetattr(file);
  }
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  if (state.data_mtime >= 0 && state.data_mtime != attr_or->mtime) {
    Status saved = co_await PushDirty(file);  // never discard local writes
    if (!saved.ok()) {
      co_return saved;
    }
    cache_.InvalidateFile(file.Key());
  }
  state.data_mtime = std::max(state.data_mtime, attr_or->mtime);
  co_return Status::Ok();
}

CoTask<Status> NfsClient::MaybePushBeforeRead(NfsFh file) {
  if (!options_.push_dirty_before_read) {
    co_return Status::Ok();
  }
  if (options_.leases && LeaseValid(file.Key(), kLeaseWrite)) {
    // A write lease means nobody else can read the file until the server
    // recalls it — our cached view is the only view, so the Reno
    // push-then-invalidate dance is unnecessary.
    co_return Status::Ok();
  }
  FileState& state = StateFor(file);
  if (!state.written_since_read) {
    co_return Status::Ok();
  }
  // The Reno rule: push all dirty blocks, then treat the cache as invalid —
  // after our own writes the file's modify time has changed and the client
  // cannot tell whether other clients also wrote (Section 5).
  state.written_since_read = false;
  Status status = co_await PushDirty(file);
  if (!status.ok()) {
    co_return status;
  }
  cache_.InvalidateFile(file.Key());
  StateFor(file).data_mtime = -1;
  co_return Status::Ok();
}

CoTask<StatusOr<Buf*>> NfsClient::FetchBlock(NfsFh file, uint32_t block) {
  const uint64_t key = file.Key();
  const auto fetch_key = std::make_pair(key, block);
  auto in_flight = fetching_.find(fetch_key);
  if (in_flight != fetching_.end()) {
    auto group = in_flight->second;
    co_await group->Wait();
    Buf* buf = cache_.Find(key, block);
    if (buf != nullptr) {
      co_return buf;
    }
    co_return IoError("nfs: concurrent fetch failed");
  }
  auto group = std::make_shared<WaitGroup>();
  group->Add(1);
  fetching_[fetch_key] = group;

  // A block may take several read RPCs when rsize < the block size. If a
  // local write lands while the RPCs are in flight, the reply is stale with
  // respect to local data: retry rather than install old bytes.
  const uint32_t block_start = block * static_cast<uint32_t>(kNfsMaxData);
  std::vector<uint8_t> assembled;
  Status failure = Status::Ok();
  SimTime reply_mtime = -1;
  for (int attempt = 0; attempt < 4; ++attempt) {
    assembled.clear();
    failure = Status::Ok();
    const uint64_t gen_at_start = StateFor(file).write_gen;
    while (assembled.size() < kNfsMaxData) {
      const uint32_t chunk = static_cast<uint32_t>(
          std::min<size_t>(options_.rsize, kNfsMaxData - assembled.size()));
      auto reply_or =
          co_await RpcRead(file, block_start + static_cast<uint32_t>(assembled.size()), chunk);
      if (!reply_or.ok()) {
        failure = reply_or.status();
        break;
      }
      const size_t got = reply_or->data.Length();
      const size_t old_size = assembled.size();
      assembled.resize(old_size + got);
      if (got > 0) {
        CHECK(reply_or->data.CopyOut(0, got, assembled.data() + old_size));
      }
      reply_mtime = reply_or->attr.mtime;
      if (got < chunk) {
        break;  // EOF
      }
    }
    if (!failure.ok()) {
      break;
    }
    if (StateFor(file).write_gen == gen_at_start) {
      break;  // clean fetch: no local writes raced it
    }
  }

  if (!failure.ok()) {
    group->Done();
    fetching_.erase(fetch_key);
    co_return failure;
  }

  // Note: an mtime change relative to our epoch is handled at the Read
  // entry point (with dirty data saved first); here we only advance the
  // epoch so in-order replies do not look like external modifications.
  FileState& state = StateFor(file);
  if (reply_mtime >= 0) {
    state.data_mtime = std::max(state.data_mtime, reply_mtime);
  }

  auto buf_or = co_await EnsureCachedBlock(key, block);
  if (!buf_or.ok()) {
    group->Done();
    fetching_.erase(fetch_key);
    co_return buf_or.status();
  }
  Buf* buf = buf_or.value();
  // Copy the received data into the cache block (charged: mbuf -> cache).
  // A write may have dirtied this block while the read RPC was in flight
  // (e.g. read-ahead racing the application); the locally written region is
  // newer than the server's copy and must not be overwritten.
  node_->cpu().ChargeBackground(
      node_->profile().copy_per_byte * static_cast<SimTime>(assembled.size()),
      CostCategory::kCopy);
  if (buf->dirty()) {
    const size_t lo = std::min(buf->dirty_lo(), assembled.size());
    buf->CopyIn(0, assembled.data(), lo);
    if (assembled.size() > buf->dirty_hi()) {
      buf->CopyIn(buf->dirty_hi(), assembled.data() + buf->dirty_hi(),
                  assembled.size() - buf->dirty_hi());
    }
    buf->set_valid(std::max(buf->valid(), assembled.size()));
  } else {
    buf->CopyIn(0, assembled.data(), assembled.size());
    buf->set_valid(std::max(buf->valid(), assembled.size()));
  }

  group->Done();
  fetching_.erase(fetch_key);
  co_return buf;
}

CoTask<void> NfsClient::ReadAheadBlock(NfsFh file, uint32_t block) {
  if (cache_.Find(file.Key(), block) != nullptr) {
    co_return;
  }
  if (fetching_.contains(std::make_pair(file.Key(), block))) {
    co_return;
  }
  ++read_ahead_hits_;
  auto result = co_await FetchBlock(file, block);
  (void)result;
}

CoTask<StatusOr<size_t>> NfsClient::Read(NfsFh file, uint64_t offset, size_t len, uint8_t* out) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  Status pushed = co_await MaybePushBeforeRead(file);
  if (!pushed.ok()) {
    co_return pushed;
  }

  auto attr_or = co_await GetattrCached(file);
  if (!attr_or.ok()) {
    co_return attr_or.status();
  }
  FileState& state = StateFor(file);
  if (state.data_mtime >= 0 && state.data_mtime != attr_or->mtime) {
    // The file changed under us. Like the BSD vinvalbuf(V_SAVE) path, local
    // modifications are written back before the cache is purged.
    Status saved = co_await PushDirty(file);
    if (!saved.ok()) {
      co_return saved;
    }
    cache_.InvalidateFile(file.Key());
    state.data_mtime = std::max(state.data_mtime, attr_or->mtime);
  } else if (state.data_mtime < 0) {
    state.data_mtime = attr_or->mtime;
  }

  const uint64_t effective_size = std::max<uint64_t>(attr_or->size, state.local_size);
  if (offset >= effective_size) {
    co_return static_cast<size_t>(0);
  }
  len = std::min<uint64_t>(len, effective_size - offset);

  size_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint32_t block = static_cast<uint32_t>(pos / kNfsMaxData);
    const size_t in_lo = pos % kNfsMaxData;
    const size_t in_hi = std::min<size_t>(kNfsMaxData, in_lo + (len - done));

    node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
    Buf* buf = cache_.Find(file.Key(), block);
    bool fetched = false;
    if (buf == nullptr || buf->valid() < in_hi) {
      if (buf != nullptr && buf->dirty()) {
        // Need bytes beyond the locally dirty data: push, then refetch.
        Status status = co_await PushBufRegion(file, block);
        if (!status.ok()) {
          co_return status;
        }
      }
      auto fetched_or = co_await FetchBlock(file, block);
      if (!fetched_or.ok()) {
        co_return fetched_or.status();
      }
      buf = fetched_or.value();
      fetched = true;
    }
    const size_t take = std::min(in_hi, std::max(buf->valid(), in_lo)) - in_lo;
    if (take == 0) {
      break;  // concurrent truncation
    }
    if (out != nullptr) {
      buf->CopyOut(in_lo, out + done, take);
    }
    // cache -> user copy.
    node_->cpu().ChargeBackground(node_->profile().copy_per_byte * static_cast<SimTime>(take),
                                  CostCategory::kCopy);
    done += take;

    if (fetched && options_.read_ahead > 0) {
      for (int ahead = 1; ahead <= options_.read_ahead; ++ahead) {
        const uint64_t next_start = static_cast<uint64_t>(block + ahead) * kNfsMaxData;
        if (next_start < attr_or->size) {
          ReadAheadBlock(file, block + ahead).Detach();
        }
      }
    }
  }
  co_return done;
}

CoTask<Status> NfsClient::WriteBlockRange(NfsFh file, uint32_t block, size_t lo, size_t hi,
                                          const uint8_t* bytes) {
  const uint64_t key = file.Key();
  node_->cpu().ChargeBackground(node_->profile().client_cache_op, CostCategory::kNfsProc);
  auto buf_or = co_await EnsureCachedBlock(key, block);
  if (!buf_or.ok()) {
    co_return buf_or.status();
  }
  Buf* buf = buf_or.value();

  const uint64_t block_start = static_cast<uint64_t>(block) * kNfsMaxData;

  if (!options_.dirty_region_bufs) {
    // Reference-port model: without dirty-region tracking a partial-block
    // write must first read the rest of the block from the server.
    const bool partial = lo > 0 || hi < kNfsMaxData;
    if (partial && buf->valid() < lo) {
      auto attr_or = co_await GetattrCached(file);
      if (attr_or.ok() && attr_or->size > block_start) {
        auto prefetched = co_await FetchBlock(file, block);
        (void)prefetched;  // best-effort; the write below overwrites anyway
      }
      // Both awaits ran other coroutines, and a concurrent ReclaimOneBuf can
      // push + evict this very block while we sleep — writing through the
      // old pointer was a latent use-after-free (the same shape PushBufRegion
      // below already re-finds for). Re-establish the pointer.
      auto refreshed = co_await EnsureCachedBlock(key, block);
      if (!refreshed.ok()) {
        co_return refreshed.status();
      }
      buf = refreshed.value();
    }
  } else if (buf->dirty() && (lo > buf->dirty_hi() || hi < buf->dirty_lo())) {
    // The new write is not contiguous with the existing dirty region: push
    // the old region first (as the BSD client did) so the region stays a
    // single exact byte range.
    Status status = co_await PushBufRegion(file, block);
    if (!status.ok()) {
      co_return status;
    }
    buf = cache_.Find(key, block);
    if (buf == nullptr) {
      auto created = cache_.Create(key, block);
      if (!created.ok()) {
        co_return created.status();
      }
      buf = created.value();
    }
  }

  buf->CopyIn(lo, bytes, hi - lo);
  node_->cpu().ChargeBackground(node_->profile().copy_per_byte * static_cast<SimTime>(hi - lo),
                                CostCategory::kCopy);

  // Validity: the prefix [0, valid) is known. A contiguous write extends it;
  // a write past the prefix that is still beyond the file's current end is a
  // hole (reads as zeros), so the gap can be zero-filled locally. A gap over
  // real file bytes leaves validity alone — reads fetch before serving.
  if (lo <= buf->valid()) {
    buf->set_valid(std::max(buf->valid(), hi));
  } else {
    const uint64_t file_size = std::max<uint64_t>(StateFor(file).local_size,
                                                  block_start + buf->valid());
    if (block_start + buf->valid() >= file_size) {
      buf->ZeroRange(buf->valid(), lo - buf->valid());
      buf->set_valid(hi);
    }
  }

  if (options_.dirty_region_bufs) {
    buf->MarkDirty(lo, hi);
  } else {
    // Whole-buffer dirtiness: the entire valid prefix is rewritten.
    buf->MarkDirty(0, std::max(hi, buf->valid()));
  }
  cache_.Touch(buf);
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Write(NfsFh file, uint64_t offset, const uint8_t* data, size_t len) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  FileState& state = StateFor(file);
  // A failed write-behind from an earlier syscall is reported now, before
  // accepting more data — the caller learns its earlier "successful" write
  // was lost (4.3BSD write() checking np->n_error).
  {
    Status deferred = TakeWriteError(state);
    if (!deferred.ok()) {
      co_return deferred;
    }
  }
  if (options_.leases) {
    co_await MaybeAcquireLease(file, kLeaseWrite);
  }
  state.written_since_read = true;
  ++state.write_gen;
  state.local_size = std::max<uint64_t>(state.local_size, offset + len);

  const WritePolicy policy =
      options_.biods == 0 ? WritePolicy::kWriteThrough : options_.write_policy;

  size_t done = 0;
  while (done < len) {
    const uint64_t pos = offset + done;
    const uint32_t block = static_cast<uint32_t>(pos / kNfsMaxData);
    const size_t in_lo = pos % kNfsMaxData;
    const size_t in_hi = std::min<size_t>(kNfsMaxData, in_lo + (len - done));

    Status status = co_await WriteBlockRange(file, block, in_lo, in_hi, data + done);
    if (!status.ok()) {
      co_return status;
    }
    done += in_hi - in_lo;

    switch (policy) {
      case WritePolicy::kWriteThrough: {
        Status push_status = co_await PushBufRegion(file, block);
        if (!push_status.ok()) {
          co_return push_status;
        }
        break;
      }
      case WritePolicy::kAsync: {
        Buf* buf = cache_.Find(file.Key(), block);
        const bool full_block =
            buf != nullptr && buf->dirty() && buf->dirty_lo() == 0 &&
            buf->dirty_hi() >= kNfsMaxData;
        if (buf != nullptr && buf->dirty() &&
            (full_block || options_.async_partial_blocks)) {
          // Full block: start the write RPC without waiting (a biod does it).
          state.async_writes.Add(1);
          [](NfsClient* client, NfsFh fh, uint32_t blk, WaitGroup* group) -> CoTask<void> {
            co_await client->biods_.Acquire();
            Status push_result = co_await client->PushBufRegion(fh, blk);
            client->LatchWriteError(fh, blk, push_result);
            client->biods_.Release();
            group->Done();
          }(this, file, block, &state.async_writes)
                                                       .Detach();
        }
        break;
      }
      case WritePolicy::kDelayed:
        break;
    }
  }
  co_return Status::Ok();
}

CoTask<Status> NfsClient::PushBufRegion(NfsFh file, uint32_t block) {
  // Single pusher per buffer — the B_BUSY buffer lock. Without it a sync
  // daemon push and a close-time push can race WRITE RPCs for the same
  // bytes; the loser's retransmission can then outlive the caller's REMOVE
  // and latch a spurious ESTALE on a file every close already reported
  // clean. The second pusher waits for the first and re-examines the
  // buffer (usually now clean) instead of issuing a duplicate RPC.
  const auto push_key = std::make_pair(file.Key(), block);
  while (true) {
    auto in_flight = pushing_.find(push_key);
    if (in_flight == pushing_.end()) {
      break;
    }
    auto group = in_flight->second;
    co_await group->Wait();
  }
  auto group = std::make_shared<WaitGroup>();
  group->Add(1);
  pushing_[push_key] = group;
  Status status = co_await PushBufRegionLocked(file, block);
  pushing_.erase(push_key);
  group->Done();
  co_return status;
}

CoTask<Status> NfsClient::PushBufRegionLocked(NfsFh file, uint32_t block) {
  const uint64_t key = file.Key();
  if (options_.leases) {
    // Never push through a lapsed write lease: someone else may own the file
    // now. This may discard the dirty data (making the push below a no-op).
    Status safe = co_await EnsureSafeToPush(file);
    if (!safe.ok()) {
      co_return safe;
    }
  }
  Buf* buf = cache_.Find(key, block);
  if (buf == nullptr || !buf->dirty()) {
    co_return Status::Ok();
  }
  const uint64_t gen_at_start = buf->mod_gen();
  const size_t lo = buf->dirty_lo();
  const size_t hi = buf->dirty_hi();
  const uint64_t start = static_cast<uint64_t>(block) * kNfsMaxData + lo;

  // A write may take several RPCs when wsize < the dirty extent.
  size_t pushed = 0;
  while (pushed < hi - lo) {
    const size_t chunk = std::min(options_.wsize, hi - lo - pushed);
    MbufChain data;
    buf->AppendTo(&data, lo + pushed, chunk);
    // cache -> mbuf copy.
    node_->cpu().ChargeBackground(node_->profile().copy_per_byte * static_cast<SimTime>(chunk),
                                  CostCategory::kCopy);
    if (options_.leases && WriteLeaseLapsed(key)) {
      // Invariant violation: writing through a write lease that expired.
      // The chaos harness asserts this counter stays zero.
      ++stats_.stale_lease_writes;
    }
    auto attr_or = co_await RpcWrite(file, static_cast<uint32_t>(start + pushed), std::move(data));
    if (!attr_or.ok()) {
      co_return attr_or.status();
    }
    // Trust our own write: advance the cached-data epoch. Concurrent biod
    // pushes can complete out of order, so take the max (mtimes are
    // monotonic on the server).
    FileState& state = StateFor(file);
    state.data_mtime = std::max(state.data_mtime, attr_or->mtime);
    pushed += chunk;
    // The buffer may have been invalidated while the RPC was outstanding.
    buf = cache_.Find(key, block);
    if (buf == nullptr) {
      co_return Status::Ok();
    }
  }
  if (buf->mod_gen() == gen_at_start) {
    buf->MarkClean();
  }
  // Else: a write landed while the push was in flight; the buffer stays
  // dirty and will be pushed again with the fresh bytes.
  co_return Status::Ok();
}

CoTask<Status> NfsClient::PushDirty(NfsFh file) {
  const uint64_t key = file.Key();
  std::vector<uint32_t> blocks;
  for (Buf* buf : cache_.DirtyBufs(key)) {
    blocks.push_back(buf->block());
  }
  WaitGroup group;
  for (uint32_t block : blocks) {
    group.Add(1);
    [](NfsClient* client, NfsFh fh, uint32_t blk, WaitGroup* wg) -> CoTask<void> {
      co_await client->biods_.Acquire();
      Status status = co_await client->PushBufRegion(fh, blk);
      client->LatchWriteError(fh, blk, status);
      client->biods_.Release();
      wg->Done();
    }(this, file, block, &group)
                                 .Detach();
  }
  co_await group.Wait();
  co_return Status::Ok();
}

CoTask<StatusOr<Buf*>> NfsClient::EnsureCachedBlock(uint64_t key, uint32_t block) {
  for (;;) {
    Buf* buf = cache_.Find(key, block);
    if (buf != nullptr) {
      co_return buf;
    }
    auto created = cache_.Create(key, block);
    if (created.ok()) {
      co_return created.value();
    }
    Status reclaimed = co_await ReclaimOneBuf();
    if (!reclaimed.ok()) {
      co_return reclaimed;
    }
  }
}

CoTask<Status> NfsClient::ReclaimOneBuf() {
  auto dirty = cache_.DirtyBufs();
  if (dirty.empty()) {
    co_return NoSpaceError("nfs: cache full but nothing to reclaim");
  }
  Buf* victim = dirty.front();  // least recently used dirty buffer
  const NfsFh fh = FhFromKey(victim->file());
  const uint32_t block = victim->block();
  Status status = co_await PushBufRegion(fh, block);
  if (!status.ok()) {
    co_return status;
  }
  cache_.Remove(fh.Key(), block);
  co_return Status::Ok();
}

CoTask<Status> NfsClient::Close(NfsFh file) {
  node_->cpu().ChargeBackground(node_->profile().syscall_overhead, CostCategory::kNfsProc);
  FileState& state = StateFor(file);
  if (state.open_count > 0) {
    --state.open_count;
  }
  co_await state.async_writes.Wait();
  if (options_.push_on_close) {
    if (options_.leases && LeaseValid(file.Key(), kLeaseWrite)) {
      // Write-caching: a valid write lease lets the close return without
      // flushing. The server recalls the lease (and we push then) the moment
      // another client wants the file — the NQNFS win over push-on-close.
    } else {
      Status status = co_await PushDirty(file);
      if (!status.ok()) {
        co_return status;
      }
    }
  }
  // Any write-behind failure — from a biod, the sync daemon, or the push
  // above — surfaces here, the caller's last chance to learn about it.
  co_return TakeWriteError(StateFor(file));
}

CoTask<Status> NfsClient::Flush(NfsFh file) {
  FileState& state = StateFor(file);
  co_await state.async_writes.Wait();
  Status status = co_await PushDirty(file);
  if (!status.ok()) {
    co_return status;
  }
  co_return TakeWriteError(StateFor(file));
}

CoTask<Status> NfsClient::FlushAll() {
  std::vector<uint64_t> keys;
  for (const auto& [key, state] : files_) {
    (void)state;
    keys.push_back(key);
  }
  for (uint64_t key : keys) {
    Status status = co_await Flush(FhFromKey(key));
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return Status::Ok();
}

}  // namespace renonfs
