// NFS version 2 wire protocol (RFC 1094).
//
// Procedure argument/reply structures and their XDR codecs, shared by the
// server (src/nfs/server.h), the caching client (src/nfs/client.h) and the
// Nhfsstone load generator (src/workload). Data-bearing fields use mbuf
// chains so 8 KB read/write payloads move by cluster sharing, not copying.
#ifndef RENONFS_SRC_NFS_WIRE_H_
#define RENONFS_SRC_NFS_WIRE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fs/local_fs.h"
#include "src/mbuf/mbuf.h"
#include "src/rpc/rto.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/xdr/xdr.h"

namespace renonfs {

inline constexpr uint32_t kNfsProgram = 100003;
inline constexpr uint32_t kNfsVersion = 2;
inline constexpr uint16_t kNfsPort = 2049;
inline constexpr size_t kNfsMaxData = 8192;  // NFS_MAXDATA
inline constexpr size_t kNfsFhSize = 32;     // NFS_FHSIZE

enum NfsProc : uint32_t {
  kNfsNull = 0,
  kNfsGetattr = 1,
  kNfsSetattr = 2,
  kNfsRoot = 3,  // obsolete
  kNfsLookup = 4,
  kNfsReadlink = 5,
  kNfsRead = 6,
  kNfsWriteCache = 7,  // obsolete
  kNfsWrite = 8,
  kNfsCreate = 9,
  kNfsRemove = 10,
  kNfsRename = 11,
  kNfsLink = 12,
  kNfsSymlink = 13,
  kNfsMkdir = 14,
  kNfsRmdir = 15,
  kNfsReaddir = 16,
  kNfsStatfs = 17,
  // NQNFS-style lease extension [Gray89]. LEASE and VACATE are dispatched
  // server procedures; RECALL is only ever a server->client callback datagram
  // (never dispatched by the RPC server) but gets a proc number so traces and
  // per-proc stats can account for it.
  kNfsLease = 18,
  kNfsVacate = 19,
  kNfsRecall = 20,
};
inline constexpr size_t kNfsProcCount = 21;

const char* NfsProcName(uint32_t proc);

// Which RTO estimator a procedure uses (Section 4: separate estimation for
// the four most frequent RPCs; the mount constant for the rest).
RpcTimerClass TimerClassForProc(uint32_t proc);

// Procedures whose effects are not idempotent; the server's duplicate
// request cache replays their replies instead of redoing them [Juszczak89].
bool IsNonIdempotent(uint32_t proc);

// The 4.3BSD client's rule for retried non-idempotent procedures: the error
// a re-execution echoes when an earlier transmission already did the work
// and only its reply was lost (the server's duplicate cache forgot it).
// kExist for CREATE, MKDIR, LINK and SYMLINK; kNoEnt for REMOVE, RMDIR and
// RENAME; kOk — nothing to absorb — for SETATTR and every idempotent proc.
ErrorCode RetryEchoError(uint32_t proc);

enum class NfsStat : uint32_t {
  kOk = 0,
  kPerm = 1,
  kNoEnt = 2,
  kIo = 5,
  kNxIo = 6,
  kAccess = 13,
  kExist = 17,
  kNoDev = 19,
  kNotDir = 20,
  kIsDir = 21,
  kFBig = 27,
  kNoSpc = 28,
  kRoFs = 30,
  kNameTooLong = 63,
  kNotEmpty = 66,
  kDQuot = 69,
  kStale = 70,
  kWFlush = 99,
};

NfsStat NfsStatFromStatus(const Status& status);
Status StatusFromNfsStat(NfsStat stat, std::string_view context);

// Opaque 32-byte file handle. This library packs (fsid, ino, generation)
// and zero padding; clients treat it as opaque.
class NfsFh {
 public:
  NfsFh() { bytes_.fill(0); }
  static NfsFh Make(uint32_t fsid, Ino ino, uint32_t generation = 1);

  uint32_t fsid() const;
  Ino ino() const;
  uint32_t generation() const;

  const std::array<uint8_t, kNfsFhSize>& bytes() const { return bytes_; }
  std::array<uint8_t, kNfsFhSize>& bytes() { return bytes_; }

  // Stable key for client-side cache indexing.
  uint64_t Key() const { return (static_cast<uint64_t>(fsid()) << 32) | ino(); }

  bool operator==(const NfsFh& other) const { return bytes_ == other.bytes_; }

 private:
  std::array<uint8_t, kNfsFhSize> bytes_;
};

struct NfsFhHash {
  size_t operator()(const NfsFh& fh) const { return std::hash<uint64_t>()(fh.Key()); }
};

// --- attribute codecs -------------------------------------------------------

void EncodeFh(XdrEncoder& enc, const NfsFh& fh);
StatusOr<NfsFh> DecodeFh(XdrDecoder& dec);

void EncodeFattr(XdrEncoder& enc, const FileAttr& attr);
StatusOr<FileAttr> DecodeFattr(XdrDecoder& dec);
// The reference-port path: same wire format, marshalled through the layered
// codec's contiguous buffer (see BufferedXdrEncoder).
void EncodeFattrBuffered(BufferedXdrEncoder& enc, const FileAttr& attr);

// sattr: settable attributes; unset fields are encoded as 0xffffffff.
void EncodeSattr(XdrEncoder& enc, const SetAttrRequest& request);
StatusOr<SetAttrRequest> DecodeSattr(XdrDecoder& dec);

void EncodeNfsStat(XdrEncoder& enc, NfsStat stat);
StatusOr<NfsStat> DecodeNfsStat(XdrDecoder& dec);

// --- procedure args/replies --------------------------------------------------
// Each procedure gets an args struct and (where non-trivial) a reply struct,
// with Encode/Decode pairs that are the single source of wire-format truth.

struct DirOpArgs {  // LOOKUP, REMOVE, RMDIR
  NfsFh dir;
  std::string name;
};
void EncodeDirOpArgs(XdrEncoder& enc, const DirOpArgs& args);
StatusOr<DirOpArgs> DecodeDirOpArgs(XdrDecoder& dec);

struct DirOpReply {  // LOOKUP, CREATE, MKDIR success body
  NfsFh file;
  FileAttr attr;
};
void EncodeDirOpReply(XdrEncoder& enc, const DirOpReply& reply);
StatusOr<DirOpReply> DecodeDirOpReply(XdrDecoder& dec);

struct SetattrArgs {
  NfsFh file;
  SetAttrRequest attrs;
};
void EncodeSetattrArgs(XdrEncoder& enc, const SetattrArgs& args);
StatusOr<SetattrArgs> DecodeSetattrArgs(XdrDecoder& dec);

struct ReadArgs {
  NfsFh file;
  uint32_t offset = 0;
  uint32_t count = 0;
  uint32_t totalcount = 0;  // unused, per the RFC
};
void EncodeReadArgs(XdrEncoder& enc, const ReadArgs& args);
StatusOr<ReadArgs> DecodeReadArgs(XdrDecoder& dec);

struct ReadReply {
  FileAttr attr;
  MbufChain data;  // clusters shared, not copied
};
void EncodeReadReply(XdrEncoder& enc, ReadReply reply);
StatusOr<ReadReply> DecodeReadReply(XdrDecoder& dec);

struct WriteArgs {
  NfsFh file;
  uint32_t beginoffset = 0;  // unused
  uint32_t offset = 0;
  uint32_t totalcount = 0;  // unused
  MbufChain data;
};
void EncodeWriteArgs(XdrEncoder& enc, WriteArgs args);
StatusOr<WriteArgs> DecodeWriteArgs(XdrDecoder& dec);

struct CreateArgs {  // CREATE, MKDIR
  NfsFh dir;
  std::string name;
  SetAttrRequest attrs;
};
void EncodeCreateArgs(XdrEncoder& enc, const CreateArgs& args);
StatusOr<CreateArgs> DecodeCreateArgs(XdrDecoder& dec);

struct RenameArgs {
  NfsFh from_dir;
  std::string from_name;
  NfsFh to_dir;
  std::string to_name;
};
void EncodeRenameArgs(XdrEncoder& enc, const RenameArgs& args);
StatusOr<RenameArgs> DecodeRenameArgs(XdrDecoder& dec);

struct LinkArgs {
  NfsFh from;  // existing file
  NfsFh to_dir;
  std::string to_name;
};
void EncodeLinkArgs(XdrEncoder& enc, const LinkArgs& args);
StatusOr<LinkArgs> DecodeLinkArgs(XdrDecoder& dec);

struct SymlinkArgs {
  NfsFh dir;
  std::string name;
  std::string target;
  SetAttrRequest attrs;
};
void EncodeSymlinkArgs(XdrEncoder& enc, const SymlinkArgs& args);
StatusOr<SymlinkArgs> DecodeSymlinkArgs(XdrDecoder& dec);

struct ReaddirArgs {
  NfsFh dir;
  uint32_t cookie = 0;
  uint32_t count = 0;  // reply size budget in bytes
};
void EncodeReaddirArgs(XdrEncoder& enc, const ReaddirArgs& args);
StatusOr<ReaddirArgs> DecodeReaddirArgs(XdrDecoder& dec);

struct ReaddirEntry {
  uint32_t fileid = 0;
  std::string name;
  uint32_t cookie = 0;
};
struct ReaddirReply {
  std::vector<ReaddirEntry> entries;
  bool eof = false;
};
void EncodeReaddirReply(XdrEncoder& enc, const ReaddirReply& reply);
StatusOr<ReaddirReply> DecodeReaddirReply(XdrDecoder& dec);

struct StatfsReply {
  FsStat stat;
};
void EncodeStatfsReply(XdrEncoder& enc, const StatfsReply& reply);
StatusOr<StatfsReply> DecodeStatfsReply(XdrDecoder& dec);

// --- lease extension [Gray89] ------------------------------------------------
// Lease kinds on the wire. A write lease subsumes read caching rights.

inline constexpr uint32_t kLeaseRead = 1;
inline constexpr uint32_t kLeaseWrite = 2;

// LEASE doubles as GETATTR: the reply always carries fresh attributes, so a
// denied lease degrades to exactly one attribute fetch and no extra RPC.
// The client identifies itself explicitly (host + callback port) because the
// TCP dispatch path hands the server a zeroed SockAddr and the UDP source
// port is an ephemeral transport port, not the callback listener.
struct LeaseArgs {
  NfsFh file;
  uint32_t kind = kLeaseRead;       // kLeaseRead or kLeaseWrite
  uint32_t term_us = 0;             // requested term, microseconds
  uint32_t client_host = 0;
  uint32_t callback_port = 0;
  uint32_t reclaim = 0;             // 1: reclaiming a pre-reboot lease (grace)
};
void EncodeLeaseArgs(XdrEncoder& enc, const LeaseArgs& args);
StatusOr<LeaseArgs> DecodeLeaseArgs(XdrDecoder& dec);

struct LeaseReply {
  uint32_t granted = 0;             // 0: denied (attrs still valid)
  uint32_t kind = kLeaseRead;
  uint32_t term_us = 0;             // clamped term actually granted
  uint32_t boot_verifier = 0;       // server crash_count; change => reboot
  FileAttr attr;
};
void EncodeLeaseReply(XdrEncoder& enc, const LeaseReply& reply);
StatusOr<LeaseReply> DecodeLeaseReply(XdrDecoder& dec);

// Server -> client callback datagram. Not an RPC: retransmitted by the lease
// table at a term-derived cadence until the client VACATEs or the lease
// expires. `serial` lets the client ack the exact recall it is answering.
struct RecallArgs {
  NfsFh file;
  uint32_t kind = kLeaseRead;
  uint32_t serial = 0;
  uint32_t boot_verifier = 0;
};
void EncodeRecallArgs(XdrEncoder& enc, const RecallArgs& args);
StatusOr<RecallArgs> DecodeRecallArgs(XdrDecoder& dec);

// Client -> server lease surrender; also the recall acknowledgement
// (serial != 0). Reply body is a bare NfsStat.
struct VacateArgs {
  NfsFh file;
  uint32_t kind = kLeaseRead;
  uint32_t serial = 0;              // 0: voluntary vacate, else recall serial
  uint32_t client_host = 0;
  uint32_t callback_port = 0;
};
void EncodeVacateArgs(XdrEncoder& enc, const VacateArgs& args);
StatusOr<VacateArgs> DecodeVacateArgs(XdrDecoder& dec);

// --- reply check-and-decode ----------------------------------------------------

// The success body of REMOVE, RMDIR, RENAME, LINK, SYMLINK and VACATE: the
// bare nfsstat, nothing after it.
struct NfsStatOnly {};

// Checks and decodes one NFS reply, exactly as every caller needs it: the
// transport's error if the call failed, else the nfsstat word as a Status
// whose context is NfsProcName(proc), else the success body decoded as
// `Reply` — FileAttr, DirOpReply, ReadReply, ReaddirReply, StatfsReply,
// LeaseReply, std::string (the READLINK target) or NfsStatOnly. Synchronous;
// a READ's data clusters are shared into the result, not copied.
template <typename Reply>
StatusOr<Reply> DecodeNfsReply(uint32_t proc, StatusOr<MbufChain> body);

}  // namespace renonfs

#endif  // RENONFS_SRC_NFS_WIRE_H_
