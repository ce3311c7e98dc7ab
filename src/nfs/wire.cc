#include "src/nfs/wire.h"

#include <cstring>
#include <type_traits>

#include "src/util/logging.h"

namespace renonfs {

namespace {
constexpr uint32_t kUnset = 0xffffffffu;

// NFSv2 ftype values.
constexpr uint32_t kNfReg = 1;
constexpr uint32_t kNfDir = 2;
constexpr uint32_t kNfLnk = 5;

template <typename Encoder>
void EncodeTime(Encoder& enc, SimTime t) {
  enc.PutUint32(static_cast<uint32_t>(t / Seconds(1)));
  enc.PutUint32(static_cast<uint32_t>((t % Seconds(1)) / Microseconds(1)));
}

template <typename Encoder>
void EncodeFattrImpl(Encoder& enc, const FileAttr& attr) {
  uint32_t ftype = kNfReg;
  switch (attr.type) {
    case FileType::kRegular:
      ftype = kNfReg;
      break;
    case FileType::kDirectory:
      ftype = kNfDir;
      break;
    case FileType::kSymlink:
      ftype = kNfLnk;
      break;
  }
  enc.PutUint32(ftype);
  enc.PutUint32(attr.mode);
  enc.PutUint32(attr.nlink);
  enc.PutUint32(attr.uid);
  enc.PutUint32(attr.gid);
  enc.PutUint32(static_cast<uint32_t>(attr.size));
  enc.PutUint32(attr.blocksize);
  enc.PutUint32(0);  // rdev
  enc.PutUint32(attr.blocks);
  enc.PutUint32(attr.fsid);
  enc.PutUint32(attr.fileid);
  EncodeTime(enc, attr.atime);
  EncodeTime(enc, attr.mtime);
  EncodeTime(enc, attr.ctime);
}

StatusOr<SimTime> DecodeTime(XdrDecoder& dec) {
  ASSIGN_OR_RETURN(uint32_t secs, dec.GetUint32());
  ASSIGN_OR_RETURN(uint32_t usecs, dec.GetUint32());
  if (secs == kUnset) {
    return static_cast<SimTime>(-1);
  }
  return Seconds(secs) + Microseconds(usecs);
}

}  // namespace

const char* NfsProcName(uint32_t proc) {
  switch (proc) {
    case kNfsNull:
      return "null";
    case kNfsGetattr:
      return "getattr";
    case kNfsSetattr:
      return "setattr";
    case kNfsRoot:
      return "root";
    case kNfsLookup:
      return "lookup";
    case kNfsReadlink:
      return "readlink";
    case kNfsRead:
      return "read";
    case kNfsWriteCache:
      return "writecache";
    case kNfsWrite:
      return "write";
    case kNfsCreate:
      return "create";
    case kNfsRemove:
      return "remove";
    case kNfsRename:
      return "rename";
    case kNfsLink:
      return "link";
    case kNfsSymlink:
      return "symlink";
    case kNfsMkdir:
      return "mkdir";
    case kNfsRmdir:
      return "rmdir";
    case kNfsReaddir:
      return "readdir";
    case kNfsStatfs:
      return "statfs";
    case kNfsLease:
      return "lease";
    case kNfsVacate:
      return "vacate";
    case kNfsRecall:
      return "recall";
  }
  return "?";
}

RpcTimerClass TimerClassForProc(uint32_t proc) {
  switch (proc) {
    case kNfsRead:
      return RpcTimerClass::kRead;
    case kNfsWrite:
      return RpcTimerClass::kWrite;
    case kNfsGetattr:
      return RpcTimerClass::kGetattr;
    case kNfsLookup:
      return RpcTimerClass::kLookup;
    default:
      return RpcTimerClass::kOther;
  }
}

bool IsNonIdempotent(uint32_t proc) {
  switch (proc) {
    case kNfsCreate:
    case kNfsRemove:
    case kNfsRename:
    case kNfsLink:
    case kNfsSymlink:
    case kNfsMkdir:
    case kNfsRmdir:
    case kNfsSetattr:  // truncations are not idempotent in general
      return true;
    default:
      return false;
  }
}

ErrorCode RetryEchoError(uint32_t proc) {
  switch (proc) {
    case kNfsCreate:
    case kNfsMkdir:
    case kNfsLink:
    case kNfsSymlink:
      return ErrorCode::kExist;
    case kNfsRemove:
    case kNfsRmdir:
    case kNfsRename:
      return ErrorCode::kNoEnt;
    default:
      return ErrorCode::kOk;
  }
}

NfsStat NfsStatFromStatus(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kOk:
      return NfsStat::kOk;
    case ErrorCode::kPerm:
      return NfsStat::kPerm;
    case ErrorCode::kNoEnt:
      return NfsStat::kNoEnt;
    case ErrorCode::kIo:
      return NfsStat::kIo;
    case ErrorCode::kAccess:
      return NfsStat::kAccess;
    case ErrorCode::kExist:
      return NfsStat::kExist;
    case ErrorCode::kNotDir:
      return NfsStat::kNotDir;
    case ErrorCode::kIsDir:
      return NfsStat::kIsDir;
    case ErrorCode::kFBig:
      return NfsStat::kFBig;
    case ErrorCode::kNoSpace:
      return NfsStat::kNoSpc;
    case ErrorCode::kRoFs:
      return NfsStat::kRoFs;
    case ErrorCode::kNameTooLong:
      return NfsStat::kNameTooLong;
    case ErrorCode::kNotEmpty:
      return NfsStat::kNotEmpty;
    case ErrorCode::kDQuot:
      return NfsStat::kDQuot;
    case ErrorCode::kStale:
      return NfsStat::kStale;
    case ErrorCode::kInvalidArgument:
      return NfsStat::kIo;
    default:
      return NfsStat::kIo;
  }
}

Status StatusFromNfsStat(NfsStat stat, std::string_view context) {
  switch (stat) {
    case NfsStat::kOk:
      return Status::Ok();
    case NfsStat::kPerm:
      return PermError(context);
    case NfsStat::kNoEnt:
      return NoEntError(context);
    case NfsStat::kIo:
    case NfsStat::kNxIo:
    case NfsStat::kNoDev:
    case NfsStat::kWFlush:
      return IoError(context);
    case NfsStat::kAccess:
      return AccessError(context);
    case NfsStat::kExist:
      return ExistError(context);
    case NfsStat::kNotDir:
      return NotDirError(context);
    case NfsStat::kIsDir:
      return IsDirError(context);
    case NfsStat::kFBig:
      return FBigError(context);
    case NfsStat::kNoSpc:
      return NoSpaceError(context);
    case NfsStat::kRoFs:
      return RoFsError(context);
    case NfsStat::kNameTooLong:
      return NameTooLongError(context);
    case NfsStat::kNotEmpty:
      return NotEmptyError(context);
    case NfsStat::kDQuot:
      return DQuotError(context);
    case NfsStat::kStale:
      return StaleError(context);
  }
  return IoError(context);
}

NfsFh NfsFh::Make(uint32_t fsid, Ino ino, uint32_t generation) {
  NfsFh fh;
  uint8_t* p = fh.bytes_.data();
  auto put32 = [&p](uint32_t v) {
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
    p += 4;
  };
  put32(fsid);
  put32(ino);
  put32(generation);
  return fh;
}

namespace {
uint32_t Get32At(const std::array<uint8_t, kNfsFhSize>& bytes, size_t off) {
  return static_cast<uint32_t>(bytes[off]) << 24 | static_cast<uint32_t>(bytes[off + 1]) << 16 |
         static_cast<uint32_t>(bytes[off + 2]) << 8 | static_cast<uint32_t>(bytes[off + 3]);
}
}  // namespace

uint32_t NfsFh::fsid() const { return Get32At(bytes_, 0); }
Ino NfsFh::ino() const { return Get32At(bytes_, 4); }
uint32_t NfsFh::generation() const { return Get32At(bytes_, 8); }

void EncodeFh(XdrEncoder& enc, const NfsFh& fh) {
  enc.PutFixedOpaque(fh.bytes().data(), kNfsFhSize);
}

StatusOr<NfsFh> DecodeFh(XdrDecoder& dec) {
  NfsFh fh;
  RETURN_IF_ERROR(dec.GetFixedOpaque(fh.bytes().data(), kNfsFhSize));
  return fh;
}

void EncodeFattr(XdrEncoder& enc, const FileAttr& attr) { EncodeFattrImpl(enc, attr); }

void EncodeFattrBuffered(BufferedXdrEncoder& enc, const FileAttr& attr) {
  EncodeFattrImpl(enc, attr);
}

StatusOr<FileAttr> DecodeFattr(XdrDecoder& dec) {
  FileAttr attr;
  ASSIGN_OR_RETURN(uint32_t ftype, dec.GetUint32());
  switch (ftype) {
    case kNfReg:
      attr.type = FileType::kRegular;
      break;
    case kNfDir:
      attr.type = FileType::kDirectory;
      break;
    case kNfLnk:
      attr.type = FileType::kSymlink;
      break;
    default:
      return GarbageArgsError("nfs: bad ftype");
  }
  ASSIGN_OR_RETURN(attr.mode, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.nlink, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.uid, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.gid, dec.GetUint32());
  ASSIGN_OR_RETURN(uint32_t size, dec.GetUint32());
  attr.size = size;
  ASSIGN_OR_RETURN(attr.blocksize, dec.GetUint32());
  RETURN_IF_ERROR(dec.Skip(4));  // rdev
  ASSIGN_OR_RETURN(attr.blocks, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.fsid, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.fileid, dec.GetUint32());
  ASSIGN_OR_RETURN(attr.atime, DecodeTime(dec));
  ASSIGN_OR_RETURN(attr.mtime, DecodeTime(dec));
  ASSIGN_OR_RETURN(attr.ctime, DecodeTime(dec));
  return attr;
}

void EncodeSattr(XdrEncoder& enc, const SetAttrRequest& request) {
  enc.PutUint32(request.mode.value_or(kUnset));
  enc.PutUint32(request.uid.value_or(kUnset));
  enc.PutUint32(request.gid.value_or(kUnset));
  enc.PutUint32(request.size.has_value() ? static_cast<uint32_t>(*request.size) : kUnset);
  if (request.atime.has_value()) {
    EncodeTime(enc, *request.atime);
  } else {
    enc.PutUint32(kUnset);
    enc.PutUint32(kUnset);
  }
  if (request.mtime.has_value()) {
    EncodeTime(enc, *request.mtime);
  } else {
    enc.PutUint32(kUnset);
    enc.PutUint32(kUnset);
  }
}

StatusOr<SetAttrRequest> DecodeSattr(XdrDecoder& dec) {
  SetAttrRequest request;
  ASSIGN_OR_RETURN(uint32_t mode, dec.GetUint32());
  if (mode != kUnset) {
    request.mode = mode;
  }
  ASSIGN_OR_RETURN(uint32_t uid, dec.GetUint32());
  if (uid != kUnset) {
    request.uid = uid;
  }
  ASSIGN_OR_RETURN(uint32_t gid, dec.GetUint32());
  if (gid != kUnset) {
    request.gid = gid;
  }
  ASSIGN_OR_RETURN(uint32_t size, dec.GetUint32());
  if (size != kUnset) {
    request.size = size;
  }
  ASSIGN_OR_RETURN(SimTime atime, DecodeTime(dec));
  if (atime >= 0) {
    request.atime = atime;
  }
  ASSIGN_OR_RETURN(SimTime mtime, DecodeTime(dec));
  if (mtime >= 0) {
    request.mtime = mtime;
  }
  return request;
}

void EncodeNfsStat(XdrEncoder& enc, NfsStat stat) { enc.PutUint32(static_cast<uint32_t>(stat)); }

StatusOr<NfsStat> DecodeNfsStat(XdrDecoder& dec) {
  ASSIGN_OR_RETURN(uint32_t raw, dec.GetUint32());
  return static_cast<NfsStat>(raw);
}

void EncodeDirOpArgs(XdrEncoder& enc, const DirOpArgs& args) {
  EncodeFh(enc, args.dir);
  enc.PutString(args.name);
}

StatusOr<DirOpArgs> DecodeDirOpArgs(XdrDecoder& dec) {
  DirOpArgs args;
  ASSIGN_OR_RETURN(args.dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.name, dec.GetString(kMaxNameLen + 1));
  return args;
}

void EncodeDirOpReply(XdrEncoder& enc, const DirOpReply& reply) {
  EncodeFh(enc, reply.file);
  EncodeFattr(enc, reply.attr);
}

StatusOr<DirOpReply> DecodeDirOpReply(XdrDecoder& dec) {
  DirOpReply reply;
  ASSIGN_OR_RETURN(reply.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(reply.attr, DecodeFattr(dec));
  return reply;
}

void EncodeSetattrArgs(XdrEncoder& enc, const SetattrArgs& args) {
  EncodeFh(enc, args.file);
  EncodeSattr(enc, args.attrs);
}

StatusOr<SetattrArgs> DecodeSetattrArgs(XdrDecoder& dec) {
  SetattrArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.attrs, DecodeSattr(dec));
  return args;
}

void EncodeReadArgs(XdrEncoder& enc, const ReadArgs& args) {
  EncodeFh(enc, args.file);
  enc.PutUint32(args.offset);
  enc.PutUint32(args.count);
  enc.PutUint32(args.totalcount);
}

StatusOr<ReadArgs> DecodeReadArgs(XdrDecoder& dec) {
  ReadArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.offset, dec.GetUint32());
  ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  ASSIGN_OR_RETURN(args.totalcount, dec.GetUint32());
  return args;
}

void EncodeReadReply(XdrEncoder& enc, ReadReply reply) {
  EncodeFattr(enc, reply.attr);
  enc.PutVarOpaqueChain(std::move(reply.data));
}

StatusOr<ReadReply> DecodeReadReply(XdrDecoder& dec) {
  ReadReply reply;
  ASSIGN_OR_RETURN(reply.attr, DecodeFattr(dec));
  ASSIGN_OR_RETURN(reply.data, dec.GetVarOpaqueChain(kNfsMaxData));
  return reply;
}

void EncodeWriteArgs(XdrEncoder& enc, WriteArgs args) {
  EncodeFh(enc, args.file);
  enc.PutUint32(args.beginoffset);
  enc.PutUint32(args.offset);
  enc.PutUint32(args.totalcount);
  enc.PutVarOpaqueChain(std::move(args.data));
}

StatusOr<WriteArgs> DecodeWriteArgs(XdrDecoder& dec) {
  WriteArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.beginoffset, dec.GetUint32());
  ASSIGN_OR_RETURN(args.offset, dec.GetUint32());
  ASSIGN_OR_RETURN(args.totalcount, dec.GetUint32());
  ASSIGN_OR_RETURN(args.data, dec.GetVarOpaqueChain(kNfsMaxData));
  return args;
}

void EncodeCreateArgs(XdrEncoder& enc, const CreateArgs& args) {
  EncodeFh(enc, args.dir);
  enc.PutString(args.name);
  EncodeSattr(enc, args.attrs);
}

StatusOr<CreateArgs> DecodeCreateArgs(XdrDecoder& dec) {
  CreateArgs args;
  ASSIGN_OR_RETURN(args.dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.name, dec.GetString(kMaxNameLen + 1));
  ASSIGN_OR_RETURN(args.attrs, DecodeSattr(dec));
  return args;
}

void EncodeRenameArgs(XdrEncoder& enc, const RenameArgs& args) {
  EncodeFh(enc, args.from_dir);
  enc.PutString(args.from_name);
  EncodeFh(enc, args.to_dir);
  enc.PutString(args.to_name);
}

StatusOr<RenameArgs> DecodeRenameArgs(XdrDecoder& dec) {
  RenameArgs args;
  ASSIGN_OR_RETURN(args.from_dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.from_name, dec.GetString(kMaxNameLen + 1));
  ASSIGN_OR_RETURN(args.to_dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.to_name, dec.GetString(kMaxNameLen + 1));
  return args;
}

void EncodeLinkArgs(XdrEncoder& enc, const LinkArgs& args) {
  EncodeFh(enc, args.from);
  EncodeFh(enc, args.to_dir);
  enc.PutString(args.to_name);
}

StatusOr<LinkArgs> DecodeLinkArgs(XdrDecoder& dec) {
  LinkArgs args;
  ASSIGN_OR_RETURN(args.from, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.to_dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.to_name, dec.GetString(kMaxNameLen + 1));
  return args;
}

void EncodeSymlinkArgs(XdrEncoder& enc, const SymlinkArgs& args) {
  EncodeFh(enc, args.dir);
  enc.PutString(args.name);
  enc.PutString(args.target);
  EncodeSattr(enc, args.attrs);
}

StatusOr<SymlinkArgs> DecodeSymlinkArgs(XdrDecoder& dec) {
  SymlinkArgs args;
  ASSIGN_OR_RETURN(args.dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.name, dec.GetString(kMaxNameLen + 1));
  ASSIGN_OR_RETURN(args.target, dec.GetString(kMaxPathLen));
  ASSIGN_OR_RETURN(args.attrs, DecodeSattr(dec));
  return args;
}

void EncodeReaddirArgs(XdrEncoder& enc, const ReaddirArgs& args) {
  EncodeFh(enc, args.dir);
  enc.PutUint32(args.cookie);
  enc.PutUint32(args.count);
}

StatusOr<ReaddirArgs> DecodeReaddirArgs(XdrDecoder& dec) {
  ReaddirArgs args;
  ASSIGN_OR_RETURN(args.dir, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.cookie, dec.GetUint32());
  ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  return args;
}

void EncodeReaddirReply(XdrEncoder& enc, const ReaddirReply& reply) {
  for (const ReaddirEntry& entry : reply.entries) {
    enc.PutBool(true);  // entry follows
    enc.PutUint32(entry.fileid);
    enc.PutString(entry.name);
    enc.PutUint32(entry.cookie);
  }
  enc.PutBool(false);  // no more entries
  enc.PutBool(reply.eof);
}

StatusOr<ReaddirReply> DecodeReaddirReply(XdrDecoder& dec) {
  ReaddirReply reply;
  for (;;) {
    ASSIGN_OR_RETURN(bool more, dec.GetBool());
    if (!more) {
      break;
    }
    ReaddirEntry entry;
    ASSIGN_OR_RETURN(entry.fileid, dec.GetUint32());
    ASSIGN_OR_RETURN(entry.name, dec.GetString(kMaxNameLen + 1));
    ASSIGN_OR_RETURN(entry.cookie, dec.GetUint32());
    reply.entries.push_back(std::move(entry));
  }
  ASSIGN_OR_RETURN(reply.eof, dec.GetBool());
  return reply;
}

void EncodeStatfsReply(XdrEncoder& enc, const StatfsReply& reply) {
  enc.PutUint32(reply.stat.tsize);
  enc.PutUint32(reply.stat.bsize);
  enc.PutUint32(reply.stat.blocks);
  enc.PutUint32(reply.stat.bfree);
  enc.PutUint32(reply.stat.bavail);
}

StatusOr<StatfsReply> DecodeStatfsReply(XdrDecoder& dec) {
  StatfsReply reply;
  ASSIGN_OR_RETURN(reply.stat.tsize, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.stat.bsize, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.stat.blocks, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.stat.bfree, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.stat.bavail, dec.GetUint32());
  return reply;
}

namespace {
Status CheckLeaseKind(uint32_t kind) {
  if (kind != kLeaseRead && kind != kLeaseWrite) {
    return GarbageArgsError("nfs: bad lease kind");
  }
  return Status::Ok();
}
}  // namespace

void EncodeLeaseArgs(XdrEncoder& enc, const LeaseArgs& args) {
  EncodeFh(enc, args.file);
  enc.PutUint32(args.kind);
  enc.PutUint32(args.term_us);
  enc.PutUint32(args.client_host);
  enc.PutUint32(args.callback_port);
  enc.PutUint32(args.reclaim);
}

StatusOr<LeaseArgs> DecodeLeaseArgs(XdrDecoder& dec) {
  LeaseArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.kind, dec.GetUint32());
  RETURN_IF_ERROR(CheckLeaseKind(args.kind));
  ASSIGN_OR_RETURN(args.term_us, dec.GetUint32());
  ASSIGN_OR_RETURN(args.client_host, dec.GetUint32());
  ASSIGN_OR_RETURN(args.callback_port, dec.GetUint32());
  ASSIGN_OR_RETURN(args.reclaim, dec.GetUint32());
  return args;
}

void EncodeLeaseReply(XdrEncoder& enc, const LeaseReply& reply) {
  enc.PutUint32(reply.granted);
  enc.PutUint32(reply.kind);
  enc.PutUint32(reply.term_us);
  enc.PutUint32(reply.boot_verifier);
  EncodeFattr(enc, reply.attr);
}

StatusOr<LeaseReply> DecodeLeaseReply(XdrDecoder& dec) {
  LeaseReply reply;
  ASSIGN_OR_RETURN(reply.granted, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.kind, dec.GetUint32());
  RETURN_IF_ERROR(CheckLeaseKind(reply.kind));
  ASSIGN_OR_RETURN(reply.term_us, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.boot_verifier, dec.GetUint32());
  ASSIGN_OR_RETURN(reply.attr, DecodeFattr(dec));
  return reply;
}

void EncodeRecallArgs(XdrEncoder& enc, const RecallArgs& args) {
  EncodeFh(enc, args.file);
  enc.PutUint32(args.kind);
  enc.PutUint32(args.serial);
  enc.PutUint32(args.boot_verifier);
}

StatusOr<RecallArgs> DecodeRecallArgs(XdrDecoder& dec) {
  RecallArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.kind, dec.GetUint32());
  RETURN_IF_ERROR(CheckLeaseKind(args.kind));
  ASSIGN_OR_RETURN(args.serial, dec.GetUint32());
  ASSIGN_OR_RETURN(args.boot_verifier, dec.GetUint32());
  return args;
}

void EncodeVacateArgs(XdrEncoder& enc, const VacateArgs& args) {
  EncodeFh(enc, args.file);
  enc.PutUint32(args.kind);
  enc.PutUint32(args.serial);
  enc.PutUint32(args.client_host);
  enc.PutUint32(args.callback_port);
}

StatusOr<VacateArgs> DecodeVacateArgs(XdrDecoder& dec) {
  VacateArgs args;
  ASSIGN_OR_RETURN(args.file, DecodeFh(dec));
  ASSIGN_OR_RETURN(args.kind, dec.GetUint32());
  RETURN_IF_ERROR(CheckLeaseKind(args.kind));
  ASSIGN_OR_RETURN(args.serial, dec.GetUint32());
  ASSIGN_OR_RETURN(args.client_host, dec.GetUint32());
  ASSIGN_OR_RETURN(args.callback_port, dec.GetUint32());
  return args;
}

// --- reply check-and-decode ----------------------------------------------------

template <typename Reply>
StatusOr<Reply> DecodeNfsReply(uint32_t proc, StatusOr<MbufChain> body) {
  if (!body.ok()) {
    return body.status();
  }
  XdrDecoder dec(&body.value());
  ASSIGN_OR_RETURN(const NfsStat stat, DecodeNfsStat(dec));
  RETURN_IF_ERROR(StatusFromNfsStat(stat, NfsProcName(proc)));
  if constexpr (std::is_same_v<Reply, FileAttr>) {
    return DecodeFattr(dec);
  } else if constexpr (std::is_same_v<Reply, DirOpReply>) {
    return DecodeDirOpReply(dec);
  } else if constexpr (std::is_same_v<Reply, ReadReply>) {
    return DecodeReadReply(dec);
  } else if constexpr (std::is_same_v<Reply, ReaddirReply>) {
    return DecodeReaddirReply(dec);
  } else if constexpr (std::is_same_v<Reply, StatfsReply>) {
    return DecodeStatfsReply(dec);
  } else if constexpr (std::is_same_v<Reply, LeaseReply>) {
    return DecodeLeaseReply(dec);
  } else if constexpr (std::is_same_v<Reply, std::string>) {
    return dec.GetString(kMaxPathLen);  // the READLINK target
  } else {
    static_assert(std::is_same_v<Reply, NfsStatOnly>);
    return NfsStatOnly{};
  }
}

template StatusOr<FileAttr> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<DirOpReply> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<ReadReply> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<ReaddirReply> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<StatfsReply> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<LeaseReply> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<std::string> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);
template StatusOr<NfsStatOnly> DecodeNfsReply(uint32_t, StatusOr<MbufChain>);

}  // namespace renonfs
