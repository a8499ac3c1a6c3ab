//===- obs/BinCodec.cpp - Store envelope and whole-file I/O ---------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/BinCodec.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ipas;
using namespace ipas::obs;

namespace {

constexpr size_t MagicSize = 8;
/// Magic + version + payload length.
constexpr size_t HeaderSize = MagicSize + 4 + 8;
constexpr size_t FooterSize = 8;

bool fail(std::string *Err, std::string Msg) {
  if (Err)
    *Err = std::move(Msg);
  return false;
}

/// Writes all of \p Bytes to \p Fd and closes it.
bool writeAndClose(int Fd, const std::string &Bytes) {
  size_t Done = 0;
  while (Done != Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Done += static_cast<size_t>(N);
  }
  return ::close(Fd) == 0 && Done == Bytes.size();
}

} // namespace

void ipas::obs::encodeEnvelope(
    const StoreEnvelope &Env, std::string &Out,
    const std::function<void(Encoder &)> &WritePayload) {
  Out.assign(Env.Magic, MagicSize);
  Encoder E(Out);
  E.u32(Env.Version);
  E.u64(0); // Payload length, patched once the payload is written.
  WritePayload(E);
  uint64_t PayloadLen = Out.size() - HeaderSize;
  for (int I = 0; I != 8; ++I)
    Out[MagicSize + 4 + I] = static_cast<char>((PayloadLen >> (8 * I)) & 0xff);
  E.u64(fnv1a(Out.data() + HeaderSize, PayloadLen));
}

bool ipas::obs::decodeEnvelope(
    const StoreEnvelope &Env, const std::string &Data, std::string *Err,
    const std::function<void(uint32_t Version, Decoder &)> &ReadPayload) {
  std::string Kind = Env.Kind;
  if (Data.size() < HeaderSize)
    return fail(Err, "not a " + Kind + " (file too small)");
  if (std::memcmp(Data.data(), Env.Magic, MagicSize) != 0)
    return fail(Err, "not a " + Kind + " (bad magic)");
  Decoder H(Data.data() + MagicSize, HeaderSize - MagicSize);
  uint32_t Version = H.u32();
  if (Version == 0 || Version > Env.Version)
    return fail(Err, "unsupported " + Kind + " version " +
                         std::to_string(Version) + " (reader supports up to " +
                         std::to_string(Env.Version) + ")");
  // PayloadLen is untrusted: compare it against the bytes actually
  // present instead of adding it to anything.
  uint64_t PayloadLen = H.u64();
  if (Data.size() < HeaderSize + FooterSize ||
      PayloadLen != Data.size() - HeaderSize - FooterSize)
    return fail(Err, Kind + " truncated (header promises " +
                         std::to_string(PayloadLen) + " payload bytes)");
  const char *Payload = Data.data() + HeaderSize;
  Decoder Footer(Payload + PayloadLen, FooterSize);
  if (fnv1a(Payload, PayloadLen) != Footer.u64())
    return fail(Err, Kind + " checksum mismatch (corrupt file)");
  Decoder D(Payload, PayloadLen);
  ReadPayload(Version, D);
  if (!D.ok())
    return fail(Err, Kind + " payload truncated or corrupt");
  if (!D.atEnd())
    return fail(Err, Kind + " payload has trailing bytes");
  return true;
}

bool ipas::obs::readFile(const std::string &Path, std::string &Out,
                         std::string *Err) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return fail(Err, "cannot open '" + Path + "'");
  Out.clear();
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  return Ok || fail(Err, "read error on '" + Path + "'");
}

bool ipas::obs::writeFileAtomic(const std::string &Path,
                                const std::string &Bytes, std::string *Err) {
  // A device or pipe (/dev/null, /dev/stdout) cannot be replaced, only
  // written through.
  struct stat St;
  if (::stat(Path.c_str(), &St) == 0 && !S_ISREG(St.st_mode) &&
      !S_ISDIR(St.st_mode)) {
    int Fd = ::open(Path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
    if (Fd < 0)
      return fail(Err, "cannot open '" + Path + "' for writing");
    return writeAndClose(Fd, Bytes) ||
           fail(Err, "short write to '" + Path + "'");
  }

  static std::atomic<unsigned> Counter{0};
  std::string Tmp;
  int Fd = -1;
  // O_EXCL makes the name ours alone; a stale sibling left by a crashed
  // process with a recycled pid just moves us on to the next counter.
  do {
    Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(Counter++);
    Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (Fd < 0 && errno == EEXIST);
  if (Fd < 0)
    return fail(Err, "cannot open '" + Path + "' for writing");
  if (!writeAndClose(Fd, Bytes)) {
    ::unlink(Tmp.c_str());
    return fail(Err, "short write to '" + Path + "'");
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::string Why = std::strerror(errno);
    ::unlink(Tmp.c_str());
    return fail(Err, "cannot replace '" + Path + "': " + Why);
  }
  return true;
}
