//===- obs/BinCodec.h - Little-endian byte codec for versioned stores -----===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit little-endian encoder/decoder pair, the FNV-1a checksum,
/// and the one envelope shared by every checksummed on-disk store in the
/// obs layer (`.iprec` campaign records, `.ipprop` propagation traces,
/// `.ipprof` cost profiles, `.ipsum` SOC summaries, `.ipses` session
/// manifests). Kept deliberately dumb: integers are packed byte by byte,
/// strings are u32 length + bytes, doubles travel as their IEEE-754 bit
/// pattern in a u64 so round trips are bit-exact (including NaNs and
/// signed zeros). The decoder never throws — it latches a failure flag
/// and returns zeros, and `count()` rejects container sizes that could
/// not possibly fit in the remaining bytes so a corrupt count fails
/// cleanly instead of allocating.
///
/// Every store is one envelope around its payload (all integers
/// little-endian):
///
///   offset  size  field
///   0       8     magic (per store kind)
///   8       4     version (u32, 1 .. the kind's current version)
///   12      8     payload length N (u64)
///   20      N     payload (the store's own serializePayload)
///   20+N    8     FNV-1a 64 checksum of the payload bytes
///
//===----------------------------------------------------------------------===//

#ifndef IPAS_OBS_BINCODEC_H
#define IPAS_OBS_BINCODEC_H

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace ipas {
namespace obs {

/// FNV-1a 64 offset basis of every store checksum, every `.ipses`
/// artifact checksum and every `ipas-db` session id. It is one digit
/// short of the published basis (14695981039346656037, which
/// analysis/FunctionSummary.cpp uses for content hashes) and is frozen
/// that way: every store and ledger history on disk depends on it, so
/// the two constants must never be merged or "fixed".
constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

/// FNV-1a over \p Data, continuing from the running hash \p H so a
/// stream can be hashed chunk by chunk.
inline uint64_t fnv1a(const char *Data, size_t Len, uint64_t H = FnvOffset) {
  for (size_t I = 0; I != Len; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= FnvPrime;
  }
  return H;
}

/// Appends little-endian fields to a byte string.
class Encoder {
public:
  explicit Encoder(std::string &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void f64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }

private:
  std::string &Out;
};

/// Reads little-endian fields from a byte buffer; latches failure on
/// truncation instead of throwing.
class Decoder {
public:
  Decoder(const char *Data, size_t Len) : Data(Data), Len(Len) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return Pos == Len; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(Data[Pos++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += 8;
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return std::string();
    std::string S(Data + Pos, N);
    Pos += N;
    return S;
  }
  /// A count that is about to size a container: reject values that could
  /// not possibly fit in the remaining bytes (at least one byte per
  /// element) so a corrupt count fails cleanly instead of allocating.
  uint64_t count(size_t MinElemSize) {
    uint64_t N = u64();
    if (ok() && MinElemSize > 0 && N > (Len - Pos) / MinElemSize)
      Failed = true;
    return Failed ? 0 : N;
  }

private:
  bool need(size_t N) {
    if (Failed || Len - Pos < N) {
      Failed = true;
      return false;
    }
    return true;
  }

  const char *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

/// One store kind's envelope parameters.
struct StoreEnvelope {
  const char *Magic; ///< Exactly 8 bytes (may end in NUL).
  uint32_t Version;  ///< Version written; the newest one readers accept.
  const char *Kind;  ///< Name in diagnostics ("record store", ...).
};

/// Replaces \p Out with a complete store image: the header, the payload
/// \p WritePayload appends, and the checksum footer.
void encodeEnvelope(const StoreEnvelope &Env, std::string &Out,
                    const std::function<void(Encoder &)> &WritePayload);

/// Checks the header, length and checksum of the store image \p Data,
/// then runs \p ReadPayload over the payload with the file's version.
/// The payload must decode without failure and with no bytes left over.
/// Returns false and sets \p Err on the first violation.
bool decodeEnvelope(
    const StoreEnvelope &Env, const std::string &Data, std::string *Err,
    const std::function<void(uint32_t Version, Decoder &)> &ReadPayload);

/// Reads the whole of \p Path into \p Out.
bool readFile(const std::string &Path, std::string &Out, std::string *Err);

/// Replaces \p Path with \p Bytes atomically: writes a fresh sibling
/// `<Path>.tmp.<pid>.<n>` (mode 0666 & ~umask) and renames it over
/// \p Path. On failure the temporary is removed and \p Path is left as
/// it was. An existing device or pipe at \p Path is written through
/// instead, since it cannot be replaced.
bool writeFileAtomic(const std::string &Path, const std::string &Bytes,
                     std::string *Err);

} // namespace obs
} // namespace ipas

#endif // IPAS_OBS_BINCODEC_H
