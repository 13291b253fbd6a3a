// CRC-32 (IEEE 802.3 polynomial) used for content fingerprints and wire
// integrity checks. The paper's protocol must detect a stale or corrupted
// cached version before applying a delta to it; we use CRC32 of the file
// content as the cheap fingerprint.
//
// Kernel: slicing-by-8. Eight 256-entry tables (8 KiB, built at compile
// time) fold one 8-byte little-endian word per step with eight
// independent lookups, instead of eight dependent byte steps; a byte loop
// finishes the last len % 8 bytes. The values are bit-identical to the
// classic byte-at-a-time table loop, so the wire frames, journal records
// and CDC digests that carry them are unchanged. SSE4.2 `crc32` is not
// used: it computes CRC-32C (Castagnoli), a different polynomial.
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace shadow {

/// Incremental CRC-32 computation.
class Crc32 {
 public:
  /// Feed `len` bytes.
  void update(const u8* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }

  /// Finalized CRC value of everything fed so far.
  u32 value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  u32 state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte buffer.
u32 crc32(const Bytes& data);
u32 crc32(const u8* data, std::size_t len);

/// CRC-32 of the concatenation A||B given crc(A), crc(B) and |B| — the
/// zlib GF(2) matrix technique. Lets a digest-only peer compose per-chunk
/// CRCs into the whole-file fingerprint without ever holding the bytes
/// (the CDC codec's verified-apply path, docs/DELTAS.md).
u32 crc32_combine(u32 crc_a, u32 crc_b, u64 len_b);

}  // namespace shadow
