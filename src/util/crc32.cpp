#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

namespace shadow {

namespace {

constexpr u32 kPoly = 0xEDB88320u;  // IEEE 802.3, reflected

// kTables[0] is the classic byte table. kTables[k][b] is the CRC state
// after feeding byte b followed by k zero bytes, so one 8-byte word is
// folded with eight independent lookups instead of eight dependent steps.
using SliceTables = std::array<std::array<u32, 256>, 8>;

constexpr SliceTables make_tables() {
  SliceTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (u32 i = 0; i < 256; ++i) {
      const u32 prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kTables = make_tables();

// Little-endian load: the reflected CRC consumes the lowest-addressed
// byte first, whatever the host byte order.
u32 load_le32(const u8* p) {
  u32 v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
        (v << 24);
  }
  return v;
}

}  // namespace

void Crc32::update(const u8* data, std::size_t len) {
  const auto& t = kTables;
  u32 crc = state_;
  while (len >= 8) {
    const u32 lo = load_le32(data) ^ crc;
    const u32 hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
    data += 8;
    len -= 8;
  }
  while (len-- > 0) crc = t[0][(crc ^ *data++) & 0xFFu] ^ (crc >> 8);
  state_ = crc;
}

u32 crc32(const u8* data, std::size_t len) {
  Crc32 c;
  c.update(data, len);
  return c.value();
}

u32 crc32(const Bytes& data) { return crc32(data.data(), data.size()); }

namespace {

// GF(2) 32x32 matrix operating on CRC state vectors. mat[i] is the image
// of the i-th basis vector; multiplying by the matrix advances a CRC as
// if some number of zero bytes were appended.
using CrcMatrix = std::array<u32, 32>;

u32 gf2_times_vec(const CrcMatrix& mat, u32 vec) {
  u32 sum = 0;
  for (int i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

CrcMatrix gf2_square(const CrcMatrix& mat) {
  CrcMatrix sq{};
  for (int i = 0; i < 32; ++i) sq[i] = gf2_times_vec(mat, mat[i]);
  return sq;
}

}  // namespace

u32 crc32_combine(u32 crc_a, u32 crc_b, u64 len_b) {
  if (len_b == 0) return crc_a;
  // Operator for one zero BIT: the CRC shift with the reflected polynomial
  // folded in when the low bit falls off.
  CrcMatrix odd{};
  odd[0] = kPoly;
  for (int i = 1; i < 32; ++i) odd[i] = 1u << (i - 1);
  // Squaring doubles the zero-length an operator appends.
  CrcMatrix even = gf2_square(odd);   // 2 bits
  odd = gf2_square(even);             // 4 bits
  even = gf2_square(odd);             // 8 bits = 1 byte
  // `even` now appends one zero byte; walk len_b's bits, squaring as we
  // go, so bit k of len_b applies the 2^k-zero-byte operator.
  u32 crc = crc_a;
  CrcMatrix* cur = &even;
  CrcMatrix* next = &odd;
  u64 len = len_b;
  while (true) {
    if (len & 1u) crc = gf2_times_vec(*cur, crc);
    len >>= 1;
    if (len == 0) break;
    *next = gf2_square(*cur);
    std::swap(cur, next);
  }
  return crc ^ crc_b;
}

}  // namespace shadow
