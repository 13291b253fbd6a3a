#include "diff/line_table.hpp"

#include <bit>
#include <cstring>

#include "util/text.hpp"

namespace shadow::diff {

namespace {

// Word-at-a-time multiply-mix: each 8-byte word (the last one
// zero-padded) is xored in, multiplied by a 64-bit odd constant and
// rotated so its high bits reach the next product; a murmur3-style
// finalizer folds the high half into the low bits the probe mask keeps.
// The length seeds the state, so a zero-padded tail cannot alias a line
// that really ends in NUL bytes. Full comparison confirms every probe
// hit, so collision quality only affects speed, not correctness.
u64 line_hash(std::string_view line) {
  constexpr u64 kMul = 0x9E3779B97F4A7C15ULL;
  const char* p = line.data();
  std::size_t n = line.size();
  u64 h = static_cast<u64>(n) * kMul;
  for (; n >= 8; p += 8, n -= 8) {
    u64 w = 0;
    std::memcpy(&w, p, 8);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  if (n > 0) {
    u64 w = 0;
    std::memcpy(&w, p, n);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

// Smallest power of two >= n (and >= 16) — keeps the probe mask cheap.
std::size_t table_capacity(std::size_t n) {
  std::size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

LineTable::LineTable(std::string_view old_text, std::string_view new_text)
    : old_lines_(split_line_views(old_text)),
      new_lines_(split_line_views(new_text)) {
  // Worst case every line is distinct; doubling keeps the load factor
  // at most 0.5 so linear probes stay short and no rehash is ever needed.
  slots_.resize(
      table_capacity((old_lines_.size() + new_lines_.size()) * 2));
  intern_all(old_lines_, old_ids_);
  intern_all(new_lines_, new_ids_);
}

void LineTable::intern_all(const std::vector<std::string_view>& lines,
                           std::vector<u32>& ids) {
  ids.reserve(lines.size());
  for (std::string_view line : lines) ids.push_back(intern(line));
}

u32 LineTable::intern(std::string_view line) {
  const u64 h = line_hash(line);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.id_plus1 == 0) {
      slot.hash = h;
      slot.line = line;
      slot.id_plus1 = ++next_id_;
      return slot.id_plus1 - 1;
    }
    if (slot.hash == h && slot.line == line) return slot.id_plus1 - 1;
    i = (i + 1) & mask;
  }
}

}  // namespace shadow::diff
