// Line interning for the line-based diff algorithms.
//
// Both files are tokenized into lines (util/text.hpp conventions) and each
// distinct line is assigned a dense integer id, so the LCS algorithms
// compare ints instead of strings.
//
// Zero-copy: tokenization produces string_views into the caller's buffers
// and interning hashes those views directly — file content is never copied.
// The interner hashes eight bytes per step (line_table.cpp); ids are dense
// in first-seen order, so the hash function never changes an LCS or an
// ed script, only how fast the table is built.
// LIFETIME CONTRACT: the old/new text buffers passed to the constructor
// must outlive the LineTable and any string_view obtained from old_lines()
// / new_lines(). Ed-script construction materializes owning strings only at
// hunk-emission time (see build_ed_script).
#pragma once

#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace shadow::diff {

/// Two files tokenized against one shared symbol table.
class LineTable {
 public:
  LineTable(std::string_view old_text, std::string_view new_text);

  /// Views into the constructor's buffers (see lifetime contract above).
  const std::vector<std::string_view>& old_lines() const {
    return old_lines_;
  }
  const std::vector<std::string_view>& new_lines() const {
    return new_lines_;
  }

  /// Symbol ids, parallel to old_lines()/new_lines().
  const std::vector<u32>& old_ids() const { return old_ids_; }
  const std::vector<u32>& new_ids() const { return new_ids_; }

  std::size_t symbol_count() const { return next_id_; }

 private:
  // Open-addressing interner slot: linear probing over a power-of-two
  // table, sized once in the constructor for the worst case (every line
  // distinct), so interning never rehashes. `id_plus1 == 0` marks empty;
  // the precomputed hash short-circuits most probe comparisons.
  struct Slot {
    u64 hash = 0;
    u32 id_plus1 = 0;
    std::string_view line;
  };

  u32 intern(std::string_view line);
  void intern_all(const std::vector<std::string_view>& lines,
                  std::vector<u32>& ids);

  std::vector<Slot> slots_;  // size is a power of two
  u32 next_id_ = 0;
  std::vector<std::string_view> old_lines_;
  std::vector<std::string_view> new_lines_;
  std::vector<u32> old_ids_;
  std::vector<u32> new_ids_;
};

}  // namespace shadow::diff
