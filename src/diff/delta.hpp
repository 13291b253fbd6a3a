// Unified delta representation carried by the wire protocol.
//
// A Delta is what the client ships when the server pulls an update: either
// an ed script (the paper's format), a Tichy block-move delta, or a full
// copy of the content (first submission, or fallback after the server's
// cached base was evicted — the "best effort" path of §5.1).
#pragma once

#include <string>
#include <string_view>

#include "cdc/cdc_delta.hpp"
#include "diff/block_move.hpp"
#include "diff/edit_script.hpp"
#include "util/byte_io.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::diff {

/// Which diff algorithm produces the delta payload.
enum class Algorithm : u8 {
  kHuntMcIlroy = 0,  // HM75, the prototype's algorithm
  kMyers = 1,        // Miller–Myers future-work alternative
  kBlockMove = 2,    // Tichy future-work alternative
};

const char* algorithm_name(Algorithm algo);
Result<Algorithm> algorithm_from_name(const std::string& name);

struct Delta {
  enum class Format : u8 {
    kFull = 0,
    kEdScript = 1,
    kBlockMove = 2,
    kCdc = 3,  // content-defined-chunking delta (docs/DELTAS.md)
  };

  Format format = Format::kFull;
  std::string full;          // kFull: complete target content
  u32 full_crc = 0;          // kFull: fingerprint of `full` (fail closed)
  EditScript ed;             // kEdScript
  BlockMoveDelta blocks;     // kBlockMove
  cdc::CdcDelta cdc;         // kCdc

  /// Construct a full-content delta (no base needed to apply).
  static Delta make_full(std::string content);

  /// Compute a delta of `target` against `base` with the given algorithm.
  /// Falls back to kFull when the delta would be larger than the content
  /// itself (shadow must never lose badly — DESIGN.md invariant 5).
  /// Zero-copy on the compute path: both buffers are only read through
  /// views until hunk text / full content is materialized for the result.
  static Delta compute(std::string_view base, std::string_view target,
                       Algorithm algo);

  /// Adaptive selection (the paper's §3 adaptability objective, §8.3
  /// algorithm study): compute both the line-oriented ed script and the
  /// byte-oriented block-move delta and ship whichever encodes smaller.
  /// Costs roughly the CPU of both algorithms; wins on restructured files
  /// and binary-ish content, ties on ordinary edits.
  static Delta compute_adaptive(std::string_view base,
                                std::string_view target);

  /// Compute a CDC delta of `target` against the base's chunk-digest
  /// signature — the base CONTENT is not needed, so the sender can
  /// reconcile against a digest-only peer. Falls back to kFull when the
  /// chunk delta would not beat shipping the content (same never-lose
  /// invariant as compute()).
  static Delta compute_cdc(const cdc::Signature& base_sig,
                           std::string_view target);

  /// Reconstruct the target. `base` is ignored for kFull.
  Result<std::string> apply(const std::string& base) const;

  /// CRC-32 of the content apply() reconstructs. A successful apply() has
  /// already checked its result against this value, so the caller can use
  /// it as the content's fingerprint instead of hashing the bytes again.
  u32 target_crc() const;

  /// True when applying requires the base content. An all-literal CDC
  /// delta (first transfer) applies against anything, including no base.
  bool needs_base() const {
    return format == Format::kCdc ? cdc.has_copies()
                                  : format != Format::kFull;
  }

  /// Encoded size in bytes — the transfer cost the figures measure.
  std::size_t wire_size() const;

  void encode(BufWriter& out) const;
  static Result<Delta> decode(BufReader& in);

  bool operator==(const Delta&) const = default;
};

}  // namespace shadow::diff
