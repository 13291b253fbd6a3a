#include "diff/delta.hpp"

#include "diff/hunt_mcilroy.hpp"
#include "diff/myers.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"

namespace shadow::diff {

namespace {
// Diff-engine telemetry (docs/OBSERVABILITY.md). Resolved once; hot-path
// cost is a relaxed fetch_add per metric. The invariant suite checks
// diff.computes == diff.ed_deltas + diff.block_deltas + diff.full_fallbacks.
struct DiffMetrics {
  telemetry::Counter& computes;
  telemetry::Counter& lines_compared;
  telemetry::Counter& ed_deltas;
  telemetry::Counter& block_deltas;
  telemetry::Counter& full_fallbacks;  // computed delta >= full content
  telemetry::Counter& delta_bytes;     // wire bytes actually produced
  telemetry::Counter& full_file_bytes;  // what full transfers would cost
  telemetry::Counter& applies;
  telemetry::Counter& apply_failures;
  telemetry::Histogram& delta_wire_bytes;

  static DiffMetrics& get() {
    auto& r = telemetry::Registry::global();
    static DiffMetrics m{r.counter("diff.computes"),
                         r.counter("diff.lines_compared"),
                         r.counter("diff.ed_deltas"),
                         r.counter("diff.block_deltas"),
                         r.counter("diff.full_fallbacks"),
                         r.counter("diff.delta_bytes"),
                         r.counter("diff.full_file_bytes"),
                         r.counter("diff.applies"),
                         r.counter("diff.apply_failures"),
                         r.histogram("diff.delta_wire_bytes")};
    return m;
  }
};

// CDC-codec telemetry (docs/OBSERVABILITY.md, docs/DELTAS.md). The
// invariant suite checks two identities over this family:
//   cdc.computes == cdc.deltas + cdc.fallbacks
//   cdc.wire_bytes == cdc.copy_wire_bytes + cdc.literal_bytes
//                     + cdc.framing_bytes
struct CdcMetrics {
  telemetry::Counter& computes;
  telemetry::Counter& deltas;          // CDC deltas actually shipped
  telemetry::Counter& fallbacks;       // fell back to full content
  telemetry::Counter& chunks_matched;  // copy ops emitted
  telemetry::Counter& chunks_missed;   // literal ops emitted
  telemetry::Counter& copied_content_bytes;  // bytes NOT resent
  telemetry::Counter& literal_bytes;         // literal payload on the wire
  telemetry::Counter& copy_wire_bytes;       // encoded copy-op bodies
  telemetry::Counter& framing_bytes;         // headers, tags, prefixes
  telemetry::Counter& wire_bytes;            // encoded CDC delta bytes
  telemetry::Counter& applies;
  telemetry::Counter& apply_failures;

  static CdcMetrics& get() {
    auto& r = telemetry::Registry::global();
    static CdcMetrics m{r.counter("cdc.computes"),
                        r.counter("cdc.deltas"),
                        r.counter("cdc.fallbacks"),
                        r.counter("cdc.chunks_matched"),
                        r.counter("cdc.chunks_missed"),
                        r.counter("cdc.copied_content_bytes"),
                        r.counter("cdc.literal_bytes"),
                        r.counter("cdc.copy_wire_bytes"),
                        r.counter("cdc.framing_bytes"),
                        r.counter("cdc.wire_bytes"),
                        r.counter("cdc.applies"),
                        r.counter("cdc.apply_failures")};
    return m;
  }
};
}  // namespace

const char* algorithm_name(Algorithm algo) {
  switch (algo) {
    case Algorithm::kHuntMcIlroy: return "hunt-mcilroy";
    case Algorithm::kMyers: return "myers";
    case Algorithm::kBlockMove: return "block-move";
  }
  return "?";
}

Result<Algorithm> algorithm_from_name(const std::string& name) {
  if (name == "hunt-mcilroy" || name == "hm") return Algorithm::kHuntMcIlroy;
  if (name == "myers") return Algorithm::kMyers;
  if (name == "block-move" || name == "tichy") return Algorithm::kBlockMove;
  return Error{ErrorCode::kInvalidArgument,
               "unknown diff algorithm: " + name};
}

Delta Delta::make_full(std::string content) {
  Delta d;
  d.format = Format::kFull;
  d.full_crc = crc32(reinterpret_cast<const u8*>(content.data()),
                     content.size());
  d.full = std::move(content);
  return d;
}

Delta Delta::compute(std::string_view base, std::string_view target,
                     Algorithm algo) {
  DiffMetrics& metrics = DiffMetrics::get();
  metrics.computes.add();
  metrics.full_file_bytes.add(target.size());
  Delta d;
  switch (algo) {
    case Algorithm::kHuntMcIlroy:
    case Algorithm::kMyers: {
      // One LineTable per diff: the same tokenization feeds the LCS pass
      // and the ed-script builder (no re-splitting).
      LineTable table(base, target);
      metrics.lines_compared.add(table.old_lines().size() +
                                 table.new_lines().size());
      const MatchList matches = (algo == Algorithm::kHuntMcIlroy)
                                    ? hunt_mcilroy_lcs(table)
                                    : myers_lcs(table);
      d.format = Format::kEdScript;
      d.ed = build_ed_script(table, base, target, matches);
      break;
    }
    case Algorithm::kBlockMove: {
      d.format = Format::kBlockMove;
      d.blocks = compute_block_move(base, target);
      break;
    }
  }
  // Never ship a delta bigger than the content itself.
  const std::size_t wire = d.wire_size();
  if (wire >= target.size() + sizeof(u32)) {
    metrics.full_fallbacks.add();
    Delta full = make_full(std::string(target));
    const std::size_t full_wire = full.wire_size();
    metrics.delta_bytes.add(full_wire);
    metrics.delta_wire_bytes.observe(full_wire);
    return full;
  }
  (d.format == Format::kEdScript ? metrics.ed_deltas : metrics.block_deltas)
      .add();
  metrics.delta_bytes.add(wire);
  metrics.delta_wire_bytes.observe(wire);
  return d;
}

Delta Delta::compute_adaptive(std::string_view base,
                              std::string_view target) {
  Delta ed = compute(base, target, Algorithm::kHuntMcIlroy);
  Delta blocks = compute(base, target, Algorithm::kBlockMove);
  return blocks.wire_size() < ed.wire_size() ? blocks : ed;
}

Delta Delta::compute_cdc(const cdc::Signature& base_sig,
                         std::string_view target) {
  CdcMetrics& metrics = CdcMetrics::get();
  metrics.computes.add();
  Delta d;
  d.format = Format::kCdc;
  d.cdc = cdc::CdcDelta::compute(base_sig, target);
  // Never lose badly: a CDC delta may cost a hair more than the raw
  // content (an all-literal first transfer is the target plus ~5 bytes of
  // framing per chunk — worth it, because it seeds the server's digest
  // entry), but anything past ~6% overhead means the chunker degenerated
  // and full content is the honest choice.
  const std::size_t wire = d.wire_size();
  if (wire > target.size() + target.size() / 16 + 64) {
    metrics.fallbacks.add();
    return make_full(std::string(target));
  }
  metrics.deltas.add();
  std::size_t copies = 0;
  std::size_t literals = 0;
  std::size_t copy_wire = 0;
  u64 copied_content = 0;
  u64 literal_payload = 0;
  for (const cdc::CdcOp& op : d.cdc.ops) {
    if (op.kind == cdc::CdcOp::Kind::kCopy) {
      ++copies;
      copied_content += op.digest.length;
      // Encoded copy-op body: varint(length) + crc32 + fnv64.
      BufWriter body;
      body.put_varint(op.digest.length);
      copy_wire += body.size() + sizeof(u32) + sizeof(u64);
    } else {
      ++literals;
      literal_payload += op.literal.size();
    }
  }
  metrics.chunks_matched.add(copies);
  metrics.chunks_missed.add(literals);
  metrics.copied_content_bytes.add(copied_content);
  metrics.literal_bytes.add(literal_payload);
  metrics.copy_wire_bytes.add(copy_wire);
  metrics.framing_bytes.add(wire - copy_wire - literal_payload);
  metrics.wire_bytes.add(wire);
  return d;
}

Result<std::string> Delta::apply(const std::string& base) const {
  DiffMetrics& metrics = DiffMetrics::get();
  metrics.applies.add();
  auto applied = [&]() -> Result<std::string> {
    switch (format) {
      case Format::kFull: {
        // full_crc is set by make_full/decode; a default-constructed Delta
        // (crc 0 over empty content) also passes.
        const u32 actual = crc32(
            reinterpret_cast<const u8*>(full.data()), full.size());
        if (actual != full_crc) {
          return Error{ErrorCode::kVersionMismatch,
                       "full-content delta fails its CRC"};
        }
        return full;
      }
      case Format::kEdScript:
        return apply_ed_script(base, ed);
      case Format::kBlockMove:
        return apply_block_move(base, blocks);
      case Format::kCdc: {
        CdcMetrics& cdc_metrics = CdcMetrics::get();
        cdc_metrics.applies.add();
        auto result = cdc.apply(base);
        if (!result.ok()) cdc_metrics.apply_failures.add();
        return result;
      }
    }
    return Error{ErrorCode::kInternal, "corrupt delta format tag"};
  }();
  if (!applied.ok()) metrics.apply_failures.add();
  return applied;
}

u32 Delta::target_crc() const {
  switch (format) {
    case Format::kFull: return full_crc;
    case Format::kEdScript: return ed.new_crc;
    case Format::kBlockMove: return blocks.target_crc;
    case Format::kCdc: return cdc.target_crc;
  }
  return 0;
}

std::size_t Delta::wire_size() const {
  BufWriter w;
  encode(w);
  return w.size();
}

void Delta::encode(BufWriter& out) const {
  out.put_u8(static_cast<u8>(format));
  switch (format) {
    case Format::kFull:
      out.put_u32(full_crc);
      out.put_string(full);
      break;
    case Format::kEdScript:
      encode_ed_script(ed, out);
      break;
    case Format::kBlockMove:
      encode_block_move(blocks, out);
      break;
    case Format::kCdc:
      cdc.encode(out);
      break;
  }
}

Result<Delta> Delta::decode(BufReader& in) {
  Delta d;
  SHADOW_ASSIGN_OR_RETURN(tag, in.get_u8());
  if (tag > 3) {
    return Error{ErrorCode::kProtocolError, "bad delta format tag"};
  }
  d.format = static_cast<Format>(tag);
  switch (d.format) {
    case Format::kFull: {
      SHADOW_ASSIGN_OR_RETURN(crc, in.get_u32());
      SHADOW_ASSIGN_OR_RETURN(content, in.get_string());
      d.full_crc = crc;
      d.full = std::move(content);
      break;
    }
    case Format::kEdScript: {
      SHADOW_ASSIGN_OR_RETURN(script, decode_ed_script(in));
      d.ed = std::move(script);
      break;
    }
    case Format::kBlockMove: {
      SHADOW_ASSIGN_OR_RETURN(blocks, decode_block_move(in));
      d.blocks = std::move(blocks);
      break;
    }
    case Format::kCdc: {
      SHADOW_ASSIGN_OR_RETURN(chunks, cdc::CdcDelta::decode(in));
      d.cdc = std::move(chunks);
      break;
    }
  }
  return d;
}

}  // namespace shadow::diff
