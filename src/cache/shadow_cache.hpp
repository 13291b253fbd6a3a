// Server-side shadow file cache (paper §5.1).
//
// "Caching is a best effort storage system": entries may be evicted at any
// time under the disk-space budget, and the protocol survives — the server
// just asks for a full file instead of a delta. The remote host decides
// how much disk to devote and which files to remove first; we expose the
// budget and three eviction policies so the ablation bench can compare
// them.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "cdc/signature.hpp"
#include "util/byte_io.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::cache {

enum class EvictionPolicy : u8 {
  kLru = 0,           // least recently used first
  kFifo = 1,          // oldest insertion first
  kLargestFirst = 2,  // biggest file first (frees space fastest)
};

const char* eviction_policy_name(EvictionPolicy policy);

/// How a cached version is held. A digest entry is the CDC codec's
/// memory model (docs/DELTAS.md): the server keeps only the version's
/// chunk-digest signature — O(digests) resident, not O(bytes) — and
/// advances it from CDC deltas without ever materializing the file.
enum class EntryKind : u8 {
  kContent = 0,  // full bytes resident
  kDigest = 1,   // chunk-digest signature only
};

struct CacheEntry {
  std::string key;      // cache key ("<domain>/<shadow-id>")
  std::string content;  // kContent: cached file content (else empty)
  u64 version = 0;      // client version number this entry equals
  u32 crc = 0;          // fingerprint of the version's content
  u64 last_access = 0;  // logical tick of last get/put
  u64 inserted_at = 0;  // logical tick of first insertion
  EntryKind kind = EntryKind::kContent;
  cdc::Signature signature;  // kDigest: the version's chunk digests

  /// Bytes this entry charges against the cache budget.
  std::size_t charge() const {
    return kind == EntryKind::kDigest ? signature.digest_bytes()
                                      : content.size();
  }
  /// Content bytes the entry REPRESENTS (= charge() for kContent; the
  /// described file size for kDigest).
  u64 represented_bytes() const {
    return kind == EntryKind::kDigest ? signature.total_bytes()
                                      : content.size();
  }
  bool has_bytes() const { return kind == EntryKind::kContent; }
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 puts = 0;
  u64 evictions = 0;
  u64 rejected = 0;  // puts refused because the item alone exceeds budget

  double hit_rate() const {
    const u64 total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ShadowCache {
 public:
  /// `byte_budget` caps total cached content bytes; 0 means unlimited.
  explicit ShadowCache(u64 byte_budget = 0,
                       EvictionPolicy policy = EvictionPolicy::kLru);

  /// Insert or replace. Evicts other entries as needed; if the content
  /// alone exceeds the budget the put is refused (best-effort: the file
  /// simply is not cached) and kResourceExhausted is returned.
  Status put(const std::string& key, u64 version, std::string content,
             u32 crc);

  /// Insert or replace with a digest-only entry: the cache charges
  /// signature.digest_bytes() (not the file size) against the budget.
  /// `crc` is the whole-file fingerprint of the described content.
  Status put_digest(const std::string& key, u64 version,
                    cdc::Signature signature, u32 crc);

  /// Look up; counts a hit/miss and refreshes recency.
  Result<const CacheEntry*> get(const std::string& key);

  /// Version held for a key without touching recency (used when deciding
  /// which base version to request from a client).
  std::optional<u64> version_of(const std::string& key) const;
  /// Entry lookup without stats or recency side effects (nullptr when
  /// absent) — for flow-control decisions that are not real accesses.
  const CacheEntry* peek(const std::string& key) const;
  bool contains(const std::string& key) const {
    return entries_.count(key) != 0;
  }

  void erase(const std::string& key);
  /// Evict a specific entry as if under pressure (failure injection).
  bool evict_one();
  void clear();

  /// Called with the key of every entry that leaves the cache other than
  /// by clear(): evicted to make room, evict_one(), erase(), or a refused
  /// put. The owner keeps what it derives from residency current with it.
  using DropFn = std::function<void(const std::string& key)>;
  void set_drop_listener(DropFn fn) { on_drop_ = std::move(fn); }

  u64 bytes_used() const { return bytes_used_; }
  u64 byte_budget() const { return byte_budget_; }

  /// Digest-entry accounting for telemetry and the CDC ablation: how many
  /// entries are digest-only, what they cost resident, and how many
  /// content bytes they stand in for (the O(bytes) a content cache would
  /// have spent).
  struct DigestStats {
    u64 entries = 0;
    u64 resident_bytes = 0;     // signature bytes charged to the budget
    u64 represented_bytes = 0;  // file bytes the signatures describe
  };
  DigestStats digest_stats() const;
  void set_byte_budget(u64 budget);
  std::size_t entry_count() const { return entries_.size(); }
  EvictionPolicy policy() const { return policy_; }
  const CacheStats& stats() const { return stats_; }

  /// Checkpoint the cached CONTENT (entries + recency clock; statistics
  /// and configuration are not part of the snapshot).
  void encode(BufWriter& out) const;
  /// Restore entries into this cache (replacing current content); the
  /// budget/policy stay as configured, and an over-budget snapshot is
  /// trimmed by the usual eviction. `with_kinds` is false when reading a
  /// pre-CDC snapshot (server snapshot v3 and earlier): every entry is
  /// then a content entry with no kind byte.
  Status restore(BufReader& in, bool with_kinds = true);

 private:
  /// Pick the victim according to the policy, never `keep`; returns
  /// entries_.end() when there is none.
  std::unordered_map<std::string, CacheEntry>::iterator pick_victim(
      const std::string* keep = nullptr);
  /// Evict until `incoming_size` more bytes fit. `keep` is the entry a
  /// put is replacing (its charge already released): it must survive.
  void make_room(std::size_t incoming_size, const std::string* keep = nullptr);
  /// Remove one entry and tell the drop listener.
  void drop(std::unordered_map<std::string, CacheEntry>::iterator it);

  std::unordered_map<std::string, CacheEntry> entries_;
  u64 byte_budget_;
  u64 bytes_used_ = 0;
  u64 tick_ = 0;
  EvictionPolicy policy_;
  CacheStats stats_;
  DropFn on_drop_;
};

}  // namespace shadow::cache
