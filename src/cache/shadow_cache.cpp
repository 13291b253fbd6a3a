#include "cache/shadow_cache.hpp"

#include "telemetry/registry.hpp"

namespace shadow::cache {

namespace {
// Process-wide cache telemetry, summed over every ShadowCache instance
// (per-instance numbers stay in CacheStats). The invariant suite checks
// cache.lookups == cache.hits + cache.misses.
struct CacheMetrics {
  telemetry::Counter& lookups;
  telemetry::Counter& hits;
  telemetry::Counter& misses;
  telemetry::Counter& puts;
  telemetry::Counter& put_bytes;
  telemetry::Counter& evictions;
  telemetry::Counter& rejected;
  telemetry::Counter& digest_puts;
  telemetry::Histogram& entry_bytes;

  static CacheMetrics& get() {
    auto& r = telemetry::Registry::global();
    static CacheMetrics m{r.counter("cache.lookups"),
                          r.counter("cache.hits"),
                          r.counter("cache.misses"),
                          r.counter("cache.puts"),
                          r.counter("cache.put_bytes"),
                          r.counter("cache.evictions"),
                          r.counter("cache.rejected"),
                          r.counter("cache.digest_puts"),
                          r.histogram("cache.entry_bytes")};
    return m;
  }
};
}  // namespace

const char* eviction_policy_name(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kFifo: return "fifo";
    case EvictionPolicy::kLargestFirst: return "largest-first";
  }
  return "?";
}

ShadowCache::ShadowCache(u64 byte_budget, EvictionPolicy policy)
    : byte_budget_(byte_budget), policy_(policy) {}

std::unordered_map<std::string, CacheEntry>::iterator
ShadowCache::pick_victim(const std::string* keep) {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (keep != nullptr && it->first == *keep) continue;
    if (victim == entries_.end()) {
      victim = it;
      continue;
    }
    switch (policy_) {
      case EvictionPolicy::kLru:
        if (it->second.last_access < victim->second.last_access) victim = it;
        break;
      case EvictionPolicy::kFifo:
        if (it->second.inserted_at < victim->second.inserted_at) victim = it;
        break;
      case EvictionPolicy::kLargestFirst:
        // Ranked by what eviction actually frees: a digest entry for a
        // huge file charges only its signature, so it ranks small.
        if (it->second.charge() > victim->second.charge()) {
          victim = it;
        }
        break;
    }
  }
  return victim;
}

void ShadowCache::make_room(std::size_t incoming_size,
                            const std::string* keep) {
  if (byte_budget_ == 0) return;
  while (bytes_used_ + incoming_size > byte_budget_) {
    auto victim = pick_victim(keep);
    if (victim == entries_.end()) return;
    drop(victim);
    ++stats_.evictions;
    CacheMetrics::get().evictions.add();
  }
}

void ShadowCache::drop(
    std::unordered_map<std::string, CacheEntry>::iterator it) {
  bytes_used_ -= it->second.charge();
  auto node = entries_.extract(it);
  if (on_drop_) on_drop_(node.key());
}

Status ShadowCache::put(const std::string& key, u64 version,
                        std::string content, u32 crc) {
  ++stats_.puts;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.puts.add();
  metrics.put_bytes.add(content.size());
  metrics.entry_bytes.observe(content.size());
  ++tick_;
  if (byte_budget_ != 0 && content.size() > byte_budget_) {
    // The file alone exceeds the whole budget: refuse (best-effort).
    erase(key);
    ++stats_.rejected;
    metrics.rejected.add();
    return Error{ErrorCode::kResourceExhausted,
                 "content larger than cache budget"};
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.charge();
    make_room(content.size(), &key);
    it->second.kind = EntryKind::kContent;
    it->second.signature = cdc::Signature{};
    it->second.content = std::move(content);
    it->second.version = version;
    it->second.crc = crc;
    it->second.last_access = tick_;
    bytes_used_ += it->second.charge();
    return Status();
  }
  make_room(content.size());
  CacheEntry entry;
  entry.key = key;
  entry.version = version;
  entry.crc = crc;
  entry.last_access = tick_;
  entry.inserted_at = tick_;
  entry.content = std::move(content);
  bytes_used_ += entry.charge();
  entries_.emplace(key, std::move(entry));
  return Status();
}

Status ShadowCache::put_digest(const std::string& key, u64 version,
                               cdc::Signature signature, u32 crc) {
  ++stats_.puts;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.puts.add();
  metrics.digest_puts.add();
  const std::size_t charge =
      sizeof(cdc::ChunkerParams) +
      signature.chunks.size() * sizeof(cdc::ChunkDigest);
  metrics.put_bytes.add(charge);
  metrics.entry_bytes.observe(charge);
  ++tick_;
  if (byte_budget_ != 0 && charge > byte_budget_) {
    erase(key);
    ++stats_.rejected;
    metrics.rejected.add();
    return Error{ErrorCode::kResourceExhausted,
                 "signature larger than cache budget"};
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.charge();
    make_room(charge, &key);
    it->second.kind = EntryKind::kDigest;
    it->second.content.clear();
    it->second.content.shrink_to_fit();
    it->second.signature = std::move(signature);
    it->second.version = version;
    it->second.crc = crc;
    it->second.last_access = tick_;
    bytes_used_ += it->second.charge();
    return Status();
  }
  make_room(charge);
  CacheEntry entry;
  entry.key = key;
  entry.kind = EntryKind::kDigest;
  entry.signature = std::move(signature);
  entry.version = version;
  entry.crc = crc;
  entry.last_access = tick_;
  entry.inserted_at = tick_;
  bytes_used_ += entry.charge();
  entries_.emplace(key, std::move(entry));
  return Status();
}

Result<const CacheEntry*> ShadowCache::get(const std::string& key) {
  ++tick_;
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.lookups.add();
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    metrics.misses.add();
    return Error{ErrorCode::kCacheMiss, "not cached: " + key};
  }
  ++stats_.hits;
  metrics.hits.add();
  it->second.last_access = tick_;
  return &it->second;
}

std::optional<u64> ShadowCache::version_of(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.version;
}

const CacheEntry* ShadowCache::peek(const std::string& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

ShadowCache::DigestStats ShadowCache::digest_stats() const {
  DigestStats stats;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != EntryKind::kDigest) continue;
    ++stats.entries;
    stats.resident_bytes += entry.charge();
    stats.represented_bytes += entry.represented_bytes();
  }
  return stats;
}

void ShadowCache::erase(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  drop(it);
}

bool ShadowCache::evict_one() {
  auto victim = pick_victim();
  if (victim == entries_.end()) return false;
  drop(victim);
  ++stats_.evictions;
  CacheMetrics::get().evictions.add();
  return true;
}

void ShadowCache::clear() {
  entries_.clear();
  bytes_used_ = 0;
}

void ShadowCache::encode(BufWriter& out) const {
  out.put_varint(tick_);
  out.put_varint(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.put_string(key);
    out.put_varint(entry.version);
    out.put_u32(entry.crc);
    out.put_varint(entry.last_access);
    out.put_varint(entry.inserted_at);
    out.put_u8(static_cast<u8>(entry.kind));
    if (entry.kind == EntryKind::kDigest) {
      entry.signature.encode(out);
    } else {
      out.put_string(entry.content);
    }
  }
}

Status ShadowCache::restore(BufReader& in, bool with_kinds) {
  clear();
  SHADOW_ASSIGN_OR_RETURN(tick, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(count, in.get_varint());
  if (count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "entry count exceeds data"};
  }
  tick_ = tick;
  for (u64 i = 0; i < count; ++i) {
    CacheEntry entry;
    SHADOW_ASSIGN_OR_RETURN(key, in.get_string());
    SHADOW_ASSIGN_OR_RETURN(version, in.get_varint());
    SHADOW_ASSIGN_OR_RETURN(crc, in.get_u32());
    SHADOW_ASSIGN_OR_RETURN(last_access, in.get_varint());
    SHADOW_ASSIGN_OR_RETURN(inserted_at, in.get_varint());
    entry.key = key;
    entry.version = version;
    entry.crc = crc;
    entry.last_access = last_access;
    entry.inserted_at = inserted_at;
    u8 kind = static_cast<u8>(EntryKind::kContent);
    if (with_kinds) {
      SHADOW_ASSIGN_OR_RETURN(k, in.get_u8());
      kind = k;
    }
    if (kind > static_cast<u8>(EntryKind::kDigest)) {
      return Error{ErrorCode::kProtocolError, "bad cache entry kind"};
    }
    entry.kind = static_cast<EntryKind>(kind);
    if (entry.kind == EntryKind::kDigest) {
      SHADOW_ASSIGN_OR_RETURN(sig, cdc::Signature::decode(in));
      entry.signature = std::move(sig);
    } else {
      SHADOW_ASSIGN_OR_RETURN(content, in.get_string());
      entry.content = std::move(content);
    }
    bytes_used_ += entry.charge();
    entries_.emplace(std::move(key), std::move(entry));
  }
  make_room(0);  // trim if the snapshot exceeds the configured budget
  return Status();
}

void ShadowCache::set_byte_budget(u64 budget) {
  byte_budget_ = budget;
  make_room(0);
}

}  // namespace shadow::cache
