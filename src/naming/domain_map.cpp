#include "naming/domain_map.hpp"

namespace shadow::naming {

ShadowId DomainDirectory::intern(const GlobalFileId& id) {
  auto it = forward_.find(id.key());
  if (it != forward_.end()) return it->second;
  const ShadowId sid = next_++;
  forward_.emplace(id.key(), sid);
  display_.emplace(sid, id.display());
  return sid;
}

void DomainDirectory::bind(const GlobalFileId& id, ShadowId sid) {
  forward_[id.key()] = sid;
  display_[sid] = id.display();
  if (sid >= next_) next_ = sid + 1;
}

std::optional<ShadowId> DomainDirectory::lookup(
    const GlobalFileId& id) const {
  auto it = forward_.find(id.key());
  if (it == forward_.end()) return std::nullopt;
  return it->second;
}

std::string DomainDirectory::to_mapping_file() const {
  std::string out;
  for (const auto& [key, sid] : forward_) {
    out += std::to_string(sid) + " " + key;
    auto d = display_.find(sid);
    if (d != display_.end()) out += " " + d->second;
    out += "\n";
  }
  return out;
}

void DomainDirectory::encode(BufWriter& out) const {
  out.put_varint(next_);
  out.put_varint(forward_.size());
  for (const auto& [key, sid] : forward_) {
    out.put_string(key);
    out.put_varint(sid);
    auto d = display_.find(sid);
    out.put_string(d == display_.end() ? "" : d->second);
  }
}

Result<DomainDirectory> DomainDirectory::decode(BufReader& in) {
  DomainDirectory dir;
  SHADOW_ASSIGN_OR_RETURN(next, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(count, in.get_varint());
  if (count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "mapping count exceeds data"};
  }
  dir.next_ = next;
  for (u64 i = 0; i < count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(key, in.get_string());
    SHADOW_ASSIGN_OR_RETURN(sid, in.get_varint());
    SHADOW_ASSIGN_OR_RETURN(display, in.get_string());
    dir.forward_.emplace(std::move(key), sid);
    if (!display.empty()) dir.display_.emplace(sid, std::move(display));
  }
  return dir;
}

void DomainMap::encode(BufWriter& out) const {
  out.put_varint(domains_.size());
  for (const auto& [id, dir] : domains_) {
    out.put_string(id);
    dir.encode(out);
  }
}

Result<DomainMap> DomainMap::decode(BufReader& in) {
  DomainMap map;
  SHADOW_ASSIGN_OR_RETURN(count, in.get_varint());
  if (count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "domain count exceeds data"};
  }
  for (u64 i = 0; i < count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(id, in.get_string());
    SHADOW_ASSIGN_OR_RETURN(dir, DomainDirectory::decode(in));
    map.domains_.emplace(std::move(id), std::move(dir));
  }
  return map;
}

DomainDirectory& DomainMap::domain(const std::string& domain_id) {
  return domains_[domain_id];
}

const DomainDirectory* DomainMap::find(const std::string& domain_id) const {
  auto it = domains_.find(domain_id);
  return it == domains_.end() ? nullptr : &it->second;
}

namespace {
std::string make_cache_key(const std::string& domain, ShadowId sid) {
  return domain + "/" + std::to_string(sid);
}
}  // namespace

std::string DomainMap::cache_key(const GlobalFileId& id) {
  return make_cache_key(id.domain, domain(id.domain).intern(id));
}

std::optional<std::string> DomainMap::find_cache_key(
    const GlobalFileId& id) const {
  const DomainDirectory* dir = find(id.domain);
  if (dir == nullptr) return std::nullopt;
  const auto sid = dir->lookup(id);
  if (!sid) return std::nullopt;
  return make_cache_key(id.domain, *sid);
}

std::optional<ShadowId> DomainMap::parse_cache_key(const std::string& key) {
  const auto slash = key.rfind('/');
  if (slash == std::string::npos || slash + 1 >= key.size()) {
    return std::nullopt;
  }
  ShadowId sid = 0;
  for (std::size_t i = slash + 1; i < key.size(); ++i) {
    const char c = key[i];
    if (c < '0' || c > '9') return std::nullopt;
    if (sid > (~u64{0} - (c - '0')) / 10) return std::nullopt;  // overflow
    sid = sid * 10 + static_cast<u64>(c - '0');
  }
  return sid;
}

void DomainMap::bind(const GlobalFileId& id, ShadowId sid) {
  domain(id.domain).bind(id, sid);
}

}  // namespace shadow::naming
