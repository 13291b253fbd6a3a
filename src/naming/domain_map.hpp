// Server-side name mapping (paper §5.3/§6.5): the shadow server divides
// its name space into domains and keeps, per domain, a directory that maps
// each file identifier within the domain to the local name (shadow id) of
// the cached copy.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "naming/file_id.hpp"
#include "util/types.hpp"

namespace shadow::naming {

/// Identifier of a cached shadow file at the server site.
using ShadowId = u64;

/// Per-domain mapping directory.
class DomainDirectory {
 public:
  /// Shadow id for a file id, assigning a fresh one on first sight.
  ShadowId intern(const GlobalFileId& id);

  /// Existing mapping, if any.
  std::optional<ShadowId> lookup(const GlobalFileId& id) const;

  /// Restore a known (file id, shadow id) pair, e.g. when replaying a
  /// journal record that captured the assignment. Keeps next_ ahead of
  /// every bound id so later intern() calls never collide.
  void bind(const GlobalFileId& id, ShadowId sid);

  std::size_t size() const { return forward_.size(); }

  /// Serialize as the "mapping file" the paper describes (one line per
  /// entry: "<shadow-id> <file-key> <display-path>").
  std::string to_mapping_file() const;

  void encode(BufWriter& out) const;
  static Result<DomainDirectory> decode(BufReader& in);

 private:
  std::map<std::string, ShadowId> forward_;  // file key -> shadow id
  std::map<ShadowId, std::string> display_;  // shadow id -> display name
  ShadowId next_ = 1;
};

/// All domains known to one server.
class DomainMap {
 public:
  /// Directory for a domain, creating it on first use.
  DomainDirectory& domain(const std::string& domain_id);
  const DomainDirectory* find(const std::string& domain_id) const;

  /// Globally usable cache key: "<domain>/<shadow-id>". Interns the file
  /// on first sight.
  std::string cache_key(const GlobalFileId& id);
  /// Cache key of a file already interned, or nullopt (never interns).
  std::optional<std::string> find_cache_key(const GlobalFileId& id) const;
  /// The shadow id a cache key encodes, or nullopt for a malformed key.
  static std::optional<ShadowId> parse_cache_key(const std::string& key);

  /// Restore a mapping in the file's domain (journal replay).
  void bind(const GlobalFileId& id, ShadowId sid);

  std::size_t domain_count() const { return domains_.size(); }

  void encode(BufWriter& out) const;
  static Result<DomainMap> decode(BufReader& in);

 private:
  std::map<std::string, DomainDirectory> domains_;
};

}  // namespace shadow::naming
