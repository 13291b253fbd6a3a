// What the server knows of one file's versions, and the one rule that
// changes it. Version numbers are per client (§5.1, §6.5): an ed script
// means something only against the base it names, so the server must
// know whose numbering its copy follows and see when it starts again.
#pragma once

#include <string>
#include <string_view>

#include "naming/file_id.hpp"
#include "util/result.hpp"

namespace shadow::server {

enum class ClaimSource : u8 {
  kNotify,   // NotifyNewVersion: the sender's newest version
  kSubmit,   // a SubmitJob's file reference (no size)
  kUpdate,   // an Update, rebuilt and verified
  kEvicted,  // a replayed kShadowEvicted record: the history restarted
};

/// "`client` holds `version` with `crc`", from connection `serial` (0 = a
/// replayed journal record, which never detects a restart: the journal
/// holds each one as a kShadowEvicted record before what follows it).
struct VersionClaim {
  static constexpr u64 kUnknownSize = ~u64{0};
  ClaimSource source = ClaimSource::kNotify;
  std::string_view client;
  u64 serial = 0;
  u64 version = 0;
  u32 crc = 0;
  u64 size = kUnknownSize;
  u64 cached_version = 0;  // kUpdate: the version the cache holds
};

enum class Verdict : u8 {
  kNewer,     // above every known version: recorded
  kSame,      // at or below the newest known, in the same numbering
  kStale,     // an Update older than the copy cached from its connection:
              // neither cache, journal nor ack it
  kMismatch,  // an Update of the newest version with another CRC than
              // announced: nack it, so the client resends full content
  kRestart,   // the numbering started again: forget the file's history
              // (the claim is then recorded as the newest version)
};

class FileState {
 public:
  FileState(naming::GlobalFileId file, std::string key)
      : id(std::move(file)), cache_key(std::move(key)) {}

  naming::GlobalFileId id;
  std::string cache_key;

  u64 latest_known() const { return latest_known_; }  // 0 = none
  const std::string& owner() const { return owner_; }  // serves pulls

  /// The one version rule; only it and decode() write the fields below.
  /// A live claim whose content differs from the newest known version is
  /// a restart when another client makes it (§6.5), or when the owner
  /// claims a version at or below the newest in a Notify (which always
  /// names the sender's newest) or on another connection than its last.
  Verdict observe(const VersionClaim& claim);

  /// Snapshot layout: key, id, newest version, size, CRC, owner.
  void encode(BufWriter& w) const;
  static Result<FileState> decode(BufReader& r);

 private:
  u64 latest_known_ = 0;
  u64 latest_size_ = 0;
  u32 latest_crc_ = 0;
  std::string owner_;
  u64 owner_serial_ = 0;  // the owner's last connection (runtime only)
};

}  // namespace shadow::server
