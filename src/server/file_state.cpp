#include "server/file_state.hpp"

namespace shadow::server {

Verdict FileState::observe(const VersionClaim& claim) {
  if (claim.source == ClaimSource::kEvicted) {
    latest_known_ = 0;
    return Verdict::kRestart;
  }
  const bool live = claim.serial != 0;
  const bool from_owner = owner_ == claim.client;
  const bool own_connection = from_owner && claim.serial == owner_serial_;
  const bool sizes_known = claim.size != VersionClaim::kUnknownSize &&
                           latest_size_ != VersionClaim::kUnknownSize;
  const bool differs = claim.crc != latest_crc_ ||
                       (sizes_known && claim.size != latest_size_);
  const bool restart =
      live && !owner_.empty() && differs &&
      (!from_owner ||
       (claim.version <= latest_known_ &&
        (claim.source == ClaimSource::kNotify || !own_connection)));
  if (restart) {
    latest_known_ = 0;
  } else if (live && own_connection && claim.source == ClaimSource::kUpdate) {
    if (claim.version < claim.cached_version) return Verdict::kStale;
    if (claim.version == latest_known_ && latest_crc_ != 0 &&
        claim.crc != latest_crc_) {
      // Once only: the recorded CRC may be the damaged half (a damaged
      // notify); the full resend is accepted on its own delta CRC.
      latest_crc_ = 0;
      return Verdict::kMismatch;
    }
  }
  const bool newer = claim.version > latest_known_;
  if (newer) {
    latest_known_ = claim.version;
    latest_size_ = claim.size;
    latest_crc_ = claim.crc;
  }
  // A job's file reference names a version the submitter holds, but only
  // a newer one makes it the file's owner.
  if (claim.source != ClaimSource::kSubmit || newer || owner_.empty()) {
    owner_ = claim.client;
  }
  if (live && owner_ == claim.client) owner_serial_ = claim.serial;
  return restart ? Verdict::kRestart : newer ? Verdict::kNewer : Verdict::kSame;
}

void FileState::encode(BufWriter& w) const {
  w.put_string(cache_key);
  id.encode(w);
  w.put_varint(latest_known_);
  w.put_varint(latest_size_);
  w.put_u32(latest_crc_);
  w.put_string(owner_);
}

Result<FileState> FileState::decode(BufReader& r) {
  SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
  SHADOW_ASSIGN_OR_RETURN(id, naming::GlobalFileId::decode(r));
  FileState state(std::move(id), std::move(key));
  SHADOW_ASSIGN_OR_RETURN(latest, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(size, r.get_varint());
  SHADOW_ASSIGN_OR_RETURN(crc, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(owner, r.get_string());
  state.latest_known_ = latest;
  state.latest_size_ = size;
  state.latest_crc_ = crc;
  state.owner_ = std::move(owner);
  return state;
}

}  // namespace shadow::server
