// The server's one record of pulls (demand-driven flow control, §5.2).
// A file has at most one entry:
//   - in flight: a PullRequest went out. The number of pulls in flight,
//     which max_outstanding_pulls caps, is the size of that map, so no
//     hand-kept counter can drift from the pulls it counts.
//   - wanted: put off by flow control (queued for the next free slot,
//     in cache-key order), or held for an owner with no connection until
//     its next Hello.
// Key order, not arrival order: under a full cap the same files keep
// winning freed slots and stay cached, where a round robin over every
// file thrashes an LRU cache into full transfers.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace shadow::server {

class PullTable {
 public:
  struct Flight {
    u64 version = 0;          // newest version asked
    std::string owner;        // the client asked
    bool need_bytes = false;  // a job needs the file's bytes
  };
  struct Want {
    std::string owner;
    bool need_bytes = false;
    bool held = false;  // waits for the owner's Hello, not for a slot
  };

  /// end(key, kCancel) forgets the file's pull, whatever it asked for.
  static constexpr u64 kCancel = ~u64{0};

  /// Pulls in flight: the slots taken.
  std::size_t in_flight() const { return flights_.size(); }
  /// The version the pull in flight for `key` asked for; 0 = none.
  u64 asked(const std::string& key) const;
  /// The wanted entry for `key`, or nullptr.
  const Want* wanted(const std::string& key) const;
  const std::map<std::string, Flight>& flights() const { return flights_; }
  const std::map<std::string, Want>& wants() const { return wants_; }
  /// Wanted keys not held: what a freed slot retries.
  const std::set<std::string>& retry_queue() const { return queued_; }
  /// Keys held for `owner`'s Hello (a copy: retrying one refiles it).
  std::vector<std::string> held_for(const std::string& owner) const;

  /// A PullRequest for `version` of `key` went to `owner`. It takes the
  /// file's one slot: a newer pull replaces the one in flight, and a
  /// wanted entry is used up.
  void begin(const std::string& key, const std::string& owner, u64 version,
             bool need_bytes);
  /// An Update for `version` of `key` arrived: the pull in flight ends if
  /// it asked for `version` or older. kCancel also drops a wanted entry.
  /// True when a slot was freed.
  bool end(const std::string& key, u64 version);
  /// The pull of `key` is put off: queued, or held for `owner`'s Hello. A
  /// need for bytes is kept; a pull in flight for the file is dropped.
  /// True when the pull was not wanted before.
  bool want(const std::string& key, const std::string& owner, bool need_bytes,
            bool held);
  /// The pulls in flight to `owner` were lost with its connection or
  /// session: each becomes wanted (held, when the owner is gone).
  void rearm_owner(const std::string& owner, bool held);

 private:
  void drop(const std::string& key);  // either kind of entry

  std::map<std::string, Flight> flights_;
  std::map<std::string, Want> wants_;
  std::set<std::string> queued_;  // wanted keys not held
  /// owner -> keys of the pulls in flight to it and held for it.
  std::map<std::string, std::set<std::string>> by_owner_;
};

}  // namespace shadow::server
