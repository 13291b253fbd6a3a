#include "server/pull_table.hpp"

#include <algorithm>

namespace shadow::server {

u64 PullTable::asked(const std::string& key) const {
  auto it = flights_.find(key);
  return it == flights_.end() ? 0 : it->second.version;
}

const PullTable::Want* PullTable::wanted(const std::string& key) const {
  auto it = wants_.find(key);
  return it == wants_.end() ? nullptr : &it->second;
}

std::vector<std::string> PullTable::held_for(const std::string& owner) const {
  std::vector<std::string> held;
  if (auto keys = by_owner_.find(owner); keys != by_owner_.end()) {
    for (const auto& key : keys->second) {
      if (wants_.count(key) != 0) held.push_back(key);
    }
  }
  return held;
}

void PullTable::begin(const std::string& key, const std::string& owner,
                      u64 version, bool need_bytes) {
  if (auto old = flights_.find(key); old != flights_.end()) {
    version = std::max(version, old->second.version);
    need_bytes = need_bytes || old->second.need_bytes;
  }
  drop(key);
  flights_[key] = Flight{version, owner, need_bytes};
  by_owner_[owner].insert(key);
}

bool PullTable::end(const std::string& key, u64 version) {
  const u64 in_flight = asked(key);
  const bool answered = in_flight != 0 && version >= in_flight;
  if (answered || version == kCancel) drop(key);
  return answered;
}

bool PullTable::want(const std::string& key, const std::string& owner,
                     bool need_bytes, bool held) {
  const Want* before = wanted(key);
  const bool fresh = before == nullptr;
  if (!fresh) need_bytes = need_bytes || before->need_bytes;
  drop(key);
  wants_[key] = Want{owner, need_bytes, held};
  if (held) {
    by_owner_[owner].insert(key);
  } else {
    queued_.insert(key);
  }
  return fresh;
}

void PullTable::rearm_owner(const std::string& owner, bool held) {
  auto keys = by_owner_.find(owner);
  if (keys == by_owner_.end()) return;
  const std::set<std::string> bound = keys->second;  // want() edits it
  for (const auto& key : bound) {
    auto flight = flights_.find(key);
    if (flight != flights_.end()) {
      want(key, owner, flight->second.need_bytes, held);
    }
  }
}

void PullTable::drop(const std::string& key) {
  std::string owner;  // whose by_owner_ list names the key, if any
  if (auto flight = flights_.find(key); flight != flights_.end()) {
    owner = flight->second.owner;
    flights_.erase(flight);
  } else if (auto want = wants_.find(key); want != wants_.end()) {
    if (want->second.held) owner = want->second.owner;
    queued_.erase(key);
    wants_.erase(want);
  }
  if (auto keys = by_owner_.find(owner); keys != by_owner_.end()) {
    keys->second.erase(key);
    if (keys->second.empty()) by_owner_.erase(keys);
  }
}

}  // namespace shadow::server
