// Server-side job bookkeeping: records every submitted job, its state
// machine, and the FIFO of jobs awaiting scheduling. The demand-driven
// scheduler in server/ decides WHEN to run; the queue only tracks WHAT.
//
// Finished records stay in the map, so nothing on a per-message path walks
// it. Four indexes answer the scheduler's questions instead: the active
// ids, the active jobs reading each input (by cache key), the jobs whose
// inputs are all resident (kept by the server, which owns residency) and
// each (connection serial, client token) for duplicate submits.
//
// State machine (proto::JobState):
//   kQueued -> kWaitingFiles -> kRunning -> kCompleted -> kDelivered
//                   |                          |
//                   +-----------> kFailed <----+
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "proto/messages.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace shadow::job {

struct JobRecord {
  u64 job_id = 0;
  std::string client_name;       // submitting client
  u64 client_job_token = 0;
  std::string command_file;
  std::vector<proto::JobFileRef> files;
  std::string output_name;
  std::string error_name;
  std::string output_route;      // client to deliver output to ("" = owner)
  // Serial of the connection that submitted this job (never reused by its
  // server; 0 = none, and not persisted). Duplicate-submit detection is
  // scoped to it: a resync resend arrives on the same connection, while a
  // restarted client — whose token counter starts over — arrives on a new
  // one and must get a fresh job.
  u64 submitted_via = 0;
  // Cache key of each entry of `files`, resolved once when the job enters
  // the queue and dropped when it leaves the active states (not
  // persisted: re-resolved after a restore).
  std::vector<std::string> input_keys;

  proto::JobState state = proto::JobState::kQueued;
  std::string detail;            // human-readable status line

  // Populated on completion:
  int exit_code = 0;
  std::string output_content;
  std::string error_content;
  u64 cpu_cost = 0;

  /// How many times this job was re-queued after a crash interrupted it
  /// mid-run. Persisted, so a job that keeps dying eventually fails for
  /// good instead of looping forever.
  u64 retries = 0;
};

/// Wire/journal codec for a full job record (everything except
/// submitted_via, which is connection-scoped and meaningless after a
/// restart, and input_keys, which the server re-resolves).
void encode_job_record(const JobRecord& job, BufWriter& out);
Result<JobRecord> decode_job_record(BufReader& in);

class JobQueue {
 public:
  /// Register a new job in kQueued state; returns its id. The caller
  /// fills `input_keys` (one per file) for the job to be indexed by input.
  u64 add(JobRecord record);

  Result<JobRecord*> find(u64 job_id);
  Result<const JobRecord*> find(u64 job_id) const;

  /// Status of every job submitted by `client_name` (paper §6.2: status
  /// with no id returns all pending jobs).
  std::vector<proto::JobStatusInfo> status_for_client(
      const std::string& client_name) const;

  /// Transition with validation; invalid transitions are internal errors
  /// (they indicate a server bug, not bad input).
  Status transition(u64 job_id, proto::JobState next,
                    const std::string& detail = "");

  /// Set a state without the transition check or its counters: journal
  /// replay and crash recovery restoring what already happened.
  void restore_state(u64 job_id, proto::JobState state,
                     const std::string& detail);

  std::size_t size() const { return jobs_.size(); }
  std::size_t active_count() const { return active_.size(); }

  /// Every job ever submitted (StatusQuery, output redelivery, snapshots
  /// and reports; never a per-message path).
  const std::map<u64, JobRecord>& all() const { return jobs_; }

  /// Ids of the queued, waiting and running jobs, oldest first.
  const std::set<u64>& active_ids() const { return active_; }

  /// Ids of the active jobs that read the file cached under `key`, oldest
  /// first; nullptr when there are none.
  const std::vector<u64>* readers_of(const std::string& key) const;

  /// Ids of the queued/waiting jobs whose inputs are all resident, oldest
  /// first. The server owns residency and keeps this set with
  /// set_ready(); a job leaves it when it starts or finishes.
  const std::set<u64>& ready_ids() const { return ready_; }
  bool is_ready(u64 job_id) const { return ready_.count(job_id) != 0; }
  void set_ready(u64 job_id, bool ready);

  /// The job `client` already submitted over connection `via` with this
  /// token and command file (a resend), or nullptr.
  JobRecord* find_resubmission(u64 via, const std::string& client, u64 token,
                               const std::string& command_file);
  /// Connection `via` is gone and nothing can resend over it: clear its
  /// jobs' submitted_via and drop them from the submission index.
  void forget_connection(u64 via);

  /// Resolve the input keys of every active record with `key_of` and
  /// rebuild the indexes (after a snapshot restore; ready_ starts empty).
  void reindex(const std::function<std::string(const proto::JobFileRef&)>&
                   key_of);

  /// Recompute every index from the job map; an error names the first
  /// index that disagrees.
  Status check_indexes() const;

  /// Put an interrupted job back on the queue (crash recovery): a job
  /// found kRunning after a restart never actually finished, so it runs
  /// again. Bumps the retry counter.
  Status requeue(u64 job_id, const std::string& detail);

  /// Snapshot codec: every record plus the id counter.
  void encode(BufWriter& out) const;
  static Result<JobQueue> restore(BufReader& in);

  /// Journal replay: re-insert a job if (and only if) it is not already
  /// present — records older than the snapshot replay as no-ops.
  void restore_record(JobRecord job);

 private:
  static bool valid_transition(proto::JobState from, proto::JobState to);
  /// Enter `job` into the indexes its state calls for.
  void index(const JobRecord& job);
  /// Move `job` (now in its new state) between the indexes after a state
  /// change from `from`.
  void reindex_state(JobRecord& job, proto::JobState from);
  void add_reader(const std::string& key, u64 id);

  std::map<u64, JobRecord> jobs_;
  u64 next_id_ = 1;

  std::set<u64> active_;
  std::unordered_map<std::string, std::vector<u64>> readers_;
  std::set<u64> ready_;
  std::multimap<std::pair<u64, u64>, u64> by_submission_;  // (via, token)
};

}  // namespace shadow::job
