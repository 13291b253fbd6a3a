#include "job/queue.hpp"

#include <algorithm>

#include "telemetry/registry.hpp"

namespace shadow::job {

namespace {
bool is_active(proto::JobState state) {
  return state == proto::JobState::kQueued ||
         state == proto::JobState::kWaitingFiles ||
         state == proto::JobState::kRunning;
}

// Job-queue telemetry summed over every JobQueue instance. Terminal-state
// counters (completions/failures/deliveries) fire on the transition INTO
// the state, so job.transitions >= completions + failures + deliveries.
struct JobMetrics {
  telemetry::Counter& submits;
  telemetry::Counter& transitions;
  telemetry::Counter& invalid_transitions;
  telemetry::Counter& completions;
  telemetry::Counter& failures;
  telemetry::Counter& deliveries;
  telemetry::Counter& requeues;
  telemetry::Counter& restored;

  static JobMetrics& get() {
    auto& r = telemetry::Registry::global();
    static JobMetrics m{r.counter("job.submits"),
                        r.counter("job.transitions"),
                        r.counter("job.invalid_transitions"),
                        r.counter("job.completions"),
                        r.counter("job.failures"),
                        r.counter("job.deliveries"),
                        r.counter("job.requeues"),
                        r.counter("job.restored")};
    return m;
  }
};
}  // namespace

void encode_job_record(const JobRecord& job, BufWriter& out) {
  out.put_varint(job.job_id);
  out.put_string(job.client_name);
  out.put_varint(job.client_job_token);
  out.put_string(job.command_file);
  out.put_varint(job.files.size());
  for (const auto& ref : job.files) {
    ref.file.encode(out);
    out.put_string(ref.local_name);
    out.put_varint(ref.version);
    out.put_u32(ref.crc);
  }
  out.put_string(job.output_name);
  out.put_string(job.error_name);
  out.put_string(job.output_route);
  out.put_u8(static_cast<u8>(job.state));
  out.put_string(job.detail);
  out.put_varint_signed(job.exit_code);
  out.put_string(job.output_content);
  out.put_string(job.error_content);
  out.put_varint(job.cpu_cost);
  out.put_varint(job.retries);
}

Result<JobRecord> decode_job_record(BufReader& in) {
  JobRecord job;
  SHADOW_ASSIGN_OR_RETURN(job_id, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(client_name, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(token, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(command_file, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(file_count, in.get_varint());
  if (file_count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "job file count exceeds data"};
  }
  job.job_id = job_id;
  job.client_name = std::move(client_name);
  job.client_job_token = token;
  job.command_file = std::move(command_file);
  for (u64 i = 0; i < file_count; ++i) {
    proto::JobFileRef ref;
    SHADOW_ASSIGN_OR_RETURN(file, naming::GlobalFileId::decode(in));
    SHADOW_ASSIGN_OR_RETURN(local_name, in.get_string());
    SHADOW_ASSIGN_OR_RETURN(version, in.get_varint());
    SHADOW_ASSIGN_OR_RETURN(crc, in.get_u32());
    ref.file = std::move(file);
    ref.local_name = std::move(local_name);
    ref.version = version;
    ref.crc = crc;
    job.files.push_back(std::move(ref));
  }
  SHADOW_ASSIGN_OR_RETURN(output_name, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(error_name, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(output_route, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(state_raw, in.get_u8());
  if (state_raw > static_cast<u8>(proto::JobState::kDelivered)) {
    return Error{ErrorCode::kProtocolError,
                 "bad job state: " + std::to_string(state_raw)};
  }
  SHADOW_ASSIGN_OR_RETURN(detail, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(exit_code, in.get_varint_signed());
  SHADOW_ASSIGN_OR_RETURN(output_content, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(error_content, in.get_string());
  SHADOW_ASSIGN_OR_RETURN(cpu_cost, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(retries, in.get_varint());
  job.output_name = std::move(output_name);
  job.error_name = std::move(error_name);
  job.output_route = std::move(output_route);
  job.state = static_cast<proto::JobState>(state_raw);
  job.detail = std::move(detail);
  job.exit_code = static_cast<int>(exit_code);
  job.output_content = std::move(output_content);
  job.error_content = std::move(error_content);
  job.cpu_cost = cpu_cost;
  job.retries = retries;
  return job;
}

void JobQueue::index(const JobRecord& job) {
  const u64 id = job.job_id;
  if (job.submitted_via != 0) {
    by_submission_.emplace(std::make_pair(job.submitted_via,
                                          job.client_job_token),
                           id);
  }
  if (!is_active(job.state)) return;
  active_.insert(id);
  for (const auto& key : job.input_keys) add_reader(key, id);
}

void JobQueue::add_reader(const std::string& key, u64 id) {
  auto& ids = readers_[key];
  auto at = std::lower_bound(ids.begin(), ids.end(), id);
  if (at == ids.end() || *at != id) ids.insert(at, id);
}

void JobQueue::reindex_state(JobRecord& job, proto::JobState from) {
  const u64 id = job.job_id;
  if (job.state != proto::JobState::kQueued &&
      job.state != proto::JobState::kWaitingFiles) {
    ready_.erase(id);
  }
  if (is_active(from) == is_active(job.state)) return;
  if (is_active(job.state)) {
    active_.insert(id);
    for (const auto& key : job.input_keys) add_reader(key, id);
    return;
  }
  active_.erase(id);
  for (const auto& key : job.input_keys) {
    auto it = readers_.find(key);
    if (it == readers_.end()) continue;
    auto& ids = it->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) readers_.erase(it);
  }
  // Only scheduling reads the keys; a finished record keeps none.
  job.input_keys = {};
}

u64 JobQueue::add(JobRecord record) {
  record.job_id = next_id_++;
  record.state = proto::JobState::kQueued;
  const u64 id = record.job_id;
  index(jobs_.emplace(id, std::move(record)).first->second);
  JobMetrics::get().submits.add();
  return id;
}

const std::vector<u64>* JobQueue::readers_of(const std::string& key) const {
  auto it = readers_.find(key);
  return it == readers_.end() ? nullptr : &it->second;
}

void JobQueue::set_ready(u64 job_id, bool ready) {
  if (ready) {
    ready_.insert(job_id);
  } else {
    ready_.erase(job_id);
  }
}

void JobQueue::forget_connection(u64 via) {
  auto begin = by_submission_.lower_bound({via, 0});
  auto end = by_submission_.upper_bound({via, ~u64{0}});
  for (auto it = begin; it != end; ++it) jobs_.at(it->second).submitted_via = 0;
  by_submission_.erase(begin, end);
}

JobRecord* JobQueue::find_resubmission(u64 via, const std::string& client,
                                       u64 token,
                                       const std::string& command_file) {
  if (via == 0) return nullptr;
  auto [begin, end] = by_submission_.equal_range({via, token});
  for (auto it = begin; it != end; ++it) {
    JobRecord& job = jobs_.at(it->second);
    if (job.client_name == client && job.command_file == command_file) {
      return &job;
    }
  }
  return nullptr;
}

void JobQueue::reindex(
    const std::function<std::string(const proto::JobFileRef&)>& key_of) {
  active_.clear();
  readers_.clear();
  ready_.clear();
  by_submission_.clear();
  for (auto& [id, job] : jobs_) {
    job.input_keys.clear();
    if (is_active(job.state)) {
      for (const auto& ref : job.files) job.input_keys.push_back(key_of(ref));
    }
    index(job);
  }
}

Status JobQueue::check_indexes() const {
  JobQueue fresh;
  for (const auto& [id, job] : jobs_) fresh.index(job);
  if (fresh.active_ != active_) {
    return Error{ErrorCode::kInternal, "active ids differ from the job map"};
  }
  if (fresh.readers_ != readers_) {
    return Error{ErrorCode::kInternal, "input readers differ from the job map"};
  }
  if (fresh.by_submission_ != by_submission_) {
    return Error{ErrorCode::kInternal,
                 "submission index differs from the job map"};
  }
  for (const u64 id : ready_) {
    auto it = jobs_.find(id);
    if (it == jobs_.end() ||
        (it->second.state != proto::JobState::kQueued &&
         it->second.state != proto::JobState::kWaitingFiles)) {
      return Error{ErrorCode::kInternal,
                   "ready job " + std::to_string(id) + " is not waiting"};
    }
  }
  return Status();
}

Result<JobRecord*> JobQueue::find(u64 job_id) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no such job: " + std::to_string(job_id)};
  }
  return &it->second;
}

Result<const JobRecord*> JobQueue::find(u64 job_id) const {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Error{ErrorCode::kNotFound,
                 "no such job: " + std::to_string(job_id)};
  }
  return static_cast<const JobRecord*>(&it->second);
}

std::vector<proto::JobStatusInfo> JobQueue::status_for_client(
    const std::string& client_name) const {
  std::vector<proto::JobStatusInfo> out;
  for (const auto& [id, job] : jobs_) {
    if (job.client_name != client_name) continue;
    proto::JobStatusInfo info;
    info.job_id = id;
    info.client_job_token = job.client_job_token;
    info.state = job.state;
    info.detail = job.detail;
    out.push_back(std::move(info));
  }
  return out;
}

bool JobQueue::valid_transition(proto::JobState from, proto::JobState to) {
  using S = proto::JobState;
  switch (from) {
    case S::kQueued:
      return to == S::kWaitingFiles || to == S::kRunning || to == S::kFailed;
    case S::kWaitingFiles:
      return to == S::kRunning || to == S::kFailed || to == S::kWaitingFiles;
    case S::kRunning:
      return to == S::kCompleted || to == S::kFailed;
    case S::kCompleted:
      return to == S::kDelivered || to == S::kFailed;
    case S::kFailed:
      return to == S::kDelivered;  // failure reports are delivered too
    case S::kDelivered:
      return false;
  }
  return false;
}

Status JobQueue::transition(u64 job_id, proto::JobState next,
                            const std::string& detail) {
  SHADOW_ASSIGN_OR_RETURN(record, find(job_id));
  JobMetrics& metrics = JobMetrics::get();
  if (!valid_transition(record->state, next)) {
    metrics.invalid_transitions.add();
    return Error{ErrorCode::kInternal,
                 std::string("invalid job transition ") +
                     proto::job_state_name(record->state) + " -> " +
                     proto::job_state_name(next)};
  }
  const proto::JobState from = record->state;
  record->state = next;
  reindex_state(*record, from);
  metrics.transitions.add();
  if (next == proto::JobState::kCompleted) metrics.completions.add();
  if (next == proto::JobState::kFailed) metrics.failures.add();
  if (next == proto::JobState::kDelivered) metrics.deliveries.add();
  if (!detail.empty()) record->detail = detail;
  return Status();
}

void JobQueue::restore_state(u64 job_id, proto::JobState state,
                             const std::string& detail) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  const proto::JobState from = it->second.state;
  it->second.state = state;
  it->second.detail = detail;
  reindex_state(it->second, from);
}

Status JobQueue::requeue(u64 job_id, const std::string& detail) {
  SHADOW_ASSIGN_OR_RETURN(record, find(job_id));
  // kRunning -> kQueued is deliberately absent from valid_transition —
  // in live operation it IS a bug. Crash recovery is the one legal path.
  if (record->state != proto::JobState::kRunning) {
    return Error{ErrorCode::kInternal,
                 std::string("requeue of job in state ") +
                     proto::job_state_name(record->state)};
  }
  record->state = proto::JobState::kQueued;
  reindex_state(*record, proto::JobState::kRunning);
  record->retries += 1;
  JobMetrics::get().requeues.add();
  if (!detail.empty()) record->detail = detail;
  return Status();
}

void JobQueue::encode(BufWriter& out) const {
  out.put_varint(next_id_);
  out.put_varint(jobs_.size());
  for (const auto& [id, job] : jobs_) encode_job_record(job, out);
}

Result<JobQueue> JobQueue::restore(BufReader& in) {
  JobQueue queue;
  SHADOW_ASSIGN_OR_RETURN(next_id, in.get_varint());
  SHADOW_ASSIGN_OR_RETURN(count, in.get_varint());
  if (count > in.remaining()) {
    return Error{ErrorCode::kProtocolError, "job count exceeds data"};
  }
  queue.next_id_ = next_id == 0 ? 1 : next_id;
  for (u64 i = 0; i < count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(job, decode_job_record(in));
    const u64 id = job.job_id;
    queue.index(queue.jobs_.emplace(id, std::move(job)).first->second);
    if (id >= queue.next_id_) queue.next_id_ = id + 1;
  }
  return queue;
}

void JobQueue::restore_record(JobRecord job) {
  const u64 id = job.job_id;
  if (id == 0 || jobs_.count(id) != 0) return;  // already in snapshot
  index(jobs_.emplace(id, std::move(job)).first->second);
  JobMetrics::get().restored.add();
  if (id >= next_id_) next_id_ = id + 1;
}

}  // namespace shadow::job
