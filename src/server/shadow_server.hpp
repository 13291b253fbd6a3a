// The shadow server (paper §4, §6): runs at the supercomputer site,
// maintains the best-effort cache of shadow files, pulls updates on its
// own schedule (demand-driven flow control, §5.2), accepts job
// submissions, executes them, and transfers results back — optionally as
// deltas against the previous output of the same job (reverse shadow
// processing, §8.3) and optionally routed to a different client (§8.3).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cache/shadow_cache.hpp"
#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "job/executor.hpp"
#include "job/queue.hpp"
#include "naming/domain_map.hpp"
#include "net/transport.hpp"
#include "persist/durable_store.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "server/file_state.hpp"
#include "server/load_monitor.hpp"
#include "server/pull_table.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace shadow::server {

/// When does the server pull a new version into its cache?
enum class PullPolicy : u8 {
  /// Immediately on NotifyNewVersion — updates flow in the background
  /// while the user keeps editing (§5.1's concurrency advantage).
  kEager = 0,
  /// Only when a submitted job actually needs the file.
  kLazyOnSubmit = 1,
};

const char* pull_policy_name(PullPolicy policy);

struct ServerConfig {
  std::string name = "supercomputer";
  u64 cache_budget = 0;  // bytes; 0 = unlimited
  cache::EvictionPolicy eviction = cache::EvictionPolicy::kLru;
  PullPolicy pull_policy = PullPolicy::kEager;
  /// Cap on simultaneously outstanding PullRequests (overrun avoidance —
  /// the flow-control advantage §5.2 claims for demand-driven).
  std::size_t max_outstanding_pulls = 4;
  /// Cache job outputs and ship output deltas on re-runs (§8.3).
  bool reverse_shadow = false;
  /// Compression applied to outbound JobOutput payloads (§8.3).
  compress::Codec output_codec = compress::Codec::kStored;
  /// Abstract executor ops per second of simulated CPU.
  double cpu_ops_per_second = 50e6;
  std::size_t max_concurrent_jobs = 4;
  /// Load-average-based deferral (§5.2 / §3 adaptability). Disabled by
  /// default (high_water <= 0).
  LoadMonitorConfig load;
  /// Hard admission budgets answered with ServerBusy + retry_after_usec
  /// (overload control; all budgets default off).
  OverloadConfig overload;
  /// Session lease: a connection whose lease has not been renewed (by any
  /// traffic or an explicit Heartbeat) for this long is expired and its
  /// per-client state reclaimed. 0 = leases disabled.
  u64 lease_usec = 0;
  /// Run every client connection over the reliable session layer
  /// (sequence numbers + CRC frames + ack/retransmit). Both ends must
  /// agree (ShadowEnvironment::reliable_session).
  bool reliable_session = false;
  /// First retransmit delay / backoff cap for the reliable sessions'
  /// ack/retransmit timers, microseconds. 0 keeps the channel defaults
  /// (200ms / 1.6s). Slow links need timers longer than the worst-case
  /// frame transmission time or large frames are resent before their
  /// acks can possibly arrive (see ShadowEnvironment for the client end).
  u64 retransmit_initial_usec = 0;
  u64 retransmit_cap_usec = 0;
  /// How many times a job interrupted mid-run by a crash is re-queued
  /// before it is marked failed and the owner is notified instead.
  u64 max_job_retries = 3;
  /// Which shard of a ShardedServer this instance is (recorded in the
  /// snapshot manifest so recovery can detect a re-sharded store), and
  /// how many shards the server was split into. 0/1 = standalone.
  std::size_t shard_id = 0;
  std::size_t shard_count = 1;
  /// Prepended to every telemetry name this server mirrors ("shard2." for
  /// shard 2; empty for a standalone server, preserving the plain
  /// server.*/load.* names shadowtop has always shown).
  std::string telemetry_prefix;
  /// Accept the content-defined-chunking delta codec and hold CDC-tracked
  /// files as digest-only cache entries (docs/DELTAS.md). Off, the server
  /// advertises only the legacy codecs and every client falls back to
  /// ed-script/block-move.
  bool cdc_enabled = true;
};

struct ServerStats {
  u64 notifies_received = 0;
  u64 pulls_sent = 0;
  u64 pulls_deferred = 0;   // postponed by flow control
  u64 updates_received = 0;
  u64 update_bytes = 0;     // Update payload bytes received
  u64 full_transfers = 0;   // updates that carried full content
  u64 delta_transfers = 0;  // updates that carried a delta
  u64 cdc_transfers = 0;    // delta updates in the CDC codec
  u64 digest_advances = 0;  // signatures advanced without content bytes
  u64 digest_advance_failures = 0;  // stale/failed advances (full re-pull)
  u64 jobs_submitted = 0;
  u64 jobs_completed = 0;
  u64 jobs_failed = 0;
  u64 outputs_sent = 0;
  u64 output_bytes = 0;     // JobOutput payload bytes sent
  u64 output_delta_hits = 0;  // reverse-shadow deltas shipped
  u64 unsolicited_updates = 0;  // request-driven clients pushing
  u64 stale_updates_dropped = 0;  // answers older than the cached copy
  u64 deferred_by_load = 0;   // pulls/starts postponed by the load monitor
  u64 session_resyncs = 0;    // desyncs detected by the reliable session
  u64 malformed_dropped = 0;  // frames that did not decode
  u64 journal_appends = 0;    // durable mutation records written
  u64 journal_failures = 0;   // appends/compactions the storage refused
  u64 acks_deferred = 0;      // gating acks parked behind a commit batch
  u64 persist_flushes = 0;    // group-commit flushes this server forced
  u64 compactions = 0;        // snapshot + journal-truncate cycles
  u64 recovered_records = 0;  // journal records replayed at startup
  u64 requeued_jobs = 0;      // orphaned kRunning jobs put back in queue
  u64 retry_capped_jobs = 0;  // orphans failed after too many retries
  u64 busy_rejects = 0;          // Hellos/submits shed with ServerBusy
  u64 conns_dropped_overflow = 0;  // connections dropped at the byte cap
  u64 leases_expired = 0;        // sessions reclaimed by lease expiry
  u64 heartbeats_received = 0;   // explicit lease renewals
  u64 drain_notices = 0;         // ServerBusy(draining) sent at drain
};

/// Every ServerStats field, written once: its registry name (before any
/// shard prefix) and the member. ShardedServer's aggregation and both
/// sync_telemetry() mirrors walk this table, so no field can be summed
/// but not published, or published under two spellings. The overload
/// and lease counters keep their overload.* / lease.* names.
struct ServerStatsField {
  const char* name;
  u64 ServerStats::*member;
};
inline constexpr ServerStatsField kServerStatsFields[] = {
    {"server.notifies_received", &ServerStats::notifies_received},
    {"server.pulls_sent", &ServerStats::pulls_sent},
    {"server.pulls_deferred", &ServerStats::pulls_deferred},
    {"server.updates_received", &ServerStats::updates_received},
    {"server.update_bytes", &ServerStats::update_bytes},
    {"server.full_transfers", &ServerStats::full_transfers},
    {"server.delta_transfers", &ServerStats::delta_transfers},
    {"server.cdc_transfers", &ServerStats::cdc_transfers},
    {"server.digest_advances", &ServerStats::digest_advances},
    {"server.digest_advance_failures", &ServerStats::digest_advance_failures},
    {"server.jobs_submitted", &ServerStats::jobs_submitted},
    {"server.jobs_completed", &ServerStats::jobs_completed},
    {"server.jobs_failed", &ServerStats::jobs_failed},
    {"server.outputs_sent", &ServerStats::outputs_sent},
    {"server.output_bytes", &ServerStats::output_bytes},
    {"server.output_delta_hits", &ServerStats::output_delta_hits},
    {"server.unsolicited_updates", &ServerStats::unsolicited_updates},
    {"server.stale_updates_dropped", &ServerStats::stale_updates_dropped},
    {"server.deferred_by_load", &ServerStats::deferred_by_load},
    {"server.session_resyncs", &ServerStats::session_resyncs},
    {"server.malformed_dropped", &ServerStats::malformed_dropped},
    {"server.journal_appends", &ServerStats::journal_appends},
    {"server.journal_failures", &ServerStats::journal_failures},
    {"server.acks_deferred", &ServerStats::acks_deferred},
    {"server.persist_flushes", &ServerStats::persist_flushes},
    {"server.compactions", &ServerStats::compactions},
    {"server.recovered_records", &ServerStats::recovered_records},
    {"server.requeued_jobs", &ServerStats::requeued_jobs},
    {"server.retry_capped_jobs", &ServerStats::retry_capped_jobs},
    {"overload.busy_rejects", &ServerStats::busy_rejects},
    {"overload.conns_dropped", &ServerStats::conns_dropped_overflow},
    {"lease.expired", &ServerStats::leases_expired},
    {"lease.heartbeats", &ServerStats::heartbeats_received},
    {"overload.drain_notices", &ServerStats::drain_notices},
};
// ServerStats is all u64 counters; a field missing from the table above
// fails here instead of silently dropping out of every aggregate.
static_assert(sizeof(ServerStats) ==
                  sizeof(kServerStatsFields) / sizeof(ServerStatsField) *
                      sizeof(u64),
              "every ServerStats field needs a row in kServerStatsFields");

/// Field-wise sum over kServerStatsFields: the one way to total the
/// stats of several servers (shards, a scenario's fleet).
inline ServerStats& operator+=(ServerStats& total, const ServerStats& more) {
  for (const auto& field : kServerStatsFields) {
    total.*field.member += more.*field.member;
  }
  return total;
}

class ShadowServer {
 public:
  /// `store` (optional) makes every mutation crash-consistent: the server
  /// appends a journal record — and waits for the fsync — BEFORE it
  /// acknowledges anything to a client. Must outlive the server.
  explicit ShadowServer(ServerConfig config, sim::Simulator* simulator = nullptr,
                        persist::DurableStore* store = nullptr);
  /// Waits out any in-flight batch fsync and DROPS unresolved commit
  /// callbacks (they capture this server); never sends from a destructor.
  ~ShadowServer();

  /// Attach a client connection. The server installs itself as the
  /// transport's receiver; the client identifies itself with Hello.
  void attach(net::Transport* transport);

  /// Forget a connection whose transport is about to be destroyed (the
  /// sharded event loops reap closed sockets). Drops the Connection and
  /// its clients_ entry; per-file state stays — the client may reconnect.
  void detach(net::Transport* transport);

  /// Cross-shard delivery hook: when send_to() finds no local connection
  /// for a client, the router is offered the message (ShardedServer posts
  /// it to the client's home shard — the §8.3 output_route case where a
  /// job's output goes to a different workstation). Return true when the
  /// message was taken.
  using PeerRouteFn =
      std::function<bool(const std::string& client_name,
                         const proto::Message& m)>;
  void set_peer_router(PeerRouteFn fn) { peer_router_ = std::move(fn); }

  /// True if this client said Hello over one of OUR connections.
  bool has_client(const std::string& client_name) const {
    return clients_.count(client_name) != 0;
  }

  /// Send to a client connected here; one connected elsewhere is offered
  /// to the peer router (the receiving shard calls this on its thread).
  void send_to(const std::string& client_name, const proto::Message& m);

  /// Feed one already-received wire message through the normal dispatch
  /// path on behalf of `transport` (which must be attach()ed). The
  /// sharded lobby uses this to replay the Hello it consumed while
  /// deciding which shard owns the connection.
  void inject_message(net::Transport* transport, Bytes wire);

  const ServerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }
  const LoadMonitor& load_monitor() const { return load_monitor_; }
  cache::ShadowCache& file_cache() { return cache_; }
  const job::JobQueue& jobs() const { return queue_; }
  naming::DomainMap& domains() { return domains_; }

  /// Failure injection for tests: drop a cached file as the budget would
  /// (not journaled: a replay may restore that version's bytes).
  void evict_file(const naming::GlobalFileId& id);

  /// Recompute the job queue's indexes, the scheduler's bookkeeping and the
  /// pull table's invariants from the job map, cache and file state: the
  /// server.outstanding_pulls gauge (published again first) equals the
  /// pulls in flight, no file is both in flight and wanted, and no wanted
  /// pull has a connected owner while a slot is free and the load monitor
  /// is quiet. An error names the first disagreement (tests call this
  /// after every step of a random run).
  Status check_job_indexes() const;

  /// One retransmit round on every reliable session (no-op without
  /// config.reliable_session). Returns the number of frames resent.
  /// Also reaps doomed connections and expires stale leases.
  std::size_t tick();

  // ---- overload control & graceful drain -----------------------------

  /// Expire every connection whose lease ran out (config.lease_usec > 0),
  /// reclaiming its per-client state; clients renew by any traffic or an
  /// explicit Heartbeat. Safe from event-loop idle hooks — never call
  /// from inside a message handler. Returns the number expired.
  std::size_t expire_leases();

  /// Destroy connections doomed by a send-queue overflow or lease expiry
  /// (dooming inside a handler only marks; this reclaims). Returns the
  /// number reaped.
  std::size_t reap_doomed();

  /// Enter drain: refuse new Hellos and submits (ServerBusy with
  /// draining=true), notify connected v1 clients once, and flush the open
  /// group-commit window so parked acks resolve. Idempotent.
  void begin_drain();
  bool draining() const { return draining_; }
  /// True once every journaled record has been fsynced and its deferred
  /// ack released — the point at which exiting loses nothing.
  bool drain_complete() const;

  /// Sum of all connections' queued outbound bytes (overload budget).
  std::size_t total_queued_bytes() const;

  /// Reliable-session stats summed over all connections (diagnostics).
  proto::ReliableChannel::Stats session_stats() const;

  /// Mirror this server's accumulated ServerStats, queue/cache/connection
  /// readings and load-monitor state into the global telemetry registry
  /// (server.* and load.* names). Called before every admin snapshot so
  /// shadowtop sees current values; cheap enough to call at will.
  void sync_telemetry() const;

  /// Snapshot the server's durable state: the shadow cache, the per-domain
  /// name maps, per-file version tracking and the reverse-shadow output
  /// cache. Live connections and in-flight jobs are NOT included — after
  /// a crash, clients reconnect and resubmit; the cache is what makes the
  /// resubmissions cheap.
  Bytes save_state() const;
  /// Restore a snapshot into a freshly constructed server (same config).
  Status restore_state(const Bytes& snapshot);

  /// Crash recovery: load the store's snapshot, replay the journal's
  /// valid prefix (damaged tails were already truncated by the store),
  /// re-queue jobs that were running when the lights went out, and
  /// compact so the next crash starts from here. Call once, before
  /// attach(). A missing/empty store directory recovers to empty state.
  Status recover_from_storage();

  /// False once the durable store has refused a write — acknowledgements
  /// stop flowing because durability can no longer be promised.
  bool persist_alive() const { return store_ == nullptr || !persist_dead_; }

  // ---- group commit (no-ops unless the store has window_us > 0) ------

  /// Seal + fsync the open commit batch now, releasing every deferred
  /// ack (UpdateAck / SubmitReply / output delivery) it gates, then
  /// compact if due. The commit-window expiry path and tests/shutdown
  /// call this; under a simulator the window schedules it automatically.
  void flush_persist();
  /// Block until no batch is staged, parked or syncing (pipelined mode);
  /// all pending acks resolve on the way.
  void wait_persist_idle();
  /// Periodic persist housekeeping for event-loop idle time: collect
  /// completed pipelined batches (releasing their acks), flush when the
  /// real-time commit window has expired, run deferred compaction.
  /// Returns the amount of work done (0 = nothing pending).
  std::size_t pump_persist();
  /// How soon (ms) the event loop should call pump_persist() again for a
  /// timely flush: remaining commit-window time when a window is open,
  /// 1 ms while a pipelined sync is in flight (its acks are waiting to be
  /// collected), -1 when nothing is pending and the loop may sleep its
  /// full poll timeout.
  int persist_poll_hint_ms() const;

 private:
  struct Connection {
    net::Transport* transport = nullptr;
    /// Never reused by this server: the identity duplicate-submit
    /// detection is scoped to (a freed Connection's address can be).
    u64 serial = 0;
    /// Present iff config.reliable_session.
    std::unique_ptr<proto::ReliableChannel> channel;
    std::string client_name;  // empty until Hello
    /// From the client's Hello; 0 (legacy) clients never receive
    /// ServerBusy or Heartbeat frames they would not understand.
    u32 protocol_version = 0;
    /// Delta codecs the client advertised at Hello, intersected with what
    /// this server accepts. Legacy frames imply ed-script + block-move.
    u32 codecs = proto::kLegacyCodecs;
    /// Last traffic/Heartbeat, sim or steady micros (lease bookkeeping).
    u64 lease_renewed_us = 0;
    /// Marked dead mid-dispatch (queue overflow, expired lease); ignored
    /// by every path and reclaimed by reap_doomed() once off the stack.
    bool doomed = false;
  };

  void on_message(Connection* conn, Bytes wire);
  void handle(Connection* conn, const proto::Hello& m);
  void handle(Connection* conn, const proto::NotifyNewVersion& m);
  void handle(Connection* conn, const proto::Update& m);
  void handle(Connection* conn, const proto::SubmitJob& m);
  void handle(Connection* conn, const proto::StatusQuery& m);
  void handle(Connection* conn, const proto::JobOutputAck& m);
  void handle(Connection* conn, const proto::AdminQuery& m);
  void handle(Connection* conn, const proto::Heartbeat& m);

  // ---- the steps of handle(Update) ------------------------------------

  /// Rebuild the content a line delta or full transfer describes. nullopt
  /// once the update has been answered (nack, or full re-pull when the
  /// base is gone or the delta does not apply).
  std::optional<std::string> apply_delta(Connection* conn, FileState& state,
                                         const proto::Update& m,
                                         const diff::Delta& delta);
  /// Advance the file's chunk-digest signature by a CDC delta without
  /// materializing content (docs/DELTAS.md). nullopt once the update has
  /// been answered with a full re-pull.
  std::optional<cdc::Signature> advance_signature(Connection* conn,
                                                  FileState& state,
                                                  const proto::Update& m,
                                                  const cdc::CdcDelta& d);
  /// Pin a CDC update's bytes for a waiting job when they can be rebuilt
  /// without a pull.
  void pin_cdc_target(FileState& state, const proto::Update& m,
                      const cdc::CdcDelta& d);
  void nack_update(Connection* conn, const proto::Update& m,
                   std::string error);
  /// The base is unusable: ask the client for the whole version (§5.1).
  void repull_full(Connection* conn, FileState& state, const proto::Update& m);

  void send(Connection* conn, const proto::Message& m);

  FileState& file_state(const naming::GlobalFileId& id);
  /// FileState::observe() found the file's numbering restarted (a new
  /// owner, or a restarted client): drop the cached copy, journaling the
  /// drop, and the pull in flight.
  void restart_history(FileState& state);
  /// The pulls in flight to `client` were lost with its connection or
  /// session: want them again (held for its Hello if it has no connection).
  void rearm_pulls_of(const std::string& client);
  /// True when `state` is missing the bytes or version it should hold and
  /// no pull for it is in flight. `need_bytes` is set when a job must
  /// materialize the file: a current-but-digest-only cache entry then
  /// still needs a pull (for full content), because digests cannot feed
  /// an executor sandbox; `materialize` reports that case.
  bool pull_needed(const FileState& state, bool need_bytes,
                   bool& materialize) const;
  /// Issue a PullRequest for `state` if it is needed and flow control
  /// allows; otherwise record it as wanted in pulls_. A pull for an owner
  /// with no connection waits for its Hello. Returns true when the load
  /// monitor or the outstanding-pull cap put it off.
  bool maybe_pull(FileState& state, bool need_bytes = false);
  /// Send the queued wanted pulls, in cache-key order, while a slot is
  /// free. Every path that frees a slot calls it.
  void drain_deferred_pulls();

  // ---- the job scheduler ----------------------------------------------
  //
  // A pass visits jobs oldest first, and visits only the jobs whose visit
  // can change something; every other job's visit would be a no-op:
  //   - ready jobs (queue_.ready_ids()), while a job slot is free;
  //   - jobs_to_visit_: a file they read changed (touch_file), or they
  //     are new.
  // A job whose pull was put off needs no visit: the wanted entry in
  // pulls_ records that it needs bytes, and drain_deferred_pulls sends it.

  /// Visit the jobs that can move: pull missing files, start ready jobs.
  void schedule_jobs();
  void visit_job(job::JobRecord& record);
  /// The file under `key` changed (content, version, owner, or its pull
  /// ended): refresh the readiness of the jobs reading it and visit them
  /// at the next pass.
  void touch_file(const std::string& key);
  /// Resolve every job's input keys and rebuild all scheduling state
  /// (after a snapshot restore or journal replay).
  void reindex_jobs();
  FileState& input_state(const job::JobRecord& record, std::size_t i);
  bool files_ready(const job::JobRecord& record) const;
  /// Bytes of `key` at `version` or newer that a job can read: a cache
  /// entry holding content, else a pin. Digest-only entries never count.
  const std::string* resident_bytes(const std::string& key,
                                    u64 version) const;
  void start_job(job::JobRecord& record);
  void finish_job(u64 job_id, job::ExecutionResult result);
  /// Send a finished job's result, as a reverse-shadow delta when one
  /// applies.
  void deliver_output(const job::JobRecord& record);
  /// Build and send one JobOutput carrying `output` (full content, or a
  /// delta against output generation `base_generation`).
  void send_output(const job::JobRecord& record, const diff::Delta& output,
                   u64 generation, u64 base_generation);
  /// Re-send every finished, unacknowledged result owed to a client.
  void redeliver_outputs(const std::string& client_name);

  /// Reverse-shadow signature: identifies "the same job" across re-runs.
  static std::string job_signature(const job::JobRecord& record);

  /// Drop pinned copies no other active job reads (called while
  /// `finishing` still runs).
  void release_pins(const job::JobRecord& finishing);

  /// Postpone work while overloaded; retries are self-scheduled.
  bool load_says_wait();

  /// Current sim or steady-clock time for lease bookkeeping.
  u64 now_micros() const;
  /// Drop a departing connection's client entry, pulls in flight and
  /// submissions (detach and reap_doomed; the caller erases it).
  void release_connection(Connection* raw);
  /// Mark a connection dead without touching the connection list (safe
  /// mid-dispatch); the transport is asked to close so event loops reap
  /// it, and reap_doomed() reclaims the rest.
  void doom_connection(Connection* conn, const std::string& why);
  /// Budget violated by accepting more work right now, or nullptr.
  const char* admission_refusal() const;
  /// ServerBusy with the configured retry-after (v1 clients only — the
  /// caller keeps the legacy fallback for protocol_version 0 peers).
  void send_busy(Connection* conn, u64 client_job_token,
                 const std::string& reason);

  /// Reliable-session desync recovery: re-arm the pulls in flight to this
  /// connection's client and re-deliver outputs it never acknowledged.
  void resync_connection(Connection* conn);

  /// Journal one record and run `on_durable` once it is fsynced: inline
  /// at commit window 0 (then compact if due), or from the flush that
  /// seals its batch (group commit). With no store attached it runs
  /// inline. On storage failure the callback never runs and the server
  /// stops acking. Pass nullptr for non-gating records.
  void persist_append_then(persist::RecordType type, Bytes body,
                           std::function<void()> on_durable);
  /// Storage refused a write/fsync: count it, stop acking, log once.
  void mark_persist_dead(persist::RecordType type, const Status& st);
  /// Deferred compaction: runs only between batches so snapshot-then-
  /// truncate never sits on the ack path.
  void maybe_compact_persist();
  /// Snapshot-then-truncate now; a failure stops acking.
  void compact_persist();
  /// Arm the commit-window flush for the just-staged record (simulator:
  /// schedule; real time: open the window for pump_persist()).
  void schedule_window_flush();
  /// Send only if the connection with this serial is still one of ours
  /// under the same client name (deferred acks may outlive a detach).
  void send_if_attached(u64 serial, const std::string& client_name,
                        const proto::Message& m);
  /// Replay one journal record over the current state; all replays are
  /// idempotent so records older than the snapshot are harmless.
  Status replay_record(const persist::JournalRecord& record);
  /// Drop every piece of recoverable state (used when a damaged snapshot
  /// degrades recovery to journal-only).
  void reset_volatile_state();
  /// Jobs found kRunning after a restart never finished: re-queue them,
  /// or fail them for good once the retry budget is spent.
  void requeue_orphans();

  ServerConfig config_;
  sim::Simulator* sim_;  // nullptr = execute instantaneously
  PeerRouteFn peer_router_;  // cross-shard send_to fallback
  persist::DurableStore* store_;  // nullptr = in-memory only
  bool persist_dead_ = false;     // storage refused a write; stop acking
  bool persist_flush_scheduled_ = false;  // sim-mode window flush armed
  bool persist_window_open_ = false;      // real-time window running
  u64 persist_window_start_us_ = 0;       // steady-clock stamp at open
  LoadMonitor load_monitor_;
  bool load_retry_scheduled_ = false;
  bool draining_ = false;  // refusing new work; exiting soon
  cache::ShadowCache cache_;
  naming::DomainMap domains_;
  job::JobQueue queue_;
  job::Executor executor_;
  ServerStats stats_;

  std::map<u64, std::unique_ptr<Connection>> connections_;  // by serial
  u64 next_connection_serial_ = 1;
  std::map<std::string, Connection*> clients_;  // name -> connection
  std::map<std::string, FileState> files_;      // cache key -> state
  PullTable pulls_;                             // by cache key
  std::size_t running_jobs_ = 0;

  std::set<u64> jobs_to_visit_;

  struct OutputCacheEntry {
    u64 generation = 0;
    std::string content;
  };
  std::map<std::string, OutputCacheEntry> output_cache_;  // signature -> prev

  /// Content the best-effort cache refused (over budget) but an active job
  /// still needs; released when the last interested job finishes.
  struct PinnedFile {
    u64 version = 0;
    std::string content;
  };
  std::map<std::string, PinnedFile> pinned_;
};

}  // namespace shadow::server
