#include "server/shadow_server.hpp"

#include <algorithm>
#include <chrono>

#include "proto/admin.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "vfs/path.hpp"

namespace shadow::server {

namespace {
// Flight-recorder entry for the global event ring (shadowtop's "events"
// view). Cold-path only — every call site below is a state change, not a
// per-byte hot loop.
void record_event(telemetry::EventKind kind, std::string detail) {
  telemetry::Registry::global().events().record(kind, std::move(detail));
}

u64 steady_micros() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}
}  // namespace

const char* pull_policy_name(PullPolicy policy) {
  switch (policy) {
    case PullPolicy::kEager: return "eager";
    case PullPolicy::kLazyOnSubmit: return "lazy-on-submit";
  }
  return "?";
}

ShadowServer::ShadowServer(ServerConfig config, sim::Simulator* simulator,
                           persist::DurableStore* store)
    : config_(std::move(config)),
      sim_(simulator),
      store_(store),
      load_monitor_(config_.load, simulator),
      cache_(config_.cache_budget, config_.eviction) {
  // An evicted or erased input un-readies the jobs reading it.
  cache_.set_drop_listener([this](const std::string& key) { touch_file(key); });
}

ShadowServer::~ShadowServer() {
  // Deferred commit callbacks capture `this`; a batch still in flight at
  // teardown is dropped, not invoked — its records stay in the journal
  // and replay on recovery, its acks were simply never sent (the client
  // re-offers, exactly as after a crash).
  if (store_ != nullptr) store_->drop_pending();
}

void ShadowServer::mark_persist_dead(persist::RecordType type,
                                     const Status& st) {
  ++stats_.journal_failures;
  if (persist_dead_) return;
  persist_dead_ = true;
  record_event(telemetry::EventKind::kJournal,
               std::string("append refused (") +
                   persist::record_type_name(type) + "); persistence dead");
  SHADOW_WARN() << config_.name << ": journal append failed ("
                << persist::record_type_name(type) << "): " << st.to_string();
}

void ShadowServer::persist_append_then(persist::RecordType type, Bytes body,
                                       std::function<void()> on_durable) {
  if (store_ == nullptr) {
    if (on_durable) on_durable();
    return;
  }
  if (persist_dead_) return;
  const bool gating = static_cast<bool>(on_durable);
  (void)store_->append_deferred(
      type, body, [this, type, cb = std::move(on_durable)](const Status& st) {
        if (st.ok()) {
          ++stats_.journal_appends;
          if (cb) cb();
          return;
        }
        mark_persist_dead(type, st);
      });
  if (store_->pending_records() == 0) {
    // Resolved before append_deferred returned (commit window 0, or the
    // record sealed its batch at a cap): the continuation has run, so
    // this is the point between batches where a due compaction belongs.
    maybe_compact_persist();
    return;
  }
  if (gating) ++stats_.acks_deferred;
  schedule_window_flush();
}

void ShadowServer::schedule_window_flush() {
  if (sim_ != nullptr) {
    // Simulated time: one flush per window, armed by the record that
    // opens it (the same self-scheduling shape as the load monitor).
    if (persist_flush_scheduled_) return;
    persist_flush_scheduled_ = true;
    sim_->schedule(store_->group_commit().window_us, [this] {
      persist_flush_scheduled_ = false;
      flush_persist();
    });
  } else if (!persist_window_open_) {
    persist_window_open_ = true;
    persist_window_start_us_ = steady_micros();
  }
}

void ShadowServer::flush_persist() {
  if (store_ == nullptr) return;
  persist_window_open_ = false;
  if (store_->pending_records() > 0) ++stats_.persist_flushes;
  (void)store_->flush();  // failures surface through per-record callbacks
  (void)store_->drain();
  maybe_compact_persist();
}

void ShadowServer::wait_persist_idle() {
  if (store_ == nullptr) return;
  persist_window_open_ = false;
  store_->wait_idle();
  maybe_compact_persist();
}

std::size_t ShadowServer::pump_persist() {
  if (store_ == nullptr) return 0;
  std::size_t work = store_->drain();
  if (persist_window_open_ && sim_ == nullptr &&
      steady_micros() - persist_window_start_us_ >=
          store_->group_commit().window_us) {
    flush_persist();
    ++work;
  } else {
    maybe_compact_persist();
  }
  return work;
}

int ShadowServer::persist_poll_hint_ms() const {
  if (store_ == nullptr || sim_ != nullptr) return -1;
  if (store_->sync_in_flight()) return 1;
  if (!persist_window_open_) return -1;
  const u64 elapsed = steady_micros() - persist_window_start_us_;
  const u64 window = store_->group_commit().window_us;
  if (elapsed >= window) return 1;
  return static_cast<int>((window - elapsed) / 1000) + 1;
}

void ShadowServer::maybe_compact_persist() {
  if (store_ == nullptr || persist_dead_) return;
  if (!store_->compaction_due()) return;
  // Only between batches: compaction must never sit between a client's
  // update and its ack. pump_persist() retries at the next idle round.
  if (store_->pending_records() > 0 || store_->sync_in_flight()) return;
  compact_persist();
}

void ShadowServer::compact_persist() {
  Status cs = store_->compact(save_state());
  if (!cs.ok()) {
    // Every record already journaled stays durable, but no further
    // promises: the server stops acking.
    persist_dead_ = true;
    ++stats_.journal_failures;
    SHADOW_WARN() << config_.name << ": compaction failed: " << cs.to_string();
    return;
  }
  ++stats_.compactions;
  record_event(telemetry::EventKind::kJournal, "journal compacted");
}

void ShadowServer::send_if_attached(u64 serial,
                                    const std::string& client_name,
                                    const proto::Message& m) {
  auto it = connections_.find(serial);
  if (it != connections_.end() && it->second->client_name == client_name) {
    send(it->second.get(), m);
  }
  // Otherwise the connection went away while its batch was syncing; the
  // client re-offers after reconnecting, so dropping the ack is safe.
}

bool ShadowServer::load_says_wait() {
  if (!load_monitor_.overloaded()) return false;
  ++stats_.deferred_by_load;
  record_event(telemetry::EventKind::kLoad, "work deferred by load monitor");
  // Self-schedule one retry per backoff window (§3: the system tunes
  // itself — no user or client intervention).
  if (sim_ != nullptr && !load_retry_scheduled_) {
    load_retry_scheduled_ = true;
    sim_->schedule(load_monitor_.config().backoff, [this] {
      load_retry_scheduled_ = false;
      drain_deferred_pulls();
      schedule_jobs();
    });
  }
  return true;
}

u64 ShadowServer::now_micros() const {
  return sim_ != nullptr ? sim_->now() : steady_micros();
}

void ShadowServer::attach(net::Transport* transport) {
  auto conn = std::make_unique<Connection>();
  conn->transport = transport;
  conn->serial = next_connection_serial_++;
  conn->lease_renewed_us = now_micros();
  if (config_.overload.max_conn_queued_bytes > 0) {
    // Byte-cap this connection's outbound queue; a send that would
    // overflow it dooms the connection instead of blocking the loop.
    transport->set_queue_limit(config_.overload.max_conn_queued_bytes);
  }
  Connection* raw = conn.get();
  if (config_.reliable_session) {
    proto::ReliableChannel::Config channel_config;
    if (config_.retransmit_initial_usec > 0) {
      channel_config.retransmit_initial = config_.retransmit_initial_usec;
    }
    if (config_.retransmit_cap_usec > 0) {
      channel_config.retransmit_cap = config_.retransmit_cap_usec;
    }
    raw->channel =
        std::make_unique<proto::ReliableChannel>(transport, channel_config);
    raw->channel->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
    raw->channel->on_desync([this, raw] { resync_connection(raw); });
    if (sim_ != nullptr) raw->channel->attach_simulator(sim_);
  } else {
    transport->set_receiver(
        [this, raw](Bytes wire) { on_message(raw, std::move(wire)); });
  }
  connections_.emplace(raw->serial, std::move(conn));
}

void ShadowServer::detach(net::Transport* transport) {
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if (it->second->transport != transport) continue;
    Connection* raw = it->second.get();
    if (!raw->client_name.empty()) {
      record_event(telemetry::EventKind::kServer,
                   "client " + raw->client_name + " disconnected");
    }
    release_connection(raw);
    connections_.erase(it);
    return;
  }
}

void ShadowServer::release_connection(Connection* raw) {
  if (!raw->client_name.empty()) {
    auto named = clients_.find(raw->client_name);
    if (named != clients_.end() && named->second == raw) {
      clients_.erase(named);
    }
    // Pulls in flight to this client died with its socket or send queue;
    // want them again, so its next Hello (or re-announce) pulls again.
    rearm_pulls_of(raw->client_name);
  }
  // Jobs this connection submitted keep their record. Nothing can be
  // resent over it any more, and its serial is never given to another
  // connection, so a client reconnecting (even on a Connection allocated
  // at the same address) never matches them as a resend.
  queue_.forget_connection(raw->serial);
}

void ShadowServer::doom_connection(Connection* conn, const std::string& why) {
  if (conn->doomed) return;
  conn->doomed = true;
  record_event(telemetry::EventKind::kServer,
               "connection " +
                   (conn->client_name.empty() ? std::string("<pre-hello>")
                                              : conn->client_name) +
                   " doomed: " + why);
  SHADOW_WARN() << config_.name << ": dropping connection "
                << conn->client_name << ": " << why;
  // Ask the transport to close so event loops reap the socket; the
  // Connection itself is reclaimed by reap_doomed() once no handler on
  // the stack can still be holding the pointer.
  conn->transport->request_close();
}

std::size_t ShadowServer::reap_doomed() {
  std::size_t reaped = 0;
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* raw = it->second.get();
    if (!raw->doomed) {
      ++it;
      continue;
    }
    // Sever the receive path first: the transport may outlive the
    // Connection (event-loop-owned sockets, sim links), and its receiver
    // lambda captures the raw pointer being freed here.
    raw->transport->set_receiver(nullptr);
    release_connection(raw);
    it = connections_.erase(it);
    ++reaped;
  }
  return reaped;
}

std::size_t ShadowServer::expire_leases() {
  if (config_.lease_usec == 0) return 0;
  const u64 now = now_micros();
  std::size_t expired = 0;
  for (auto& [serial, conn] : connections_) {
    if (conn->doomed) continue;
    if (now - conn->lease_renewed_us < config_.lease_usec) continue;
    ++stats_.leases_expired;
    ++expired;
    doom_connection(conn.get(),
                    "lease expired (idle " +
                        std::to_string(now - conn->lease_renewed_us) +
                        " us, lease " + std::to_string(config_.lease_usec) +
                        " us)");
  }
  return expired;
}

std::size_t ShadowServer::total_queued_bytes() const {
  std::size_t total = 0;
  for (const auto& [serial, conn] : connections_) {
    total += conn->transport->queued_bytes();
  }
  return total;
}

const char* ShadowServer::admission_refusal() const {
  if (draining_) return "server draining";
  if (config_.overload.max_parked_acks != 0 && store_ != nullptr &&
      store_->pending_records() >= config_.overload.max_parked_acks) {
    return "persist backlog (parked acks over budget)";
  }
  if (config_.overload.max_total_queued_bytes != 0 &&
      total_queued_bytes() >= config_.overload.max_total_queued_bytes) {
    return "output backlog (queued bytes over budget)";
  }
  if (config_.overload.max_active_jobs != 0 &&
      queue_.active_count() >= config_.overload.max_active_jobs) {
    return "job backlog (active jobs over budget)";
  }
  return nullptr;
}

void ShadowServer::send_busy(Connection* conn, u64 client_job_token,
                             const std::string& reason) {
  // Legacy peers would log "unexpected message type" and learn nothing;
  // silence preserves their pre-overload-control behaviour exactly.
  if (conn->protocol_version < 1) return;
  proto::ServerBusy busy;
  busy.retry_after_usec = config_.overload.retry_after_usec;
  busy.client_job_token = client_job_token;
  busy.draining = draining_;
  busy.reason = reason;
  send(conn, busy);
}

void ShadowServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  record_event(telemetry::EventKind::kServer,
               config_.name + " draining: refusing new work");
  // One notice per live v1 session: back off and come back elsewhere /
  // later. In-flight acks still flow; only NEW work is refused.
  for (auto& [serial, conn] : connections_) {
    if (conn->doomed || conn->protocol_version < 1) continue;
    ++stats_.drain_notices;
    send_busy(conn.get(), 0, "server draining");
  }
  // Seal the open group-commit window now: every record a client was
  // promised durability for must fsync — and release its parked ack —
  // before drain_complete() reports true.
  flush_persist();
}

bool ShadowServer::drain_complete() const {
  if (store_ == nullptr) return true;
  return store_->pending_records() == 0 && !store_->sync_in_flight();
}

void ShadowServer::handle(Connection* conn, const proto::Heartbeat& m) {
  (void)conn;
  (void)m;  // client_time_us is diagnostic only for now
  ++stats_.heartbeats_received;
  // The lease was renewed by on_message; nothing else to do — heartbeats
  // deliberately have no reply (an overloaded server owes idle clients
  // nothing).
}

void ShadowServer::inject_message(net::Transport* transport, Bytes wire) {
  for (auto& [serial, conn] : connections_) {
    if (conn->transport == transport) {
      on_message(conn.get(), std::move(wire));
      return;
    }
  }
  SHADOW_WARN() << config_.name
                << ": inject_message for unattached transport";
}

std::size_t ShadowServer::tick() {
  std::size_t resent = 0;
  for (auto& [serial, conn] : connections_) {
    if (conn->channel != nullptr && !conn->doomed) {
      resent += conn->channel->tick();
    }
  }
  resent += pump_persist();
  expire_leases();
  reap_doomed();
  return resent;
}

void ShadowServer::resync_connection(Connection* conn) {
  ++stats_.session_resyncs;
  record_event(telemetry::EventKind::kSession,
               "session resync with " +
                   (conn->client_name.empty() ? std::string("<pre-hello>")
                                              : conn->client_name));
  // Frames may have been lost in either direction on this session. Re-arm
  // the pulls in flight to its client (the request or its answer may be
  // gone) and re-deliver outputs it never acknowledged; duplicates are
  // harmless — the client's handlers are idempotent and nack what it
  // cannot apply. Other clients' sessions lost nothing.
  if (!conn->client_name.empty()) {
    rearm_pulls_of(conn->client_name);
    redeliver_outputs(conn->client_name);
  }
  schedule_jobs();
}

proto::ReliableChannel::Stats ShadowServer::session_stats() const {
  proto::ReliableChannel::Stats total;
  for (const auto& [serial, conn] : connections_) {
    if (conn->channel == nullptr) continue;
    const auto& s = conn->channel->stats();
    total.data_sent += s.data_sent;
    total.delivered += s.delivered;
    total.retransmits += s.retransmits;
    total.acks_sent += s.acks_sent;
    total.nacks_sent += s.nacks_sent;
    total.duplicates_dropped += s.duplicates_dropped;
    total.corrupt_dropped += s.corrupt_dropped;
    total.out_of_order_held += s.out_of_order_held;
    total.overflow_dropped += s.overflow_dropped;
    total.resets_sent += s.resets_sent;
    total.resets_received += s.resets_received;
    total.desyncs += s.desyncs;
  }
  return total;
}

void ShadowServer::send(Connection* conn, const proto::Message& m) {
  if (conn == nullptr || conn->transport == nullptr || conn->doomed) return;
  Status st = conn->channel != nullptr
                  ? conn->channel->send(proto::encode_message(m))
                  : conn->transport->send(proto::encode_message(m));
  if (!st.ok()) {
    if (st.code() == ErrorCode::kResourceExhausted) {
      // Slow consumer: its outbound queue hit the byte cap. Degrade by
      // dropping the CONNECTION, never by blocking the shard loop or
      // queueing without bound — on reconnect the client resyncs (full
      // transfer fallback), so nothing is corrupted, only re-sent.
      ++stats_.conns_dropped_overflow;
      doom_connection(conn, "send queue overflow (" +
                                std::to_string(conn->transport->queued_bytes()) +
                                " bytes queued)");
      return;
    }
    SHADOW_WARN() << config_.name << ": send to " << conn->client_name
                  << " failed: " << st.to_string();
  }
}

void ShadowServer::send_to(const std::string& client_name,
                           const proto::Message& m) {
  auto it = clients_.find(client_name);
  if (it == clients_.end()) {
    // Not one of ours. In a sharded server the client may be pinned to a
    // sibling shard (a job's output_route to a different workstation —
    // §8.3); offer the message to the facade before giving up.
    if (peer_router_ != nullptr && peer_router_(client_name, m)) return;
    SHADOW_WARN() << config_.name << ": no connection for client "
                  << client_name;
    return;
  }
  send(it->second, m);
}

void ShadowServer::on_message(Connection* conn, Bytes wire) {
  if (conn->doomed) return;  // dead session awaiting reap
  // Any decodable traffic renews the lease (heartbeats exist for
  // connections with nothing else to say).
  conn->lease_renewed_us = now_micros();
  auto decoded = proto::decode_message(wire);
  if (!decoded.ok()) {
    ++stats_.malformed_dropped;
    record_event(telemetry::EventKind::kMessage,
                 "malformed message dropped: " + decoded.error().to_string());
    SHADOW_WARN() << config_.name
                  << ": dropping malformed message: "
                  << decoded.error().to_string();
    return;
  }
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::Hello> ||
                      std::is_same_v<T, proto::NotifyNewVersion> ||
                      std::is_same_v<T, proto::Update> ||
                      std::is_same_v<T, proto::SubmitJob> ||
                      std::is_same_v<T, proto::StatusQuery> ||
                      std::is_same_v<T, proto::JobOutputAck> ||
                      std::is_same_v<T, proto::AdminQuery> ||
                      std::is_same_v<T, proto::Heartbeat>) {
          handle(conn, m);
        } else {
          SHADOW_WARN() << config_.name << ": unexpected message type "
                        << proto::message_type_name(proto::type_of(
                               proto::Message(std::move(m))));
        }
      },
      decoded.value());
}

FileState& ShadowServer::file_state(const naming::GlobalFileId& id) {
  const std::string key = domains_.cache_key(id);
  return files_.try_emplace(key, id, key).first->second;
}

void ShadowServer::handle(Connection* conn, const proto::Hello& m) {
  conn->protocol_version = m.protocol_version;
  // Codec negotiation (docs/DELTAS.md): remember the intersection of what
  // the client can produce and what this server accepts. Legacy frames
  // decoded with kLegacyCodecs, so CDC is never in the intersection
  // unless both ends advertise it.
  const u32 server_codecs =
      config_.cdc_enabled ? proto::kAllCodecs : proto::kLegacyCodecs;
  conn->codecs = m.codecs & server_codecs;
  // Admission control at the door: a draining server takes no new
  // sessions, and a full shard sheds rather than degrading everyone.
  // The transport stays attached — the client backs off (retry_after)
  // and retries its Hello on the same or a fresh connection. Legacy (v0)
  // clients predate ServerBusy; they are never shed, only drained.
  const bool returning = clients_.count(m.client_name) != 0;
  if (draining_) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kServer,
                 "hello from " + m.client_name + " refused (draining)");
    send_busy(conn, 0, "server draining");
    return;
  }
  if (!returning && m.protocol_version >= 1 &&
      config_.overload.max_connections != 0 &&
      clients_.size() >= config_.overload.max_connections) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kServer,
                 "hello from " + m.client_name + " shed (connection cap " +
                     std::to_string(config_.overload.max_connections) + ")");
    send_busy(conn, 0, "connection budget exhausted");
    return;
  }
  conn->client_name = m.client_name;
  clients_[m.client_name] = conn;
  record_event(telemetry::EventKind::kServer,
               "hello from " + m.client_name + " (domain " + m.domain + ")");
  // Ensure the domain directory exists (paper §5.3: the server's name
  // space is divided into per-domain directories).
  domains_.domain(m.domain);
  proto::HelloReply reply;
  reply.server_name = config_.name;
  reply.codecs = server_codecs;
  send(conn, reply);
  // Pulls of this client's files that waited for it to (re)connect.
  for (const std::string& key : pulls_.held_for(m.client_name)) {
    maybe_pull(files_.at(key));
  }
  // Results that finished while the client was away (e.g. the server was
  // restarted from its journal): deliver now that there is a connection.
  // Harmless on a first-ever Hello — the queue has nothing for this name.
  redeliver_outputs(m.client_name);
  schedule_jobs();
}

void ShadowServer::handle(Connection* conn, const proto::NotifyNewVersion& m) {
  ++stats_.notifies_received;
  FileState& state = file_state(m.file);
  if (state.observe({ClaimSource::kNotify, conn->client_name, conn->serial,
                     m.version, m.crc, m.size}) == Verdict::kRestart) {
    restart_history(state);
  }
  touch_file(state.cache_key);
  if (config_.pull_policy == PullPolicy::kEager) {
    maybe_pull(state);
  }
}

void ShadowServer::restart_history(FileState& state) {
  cache_.erase(state.cache_key);
  // Non-gating: replay re-forgets the history before the records after it.
  BufWriter w;
  w.put_string(state.cache_key);
  persist_append_then(persist::RecordType::kShadowEvicted, w.take(), nullptr);
  const bool freed = pulls_.end(state.cache_key, PullTable::kCancel);
  touch_file(state.cache_key);
  if (freed) drain_deferred_pulls();
}

void ShadowServer::rearm_pulls_of(const std::string& client) {
  pulls_.rearm_owner(client, /*held=*/!has_client(client));
  drain_deferred_pulls();
}

bool ShadowServer::pull_needed(const FileState& state, bool need_bytes,
                               bool& materialize) const {
  materialize = false;
  if (state.latest_known() == 0) return false;
  const cache::CacheEntry* entry = cache_.peek(state.cache_key);
  const bool version_current =
      entry != nullptr && entry->version >= state.latest_known();
  // A digest entry satisfies version tracking but cannot feed a job's
  // sandbox: when bytes are needed and only digests (and no pin) are
  // resident, pull full content for the CURRENT version.
  if (version_current) {
    if (!need_bytes || entry->has_bytes()) return false;  // up to date
    auto pinned = pinned_.find(state.cache_key);
    if (pinned != pinned_.end() &&
        pinned->second.version >= state.latest_known()) {
      return false;  // bytes already pinned for the job
    }
    materialize = true;
  }
  if (pulls_.asked(state.cache_key) >= state.latest_known()) {
    return false;  // in flight
  }
  return !state.owner().empty();
}

bool ShadowServer::maybe_pull(FileState& state, bool need_bytes) {
  const std::string& key = state.cache_key;
  // A job's need for bytes outlives the deferral that recorded it.
  const PullTable::Want* wanted = pulls_.wanted(key);
  need_bytes = need_bytes || (wanted != nullptr && wanted->need_bytes);
  bool materialize = false;
  if (!pull_needed(state, need_bytes, materialize)) {
    if (wanted != nullptr) pulls_.end(key, PullTable::kCancel);  // stale
    return false;
  }
  // A file holds at most one slot: a newer version of a file in flight is
  // asked for at once, and its pull replaces the older one.
  const bool holds_slot = pulls_.asked(key) != 0;
  if (!has_client(state.owner())) {
    // No one to ask: a request now would be lost, and the pull would
    // look in flight forever. The owner's Hello retries it. A file still
    // in flight to its old owner waits for that answer instead, which
    // touches the jobs reading it.
    if (!holds_slot) {
      pulls_.want(key, state.owner(), need_bytes, /*held=*/true);
    }
    return false;
  }
  if (!holds_slot && load_says_wait()) {
    // Picked up by the load monitor's retry.
    pulls_.want(key, state.owner(), need_bytes, /*held=*/false);
    return true;
  }
  if (!holds_slot && pulls_.in_flight() >= config_.max_outstanding_pulls) {
    // Flow control: the server refuses to be overrun (§5.2); the next
    // freed slot retries it. Counted once, when first put off.
    if (pulls_.want(key, state.owner(), need_bytes, /*held=*/false)) {
      ++stats_.pulls_deferred;
    }
    return true;
  }
  const cache::CacheEntry* entry = cache_.peek(state.cache_key);
  proto::PullRequest pull;
  pull.file = state.id;
  if (materialize) {
    // have_version 0 = send the whole file; the digest entry stays (the
    // content is pinned for the job, not cached).
    pull.have_version = 0;
  } else if (entry != nullptr && !entry->has_bytes()) {
    // Digest-only base: only a CDC delta (or full content) can advance
    // it, so say so — otherwise the client might ship an ed script the
    // server has no bytes to apply to.
    pull.have_version = entry->version;
    pull.codec_hint = proto::kCodecCdc;
  } else {
    pull.have_version = entry == nullptr ? 0 : entry->version;
  }
  pull.want_version = state.latest_known();
  pulls_.begin(key, state.owner(), state.latest_known(), need_bytes);
  ++stats_.pulls_sent;
  send_to(state.owner(), pull);
  return false;
}

void ShadowServer::drain_deferred_pulls() {
  // In key order; the cursor steps past a pull that is held instead
  // (its owner is gone).
  std::string cursor;
  while (pulls_.in_flight() < config_.max_outstanding_pulls) {
    const auto& queue = pulls_.retry_queue();
    const auto next = queue.upper_bound(cursor);
    if (next == queue.end()) return;
    cursor = *next;  // a copy: sending the pull dequeues it
    if (maybe_pull(files_.at(cursor))) return;  // the load monitor says wait
  }
}

void ShadowServer::handle(Connection* conn, const proto::Update& m) {
  ++stats_.updates_received;
  stats_.update_bytes += m.payload.size();
  FileState& state = file_state(m.file);
  if (pulls_.asked(state.cache_key) == 0) {
    ++stats_.unsolicited_updates;  // request-driven client pushing
  }
  if (pulls_.end(state.cache_key, m.new_version)) drain_deferred_pulls();
  touch_file(state.cache_key);

  // Unwrap compression, then the delta.
  auto decoded = [&]() -> Result<diff::Delta> {
    SHADOW_ASSIGN_OR_RETURN(raw, compress::decompress(m.payload));
    BufReader reader(raw);
    SHADOW_ASSIGN_OR_RETURN(delta, diff::Delta::decode(reader));
    if (!reader.at_end()) {
      return Error{ErrorCode::kProtocolError,
                   "trailing bytes after delta payload"};
    }
    return delta;
  }();
  if (!decoded.ok()) {
    nack_update(conn, m, decoded.error().to_string());
    return;
  }
  const diff::Delta& delta = decoded.value();
  const bool cdc = delta.format == diff::Delta::Format::kCdc;
  if (cdc) ++stats_.cdc_transfers;
  if (cdc || delta.needs_base()) {
    ++stats_.delta_transfers;
  } else {
    ++stats_.full_transfers;
  }

  // A CDC delta never materializes content on the server: it advances the
  // file's chunk-digest signature instead (per-user memory O(digests)).
  // Every other delta rebuilds the content.
  std::optional<cdc::Signature> signature;
  std::optional<std::string> content;
  if (cdc) {
    signature = advance_signature(conn, state, m, delta.cdc);
    if (!signature) return;
  } else {
    content = apply_delta(conn, state, m, delta);
    if (!content) return;
  }
  // Both verified the result against the delta's target CRC; reuse it
  // rather than hashing the file again on this hop.
  const u32 crc = delta.target_crc();
  const u64 size = cdc ? delta.cdc.target_bytes : content->size();

  const cache::CacheEntry* cached = cache_.peek(state.cache_key);
  const Verdict verdict = state.observe(
      {ClaimSource::kUpdate, conn->client_name, conn->serial, m.new_version,
       crc, size, cached != nullptr ? cached->version : 0});
  if (verdict == Verdict::kStale) {
    ++stats_.stale_updates_dropped;  // the cache and acks stay newer
    return;
  }
  if (verdict == Verdict::kMismatch) {
    // Damaged in flight yet still decoded: never cache bad bytes.
    nack_update(conn, m, "content crc mismatch");
    return;
  }
  if (verdict == Verdict::kRestart) restart_history(state);

  // Pin the bytes if a waiting job needs them and the cache will not hold
  // them.
  bool needed_by_job = false;
  if (const auto* readers = queue_.readers_of(state.cache_key)) {
    for (const u64 id : *readers) {
      const job::JobRecord& record = *queue_.find(id).value();
      if (record.state != proto::JobState::kQueued &&
          record.state != proto::JobState::kWaitingFiles) {
        continue;
      }
      for (std::size_t i = 0; i < record.files.size(); ++i) {
        needed_by_job = needed_by_job ||
                        (m.new_version >= record.files[i].version &&
                         record.input_keys[i] == state.cache_key);
      }
    }
  }

  // A CDC-tracked file stays digest-only even when full content arrives
  // (a materialize pull for a job, or a full-transfer fallback): the
  // server re-digests and keeps O(digests) resident; the bytes go to the
  // job pin, never the cache.
  const cache::CacheEntry* existing = cache_.peek(state.cache_key);
  const bool digest = cdc || (existing != nullptr && !existing->has_bytes());
  if (!cdc && digest) {
    signature = cdc::signature_of(*content,
                                  existing->signature.params.valid()
                                      ? existing->signature.params
                                      : cdc::ChunkerParams{});
  }
  // The kShadowCached / kShadowDigest body replay_record() decodes.
  BufWriter body;
  state.id.encode(body);
  body.put_string(state.cache_key);
  body.put_varint(m.new_version);
  body.put_u32(crc);
  if (digest) {
    signature->encode(body);
  } else {
    body.put_string(*content);
  }
  body.put_string(state.owner());

  if (digest) {
    if (needed_by_job && cdc) {
      pin_cdc_target(state, m, delta.cdc);
    } else if (needed_by_job) {
      pinned_[state.cache_key] = PinnedFile{m.new_version, std::move(*content)};
    }
    (void)cache_.put_digest(state.cache_key, m.new_version,
                            std::move(*signature), crc);
    record_event(telemetry::EventKind::kCache,
                 (cdc ? "digest " : "re-digested ") + state.cache_key + " v" +
                     std::to_string(m.new_version) + " (" +
                     std::to_string(size) +
                     (cdc ? " bytes described)" : " bytes)"));
  } else {
    Status put = cache_.put(state.cache_key, m.new_version, *content, crc);
    if (!put.ok() && needed_by_job) {
      pinned_[state.cache_key] = PinnedFile{m.new_version, std::move(*content)};
    }
    record_event(telemetry::EventKind::kCache,
                 (put.ok() ? "cached " : "cache refused ") + state.cache_key +
                     " v" + std::to_string(m.new_version) + " (" +
                     std::to_string(size) + " bytes)");
  }
  touch_file(state.cache_key);

  // The write-ahead rule: the ack is a durability promise, so the record
  // must hit the journal (and survive its fsync) first. A refused append
  // means no ack — the client keeps the version and re-offers it after
  // reconnecting.
  persist_append_then(
      digest ? persist::RecordType::kShadowDigest
             : persist::RecordType::kShadowCached,
      body.take(),
      [this, serial = conn->serial, client = conn->client_name,
       file = m.file, version = m.new_version] {
        proto::UpdateAck ack;
        ack.file = file;
        ack.version = version;
        send_if_attached(serial, client, ack);
        schedule_jobs();
      });
}

std::optional<std::string> ShadowServer::apply_delta(
    Connection* conn, FileState& state, const proto::Update& m,
    const diff::Delta& delta) {
  if (!delta.needs_base()) {
    // apply() on a full-content delta verifies full_crc — bit flips inside
    // the content survive decode, so skipping this would cache bad bytes.
    auto verified = delta.apply(std::string());
    if (!verified.ok()) {
      nack_update(conn, m, verified.error().to_string());
      return std::nullopt;
    }
    return std::move(verified).take();
  }
  // The best-effort cache may have lost the base, hold the wrong one, or
  // hold only its digests (a line delta cannot apply to a signature).
  auto base = cache_.get(state.cache_key);
  if (!base.ok() || base.value()->version != m.base_version ||
      !base.value()->has_bytes()) {
    repull_full(conn, state, m);
    return std::nullopt;
  }
  auto applied = delta.apply(base.value()->content);
  if (!applied.ok()) {
    repull_full(conn, state, m);
    return std::nullopt;
  }
  return std::move(applied).take();
}

std::optional<cdc::Signature> ShadowServer::advance_signature(
    Connection* conn, FileState& state, const proto::Update& m,
    const cdc::CdcDelta& d) {
  // Resolve the base signature the copy ops reference. A digest entry IS
  // the signature; a content entry is chunked on the fly (the transition
  // put: from here on the file is digest-tracked); no copies need no base.
  cdc::Signature base_sig;
  base_sig.params = d.params;
  if (d.has_copies()) {
    const cache::CacheEntry* entry = cache_.peek(state.cache_key);
    if (entry == nullptr || entry->version != m.base_version) {
      repull_full(conn, state, m);
      return std::nullopt;
    }
    base_sig = entry->has_bytes() ? cdc::signature_of(entry->content, d.params)
                                  : entry->signature;
  }
  // Advance digests only: copies are membership-checked against the base
  // signature, literals are digested, and the composed whole-file CRC
  // must match the sender's target CRC (the digest-mode verified apply).
  auto advanced = d.signature_after(base_sig);
  if (!advanced.ok()) {
    ++stats_.digest_advance_failures;
    repull_full(conn, state, m);
    return std::nullopt;
  }
  ++stats_.digest_advances;
  return std::move(advanced).take();
}

void ShadowServer::pin_cdc_target(FileState& state, const proto::Update& m,
                                  const cdc::CdcDelta& d) {
  // Jobs need bytes, not digests. Materialize a pin when the delta alone
  // (all literals) or resident base bytes allow it; otherwise the
  // scheduler issues a materialize pull for full content.
  std::string_view base;
  if (d.has_copies()) {
    const cache::CacheEntry* entry = cache_.peek(state.cache_key);
    auto pin = pinned_.find(state.cache_key);
    if (entry != nullptr && entry->has_bytes() &&
        entry->version == m.base_version) {
      base = entry->content;
    } else if (pin != pinned_.end() && pin->second.version == m.base_version) {
      // An earlier materialize pull pinned the base bytes for a job still
      // in the queue; advancing the pin with the delta beats re-pulling
      // the whole file when edits race the job.
      base = pin->second.content;
    } else {
      return;
    }
  }
  auto bytes = d.apply(base);
  if (bytes.ok()) {
    pinned_[state.cache_key] = PinnedFile{m.new_version, std::move(bytes).take()};
  }
}

void ShadowServer::nack_update(Connection* conn, const proto::Update& m,
                               std::string error) {
  send(conn, proto::UpdateAck{.file = m.file,
                              .version = m.new_version,
                              .ok = false,
                              .error = std::move(error)});
}

void ShadowServer::repull_full(Connection* conn, FileState& state,
                               const proto::Update& m) {
  // Fall back to a full transfer (§5.1). No ack — the re-pull supersedes.
  SHADOW_DEBUG() << config_.name << ": cannot build v" << m.new_version
                 << " of " << m.file.display() << " from base v"
                 << m.base_version << "; re-pulling full";
  proto::PullRequest pull;
  pull.file = m.file;
  pull.have_version = 0;
  pull.want_version = m.new_version;
  pulls_.begin(state.cache_key, conn->client_name, m.new_version,
               /*need_bytes=*/false);
  ++stats_.pulls_sent;
  send(conn, pull);
}

void ShadowServer::handle(Connection* conn, const proto::SubmitJob& m) {
  // Duplicate submit: the original or its reply was lost and the client
  // resent after a resync. Answer from the existing record instead of
  // queueing the job twice. Matching is scoped to this connection: token
  // counters restart with a client process, so an identical-looking
  // submission from a new connection is a genuinely new job.
  if (const job::JobRecord* resent = queue_.find_resubmission(
          conn->serial, conn->client_name, m.client_job_token,
          m.command_file)) {
    proto::SubmitReply reply;
    reply.client_job_token = m.client_job_token;
    reply.job_id = resent->job_id;
    send(conn, reply);
    if (resent->state == proto::JobState::kCompleted ||
        resent->state == proto::JobState::kFailed) {
      deliver_output(*resent);
    }
    return;
  }
  ++stats_.jobs_submitted;
  // Unified overload budget: shed the submit with a retry hint while the
  // server is past any hard budget (drain, parked persist acks, queued
  // output bytes, active jobs). ServerBusy means "try the same job again
  // in a moment".
  if (const char* refusal = admission_refusal(); refusal != nullptr) {
    ++stats_.busy_rejects;
    record_event(telemetry::EventKind::kJob,
                 "submit shed (" + std::string(refusal) + ") from " +
                     conn->client_name);
    if (conn->protocol_version >= 1) {
      send_busy(conn, m.client_job_token, refusal);
    } else {
      // Legacy clients understand only SubmitReply; refuse the old way.
      send(conn, proto::SubmitReply{.client_job_token = m.client_job_token,
                                    .accepted = false,
                                    .reason = refusal});
    }
    return;
  }
  job::JobRecord record;
  record.client_name = conn->client_name;
  record.submitted_via = conn->serial;
  record.client_job_token = m.client_job_token;
  record.command_file = m.command_file;
  record.files = m.files;
  record.output_name = m.output_name;
  record.error_name = m.error_name;
  record.output_route = m.output_route;
  record.detail = "queued";

  // Record what the job will need; the submitting client serves pulls.
  for (const auto& ref : m.files) {
    FileState& state = file_state(ref.file);
    record.input_keys.push_back(state.cache_key);
    if (state.observe({ClaimSource::kSubmit, conn->client_name, conn->serial,
                       ref.version, ref.crc}) == Verdict::kRestart) {
      restart_history(state);
    }
    touch_file(state.cache_key);
  }
  const u64 job_id = queue_.add(std::move(record));
  queue_.set_ready(job_id, files_ready(*queue_.find(job_id).value()));
  jobs_to_visit_.insert(job_id);

  // Journal the accepted job before the SubmitReply: an acked job id is a
  // promise that the job survives a server crash. If the record is never
  // durable there is no reply; the client resubmits after reconnect.
  Bytes job_body;
  {
    auto added = queue_.find(job_id);
    BufWriter w;
    job::encode_job_record(*added.value(), w);
    job_body = w.take();
  }
  // Event details are one-line; keep only the command's first line.
  std::string command_head =
      m.command_file.substr(0, m.command_file.find('\n'));
  persist_append_then(
      persist::RecordType::kJobSubmitted, std::move(job_body),
      [this, serial = conn->serial, client = conn->client_name, job_id,
       token = m.client_job_token, command_head] {
        record_event(telemetry::EventKind::kJob,
                     "job " + std::to_string(job_id) + " accepted from " +
                         client + " (" + command_head + ")");
        proto::SubmitReply reply;
        reply.client_job_token = token;
        reply.job_id = job_id;
        send_if_attached(serial, client, reply);
        schedule_jobs();
      });
}

const std::string* ShadowServer::resident_bytes(const std::string& key,
                                                u64 version) const {
  // Only entries with resident BYTES count: a digest entry tracks the
  // version but cannot fill an executor sandbox.
  const auto* entry = cache_.peek(key);
  if (entry != nullptr && entry->has_bytes() && entry->version >= version) {
    return &entry->content;
  }
  auto pinned = pinned_.find(key);
  if (pinned != pinned_.end() && pinned->second.version >= version) {
    return &pinned->second.content;
  }
  return nullptr;
}

bool ShadowServer::files_ready(const job::JobRecord& record) const {
  for (std::size_t i = 0; i < record.files.size(); ++i) {
    if (resident_bytes(record.input_keys[i], record.files[i].version) ==
        nullptr) {
      return false;
    }
  }
  return true;
}

FileState& ShadowServer::input_state(const job::JobRecord& record,
                                     std::size_t i) {
  auto it = files_.find(record.input_keys[i]);
  return it != files_.end() ? it->second : file_state(record.files[i].file);
}

void ShadowServer::touch_file(const std::string& key) {
  const auto* readers = queue_.readers_of(key);
  if (readers == nullptr) return;
  for (const u64 id : *readers) {
    const job::JobRecord& record = *queue_.find(id).value();
    if (record.state != proto::JobState::kQueued &&
        record.state != proto::JobState::kWaitingFiles) {
      continue;  // running: its sandbox is already filled
    }
    queue_.set_ready(id, files_ready(record));
    jobs_to_visit_.insert(id);
  }
}

void ShadowServer::schedule_jobs() {
  // Oldest first over the jobs whose visit can act (see the header). The
  // cursor re-finds its place after every visit: a visit may start a job,
  // finish it inline and run a nested pass that changes these sets.
  constexpr u64 kNone = ~u64{0};
  u64 cursor = 0;
  for (;;) {
    u64 next = kNone;
    if (auto it = jobs_to_visit_.upper_bound(cursor);
        it != jobs_to_visit_.end()) {
      next = *it;
    }
    if (running_jobs_ < config_.max_concurrent_jobs) {
      const auto& ready = queue_.ready_ids();
      if (auto it = ready.upper_bound(cursor); it != ready.end()) {
        next = std::min(next, *it);
      }
    }
    if (next == kNone) return;
    cursor = next;
    visit_job(*queue_.find(next).value());
  }
}

void ShadowServer::visit_job(job::JobRecord& record) {
  const u64 id = record.job_id;
  jobs_to_visit_.erase(id);
  if (record.state != proto::JobState::kQueued &&
      record.state != proto::JobState::kWaitingFiles) {
    return;
  }
  if (queue_.is_ready(id)) {
    if (running_jobs_ < config_.max_concurrent_jobs && !load_says_wait()) {
      start_job(record);
    }
    return;
  }
  // Demand-driven: pull exactly what the job is missing.
  if (record.state == proto::JobState::kQueued) {
    (void)queue_.transition(id, proto::JobState::kWaitingFiles,
                            "waiting for input files");
  }
  for (std::size_t i = 0; i < record.files.size(); ++i) {
    // Jobs need bytes: a current-but-digest-only entry still pulls.
    maybe_pull(input_state(record, i), /*need_bytes=*/true);
  }
}

void ShadowServer::reindex_jobs() {
  queue_.reindex([this](const proto::JobFileRef& ref) {
    return domains_.cache_key(ref.file);
  });
  jobs_to_visit_.clear();
  for (const u64 id : queue_.active_ids()) {
    const job::JobRecord& record = *queue_.find(id).value();
    if (record.state == proto::JobState::kRunning) continue;
    queue_.set_ready(id, files_ready(record));
    jobs_to_visit_.insert(id);
  }
}

void ShadowServer::start_job(job::JobRecord& record) {
  std::map<std::string, std::string> sandbox;
  for (std::size_t i = 0; i < record.files.size(); ++i) {
    const auto& ref = record.files[i];
    const std::string& key = record.input_keys[i];
    (void)cache_.get(key);  // a job start is a cache access (recency, hits)
    if (const std::string* bytes = resident_bytes(key, ref.version)) {
      sandbox[ref.local_name] = *bytes;
      continue;
    }
    // Evicted between readiness check and start (or resident as digests
    // only): go back to waiting and pull real bytes.
    queue_.set_ready(record.job_id, false);
    (void)queue_.transition(record.job_id, proto::JobState::kWaitingFiles,
                            "input evicted before start; re-pulling");
    jobs_to_visit_.insert(record.job_id);
    maybe_pull(input_state(record, i), /*need_bytes=*/true);
    return;
  }

  (void)queue_.transition(record.job_id, proto::JobState::kRunning,
                          "running");
  // Non-gating: losing this record just means the crash-recovered job
  // replays as still-queued and runs again from scratch.
  {
    BufWriter w;
    w.put_varint(record.job_id);
    persist_append_then(persist::RecordType::kJobStarted, w.take(),
                        nullptr);
  }
  ++running_jobs_;
  load_monitor_.set_demand(static_cast<double>(running_jobs_));

  auto outcome = executor_.run_command_file(record.command_file,
                                            std::move(sandbox));
  job::ExecutionResult result;
  if (outcome.ok()) {
    result = std::move(outcome).take();
  } else {
    result.exit_code = 2;
    result.error = outcome.error().to_string() + "\n";
  }

  const u64 job_id = record.job_id;
  if (sim_ != nullptr) {
    const double seconds =
        static_cast<double>(result.cpu_cost) / config_.cpu_ops_per_second;
    sim_->schedule(sim::from_seconds(seconds),
                   [this, job_id, result = std::move(result)]() mutable {
                     finish_job(job_id, std::move(result));
                   });
  } else {
    finish_job(job_id, std::move(result));
  }
}

void ShadowServer::finish_job(u64 job_id, job::ExecutionResult result) {
  auto found = queue_.find(job_id);
  if (!found.ok()) return;
  job::JobRecord& record = *found.value();
  if (running_jobs_ > 0) --running_jobs_;
  load_monitor_.set_demand(static_cast<double>(running_jobs_));

  release_pins(record);

  record.exit_code = result.exit_code;
  record.cpu_cost = result.cpu_cost;
  record.error_content = result.error;
  // The job's declared output file, if it produced one, takes priority;
  // otherwise stdout is the output (classic batch semantics).
  auto produced = result.sandbox.find(record.output_name);
  record.output_content = (produced != result.sandbox.end())
                              ? produced->second
                              : result.output;

  if (result.exit_code == 0) {
    ++stats_.jobs_completed;
    (void)queue_.transition(job_id, proto::JobState::kCompleted, "completed");
  } else {
    ++stats_.jobs_failed;
    (void)queue_.transition(job_id, proto::JobState::kFailed,
                            "failed: " + result.error);
  }
  record_event(telemetry::EventKind::kJob,
               "job " + std::to_string(job_id) +
                   (result.exit_code == 0 ? " completed" : " failed") +
                   " (exit " + std::to_string(result.exit_code) + ")");

  // The result must be durable before it is delivered: the client's
  // JobOutputAck would otherwise mark delivered a result a crashed server
  // no longer has. The continuation re-finds the record — under group
  // commit it runs after this frame is long gone.
  BufWriter w;
  w.put_varint(record.job_id);
  w.put_u8(static_cast<u8>(record.state));
  w.put_varint_signed(record.exit_code);
  w.put_string(record.output_content);
  w.put_string(record.error_content);
  w.put_varint(record.cpu_cost);
  w.put_string(record.detail);
  persist_append_then(persist::RecordType::kJobFinished, w.take(),
                      [this, job_id] {
                        auto finished = queue_.find(job_id);
                        if (finished.ok()) deliver_output(*finished.value());
                      });

  // A freed job slot may unblock the next queued job.
  schedule_jobs();
}

void ShadowServer::release_pins(const job::JobRecord& finishing) {
  for (const auto& key : finishing.input_keys) {
    // `finishing` is still running, so it is always a reader; a pin it
    // alone reads is no longer needed.
    const auto* readers = queue_.readers_of(key);
    if (readers != nullptr && readers->size() == 1) pinned_.erase(key);
  }
}

std::string ShadowServer::job_signature(const job::JobRecord& record) {
  std::string sig = record.client_name + "|" + record.output_name + "|" +
                    record.command_file;
  std::vector<std::string> keys;
  for (const auto& ref : record.files) keys.push_back(ref.file.key());
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) sig += "|" + k;
  return sig;
}

void ShadowServer::deliver_output(const job::JobRecord& record) {
  // Reverse shadow processing (§8.3): delta against the previous output of
  // the same job. Only applicable when output goes back to the same place.
  diff::Delta output = diff::Delta::make_full(record.output_content);
  u64 generation = 0;
  u64 base_generation = 0;
  if (config_.reverse_shadow) {
    const std::string sig = job_signature(record);
    auto prev = output_cache_.find(sig);
    if (prev != output_cache_.end()) {
      output = diff::Delta::compute(prev->second.content,
                                    record.output_content,
                                    diff::Algorithm::kHuntMcIlroy);
      if (output.needs_base()) {
        base_generation = prev->second.generation;
        ++stats_.output_delta_hits;
      }
    }
    auto& entry = output_cache_[sig];
    entry.generation += 1;
    entry.content = record.output_content;
    generation = entry.generation;
    // Non-gating: a lost reverse-shadow base costs one full output
    // transfer on the next re-run, never correctness.
    BufWriter w;
    w.put_string(sig);
    w.put_varint(entry.generation);
    w.put_string(entry.content);
    persist_append_then(persist::RecordType::kOutputStored, w.take(),
                        nullptr);
  }
  send_output(record, output, generation, base_generation);
}

void ShadowServer::send_output(const job::JobRecord& record,
                               const diff::Delta& output, u64 generation,
                               u64 base_generation) {
  proto::JobOutput out;
  out.job_id = record.job_id;
  out.client_job_token = record.client_job_token;
  out.exit_code = record.exit_code;
  out.output_name = record.output_name;
  out.error_name = record.error_name;
  out.output_generation = generation;
  out.output_base_generation = base_generation;

  BufWriter w;
  output.encode(w);
  out.output_payload = compress::compress(w.take(), config_.output_codec);

  BufWriter ew;
  diff::Delta::make_full(record.error_content).encode(ew);
  out.error_payload = compress::compress(ew.take(), config_.output_codec);

  ++stats_.outputs_sent;
  stats_.output_bytes += out.output_payload.size() + out.error_payload.size();
  send_to(record.output_route.empty() ? record.client_name
                                      : record.output_route,
          out);
}

void ShadowServer::redeliver_outputs(const std::string& client_name) {
  for (const auto& [id, record] : queue_.all()) {
    if (record.client_name != client_name) continue;
    if (record.state == proto::JobState::kCompleted ||
        record.state == proto::JobState::kFailed) {
      deliver_output(record);
    }
  }
}

void ShadowServer::handle(Connection* conn, const proto::StatusQuery& m) {
  proto::StatusReply reply;
  if (m.job_id == 0) {
    reply.jobs = queue_.status_for_client(conn->client_name);
  } else {
    auto found = queue_.find(m.job_id);
    if (found.ok()) {
      proto::JobStatusInfo info;
      info.job_id = m.job_id;
      info.client_job_token = found.value()->client_job_token;
      info.state = found.value()->state;
      info.detail = found.value()->detail;
      reply.jobs.push_back(std::move(info));
    }
  }
  send(conn, reply);
}

void ShadowServer::handle(Connection* conn, const proto::JobOutputAck& m) {
  auto found = queue_.find(m.job_id);
  if (!found.ok()) return;
  job::JobRecord& record = *found.value();
  if (m.ok) {
    if (record.state == proto::JobState::kCompleted ||
        record.state == proto::JobState::kFailed) {
      (void)queue_.transition(m.job_id, proto::JobState::kDelivered,
                              "output delivered");
      // Non-gating: if this record is lost the job replays as kCompleted
      // and the output is re-delivered — a duplicate, not a loss.
      BufWriter w;
      w.put_varint(m.job_id);
      persist_append_then(persist::RecordType::kJobDelivered, w.take(),
                          nullptr);
    }
    return;
  }
  // Client could not apply the output delta (lost its previous output):
  // resend as full content.
  SHADOW_DEBUG() << config_.name << ": client " << conn->client_name
                 << " nacked output of job " << m.job_id
                 << " (" << m.error << "); resending full";
  u64 generation = 0;
  if (config_.reverse_shadow) {
    auto it = output_cache_.find(job_signature(record));
    if (it != output_cache_.end()) generation = it->second.generation;
  }
  send_output(record, diff::Delta::make_full(record.output_content),
              generation, /*base_generation=*/0);
}

void ShadowServer::handle(Connection* conn, const proto::AdminQuery& m) {
  // Read-only: refresh the mirrored server.*/load.* values, then answer
  // from the global registry. Version mismatches come back ok=false from
  // the builder; the query mutates nothing, so it is chaos-safe.
  sync_telemetry();
  send(conn, proto::build_admin_reply(m, telemetry::Registry::global(),
                                      config_.name));
}

namespace {
constexpr u32 kServerSnapshotMagic = 0x53485356;  // "SHSV"
// v2 appended the job queue (crash-consistent durability needs jobs in
// the compacted snapshot, not only in the journal). v3 appended the
// shard manifest (shard id + shard count) for the thread-per-core
// server; v2 snapshots still restore (as shard 0 of 1). v4 added the
// per-entry kind byte to the cache section (content vs digest-only CDC
// entries); v2/v3 snapshots decode every entry as content.
constexpr u8 kSnapshotVersion = 4;
constexpr u8 kMinSnapshotVersion = 2;
}  // namespace

Bytes ShadowServer::save_state() const {
  BufWriter w;
  w.put_u32(kServerSnapshotMagic);
  w.put_u8(kSnapshotVersion);
  cache_.encode(w);
  domains_.encode(w);
  w.put_varint(files_.size());
  for (const auto& [key, state] : files_) state.encode(w);
  w.put_varint(output_cache_.size());
  for (const auto& [sig, entry] : output_cache_) {
    w.put_string(sig);
    w.put_varint(entry.generation);
    w.put_string(entry.content);
  }
  queue_.encode(w);
  // v3 shard manifest, at the tail so a v2 reader-shaped layout precedes
  // it unchanged.
  w.put_varint(config_.shard_id);
  w.put_varint(config_.shard_count);
  return w.take();
}

Status ShadowServer::restore_state(const Bytes& snapshot) {
  BufReader r(snapshot);
  SHADOW_ASSIGN_OR_RETURN(magic, r.get_u32());
  SHADOW_ASSIGN_OR_RETURN(version, r.get_u8());
  if (magic != kServerSnapshotMagic || version < kMinSnapshotVersion ||
      version > kSnapshotVersion) {
    return Error{ErrorCode::kInvalidArgument, "not a server snapshot"};
  }
  SHADOW_TRY(cache_.restore(r, /*with_kinds=*/version >= 4));
  SHADOW_ASSIGN_OR_RETURN(domains, naming::DomainMap::decode(r));
  domains_ = std::move(domains);
  SHADOW_ASSIGN_OR_RETURN(file_count, r.get_varint());
  if (file_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "file count exceeds data"};
  }
  files_.clear();
  for (u64 i = 0; i < file_count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(state, FileState::decode(r));
    files_.emplace(state.cache_key, std::move(state));
  }
  SHADOW_ASSIGN_OR_RETURN(output_count, r.get_varint());
  if (output_count > r.remaining()) {
    return Error{ErrorCode::kProtocolError, "output count exceeds data"};
  }
  output_cache_.clear();
  for (u64 i = 0; i < output_count; ++i) {
    SHADOW_ASSIGN_OR_RETURN(sig, r.get_string());
    SHADOW_ASSIGN_OR_RETURN(generation, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(content, r.get_string());
    output_cache_[sig] = OutputCacheEntry{generation, std::move(content)};
  }
  SHADOW_ASSIGN_OR_RETURN(queue, job::JobQueue::restore(r));
  queue_ = std::move(queue);
  if (version >= 3) {
    SHADOW_ASSIGN_OR_RETURN(snap_shard, r.get_varint());
    SHADOW_ASSIGN_OR_RETURN(snap_count, r.get_varint());
    // A re-sharded deployment (e.g. --threads 4 over a store written with
    // --threads 2) changes which shard owns which file. Stale entries are
    // only cache — clients re-announce and re-pull on reconnect — so warn
    // and keep what we have rather than refuse to start.
    if (snap_shard != config_.shard_id || snap_count != config_.shard_count) {
      SHADOW_WARN() << config_.name << ": snapshot written as shard "
                    << snap_shard << "/" << snap_count << ", recovering as "
                    << config_.shard_id << "/" << config_.shard_count
                    << "; cached state may belong to sibling shards";
    }
  }
  if (!r.at_end()) {
    return Error{ErrorCode::kProtocolError, "trailing bytes in snapshot"};
  }
  pulls_ = PullTable();  // no connection survives a restore
  reindex_jobs();
  return Status();
}

void ShadowServer::reset_volatile_state() {
  cache_.clear();
  domains_ = naming::DomainMap();
  queue_ = job::JobQueue();
  files_.clear();
  output_cache_.clear();
  pinned_.clear();
  pulls_ = PullTable();
  reindex_jobs();
}

namespace {
/// The prefix of every kShadowCached and kShadowDigest body: the file, its
/// cache key, and the shadow id that key encodes.
struct CacheRecordHead {
  naming::GlobalFileId id;
  std::string key;
  naming::ShadowId sid = 0;
};

Result<CacheRecordHead> decode_cache_record_head(BufReader& r) {
  SHADOW_ASSIGN_OR_RETURN(id, naming::GlobalFileId::decode(r));
  SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
  // A malformed key is possible only with a corrupted-but-CRC-colliding
  // journal; the replay stops there.
  const auto sid = naming::DomainMap::parse_cache_key(key);
  if (!sid) {
    return Error{ErrorCode::kProtocolError, "malformed cache key " + key};
  }
  return CacheRecordHead{std::move(id), std::move(key), *sid};
}
}  // namespace

Status ShadowServer::replay_record(const persist::JournalRecord& record) {
  BufReader r(record.body);
  switch (record.type) {
    case persist::RecordType::kShadowCached:
    case persist::RecordType::kShadowDigest: {
      const bool digest = record.type == persist::RecordType::kShadowDigest;
      SHADOW_ASSIGN_OR_RETURN(head, decode_cache_record_head(r));
      SHADOW_ASSIGN_OR_RETURN(version, r.get_varint());
      SHADOW_ASSIGN_OR_RETURN(crc, r.get_u32());
      std::string content;
      cdc::Signature sig;
      if (digest) {
        SHADOW_ASSIGN_OR_RETURN(decoded, cdc::Signature::decode(r));
        sig = std::move(decoded);
      } else {
        SHADOW_ASSIGN_OR_RETURN(decoded, r.get_string());
        content = std::move(decoded);
      }
      SHADOW_ASSIGN_OR_RETURN(owner, r.get_string());
      domains_.bind(head.id, head.sid);
      files_.try_emplace(head.key, head.id, head.key)
          .first->second.observe(
              {ClaimSource::kUpdate, owner, /*serial=*/0, version, crc,
               digest ? sig.total_bytes() : content.size()});
      // A refused put (over budget) is the cache's normal best-effort
      // behaviour, not a replay failure.
      if (digest) {
        (void)cache_.put_digest(head.key, version, std::move(sig), crc);
      } else {
        (void)cache_.put(head.key, version, std::move(content), crc);
      }
      return Status();
    }
    case persist::RecordType::kShadowEvicted: {
      SHADOW_ASSIGN_OR_RETURN(key, r.get_string());
      cache_.erase(key);
      auto it = files_.find(key);
      if (it != files_.end()) it->second.observe({ClaimSource::kEvicted, {}});
      return Status();
    }
    case persist::RecordType::kJobSubmitted: {
      SHADOW_ASSIGN_OR_RETURN(job, job::decode_job_record(r));
      // Seed per-file knowledge so the rerun can pull what it needs once
      // the owner reconnects; intern is safe — every key the journal ever
      // assigned was bound in the pre-pass.
      for (const auto& ref : job.files) {
        FileState& state = file_state(ref.file);
        job.input_keys.push_back(state.cache_key);
        state.observe({ClaimSource::kSubmit, job.client_name, /*serial=*/0,
                       ref.version, ref.crc});
      }
      queue_.restore_record(std::move(job));
      return Status();
    }
    case persist::RecordType::kJobStarted: {
      SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
      auto found = queue_.find(job_id);
      if (!found.ok()) return Status();  // older than the snapshot horizon
      const job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kQueued ||
          job.state == proto::JobState::kWaitingFiles) {
        queue_.restore_state(job_id, proto::JobState::kRunning,
                             "running (journal)");
      }
      return Status();
    }
    case persist::RecordType::kJobFinished: {
      SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
      SHADOW_ASSIGN_OR_RETURN(state_raw, r.get_u8());
      SHADOW_ASSIGN_OR_RETURN(exit_code, r.get_varint_signed());
      SHADOW_ASSIGN_OR_RETURN(output_content, r.get_string());
      SHADOW_ASSIGN_OR_RETURN(error_content, r.get_string());
      SHADOW_ASSIGN_OR_RETURN(cpu_cost, r.get_varint());
      SHADOW_ASSIGN_OR_RETURN(detail, r.get_string());
      if (state_raw != static_cast<u8>(proto::JobState::kCompleted) &&
          state_raw != static_cast<u8>(proto::JobState::kFailed)) {
        return Error{ErrorCode::kProtocolError, "bad finished state"};
      }
      auto found = queue_.find(job_id);
      if (!found.ok()) return Status();
      job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kDelivered) return Status();
      queue_.restore_state(job_id, static_cast<proto::JobState>(state_raw),
                           detail);
      job.exit_code = static_cast<int>(exit_code);
      job.output_content = std::move(output_content);
      job.error_content = std::move(error_content);
      job.cpu_cost = cpu_cost;
      return Status();
    }
    case persist::RecordType::kJobDelivered: {
      SHADOW_ASSIGN_OR_RETURN(job_id, r.get_varint());
      auto found = queue_.find(job_id);
      if (!found.ok()) return Status();
      const job::JobRecord& job = *found.value();
      if (job.state == proto::JobState::kCompleted ||
          job.state == proto::JobState::kFailed) {
        queue_.restore_state(job_id, proto::JobState::kDelivered,
                             "output delivered");
      }
      return Status();
    }
    case persist::RecordType::kOutputStored: {
      SHADOW_ASSIGN_OR_RETURN(sig, r.get_string());
      SHADOW_ASSIGN_OR_RETURN(generation, r.get_varint());
      SHADOW_ASSIGN_OR_RETURN(content, r.get_string());
      auto& entry = output_cache_[sig];
      if (generation >= entry.generation) {
        entry.generation = generation;
        entry.content = std::move(content);
      }
      return Status();
    }
  }
  return Error{ErrorCode::kProtocolError,
               "unknown record type " +
                   std::to_string(static_cast<unsigned>(record.type))};
}

void ShadowServer::requeue_orphans() {
  // Copied: failing an orphan takes it out of the active set.
  const std::vector<u64> active(queue_.active_ids().begin(),
                                queue_.active_ids().end());
  for (const u64 id : active) {
    job::JobRecord& record = *queue_.find(id).value();
    if (record.state != proto::JobState::kRunning) continue;
    if (record.retries >= config_.max_job_retries) {
      // Enough is enough: a job that dies with the server on every
      // attempt is failed for good, and the owner is told why (the
      // failure is delivered like any other result).
      ++stats_.retry_capped_jobs;
      ++stats_.jobs_failed;
      queue_.restore_state(id, proto::JobState::kFailed,
                           "failed: interrupted by repeated server crashes");
      record.exit_code = 2;
      record.error_content =
          "job " + std::to_string(id) + " was interrupted by a server "
          "crash " + std::to_string(record.retries + 1) + " time(s); "
          "retry limit (" + std::to_string(config_.max_job_retries) +
          ") reached, not re-queued\n";
      record.output_content.clear();
    } else {
      (void)queue_.requeue(id, "re-queued after server restart");
      ++stats_.requeued_jobs;
    }
  }
}

Status ShadowServer::recover_from_storage() {
  if (store_ == nullptr) return Status();
  SHADOW_ASSIGN_OR_RETURN(recovered, store_->recover());

  bool dirty = recovered.journal_torn || recovered.snapshot_corrupt;
  if (!recovered.snapshot.empty()) {
    Status st = restore_state(recovered.snapshot);
    if (!st.ok()) {
      // Same posture as a CRC failure inside the store: a snapshot this
      // process cannot parse degrades to journal-only recovery.
      SHADOW_WARN() << config_.name << ": snapshot unusable ("
                    << st.to_string() << "); replaying journal only";
      reset_volatile_state();
      dirty = true;
    } else {
      dirty = true;
    }
  }

  // Pre-pass: bind every (file id, shadow id) pair the journal assigned
  // BEFORE any record is replayed. Replaying a job first could otherwise
  // intern one of its files under a fresh id that a later cache record
  // (content or digest) claims for a different file.
  for (const auto& record : recovered.records) {
    if (record.type != persist::RecordType::kShadowCached &&
        record.type != persist::RecordType::kShadowDigest) {
      continue;
    }
    BufReader r(record.body);
    auto head = decode_cache_record_head(r);
    if (head.ok()) domains_.bind(head.value().id, head.value().sid);
    // A record that does not decode stops the full replay below.
  }

  for (const auto& record : recovered.records) {
    Status st = replay_record(record);
    if (!st.ok()) {
      // A record that passed its CRC but does not decode is as trustworthy
      // as a torn tail: stop here and keep the clean prefix.
      SHADOW_WARN() << config_.name << ": journal replay stopped at offset "
                    << record.offset << ": " << st.to_string();
      dirty = true;
      break;
    }
    ++stats_.recovered_records;
    dirty = true;
  }

  requeue_orphans();
  reindex_jobs();

  record_event(telemetry::EventKind::kServer,
               "recovered from storage: " +
                   std::to_string(stats_.recovered_records) +
                   " journal records replayed");

  // Fold the replay into a fresh snapshot and truncate — this is also
  // what durably discards a torn tail instead of re-reading it forever.
  if (dirty) compact_persist();

  schedule_jobs();
  return Status();
}

void ShadowServer::sync_telemetry() const {
  auto& r = telemetry::Registry::global();
  // Every name carries this server's prefix ("shard2." on shard 2 of a
  // ShardedServer, empty standalone) so `shadowtop --filter shard2.`
  // selects one shard's view; the facade writes the aggregated plain
  // server.* names.
  const std::string& p = config_.telemetry_prefix;
  // store(), not add(): these counters MIRROR the authoritative ServerStats
  // accumulators, so re-syncing is idempotent.
  for (const auto& field : kServerStatsFields) {
    r.counter(p + field.name).store(stats_.*field.member);
  }

  // CDC digest tracking (docs/DELTAS.md): what the digest-only entries
  // cost vs represent.
  const auto digests = cache_.digest_stats();
  r.gauge(p + "server.digest_entries")
      .set(static_cast<double>(digests.entries));
  r.gauge(p + "server.digest_resident_bytes")
      .set(static_cast<double>(digests.resident_bytes));
  r.gauge(p + "server.digest_represented_bytes")
      .set(static_cast<double>(digests.represented_bytes));

  // Overload control & leases (docs/OPERATIONS.md).
  r.gauge(p + "overload.queued_bytes")
      .set(static_cast<double>(total_queued_bytes()));
  r.gauge(p + "overload.draining").set(draining_ ? 1.0 : 0.0);
  r.gauge(p + "lease.usec").set(static_cast<double>(config_.lease_usec));

  r.gauge(p + "server.connections")
      .set(static_cast<double>(connections_.size()));
  r.gauge(p + "server.named_clients")
      .set(static_cast<double>(clients_.size()));
  r.gauge(p + "server.tracked_files").set(static_cast<double>(files_.size()));
  r.gauge(p + "server.outstanding_pulls")
      .set(static_cast<double>(pulls_.in_flight()));
  r.gauge(p + "server.running_jobs").set(static_cast<double>(running_jobs_));
  r.gauge(p + "server.active_jobs")
      .set(static_cast<double>(queue_.active_count()));
  r.gauge(p + "server.cache_bytes")
      .set(static_cast<double>(cache_.bytes_used()));
  r.gauge(p + "server.cache_entries")
      .set(static_cast<double>(cache_.entry_count()));
  r.gauge(p + "server.pinned_files").set(static_cast<double>(pinned_.size()));
  r.gauge(p + "server.output_cache_entries")
      .set(static_cast<double>(output_cache_.size()));
  r.gauge(p + "server.persist_alive").set(persist_alive() ? 1.0 : 0.0);

  // Per-connection session totals, summed (the per-channel breakdown stays
  // in ReliableChannel::Stats). Only a server that runs reliable sessions
  // has any; shards never do (the lobby routes raw frames), so a shard's
  // counters are exactly the ServerStats rows the facade sums.
  if (config_.reliable_session) {
    const auto sessions = session_stats();
    r.counter(p + "server.session_data_sent").store(sessions.data_sent);
    r.counter(p + "server.session_delivered").store(sessions.delivered);
    r.counter(p + "server.session_retransmits").store(sessions.retransmits);
    r.counter(p + "server.session_corrupt_dropped")
        .store(sessions.corrupt_dropped);
    r.counter(p + "server.session_desyncs").store(sessions.desyncs);
  }

  load_monitor_.publish(p);
}

Status ShadowServer::check_job_indexes() const {
  SHADOW_TRY(queue_.check_indexes());
  auto fail = [](u64 id, const std::string& what) {
    return Error{ErrorCode::kInternal,
                 "job " + std::to_string(id) + ": " + what};
  };
  for (const auto& [id, record] : queue_.all()) {
    const bool active = queue_.active_ids().count(id) != 0;
    if (record.input_keys.size() != (active ? record.files.size() : 0)) {
      return fail(id, "input keys not resolved");
    }
    for (std::size_t i = 0; i < record.input_keys.size(); ++i) {
      if (domains_.find_cache_key(record.files[i].file) !=
          record.input_keys[i]) {
        return fail(id, "input key " + record.input_keys[i] + " is stale");
      }
    }
    const bool unstarted = record.state == proto::JobState::kQueued ||
                           record.state == proto::JobState::kWaitingFiles;
    const bool marked = jobs_to_visit_.count(id) != 0;
    if (!unstarted) {
      if (marked) return fail(id, "scheduled for a visit but not waiting");
      continue;
    }
    if (files_ready(record) != queue_.is_ready(id)) {
      return fail(id, "ready index disagrees with the cache");
    }
    if (marked || queue_.is_ready(id)) continue;
    // Skipped by the next pass: its visit there must change nothing, so
    // every pull it would ask for is in flight or wanted with its bytes.
    if (record.state == proto::JobState::kQueued) {
      return fail(id, "queued but never visited");
    }
    for (const auto& key : record.input_keys) {
      const FileState& state = files_.at(key);
      bool materialize = false;
      if (!pull_needed(state, /*need_bytes=*/true, materialize)) continue;
      // A newer version of a file in flight waits only for an absent owner.
      const PullTable::Want* want = pulls_.wanted(key);
      const bool held_back =
          pulls_.asked(key) != 0
              ? !has_client(state.owner())
              : want != nullptr && (want->need_bytes ||
                                    pull_needed(state, false, materialize));
      if (!held_back) {
        return fail(id, "needs a pull of " + key + " that nothing will send");
      }
    }
  }
  // The pull table: the published gauge counts the pulls in flight, a file
  // has one entry, and a wanted pull waits only for a slot, the load
  // monitor or its owner.
  sync_telemetry();
  const double gauge = telemetry::Registry::global()
                           .gauge(config_.telemetry_prefix +
                                  "server.outstanding_pulls")
                           .value();
  if (gauge != static_cast<double>(pulls_.flights().size())) {
    return Error{ErrorCode::kInternal,
                 "outstanding_pulls gauge reads " + std::to_string(gauge) +
                     " with " + std::to_string(pulls_.flights().size()) +
                     " pulls in flight"};
  }
  const bool slot_free = pulls_.in_flight() < config_.max_outstanding_pulls &&
                         !load_monitor_.overloaded() && !load_retry_scheduled_;
  for (const auto& [key, want] : pulls_.wants()) {
    if (pulls_.asked(key) != 0) {
      return Error{ErrorCode::kInternal, key + " both in flight and wanted"};
    }
    if (has_client(want.owner) && (want.held || slot_free)) {
      return Error{ErrorCode::kInternal, key + " wanted with nothing to wait for"};
    }
  }
  return Status();
}

void ShadowServer::evict_file(const naming::GlobalFileId& id) {
  const std::string key = domains_.cache_key(id);
  cache_.erase(key);
  pinned_.erase(key);
  touch_file(key);
}

}  // namespace shadow::server
