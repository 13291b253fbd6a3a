#include "server/sharded_server.hpp"

#include <poll.h>
#include <unistd.h>

#include <variant>

#include "proto/admin.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace shadow::server {

namespace {
constexpr int kServeRoundMs = 50;  // serve()'s longest wait per round
}  // namespace

ShardedServer::ShardedServer(ServerConfig base, std::size_t shard_count,
                             std::vector<persist::DurableStore*> stores)
    : base_(std::move(base)), router_(shard_count) {
  // The lobby reads raw protocol frames to route; a reliable session
  // would wrap them in channel frames it cannot peek through.
  base_.reliable_session = false;
  const std::size_t n = router_.shard_count();
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ServerConfig cfg = base_;
    cfg.shard_id = i;
    cfg.shard_count = n;
    cfg.telemetry_prefix =
        n > 1 ? "shard" + std::to_string(i) + "." : std::string();
    persist::DurableStore* store =
        i < stores.size() ? stores[i] : nullptr;
    auto shard = std::make_unique<ShadowServer>(cfg, nullptr, store);
    shard->set_peer_router(
        [this, i](const std::string& client, const proto::Message& m) {
          return route_to_peer(i, client, m);
        });
    shards_.push_back(std::move(shard));
  }
}

ShardedServer::~ShardedServer() { stop_threads(); }

std::optional<std::size_t> ShardedServer::shard_of_client(
    const std::string& client_name) const {
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto it = client_shard_.find(client_name);
  if (it == client_shard_.end()) return std::nullopt;
  return it->second;
}

Status ShardedServer::recover_all() {
  for (auto& shard : shards_) {
    SHADOW_TRY(shard->recover_from_storage());
  }
  return Status();
}

std::size_t ShardedServer::route_hello(const proto::Hello& hello) {
  const std::size_t s =
      router_.shard_of_client(hello.domain, hello.client_name);
  std::lock_guard<std::mutex> lock(clients_mu_);
  client_shard_[hello.client_name] = s;
  return s;
}

bool ShardedServer::route_to_peer(std::size_t from_shard,
                                  const std::string& client_name,
                                  const proto::Message& m) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    auto it = client_shard_.find(client_name);
    if (it == client_shard_.end()) return false;
    target = it->second;
  }
  if (target == from_shard) return false;  // send_to already missed here
  if (target < loops_.size() && !threads_.empty()) {
    // Hop to the client's home loop; the send happens on its thread.
    loops_[target]->post([this, target, client_name, m] {
      shards_[target]->send_to(client_name, m);
    });
  } else {
    shards_[target]->send_to(client_name, m);
  }
  return true;
}

// ---- inline mode ----

void ShardedServer::attach(net::Transport* transport) {
  transport->set_receiver([this, transport](Bytes wire) {
    route_first_message(transport, wire);
  });
}

void ShardedServer::route_first_message(net::Transport* transport,
                                        const Bytes& wire) {
  auto decoded = proto::decode_message(wire);
  if (!decoded.ok()) {
    ++lobby_malformed_;
    SHADOW_WARN() << base_.name << ": lobby dropping malformed message: "
                  << decoded.error().to_string();
    return;
  }
  if (const auto* hello = std::get_if<proto::Hello>(&decoded.value())) {
    const std::size_t s = route_hello(*hello);
    // attach() installs the shard as the transport's receiver; replaying
    // the consumed Hello through inject_message() makes the handshake
    // indistinguishable from a standalone server's.
    shards_[s]->attach(transport);
    shards_[s]->inject_message(transport, wire);
    return;
  }
  if (const auto* admin = std::get_if<proto::AdminQuery>(&decoded.value())) {
    // shadowtop never says Hello; the connection stays in the lobby and
    // every AdminQuery it sends lands back here.
    Status st = transport->send(proto::encode_message(answer_admin(*admin)));
    if (!st.ok()) {
      SHADOW_WARN() << base_.name
                    << ": admin reply failed: " << st.to_string();
    }
    return;
  }
  SHADOW_WARN() << base_.name << ": lobby expected Hello, got "
                << proto::message_type_name(proto::type_of(decoded.value()));
}

std::size_t ShardedServer::tick() {
  std::size_t total = 0;
  for (auto& shard : shards_) total += shard->tick();
  return total;
}

// ---- overload control & graceful drain ----

void ShardedServer::begin_drain() {
  if (draining_.exchange(true)) return;
  on_every_shard([this](std::size_t i) { shards_[i]->begin_drain(); });
}

bool ShardedServer::drain_complete() {
  std::vector<char> done(shards_.size(), 0);
  on_every_shard([this, &done](std::size_t i) {
    // flush_persist() seals the open commit window and collects finished
    // pipelined batches (releasing their acks) before the completeness
    // check — all on shard i's own thread. Records journaled after
    // begin_drain() (a job the drain's own flush let finish) must not
    // wait out the window. Queued bytes count as pending: a drain notice
    // still parked behind a slow reader has not reached its client yet.
    shards_[i]->flush_persist();
    done[i] = shards_[i]->drain_complete() &&
              shards_[i]->total_queued_bytes() == 0;
  });
  for (const char d : done) {
    if (d == 0) return false;
  }
  return true;
}

// ---- threaded mode ----

void ShardedServer::start_threads() {
  if (!threads_.empty()) return;
  const std::size_t n = shards_.size();
  loops_.clear();
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<net::EventLoop>();
    loop->set_on_detach([this, i](net::TcpTransport* t) {
      shards_[i]->detach(t);
    });
    // Per-shard group commit: the idle hook closes expired commit
    // windows and collects pipelined batches without any cross-shard
    // coordination — each shard batches only its own journal. While a
    // window is open the loop polls with the window's remaining time as
    // its timeout, so a deferred ack never waits out the full 50 ms
    // default on an otherwise idle shard.
    loop->set_on_idle([this, i, raw = loop.get()] {
      (void)shards_[i]->pump_persist();
      // Lease expiry and doomed-connection reaping run here — never from
      // inside a handler — so a reclaimed Connection can't be on the
      // loop's dispatch stack.
      (void)shards_[i]->expire_leases();
      (void)shards_[i]->reap_doomed();
      const int hint = shards_[i]->persist_poll_hint_ms();
      if (hint > 0) raw->set_poll_timeout_hint(hint);
    });
    loops_.push_back(std::move(loop));
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([loop = loops_[i].get()] { loop->run(); });
  }
}

void ShardedServer::stop_threads() {
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Close every shard's open commit window before shutdown returns: a
  // record the server wrote must not sit unfsynced in a batch whose
  // window never expired. Any acks this releases go to connections the
  // stopped loops already detached, which send_if_attached drops.
  for (auto& shard : shards_) {
    shard->flush_persist();
    shard->wait_persist_idle();
  }
}

void ShardedServer::serve(net::TcpListener& listener,
                          std::function<bool()> done) {
  std::vector<pollfd> fds;
  while (!done()) {
    // Frames already buffered in a lobby inbox need no wait; otherwise
    // sleep until the listener or a lobby socket has something. A signal
    // ends the wait early (EINTR), so done() sees it within the round.
    int timeout_ms = kServeRoundMs;
    fds.clear();
    fds.push_back({listener.fd(), POLLIN, 0});
    for (const auto& conn : lobby_) {
      if (!conn->inbox.empty()) timeout_ms = 0;
      fds.push_back({conn->transport->fd(), POLLIN, 0});
    }
    (void)::poll(fds.data(), fds.size(), timeout_ms);
    for (auto accepted = listener.accept(); accepted.ok();
         accepted = listener.accept()) {
      adopt_tcp(std::move(accepted).take());
    }
    poll_lobby();
  }
}

void ShardedServer::adopt_tcp(std::unique_ptr<net::TcpTransport> transport) {
  ++accepted_;
  auto conn = std::make_unique<LobbyConn>();
  conn->transport = std::move(transport);
  LobbyConn* raw = conn.get();
  raw->transport->set_receiver(
      [raw](Bytes wire) { raw->inbox.push_back(std::move(wire)); });
  lobby_.push_back(std::move(conn));
}

std::size_t ShardedServer::poll_lobby() {
  std::size_t handled = 0;
  for (auto it = lobby_.begin(); it != lobby_.end();) {
    LobbyConn& conn = **it;
    conn.transport->poll();
    if (conn.inbox.empty()) {
      if (conn.transport->closed()) {
        it = lobby_.erase(it);  // gone before identifying itself
        continue;
      }
      ++it;
      continue;
    }
    auto decoded = proto::decode_message(conn.inbox.front());
    if (!decoded.ok()) {
      ++lobby_malformed_;
      SHADOW_WARN() << base_.name << ": lobby dropping malformed message: "
                    << decoded.error().to_string();
      conn.inbox.erase(conn.inbox.begin());
      ++handled;
      ++it;
      continue;
    }
    if (const auto* hello = std::get_if<proto::Hello>(&decoded.value())) {
      if (draining_.load()) {
        // Drain refuses at the lobby: the socket never reaches a shard
        // loop. v1 clients get the retry hint; v0 just see the close.
        if (hello->protocol_version >= 1) {
          proto::ServerBusy busy;
          busy.retry_after_usec = base_.overload.retry_after_usec;
          busy.draining = true;
          busy.reason = "server draining";
          (void)conn.transport->send(proto::encode_message(busy));
        }
        it = lobby_.erase(it);
        ++handled;
        continue;
      }
      const std::size_t s = route_hello(*hello);
      // Push every buffered frame (Hello included) back onto the front of
      // the receive buffer — reverse order restores arrival order — so the
      // shard's first poll replays them through its own dispatch.
      for (auto frame = conn.inbox.rbegin(); frame != conn.inbox.rend();
           ++frame) {
        conn.transport->unread_message(*frame);
      }
      conn.inbox.clear();
      conn.transport->set_receiver(nullptr);
      loops_[s]->adopt(std::move(conn.transport),
                       [this, s](net::TcpTransport* t) {
                         shards_[s]->attach(t);
                       });
      it = lobby_.erase(it);
      ++handled;
      continue;
    }
    if (const auto* admin =
            std::get_if<proto::AdminQuery>(&decoded.value())) {
      conn.inbox.erase(conn.inbox.begin());
      Status st = conn.transport->send(
          proto::encode_message(answer_admin(*admin)));
      if (!st.ok()) {
        SHADOW_WARN() << base_.name
                      << ": admin reply failed: " << st.to_string();
      }
      ++handled;
      ++it;
      continue;
    }
    SHADOW_WARN() << base_.name << ": lobby expected Hello, got "
                  << proto::message_type_name(
                         proto::type_of(decoded.value()));
    conn.inbox.erase(conn.inbox.begin());
    ++handled;
    ++it;
  }
  return handled;
}

std::size_t ShardedServer::live_connections() const {
  std::size_t total = lobby_.size();
  for (const auto& loop : loops_) {
    total += static_cast<std::size_t>(loop->adopted_total() -
                                      loop->closed_total());
  }
  return total;
}

void ShardedServer::on_every_shard(
    const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    loops_[i]->post([&fn, &done, i] {
      fn(i);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Bounded wait: a loop thread services its queue every round (<= 50ms
  // poll timeout). 5s of silence means a wedged loop; give up rather than
  // hang the admin path with it.
  for (int spins = 0; done.load(std::memory_order_acquire) < shards_.size();
       ++spins) {
    if (spins > 5000) {
      SHADOW_WARN() << base_.name
                    << ": shard loop unresponsive; partial aggregation";
      break;
    }
    ::usleep(1000);
  }
}

ServerStats ShardedServer::aggregate_stats() {
  std::vector<ServerStats> copies(shards_.size());
  on_every_shard([this, &copies](std::size_t i) {
    copies[i] = shards_[i]->stats();  // copied on shard i's own thread
  });
  ServerStats total;
  for (const auto& copy : copies) total += copy;
  total.malformed_dropped += lobby_malformed_.load();
  return total;
}

void ShardedServer::sync_telemetry() {
  // Each shard refreshes its shard<i>.-prefixed mirror on its own thread.
  on_every_shard([this](std::size_t i) { shards_[i]->sync_telemetry(); });
  const ServerStats total = aggregate_stats();

  auto& r = telemetry::Registry::global();
  // The plain names shadowtop has always shown carry the fleet-wide sums;
  // shard<i>. has the per-shard breakdown.
  for (const auto& field : kServerStatsFields) {
    r.counter(field.name).store(total.*field.member);
  }
  r.gauge("overload.draining").set(draining_ ? 1.0 : 0.0);

  r.gauge("shards.count").set(static_cast<double>(shards_.size()));
  r.gauge("shards.connections")
      .set(static_cast<double>(live_connections()));
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    r.gauge("shards.named_clients")
        .set(static_cast<double>(client_shard_.size()));
  }
}

proto::AdminReply ShardedServer::answer_admin(
    const proto::AdminQuery& query) {
  sync_telemetry();
  return proto::build_admin_reply(query, telemetry::Registry::global(),
                                  base_.name);
}

}  // namespace shadow::server
