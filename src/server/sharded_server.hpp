// Thread-per-core server facade (docs/CONCURRENCY.md): N independent
// ShadowServer shards, each owning its own cache, job queue, file-state
// table and (optionally) durable store, with connections pinned to one
// shard for their whole life.
//
// A connection enters through the LOBBY. The first frame decides where it
// lives: a Hello routes it to ShardRouter::shard_of_client(domain, name)
// and is replayed into that shard so the handshake is handled exactly as
// a standalone server would; an AdminQuery keeps the connection in the
// lobby (shadowtop never says Hello) and is answered at the facade from
// aggregated telemetry. After routing, every message the connection ever
// carries is handled on its shard — the submit/update hot path takes no
// cross-shard lock, and in threaded mode no lock at all.
//
// Two run modes share all of the routing logic:
//   * INLINE (threaded == false): everything on the caller's thread —
//     loopback/Sim transports, tests, benchmarks. Deterministic; the only
//     mode allowed with a Simulator (ROADMAP: sim runs stay pinned to a
//     single loop).
//   * THREADED (threaded == true): one net::EventLoop + std::thread per
//     shard; the acceptor thread runs serve() — accept plus the lobby —
//     and hands routed sockets over with EventLoop::adopt(). This is
//     shadowd, for every --threads N >= 1.
//
// Cross-shard traffic exists on exactly one path: a job whose
// output_route names a client pinned to a sibling shard (§8.3). The
// facade forwards the finished output to the client's home shard — a
// per-output cost, never per-update.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/transport.hpp"
#include "persist/durable_store.hpp"
#include "proto/messages.hpp"
#include "server/shadow_server.hpp"
#include "server/shard_router.hpp"
#include "sim/simulator.hpp"

namespace shadow::server {

class ShardedServer {
 public:
  /// `stores` is empty (no durability) or one DurableStore per shard, all
  /// outliving the facade. `simulator` forces inline mode. The base
  /// config's reliable_session must be false (the lobby peeks at raw
  /// frames); shard_id/shard_count/telemetry_prefix are overwritten per
  /// shard.
  ShardedServer(ServerConfig base, std::size_t shard_count,
                std::vector<persist::DurableStore*> stores = {},
                sim::Simulator* simulator = nullptr);
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }
  /// Direct shard access — inline mode / tests only.
  ShadowServer& shard(std::size_t i) { return *shards_[i]; }

  /// Where `client_name`'s connection landed; nullopt before its Hello.
  std::optional<std::size_t> shard_of_client(
      const std::string& client_name) const;

  /// Recover every shard from its store (call before attach/start).
  Status recover_all();

  // ---- inline mode ----

  /// Attach a lobby connection on the caller's thread (loopback or sim
  /// transports). The transport must outlive the facade or be detached by
  /// the caller.
  void attach(net::Transport* transport);

  /// Retransmit round on every shard (reliable sessions are not supported
  /// sharded, so this is only load-monitor-style housekeeping hooks).
  std::size_t tick();

  // ---- threaded mode ----

  /// Spawn one event loop thread per shard. No-op if already running or
  /// if a simulator was supplied.
  void start_threads();
  /// Stop and join all loop threads (idempotent; also run by ~ShardedServer).
  void stop_threads();
  bool threaded() const { return !threads_.empty(); }

  /// The acceptor loop (threaded mode, acceptor thread): accept from
  /// `listener`, route the lobby, and between rounds block in one
  /// ::poll() over the listener and every lobby socket. Returns once
  /// `done()` — checked before every round — is true. A round waits at
  /// most 50 ms, less when a socket turns readable or a signal
  /// interrupts the poll.
  void serve(net::TcpListener& listener, std::function<bool()> done);

  /// Take ownership of a freshly accepted socket (acceptor thread).
  void adopt_tcp(std::unique_ptr<net::TcpTransport> transport);
  /// Sockets adopt_tcp() has taken so far (acceptor thread).
  u64 accepted() const { return accepted_; }
  /// Drive the lobby (acceptor thread): poll un-routed connections, route
  /// those whose first frame arrived, reap those that closed. Returns the
  /// number of frames handled.
  std::size_t poll_lobby();

  /// Connections alive anywhere (lobby + every shard loop). A socket
  /// counts from its hand-off to a loop until that loop reaps it, so a
  /// connection in transit is never missed; used for --once.
  std::size_t live_connections() const;

  /// Sum of per-shard ServerStats. Inline: reads shards directly.
  /// Threaded: each shard copies its stats on its own thread (bounded
  /// wait), so the result is a consistent-per-shard sum.
  ServerStats aggregate_stats();

  /// Refresh telemetry: each shard mirrors its stats under its shard<i>.
  /// prefix, then the facade writes the aggregated plain server.* values
  /// shadowtop has always shown, plus shards.count / shards.connections.
  void sync_telemetry();

  // ---- overload control & graceful drain ----

  /// Enter drain on every shard (on its own thread when threaded): new
  /// Hellos — lobby included — and submits are refused with
  /// ServerBusy(draining), connected clients are notified once, and the
  /// open group-commit windows are sealed. Idempotent.
  void begin_drain();
  bool draining() const { return draining_; }
  /// Flush every shard's open commit window, then report whether every
  /// journaled record has fsynced and released its parked ack, and every
  /// queued outbound byte (the drain notices among them) has left its
  /// connection (on the shard threads when threaded). Call while
  /// draining.
  bool drain_complete();

 private:
  struct LobbyConn {
    std::unique_ptr<net::TcpTransport> transport;
    std::vector<Bytes> inbox;  // frames received while un-routed
  };

  /// Inline lobby: first decodable message routes the connection.
  void route_first_message(net::Transport* transport, const Bytes& wire);
  /// Shared routing decision; records the client's home shard.
  std::size_t route_hello(const proto::Hello& hello);
  /// Answer an AdminQuery at the facade from aggregated telemetry.
  proto::AdminReply answer_admin(const proto::AdminQuery& query);
  /// send_to() fallback installed on every shard (see class comment).
  bool route_to_peer(std::size_t from_shard, const std::string& client_name,
                     const proto::Message& m);
  /// Run `fn(i)` on shard i's thread for every shard and wait (threaded);
  /// direct calls inline.
  void on_every_shard(const std::function<void(std::size_t)>& fn);

  ServerConfig base_;
  ShardRouter router_;
  sim::Simulator* sim_;
  std::atomic<bool> draining_{false};  // set by begin_drain (any thread)
  std::vector<std::unique_ptr<ShadowServer>> shards_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;  // threaded mode
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<LobbyConn>> lobby_;  // acceptor-thread owned
  u64 accepted_ = 0;                               // acceptor-thread owned

  mutable std::mutex clients_mu_;  // guards client_shard_
  std::map<std::string, std::size_t> client_shard_;
};

}  // namespace shadow::server
