// Inline-mode ShardedServer: Hello routing, shard-local state, aggregated
// stats/telemetry (every counter summed, none dropped), the cross-shard
// output_route hop, per-shard journal recovery, the facade's lobby
// answering AdminQuery without a Hello, and drain completion waiting for
// queued drain notices.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "compress/compress.hpp"
#include "core/workload.hpp"
#include "diff/delta.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "server/sharded_server.hpp"
#include "telemetry/registry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace shadow::server {
namespace {

// With domain "net0" and 4 shards, the FNV-1a router pins ws0..ws3 to
// shards 1, 2, 3, 0 — all four shards covered (values pinned by
// ShardRouterTest.HashIsStableAcrossRestarts).
constexpr std::size_t kShards = 4;
const char* kDomain = "net0";

naming::GlobalFileId file_id(const std::string& host, u64 inode) {
  naming::GlobalFileId id;
  id.domain = kDomain;
  id.host = host;
  id.path = "/work/f" + std::to_string(inode);
  id.inode = inode;
  return id;
}

Bytes full_payload(const std::string& content) {
  BufWriter w;
  diff::Delta::make_full(content).encode(w);
  return compress::compress(w.take(), compress::Codec::kStored);
}

/// A synthetic workstation: loopback pair + decoded message log.
struct Client {
  std::string name;
  net::LoopbackPair pair;
  std::vector<proto::Message> received;

  void connect(ShardedServer& server) {
    pair = net::make_loopback_pair(name, "super");
    pair.a->set_receiver([this](Bytes wire) {
      auto decoded = proto::decode_message(wire);
      if (decoded.ok()) received.push_back(std::move(decoded).take());
    });
    server.attach(pair.b.get());
    proto::Hello hello;
    hello.client_name = name;
    hello.domain = kDomain;
    ASSERT_TRUE(pair.a->send(proto::encode_message(hello)).ok());
    net::pump(pair);
  }

  void send(const proto::Message& m) {
    ASSERT_TRUE(pair.a->send(proto::encode_message(m)).ok());
    net::pump(pair);
  }

  template <typename T>
  const T* last_of() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) return m;
    }
    return nullptr;
  }
};

TEST(ShardedServerTest, HelloRoutesToStableShardAndReplies) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    auto client = std::make_unique<Client>();
    client->name = "ws" + std::to_string(c);
    client->connect(sharded);
    const auto* reply = client->last_of<proto::HelloReply>();
    ASSERT_NE(reply, nullptr) << client->name;
    EXPECT_EQ(reply->server_name, "super");
    ASSERT_TRUE(sharded.shard_of_client(client->name).has_value());
    EXPECT_EQ(*sharded.shard_of_client(client->name), expected_shard[c]);
    EXPECT_TRUE(
        sharded.shard(expected_shard[c]).has_client(client->name));
    clients.push_back(std::move(client));
  }
  // Nobody else saw the connection.
  for (std::size_t s = 0; s < kShards; ++s) {
    for (int c = 0; c < 4; ++c) {
      if (s != expected_shard[c]) {
        EXPECT_FALSE(sharded.shard(s).has_client("ws" + std::to_string(c)));
      }
    }
  }
}

TEST(ShardedServerTest, UpdatesStayShardLocalAndAggregate) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 4; ++c) {
    auto client = std::make_unique<Client>();
    client->name = "ws" + std::to_string(c);
    client->connect(sharded);
    clients.push_back(std::move(client));
  }
  for (int c = 0; c < 4; ++c) {
    proto::Update update;
    update.file = file_id(clients[c]->name, 1);
    update.base_version = 0;
    update.new_version = 1;
    update.payload = full_payload("file of " + clients[c]->name + "\n");
    clients[c]->send(update);
    const auto* ack = clients[c]->last_of<proto::UpdateAck>();
    ASSERT_NE(ack, nullptr);
    EXPECT_TRUE(ack->ok);
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(sharded.shard(expected_shard[c]).stats().updates_received, 1u);
    EXPECT_EQ(sharded.shard(expected_shard[c]).file_cache().entry_count(),
              1u);
  }
  EXPECT_EQ(sharded.aggregate_stats().updates_received, 4u);
}

TEST(ShardedServerTest, OutputRoutedAcrossShards) {
  // ws0 (shard 1) submits a job whose output goes to ws1 (shard 2): the
  // finished JobOutput must hop shards through the facade's peer router.
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client submitter;
  submitter.name = "ws0";
  submitter.connect(sharded);
  Client recipient;
  recipient.name = "ws1";
  recipient.connect(sharded);

  proto::SubmitJob submit;
  submit.client_job_token = 7;
  submit.command_file = "echo crunched\n";
  submit.output_route = "ws1";
  submitter.send(submit);
  // The routed output sits in ws1's loopback inbox; drain it.
  net::pump(recipient.pair);

  const auto* reply = submitter.last_of<proto::SubmitReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->accepted);
  EXPECT_EQ(submitter.last_of<proto::JobOutput>(), nullptr);
  const auto* out = recipient.last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->exit_code, 0);
  EXPECT_EQ(out->client_job_token, 7u);
}

TEST(ShardedServerTest, AdminQueryAnsweredWithoutHello) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client editor;
  editor.name = "ws0";
  editor.connect(sharded);
  proto::Update update;
  update.file = file_id("ws0", 3);
  update.base_version = 0;
  update.new_version = 1;
  update.payload = full_payload("telemetry fodder\n");
  editor.send(update);

  // shadowtop's opening move: AdminQuery with no Hello. The connection
  // stays in the lobby and is answered from aggregated telemetry.
  net::LoopbackPair admin = net::make_loopback_pair("shadowtop", "super");
  std::vector<proto::Message> replies;
  admin.a->set_receiver([&](Bytes wire) {
    auto decoded = proto::decode_message(wire);
    if (decoded.ok()) replies.push_back(std::move(decoded).take());
  });
  sharded.attach(admin.b.get());
  proto::AdminQuery query;
  ASSERT_TRUE(admin.a->send(proto::encode_message(query)).ok());
  net::pump(admin);
  ASSERT_EQ(replies.size(), 1u);
  const auto* reply = std::get_if<proto::AdminReply>(&replies[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->server_name, "super");

  // Aggregated plain names AND the shard-prefixed breakdown both present
  // (ws0 is pinned to shard 1), so `shadowtop --filter shard1.` works.
  u64 aggregated = 0;
  u64 shard1_only = 0;
  bool saw_shard_count = false;
  for (const auto& c : reply->snapshot.counters) {
    if (c.name == "server.updates_received") aggregated = c.value;
    if (c.name == "shard1.server.updates_received") shard1_only = c.value;
  }
  for (const auto& g : reply->snapshot.gauges) {
    if (g.name == "shards.count") {
      saw_shard_count = true;
      EXPECT_EQ(g.value, static_cast<double>(kShards));
    }
  }
  EXPECT_GE(aggregated, 1u);
  EXPECT_GE(shard1_only, 1u);
  EXPECT_TRUE(saw_shard_count);

  // A second query over the same still-lobbied connection also answers.
  ASSERT_TRUE(admin.a->send(proto::encode_message(query)).ok());
  net::pump(admin);
  EXPECT_EQ(replies.size(), 2u);
}

TEST(ShardedServerTest, PerShardJournalsRecoverIndependently) {
  std::vector<std::unique_ptr<persist::MemDir>> dirs;
  std::vector<std::unique_ptr<persist::DurableStore>> stores;
  std::vector<persist::DurableStore*> ptrs;
  for (std::size_t s = 0; s < kShards; ++s) {
    dirs.push_back(std::make_unique<persist::MemDir>());
    stores.push_back(
        std::make_unique<persist::DurableStore>(dirs.back().get()));
    ptrs.push_back(stores.back().get());
  }
  ServerConfig config;
  config.name = "super";
  {
    ShardedServer sharded(config, kShards, ptrs);
    ASSERT_TRUE(sharded.recover_all().ok());  // empty stores: no-op
    for (int c = 0; c < 4; ++c) {
      Client client;
      client.name = "ws" + std::to_string(c);
      client.connect(sharded);
      proto::Update update;
      update.file = file_id(client.name, 1);
      update.base_version = 0;
      update.new_version = 1;
      update.payload = full_payload("durable " + client.name + "\n");
      client.send(update);
      const auto* ack = client.last_of<proto::UpdateAck>();
      ASSERT_NE(ack, nullptr);
      ASSERT_TRUE(ack->ok);  // journaled before this ack
    }
  }  // server "crashes"

  // Fresh stores over the same directories; fresh facade; recover.
  std::vector<std::unique_ptr<persist::DurableStore>> stores2;
  std::vector<persist::DurableStore*> ptrs2;
  for (std::size_t s = 0; s < kShards; ++s) {
    stores2.push_back(
        std::make_unique<persist::DurableStore>(dirs[s].get()));
    ptrs2.push_back(stores2.back().get());
  }
  ShardedServer revived(config, kShards, ptrs2);
  ASSERT_TRUE(revived.recover_all().ok());
  const std::size_t expected_shard[] = {1, 2, 3, 0};
  for (int c = 0; c < 4; ++c) {
    auto& shard = revived.shard(expected_shard[c]);
    EXPECT_EQ(shard.file_cache().entry_count(), 1u)
        << "shard " << expected_shard[c] << " lost ws" << c << "'s file";
  }
}

/// High-entropy bytes with a NUL, so the client's binariness sniff sends
/// the file through the CDC codec.
std::string binary_blob(std::size_t size, u64 seed) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (auto& c : out) c = static_cast<char>(rng.below(256));
  out[size / 2] = '\0';
  return out;
}

TEST(ShardedServerTest, EveryStatAndCounterSumsOverShards) {
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kError);
  telemetry::Registry::global().reset_values();
  constexpr std::size_t kTwo = 2;
  constexpr const char* kAggDomain = "net-agg";
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kTwo);

  // One workstation per shard, each with a real client so the traffic
  // covers line deltas, CDC chunk deltas, digest advances and a job.
  std::vector<std::string> names(kTwo);
  for (int n = 0; names[0].empty() || names[1].empty(); ++n) {
    const std::string name = "ws" + std::to_string(n);
    auto& slot = names[sharded.router().shard_of_client(kAggDomain, name)];
    if (slot.empty()) slot = name;
  }
  vfs::Cluster cluster;
  std::vector<net::LoopbackPair> pairs;
  std::vector<std::unique_ptr<client::ShadowClient>> clients;
  for (const auto& name : names) {
    (void)cluster.add_host(name).mkdir_p("/home/user");
    pairs.push_back(net::make_loopback_pair(name, "super"));
    clients.push_back(std::make_unique<client::ShadowClient>(
        name, client::ShadowEnvironment{}, &cluster, kAggDomain));
    sharded.attach(pairs.back().b.get());
    clients.back()->connect("super", pairs.back().a.get());
  }
  auto quiesce = [&] {
    for (int round = 0; round < 2'000; ++round) {
      std::size_t moved = 0;
      for (auto& pair : pairs) moved += pair.a->poll() + pair.b->poll();
      if (moved != 0) continue;
      std::size_t ticked = sharded.tick();
      for (auto& c : clients) ticked += c->tick();
      if (ticked == 0) return;
    }
  };
  quiesce();
  for (std::size_t i = 0; i < kTwo; ++i) {
    client::ShadowEditor editor(clients[i].get(), &cluster);
    std::string text = core::make_file(4'000, 10 + i);
    std::string blob = binary_blob(64 * 1024, 20 + i);
    ASSERT_TRUE(editor.create("/home/user/notes", text).ok());
    ASSERT_TRUE(editor.create("/home/user/blob", blob).ok());
    quiesce();
    text.replace(100, 20, "an edited line here\n");
    blob.replace(1'000, 64, std::string(64, 'x'));
    ASSERT_TRUE(editor.create("/home/user/notes", text).ok());
    ASSERT_TRUE(editor.create("/home/user/blob", blob).ok());
    quiesce();
    client::ShadowClient::SubmitOptions job;
    job.files = {"/home/user/notes"};
    job.command_file = "sort notes\n";
    auto token = clients[i]->submit(job);
    ASSERT_TRUE(token.ok());
    quiesce();
    EXPECT_TRUE(clients[i]->job_done(token.value())) << names[i];
  }

  // ServerStats: the aggregate is the field-by-field sum. The list below
  // is this test's own, independent of the server's counter table; the
  // static_assert makes a new field fail here until it is listed.
  const ServerStats total = sharded.aggregate_stats();
  std::size_t checked = 0;
#define EXPECT_SUMMED(field)                                        \
  do {                                                              \
    u64 sum = 0;                                                    \
    for (std::size_t i = 0; i < kTwo; ++i) {                        \
      sum += sharded.shard(i).stats().field;                        \
    }                                                               \
    EXPECT_EQ(total.field, sum) << #field " dropped by aggregation"; \
    ++checked;                                                      \
  } while (0)
  EXPECT_SUMMED(notifies_received);
  EXPECT_SUMMED(pulls_sent);
  EXPECT_SUMMED(pulls_deferred);
  EXPECT_SUMMED(updates_received);
  EXPECT_SUMMED(update_bytes);
  EXPECT_SUMMED(full_transfers);
  EXPECT_SUMMED(delta_transfers);
  EXPECT_SUMMED(cdc_transfers);
  EXPECT_SUMMED(digest_advances);
  EXPECT_SUMMED(digest_advance_failures);
  EXPECT_SUMMED(jobs_submitted);
  EXPECT_SUMMED(jobs_rejected);
  EXPECT_SUMMED(jobs_completed);
  EXPECT_SUMMED(jobs_failed);
  EXPECT_SUMMED(outputs_sent);
  EXPECT_SUMMED(output_bytes);
  EXPECT_SUMMED(output_delta_hits);
  EXPECT_SUMMED(unsolicited_updates);
  EXPECT_SUMMED(deferred_by_load);
  EXPECT_SUMMED(session_resyncs);
  EXPECT_SUMMED(journal_appends);
  EXPECT_SUMMED(journal_failures);
  EXPECT_SUMMED(acks_deferred);
  EXPECT_SUMMED(persist_flushes);
  EXPECT_SUMMED(compactions);
  EXPECT_SUMMED(recovered_records);
  EXPECT_SUMMED(requeued_jobs);
  EXPECT_SUMMED(retry_capped_jobs);
  EXPECT_SUMMED(busy_rejects);
  EXPECT_SUMMED(conns_dropped_overflow);
  EXPECT_SUMMED(leases_expired);
  EXPECT_SUMMED(heartbeats_received);
  EXPECT_SUMMED(drain_notices);
#undef EXPECT_SUMMED
  static_assert(sizeof(ServerStats) == 33 * sizeof(u64),
                "list the new ServerStats field above");
  EXPECT_EQ(checked, 33u);
  // The traffic really reached both shards and both CDC paths.
  for (std::size_t i = 0; i < kTwo; ++i) {
    EXPECT_GT(sharded.shard(i).stats().cdc_transfers, 0u) << "shard " << i;
    EXPECT_GT(sharded.shard(i).stats().digest_advances, 0u) << "shard " << i;
    EXPECT_GT(sharded.shard(i).stats().delta_transfers, 0u) << "shard " << i;
    EXPECT_GT(sharded.shard(i).stats().jobs_completed, 0u) << "shard " << i;
  }

  // Registry: every counter a shard publishes has a plain aggregate equal
  // to the sum of its shard<i>. values.
  sharded.sync_telemetry();
  const auto snapshot = telemetry::Registry::global().snapshot();
  std::map<std::string, u64> counters;
  for (const auto& c : snapshot.counters) counters[c.name] = c.value;
  std::size_t shard_counters = 0;
  for (const auto& [name, value] : counters) {
    if (name.rfind("shard0.", 0) != 0) continue;
    const std::string plain = name.substr(std::string("shard0.").size());
    ++shard_counters;
    ASSERT_TRUE(counters.count("shard1." + plain)) << plain;
    ASSERT_TRUE(counters.count(plain)) << plain << " has no plain aggregate";
    EXPECT_EQ(counters[plain], value + counters["shard1." + plain]) << plain;
  }
  EXPECT_GE(shard_counters, 33u);
  Logger::instance().set_level(saved);
}

TEST(ShardedServerTest, DrainWaitsForQueuedDrainNotices) {
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, kShards);
  Client reader;
  reader.name = "ws0";
  reader.connect(sharded);
  ASSERT_NE(reader.last_of<proto::HelloReply>(), nullptr);

  // The reader stops reading: begin_drain()'s ServerBusy(draining) notice
  // sits in its connection's queue, so the drain is not complete yet.
  sharded.begin_drain();
  EXPECT_GT(sharded.shard(1).total_queued_bytes(), 0u);
  EXPECT_FALSE(sharded.drain_complete());
  EXPECT_EQ(reader.last_of<proto::ServerBusy>(), nullptr);

  // Once the notice is read, nothing is pending.
  (void)reader.pair.a->poll();
  const auto* busy = reader.last_of<proto::ServerBusy>();
  ASSERT_NE(busy, nullptr);
  EXPECT_TRUE(busy->draining);
  EXPECT_TRUE(sharded.drain_complete());
}

TEST(ShardedServerTest, DrainFlushesRecordsJournaledAfterItBegan) {
  persist::MemDir dir;
  persist::DurableStore store(&dir);
  persist::GroupCommitConfig gc;
  gc.window_us = 60'000'000;  // nothing flushes unless the drain does
  store.set_group_commit(gc);
  ServerConfig config;
  config.name = "super";
  ShardedServer sharded(config, 1, {&store});
  ASSERT_TRUE(sharded.recover_all().ok());
  Client editor;
  editor.name = "ws0";
  editor.connect(sharded);
  sharded.begin_drain();
  (void)editor.pair.a->poll();  // read the drain notice
  ASSERT_TRUE(sharded.drain_complete());

  // Drain refuses new work but keeps acking updates in flight; this one
  // is journaled into a fresh commit window after begin_drain() sealed
  // the last one. The drain must not wait the window out.
  proto::Update update;
  update.file = file_id("ws0", 7);
  update.base_version = 0;
  update.new_version = 1;
  update.payload = full_payload("saved while draining\n");
  editor.send(update);
  EXPECT_EQ(editor.last_of<proto::UpdateAck>(), nullptr);  // parked
  // Not complete yet: the flush released the ack, which is still queued.
  EXPECT_FALSE(sharded.drain_complete());
  EXPECT_EQ(store.pending_records(), 0u);
  (void)editor.pair.a->poll();
  const auto* ack = editor.last_of<proto::UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ok);
  EXPECT_TRUE(sharded.drain_complete());
}

}  // namespace
}  // namespace shadow::server
