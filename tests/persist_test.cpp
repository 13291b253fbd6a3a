// Checkpoint/restore tests: component round trips plus the end-to-end
// payoff — a restarted process that restores its snapshot continues with
// DELTAS where a fresh one would pay a full transfer.
#include <gtest/gtest.h>

#include "cache/shadow_cache.hpp"
#include "cdc/signature.hpp"
#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "job/queue.hpp"
#include "naming/domain_map.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "server/shadow_server.hpp"
#include "util/crc32.hpp"
#include "version/version_store.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

// ---- component round trips ----

TEST(PersistTest, VersionChainRoundTripBothModes) {
  for (auto mode : {version::StorageMode::kFull,
                    version::StorageMode::kReverseDelta}) {
    version::VersionChain chain(3, mode);
    std::string content = core::make_file(5000, 1);
    for (int i = 0; i < 5; ++i) {
      chain.append(content);
      content = core::modify_percent(content, 5, static_cast<u64>(i));
    }
    chain.acknowledge(3);

    BufWriter w;
    chain.encode(w);
    BufReader r(w.data());
    auto restored = version::VersionChain::decode(r);
    ASSERT_TRUE(restored.ok()) << version::storage_mode_name(mode);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(restored.value().latest_number(), chain.latest_number());
    EXPECT_EQ(restored.value().acked(), chain.acked());
    EXPECT_EQ(restored.value().stored_count(), chain.stored_count());
    for (u64 n = 1; n <= 5; ++n) {
      EXPECT_EQ(restored.value().has(n), chain.has(n)) << n;
      if (chain.has(n)) {
        EXPECT_EQ(restored.value().get(n).value().content,
                  chain.get(n).value().content);
      }
    }
    // The restored chain keeps numbering where it left off.
    EXPECT_EQ(restored.value().append("new"), 6u);
  }
}

TEST(PersistTest, VersionStoreRoundTrip) {
  version::VersionStore store(4, version::StorageMode::kReverseDelta);
  store.chain("a").append("content a1");
  store.chain("a").append("content a2");
  store.chain("b").append("content b1");
  BufWriter w;
  store.encode(w);
  BufReader r(w.data());
  auto restored = version::VersionStore::decode(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().file_count(), 2u);
  EXPECT_EQ(restored.value().chain("a").get(2).value().content,
            "content a2");
  EXPECT_EQ(restored.value().storage_mode(),
            version::StorageMode::kReverseDelta);
}

TEST(PersistTest, ShadowCacheRoundTripPreservesRecency) {
  cache::ShadowCache cache(100, cache::EvictionPolicy::kLru);
  auto put = [&](const std::string& key, const std::string& content) {
    ASSERT_TRUE(cache.put(key, 1, content,
                          crc32(reinterpret_cast<const u8*>(content.data()),
                                content.size()))
                    .ok());
  };
  put("old", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");  // 40 B
  put("new", "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb");  // 40 B
  ASSERT_TRUE(cache.get("old").ok());  // refresh "old"

  BufWriter w;
  cache.encode(w);
  cache::ShadowCache restored(100, cache::EvictionPolicy::kLru);
  BufReader r(w.data());
  ASSERT_TRUE(restored.restore(r).ok());
  EXPECT_EQ(restored.entry_count(), 2u);
  EXPECT_EQ(restored.bytes_used(), 80u);
  // Recency survived: inserting 40 more bytes evicts "new" (last touched
  // before "old" was refreshed), not "old".
  ASSERT_TRUE(restored
                  .put("third", 1,
                       "cccccccccccccccccccccccccccccccccccccccc", 0)
                  .ok());
  EXPECT_TRUE(restored.contains("old"));
  EXPECT_FALSE(restored.contains("new"));
}

TEST(PersistTest, ShadowCacheRestoreTrimsToBudget) {
  cache::ShadowCache big(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        big.put("k" + std::to_string(i), 1, std::string(100, 'x'), 0).ok());
  }
  BufWriter w;
  big.encode(w);
  cache::ShadowCache small(250, cache::EvictionPolicy::kLru);
  BufReader r(w.data());
  ASSERT_TRUE(small.restore(r).ok());
  EXPECT_LE(small.bytes_used(), 250u);
}

TEST(PersistTest, DomainMapRoundTrip) {
  naming::DomainMap map;
  naming::GlobalFileId id;
  id.domain = "net-1";
  id.host = "h";
  id.path = "/f";
  id.inode = 5;
  const std::string key1 = map.cache_key(id);
  id.inode = 6;
  const std::string key2 = map.cache_key(id);
  BufWriter w;
  map.encode(w);
  BufReader r(w.data());
  auto restored = naming::DomainMap::decode(r);
  ASSERT_TRUE(restored.ok());
  // Identical keys come out of the restored map (ids remain stable).
  id.inode = 5;
  EXPECT_EQ(restored.value().cache_key(id), key1);
  id.inode = 6;
  EXPECT_EQ(restored.value().cache_key(id), key2);
  // And NEW files get fresh ids, not collisions.
  id.inode = 7;
  const std::string key3 = restored.value().cache_key(id);
  EXPECT_NE(key3, key1);
  EXPECT_NE(key3, key2);
}

TEST(PersistTest, PopulatedSnapshotTruncationsFailCleanly) {
  // Build a server with real state, then verify every truncation of its
  // snapshot is rejected without crashing (mutation-robust restore).
  server::ServerConfig sc;
  sc.reverse_shadow = true;
  server::ShadowServer server(sc);
  ASSERT_TRUE(server.file_cache()
                  .put("net/1", 3, core::make_file(2000, 1), 0xAB)
                  .ok());
  naming::GlobalFileId id;
  id.domain = "net";
  id.host = "h";
  id.path = "/f";
  id.inode = 9;
  (void)server.domains().cache_key(id);
  const Bytes snapshot = server.save_state();
  ASSERT_GT(snapshot.size(), 100u);
  for (std::size_t cut = 0; cut < snapshot.size();
       cut += 1 + cut / 16) {  // sample cuts, denser near the start
    Bytes partial(snapshot.begin(),
                  snapshot.begin() + static_cast<long>(cut));
    server::ShadowServer fresh(sc);
    EXPECT_FALSE(fresh.restore_state(partial).ok()) << "cut " << cut;
  }
  // And the untouched snapshot restores.
  server::ShadowServer fresh(sc);
  EXPECT_TRUE(fresh.restore_state(snapshot).ok());
  EXPECT_EQ(fresh.file_cache().entry_count(), 1u);
}

TEST(PersistTest, SnapshotsRejectGarbage) {
  server::ServerConfig sc;
  server::ShadowServer server(sc);
  EXPECT_FALSE(server.restore_state(Bytes{1, 2, 3}).ok());
  vfs::Cluster cluster;
  client::ShadowClient client("c", {}, &cluster, "net");
  EXPECT_FALSE(client.restore_state(Bytes{9, 9}).ok());
  // Truncations of a valid snapshot fail cleanly.
  const Bytes good = server.save_state();
  for (std::size_t cut = 0; cut + 1 < good.size(); ++cut) {
    Bytes partial(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(server.restore_state(partial).ok());
  }
}

// ---- end-to-end: restart with snapshot => deltas continue ----

class PersistE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)cluster_.add_host("ws").mkdir_p("/home/user");
    server_config_.name = "super";
  }

  void start_server(const Bytes* snapshot = nullptr) {
    server_ = std::make_unique<server::ShadowServer>(server_config_);
    if (snapshot != nullptr) {
      ASSERT_TRUE(server_->restore_state(*snapshot).ok());
    }
  }

  void start_client(const Bytes* snapshot = nullptr) {
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    client_ = std::make_unique<client::ShadowClient>(
        "ws", client::ShadowEnvironment{}, &cluster_, "net-1");
    if (snapshot != nullptr) {
      ASSERT_TRUE(client_->restore_state(*snapshot).ok());
    }
    editor_ = std::make_unique<client::ShadowEditor>(client_.get(),
                                                     &cluster_);
    client_->connect("super", pair_.a.get());
    net::pump(pair_);
  }

  vfs::Cluster cluster_;
  server::ServerConfig server_config_;
  std::unique_ptr<server::ShadowServer> server_;
  net::LoopbackPair pair_;
  std::unique_ptr<client::ShadowClient> client_;
  std::unique_ptr<client::ShadowEditor> editor_;
};

TEST_F(PersistE2E, BothSidesRestartAndContinueWithDeltas) {
  start_server();
  start_client();
  const std::string v1 = core::make_file(30'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  net::pump(pair_);
  ASSERT_EQ(server_->stats().full_transfers, 1u);

  // Checkpoint both sides, then "crash" and restart both processes.
  const Bytes server_snapshot = server_->save_state();
  const Bytes client_snapshot = client_->save_state();
  start_server(&server_snapshot);
  start_client(&client_snapshot);

  // The next edit ships a DELTA: the restored server still caches v1 and
  // the restored client still stores v1 to diff against.
  ASSERT_TRUE(
      editor_->create("/home/user/f", core::modify_percent(v1, 2, 2)).ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().full_transfers, 0u);  // fresh stats object
  EXPECT_EQ(server_->stats().delta_transfers, 1u);
}

TEST_F(PersistE2E, WithoutSnapshotsRestartPaysFullTransfer) {
  start_server();
  start_client();
  const std::string v1 = core::make_file(30'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  net::pump(pair_);

  // Restart both sides cold.
  start_server();
  start_client();
  ASSERT_TRUE(
      editor_->create("/home/user/f", core::modify_percent(v1, 2, 2)).ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().full_transfers, 1u);
  EXPECT_EQ(server_->stats().delta_transfers, 0u);
}

TEST_F(PersistE2E, ServerSnapshotPreservesReverseShadowGenerations) {
  server_config_.reverse_shadow = true;
  start_server();
  start_client();
  ASSERT_TRUE(editor_->create("/home/user/f", core::make_file(20'000, 3))
                  .ok());
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto t1 = client_->submit(job);
  ASSERT_TRUE(t1.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(t1.value()));

  // Restart BOTH sides with snapshots; rerun the same job. The output
  // delta generation chain continues seamlessly.
  const Bytes server_snapshot = server_->save_state();
  const Bytes client_snapshot = client_->save_state();
  start_server(&server_snapshot);
  start_client(&client_snapshot);
  auto t2 = client_->submit(job);
  ASSERT_TRUE(t2.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(t2.value()));
  EXPECT_EQ(server_->stats().output_delta_hits, 1u);
  EXPECT_EQ(client_->stats().output_nacks_sent, 0u);
}

// Recovery binds the cache keys of digest records before replaying jobs.
// Live order: file A is interned as d/1 by its notify (no record), a job
// on file B is journaled (B is d/2), then A's CDC update journals a
// digest record under d/1. Replaying the job first without the bind
// would intern B as d/1, and the digest record would then claim d/1 for
// A as well — B's job would run on A's bytes.
TEST(PersistTest, RecoveryBindsDigestKeysBeforeReplayingJobs) {
  auto file = [](const std::string& path, u64 inode) {
    naming::GlobalFileId id;
    id.domain = "d";
    id.host = "ws";
    id.path = path;
    id.inode = inode;
    return id;
  };
  const naming::GlobalFileId a = file("/a", 1);
  const naming::GlobalFileId b = file("/b", 2);

  persist::MemDir disk;
  {
    persist::DurableStore store(&disk);
    job::JobRecord job;
    job.job_id = 1;
    job.client_name = "ws";
    job.command_file = "wc b\n";
    proto::JobFileRef ref;
    ref.file = b;
    ref.local_name = "b";
    ref.version = 1;
    job.files.push_back(ref);
    BufWriter jw;
    job::encode_job_record(job, jw);
    ASSERT_TRUE(
        store.append(persist::RecordType::kJobSubmitted, jw.take()).ok());

    const std::string content = "content of a\n";
    BufWriter dw;
    a.encode(dw);
    dw.put_string("d/1");
    dw.put_varint(1);
    dw.put_u32(crc32(reinterpret_cast<const u8*>(content.data()),
                     content.size()));
    cdc::signature_of(content, cdc::ChunkerParams{}).encode(dw);
    dw.put_string("ws");
    ASSERT_TRUE(
        store.append(persist::RecordType::kShadowDigest, dw.take()).ok());
  }

  persist::DurableStore store(&disk);
  server::ServerConfig sc;
  sc.name = "super";
  server::ShadowServer server(sc, nullptr, &store);
  ASSERT_TRUE(server.recover_from_storage().ok());
  EXPECT_EQ(server.stats().recovered_records, 2u);
  EXPECT_EQ(server.domains().cache_key(a), "d/1");
  EXPECT_NE(server.domains().cache_key(a), server.domains().cache_key(b));
}

}  // namespace
}  // namespace shadow
