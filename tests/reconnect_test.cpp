// Client restart / reconnect scenarios: the server must keep functioning
// when a client's process restarts with a fresh version store (the
// paper's transparency objective — the user never maintains protocol
// state by hand, so losing it must be recoverable).
#include <gtest/gtest.h>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "core/workload.hpp"
#include "net/loopback.hpp"
#include "server/shadow_server.hpp"
#include "vfs/cluster.hpp"

namespace shadow {
namespace {

class ReconnectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)cluster_.add_host("ws").mkdir_p("/home/user");
    server::ServerConfig sc;
    sc.name = "super";
    server_ = std::make_unique<server::ShadowServer>(sc);
  }

  // Boot a fresh client process image over a fresh connection.
  void start_client(client::ShadowEnvironment env = {}) {
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    client_ = std::make_unique<client::ShadowClient>("ws", std::move(env),
                                                     &cluster_, "net-1");
    editor_ = std::make_unique<client::ShadowEditor>(client_.get(),
                                                     &cluster_);
    client_->connect("super", pair_.a.get());
    net::pump(pair_);
  }

  /// Submit `command` over `file` and return the job's output.
  std::string run_job(const std::string& command, const std::string& file) {
    client::ShadowClient::SubmitOptions job;
    job.files = {file};
    job.command_file = command;
    job.output_path = "/home/user/out";
    job.error_path = "/home/user/err";
    auto token = client_->submit(job);
    EXPECT_TRUE(token.ok());
    net::pump(pair_);
    EXPECT_TRUE(client_->job_done(token.value()));
    return cluster_.read_file("ws", "/home/user/out").value();
  }

  vfs::Cluster cluster_;
  std::unique_ptr<server::ShadowServer> server_;
  net::LoopbackPair pair_;
  std::unique_ptr<client::ShadowClient> client_;
  std::unique_ptr<client::ShadowEditor> editor_;
};

TEST_F(ReconnectTest, RestartedClientWithFreshVersionsConverges) {
  start_client();
  const std::string v1 = core::make_file(10'000, 1);
  ASSERT_TRUE(editor_->create("/home/user/f", v1).ok());
  ASSERT_TRUE(editor_->create("/home/user/f",
                              core::modify_percent(v1, 3, 2)).ok());
  ASSERT_TRUE(editor_->create("/home/user/f",
                              core::modify_percent(v1, 6, 3)).ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().updates_received, 3u);

  // The workstation process restarts: same files on disk, empty version
  // store, new connection. Version numbering begins at 1 again.
  start_client();
  const std::string after_restart = core::modify_percent(v1, 9, 4);
  ASSERT_TRUE(editor_->create("/home/user/f", after_restart).ok());
  net::pump(pair_);

  // The server noticed the restart (v1 <= v3 with different content),
  // re-pulled, and the cache equals the new content.
  naming::NameResolver resolver("net-1", &cluster_);
  const auto id = resolver.resolve("ws", "/home/user/f").value();
  auto entry = server_->file_cache().get(server_->domains().cache_key(id));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value()->content, after_restart);
}

TEST_F(ReconnectTest, RestartedClientSameContentNeedsNoTransfer) {
  start_client();
  ASSERT_TRUE(editor_->create("/home/user/f", "stable content\n").ok());
  net::pump(pair_);
  const u64 updates_before = server_->stats().updates_received;

  // Restart; the file is unchanged. The notify carries the same CRC, so
  // the server keeps its cache and does not re-pull.
  start_client();
  ASSERT_TRUE(client_->edited("/home/user/f").ok());
  net::pump(pair_);
  EXPECT_EQ(server_->stats().updates_received, updates_before);
}

TEST_F(ReconnectTest, JobsSurviveAcrossClientRestart) {
  start_client();
  ASSERT_TRUE(editor_->create("/home/user/f", "b\na\n").ok());
  net::pump(pair_);

  // Restart, then submit using the same file.
  start_client();
  client::ShadowClient::SubmitOptions job;
  job.files = {"/home/user/f"};
  job.command_file = "sort f\n";
  job.output_path = "/home/user/out";
  job.error_path = "/home/user/err";
  auto token = client_->submit(job);
  ASSERT_TRUE(token.ok());
  net::pump(pair_);
  ASSERT_TRUE(client_->job_done(token.value()));
  EXPECT_EQ(cluster_.read_file("ws", "/home/user/out").value(), "a\nb\n");
}

// A client that announces nothing until it submits (background updates
// off) restarts, and its numbering starts again at 1 with other content.
// The submit itself must reveal the restart: the job runs on the bytes
// the client holds now, not on the copy kept from its previous run.
TEST_F(ReconnectTest, RestartedLazyClientsJobRunsOnItsNewBytes) {
  client::ShadowEnvironment env;
  env.background_updates = false;
  start_client(env);
  ASSERT_TRUE(editor_->create("/home/user/d", "b\na\n").ok());
  EXPECT_EQ(run_job("sort d\n", "/home/user/d"), "a\nb\n");

  start_client(env);
  ASSERT_TRUE(editor_->create("/home/user/d", "z\ny\n").ok());
  EXPECT_EQ(run_job("sort d\n", "/home/user/d"), "y\nz\n");
}

// A request-driven client restarts and pushes its fresh numbering. The
// first push reveals the restart, so when the new numbers reach the old
// ones no version is mistaken for a damaged copy of the old one (which
// would cost a nack and a full resend).
TEST_F(ReconnectTest, RestartedPushingClientNeedsNoFullResend) {
  client::ShadowEnvironment env;
  env.flow = client::FlowMode::kRequestDriven;
  const std::string base = core::make_file(10'000, 1);
  start_client(env);
  for (int v = 1; v <= 5; ++v) {
    ASSERT_TRUE(editor_->create("/home/user/f",
                                core::modify_percent(base, 2, v)).ok());
    net::pump(pair_);
  }

  start_client(env);
  std::string last;
  for (int v = 6; v <= 11; ++v) {
    last = core::modify_percent(base, 2, v);
    ASSERT_TRUE(editor_->create("/home/user/f", last).ok());
    net::pump(pair_);
  }
  EXPECT_EQ(client_->stats().nack_full_resends, 0u);
  EXPECT_EQ(client_->stats().full_sent, 1u);  // the first push only
  naming::NameResolver resolver("net-1", &cluster_);
  const auto id = resolver.resolve("ws", "/home/user/f").value();
  auto entry = server_->file_cache().get(server_->domains().cache_key(id));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value()->version, 6u);
  EXPECT_EQ(entry.value()->content, last);
}

}  // namespace
}  // namespace shadow
