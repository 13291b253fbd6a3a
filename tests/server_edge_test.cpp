// Targeted edge-case tests of the server's protocol handling, driven
// directly over loopback so individual messages can be forged.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cdc/cdc_delta.hpp"
#include "compress/compress.hpp"
#include "diff/diff.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "proto/session.hpp"
#include "core/system.hpp"
#include "server/shadow_server.hpp"
#include "telemetry/registry.hpp"
#include "util/crc32.hpp"

namespace shadow::server {
namespace {

naming::GlobalFileId file_id(u64 inode) {
  naming::GlobalFileId id;
  id.domain = "net-x";
  id.host = "ws";
  id.path = "/f" + std::to_string(inode);
  id.inode = inode;
  return id;
}

Bytes pack_delta(const diff::Delta& delta) {
  BufWriter w;
  delta.encode(w);
  return compress::compress(w.take(), compress::Codec::kStored);
}

class ServerEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { start(proto::kAllCodecs); }

  void start(u32 hello_codecs, ServerConfig sc = ServerConfig{},
             persist::DurableStore* store = nullptr) {
    sc.name = "super";
    server_ = std::make_unique<ShadowServer>(sc, nullptr, store);
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    // Capture everything the server sends back.
    pair_.a->set_receiver([this](Bytes wire) {
      auto m = proto::decode_message(wire);
      if (m.ok()) received_.push_back(std::move(m).take());
    });
    proto::Hello hello{"ws", "net-x"};
    hello.codecs = hello_codecs;
    send(hello);
    pump();
    received_.clear();
  }

  void send(proto::Message m) {
    ASSERT_TRUE(pair_.a->send(proto::encode_message(m)).ok());
  }
  void pump() { net::pump(pair_); }

  template <typename T>
  std::size_t count_of() const {
    std::size_t n = 0;
    for (const auto& m : received_) n += std::holds_alternative<T>(m);
    return n;
  }

  template <typename T>
  const T* last_of() const {
    for (auto it = received_.rbegin(); it != received_.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) return m;
    }
    return nullptr;
  }

  double outstanding_pulls_gauge() const {
    server_->sync_telemetry();
    return telemetry::Registry::global()
        .gauge("server.outstanding_pulls")
        .value();
  }

  std::unique_ptr<ShadowServer> server_;
  net::LoopbackPair pair_;
  std::vector<proto::Message> received_;
};

TEST_F(ServerEdgeTest, NotifyTriggersPullWithCorrectVersions) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 4;
  notify.size = 100;
  notify.crc = 0xAB;
  send(notify);
  pump();
  const auto* pull = last_of<proto::PullRequest>();
  ASSERT_NE(pull, nullptr);
  EXPECT_EQ(pull->have_version, 0u);
  EXPECT_EQ(pull->want_version, 4u);
}

TEST_F(ServerEdgeTest, DuplicateNotifyDoesNotDoublePull) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 2;
  send(notify);
  send(notify);
  pump();
  EXPECT_EQ(server_->stats().pulls_sent, 1u);
}

TEST_F(ServerEdgeTest, StaleNotifyIgnored) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 5;
  send(notify);
  pump();
  received_.clear();
  notify.version = 3;  // older than what the server already wants
  send(notify);
  pump();
  EXPECT_EQ(server_->stats().pulls_sent, 1u);
}

TEST_F(ServerEdgeTest, FullUpdateCachedAndAcked) {
  proto::Update update;
  update.file = file_id(1);
  update.base_version = 0;
  update.new_version = 7;
  update.payload = pack_delta(diff::Delta::make_full("cached content\n"));
  send(update);
  pump();
  const auto* ack = last_of<proto::UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ok);
  EXPECT_EQ(ack->version, 7u);
  EXPECT_EQ(server_->file_cache().entry_count(), 1u);
}

TEST_F(ServerEdgeTest, SubmitWithUnpullableFileStaysWaiting) {
  proto::SubmitJob submit;
  submit.client_job_token = 1;
  submit.command_file = "wc data\n";
  proto::JobFileRef ref;
  ref.file = file_id(9);
  ref.local_name = "data";
  ref.version = 1;
  submit.files.push_back(ref);
  send(submit);
  pump();
  const auto* reply = last_of<proto::SubmitReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->accepted);
  // The pull went out; until an Update arrives the job waits.
  const auto& jobs = server_->jobs().all();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs.begin()->second.state, proto::JobState::kWaitingFiles);

  // Now satisfy it.
  proto::Update update;
  update.file = file_id(9);
  update.base_version = 0;
  update.new_version = 1;
  update.payload = pack_delta(diff::Delta::make_full("a\nb\n"));
  send(update);
  pump();
  EXPECT_EQ(jobs.begin()->second.state, proto::JobState::kCompleted);
}

TEST_F(ServerEdgeTest, StatusForSpecificJob) {
  proto::SubmitJob submit;
  submit.client_job_token = 2;
  submit.command_file = "echo done\n";
  send(submit);
  pump();
  received_.clear();
  proto::StatusQuery query;
  query.job_id = 1;
  send(query);
  pump();
  const auto* reply = last_of<proto::StatusReply>();
  ASSERT_NE(reply, nullptr);
  ASSERT_EQ(reply->jobs.size(), 1u);
  EXPECT_EQ(reply->jobs[0].job_id, 1u);
  EXPECT_EQ(reply->jobs[0].state, proto::JobState::kCompleted);
}

TEST_F(ServerEdgeTest, StatusForUnknownJobIsEmpty) {
  proto::StatusQuery query;
  query.job_id = 42;
  send(query);
  pump();
  const auto* reply = last_of<proto::StatusReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->jobs.empty());
}

TEST_F(ServerEdgeTest, JobWithBadCommandFileFails) {
  proto::SubmitJob submit;
  submit.client_job_token = 3;
  submit.command_file = "";  // unparsable: no commands
  send(submit);
  pump();
  const auto* out = last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  EXPECT_NE(out->exit_code, 0);
  EXPECT_EQ(server_->stats().jobs_failed, 1u);
}

TEST_F(ServerEdgeTest, AckForUnknownJobIgnored) {
  proto::JobOutputAck ack;
  ack.job_id = 99;
  ack.ok = true;
  send(ack);
  pump();  // must not crash or reply
  EXPECT_TRUE(last_of<proto::JobOutput>() == nullptr);
}

TEST_F(ServerEdgeTest, AckForUnknownJobNackAlsoIgnored) {
  proto::JobOutputAck ack;
  ack.job_id = 77;
  ack.ok = false;
  ack.error = "whatever";
  send(ack);
  pump();
  EXPECT_TRUE(last_of<proto::JobOutput>() == nullptr);
}

// ---- the Update contract, for every delta codec ----
//
// A line delta (ed script) rebuilds content; a CDC delta only advances the
// file's chunk-digest signature. Both must answer malformed payloads, lost
// bases, failed applies and CRC mismatches the same way.

enum class Codec { kLine, kCdc };

// Small chunks, so a few-KB file spans many of them and a one-line edit
// leaves most chunks to be copied from the base.
cdc::ChunkerParams small_chunks() {
  cdc::ChunkerParams params;
  params.min_bytes = 64;
  params.avg_bytes = 256;
  params.max_bytes = 1024;
  return params;
}

std::string text_file(const std::string& word) {
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += word + " line " + std::to_string(i * 7919 % 1000) + "\n";
  }
  return text;
}

class UpdateContractTest : public ServerEdgeTest,
                           public ::testing::WithParamInterface<Codec> {
 protected:
  void SetUp() override {
    start(GetParam() == Codec::kCdc ? proto::kAllCodecs
                                    : proto::kLegacyCodecs);
  }

  /// First transfer of `content`: full content for the line codec, an
  /// all-literal CDC delta (leaving a digest-only cache entry) for CDC.
  diff::Delta first_transfer(const std::string& content) const {
    if (GetParam() == Codec::kLine) return diff::Delta::make_full(content);
    diff::Delta delta;
    delta.format = diff::Delta::Format::kCdc;
    delta.cdc = cdc::CdcDelta::compute(cdc::Signature{small_chunks(), {}},
                                       content);
    return delta;
  }

  /// A delta of `target` that needs `base` to apply.
  diff::Delta delta_between(const std::string& base,
                            const std::string& target) const {
    diff::Delta delta =
        GetParam() == Codec::kLine
            ? diff::Delta::compute(base, target, diff::Algorithm::kHuntMcIlroy)
            : diff::Delta::compute_cdc(
                  cdc::signature_of(base, small_chunks()), target);
    EXPECT_TRUE(delta.needs_base());
    EXPECT_EQ(delta.format == diff::Delta::Format::kCdc,
              GetParam() == Codec::kCdc);
    return delta;
  }

  void send_update(u64 base_version, u64 new_version, Bytes payload) {
    proto::Update update;
    update.file = file_id(1);
    update.base_version = base_version;
    update.new_version = new_version;
    update.payload = std::move(payload);
    send(update);
    pump();
  }

  /// Cache version 1 of file 1 and clear what the server sent so far.
  void cache_base(const std::string& base) {
    send_update(0, 1, pack_delta(first_transfer(base)));
    const auto* ack = last_of<proto::UpdateAck>();
    ASSERT_NE(ack, nullptr);
    ASSERT_TRUE(ack->ok);
    received_.clear();
  }
};

INSTANTIATE_TEST_SUITE_P(Codecs, UpdateContractTest,
                         ::testing::Values(Codec::kLine, Codec::kCdc),
                         [](const ::testing::TestParamInfo<Codec>& info) {
                           return info.param == Codec::kLine ? "Line" : "Cdc";
                         });

TEST_P(UpdateContractTest, UndecodableUpdatePayloadNacked) {
  // Not a compressed payload at all.
  send_update(0, 1, {0xFF, 0xEE, 0xDD});
  // A compressed delta of the codec, cut short.
  BufWriter w;
  delta_between(text_file("base"), text_file("base") + "more\n").encode(w);
  Bytes cut = w.take();
  cut.resize(cut.size() / 2);
  send_update(0, 1, compress::compress(cut, compress::Codec::kStored));

  ASSERT_EQ(count_of<proto::UpdateAck>(), 2u);
  for (const auto& m : received_) {
    if (const auto* ack = std::get_if<proto::UpdateAck>(&m)) {
      EXPECT_FALSE(ack->ok);
    }
  }
  EXPECT_EQ(count_of<proto::PullRequest>(), 0u);
  EXPECT_EQ(server_->file_cache().entry_count(), 0u);
  EXPECT_EQ(outstanding_pulls_gauge(), 0.0);
}

TEST_P(UpdateContractTest, TrailingBytesAfterDeltaNacked) {
  BufWriter w;
  first_transfer(text_file("base")).encode(w);
  w.put_u8(0);
  send_update(0, 1, compress::compress(w.take(), compress::Codec::kStored));
  const auto* ack = last_of<proto::UpdateAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_FALSE(ack->ok);
  EXPECT_NE(ack->error.find("trailing bytes"), std::string::npos)
      << ack->error;
  EXPECT_EQ(server_->file_cache().entry_count(), 0u);
  EXPECT_EQ(outstanding_pulls_gauge(), 0.0);
}

TEST_P(UpdateContractTest, DeltaAgainstUncachedBaseTriggersFullRepull) {
  // The server has nothing cached for base version 3.
  const std::string base = text_file("base");
  std::string target = base;
  target.replace(0, 4, "BASE");
  send_update(3, 4, pack_delta(delta_between(base, target)));
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);
  const auto* pull = last_of<proto::PullRequest>();
  EXPECT_EQ(pull->have_version, 0u);
  EXPECT_EQ(pull->want_version, 4u);
  EXPECT_EQ(count_of<proto::UpdateAck>(), 0u);
  EXPECT_EQ(server_->file_cache().entry_count(), 0u);
  EXPECT_EQ(outstanding_pulls_gauge(), 1.0);
}

TEST_P(UpdateContractTest, FailedApplyTriggersFullRepull) {
  cache_base(text_file("base"));
  // A delta computed against some other version 1 than the cached one:
  // the ed script fails its CRC check, the CDC copies name chunks the
  // cached signature does not hold.
  const std::string other = text_file("other");
  std::string target = other;
  target.replace(0, 5, "OTHER");
  send_update(1, 2, pack_delta(delta_between(other, target)));
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);
  const auto* pull = last_of<proto::PullRequest>();
  EXPECT_EQ(pull->have_version, 0u);
  EXPECT_EQ(pull->want_version, 2u);
  EXPECT_EQ(count_of<proto::UpdateAck>(), 0u);
  EXPECT_EQ(server_->stats().digest_advance_failures,
            GetParam() == Codec::kCdc ? 1u : 0u);
  EXPECT_EQ(server_->file_cache().peek(
                server_->domains().cache_key(file_id(1)))->version,
            1u);
  EXPECT_EQ(outstanding_pulls_gauge(), 1.0);
}

TEST_P(UpdateContractTest, CrcMismatchWithNotifyNackedOnceThenFullResendAcked) {
  const std::string base = text_file("base");
  cache_base(base);
  std::string target = base;
  target.replace(0, 4, "BASE");

  // The notify's CRC was damaged in flight; the server pulls version 2.
  proto::NotifyNewVersion notify;
  notify.file = file_id(1);
  notify.version = 2;
  notify.size = target.size();
  notify.crc = 0x12345678;
  send(notify);
  pump();
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);
  EXPECT_EQ(outstanding_pulls_gauge(), 1.0);

  send_update(1, 2, pack_delta(delta_between(base, target)));
  ASSERT_EQ(count_of<proto::UpdateAck>(), 1u);
  const auto* nack = last_of<proto::UpdateAck>();
  EXPECT_FALSE(nack->ok);
  EXPECT_EQ(nack->error, "content crc mismatch");
  EXPECT_EQ(outstanding_pulls_gauge(), 0.0);

  // The client answers the nack with the whole version; its own CRC
  // vouches for it.
  received_.clear();
  send_update(0, 2, pack_delta(diff::Delta::make_full(target)));
  ASSERT_EQ(count_of<proto::UpdateAck>(), 1u);
  const auto* ack = last_of<proto::UpdateAck>();
  EXPECT_TRUE(ack->ok);
  EXPECT_EQ(ack->version, 2u);
  const auto* entry =
      server_->file_cache().peek(server_->domains().cache_key(file_id(1)));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->version, 2u);
  // A CDC-tracked file stays digest-only when full content arrives.
  EXPECT_EQ(entry->has_bytes(), GetParam() == Codec::kLine);
  EXPECT_EQ(count_of<proto::PullRequest>(), 0u);
  EXPECT_EQ(outstanding_pulls_gauge(), 0.0);
}

// overload.max_active_jobs is the server's one job-count budget. A legacy
// (v0) client predates ServerBusy, so a submit over the budget is refused
// the old way: a SubmitReply with accepted = false and the reason.
TEST(AdmissionControlTest, LegacyClientOverJobBudgetGetsRefusingReply) {
  ServerConfig sc;
  sc.name = "super";
  sc.overload.max_active_jobs = 1;
  ShadowServer server(sc);
  auto pair = net::make_loopback_pair("ws", "super");
  std::vector<proto::Message> inbox;
  pair.a->set_receiver([&](Bytes wire) {
    auto m = proto::decode_message(wire);
    if (m.ok()) inbox.push_back(std::move(m).take());
  });
  server.attach(pair.b.get());
  proto::Hello hello{"ws", "net-x"};
  hello.protocol_version = 0;
  ASSERT_TRUE(pair.a->send(proto::encode_message(hello)).ok());

  // Job 1 waits for a version that never arrives, holding the budget.
  proto::SubmitJob waiting;
  waiting.client_job_token = 1;
  waiting.command_file = "wc f\n";
  proto::JobFileRef ref;
  ref.file = file_id(1);
  ref.local_name = "f";
  ref.version = 1'000'000;
  waiting.files.push_back(ref);
  ASSERT_TRUE(pair.a->send(proto::encode_message(waiting)).ok());
  net::pump(pair);

  proto::SubmitJob extra = waiting;
  extra.client_job_token = 2;
  inbox.clear();
  ASSERT_TRUE(pair.a->send(proto::encode_message(extra)).ok());
  net::pump(pair);
  EXPECT_EQ(server.stats().busy_rejects, 1u);
  ASSERT_EQ(inbox.size(), 1u);
  const auto* reply = std::get_if<proto::SubmitReply>(&inbox[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->client_job_token, 2u);
  EXPECT_FALSE(reply->accepted);
  EXPECT_EQ(reply->reason, "job backlog (active jobs over budget)");
  EXPECT_EQ(server.jobs().active_count(), 1u);
}

TEST_F(ServerEdgeTest, PullCapRespectedAcrossManyNotifies) {
  for (u64 i = 0; i < 10; ++i) {
    proto::NotifyNewVersion notify;
    notify.file = file_id(100 + i);
    notify.version = 1;
    send(notify);
  }
  pump();
  EXPECT_LE(server_->stats().pulls_sent, server_->config().max_outstanding_pulls);
  EXPECT_GT(server_->stats().pulls_deferred, 0u);
}

// A pull in flight to a client that disconnects dies with its socket. The
// server must pull the version again once the client is back, not treat
// the dead request as still in flight.
TEST_F(ServerEdgeTest, PullLostWithDisconnectIsSentAgainAfterReconnect) {
  proto::NotifyNewVersion notify;
  notify.file = file_id(7);
  notify.version = 3;
  notify.size = 10;
  notify.crc = 0x77;
  send(notify);
  pump();
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);

  server_->detach(pair_.b.get());
  pair_ = net::make_loopback_pair("ws", "super");
  server_->attach(pair_.b.get());
  pair_.a->set_receiver([this](Bytes wire) {
    auto m = proto::decode_message(wire);
    if (m.ok()) received_.push_back(std::move(m).take());
  });
  received_.clear();
  send(proto::Hello{"ws", "net-x"});
  send(notify);  // the client re-announces what it holds
  pump();
  EXPECT_EQ(count_of<proto::PullRequest>(), 1u);
  const auto* pull = last_of<proto::PullRequest>();
  ASSERT_NE(pull, nullptr);
  EXPECT_EQ(pull->want_version, 3u);
}

// A job's input owner is away: the pull waits for its Hello instead of
// going nowhere and looking in flight forever. Once the owner is back and
// answers, the job runs.
TEST_F(ServerEdgeTest, JobInputPullWaitsForItsOwnerToReconnect) {
  proto::SubmitJob submit;
  submit.client_job_token = 1;
  submit.command_file = "cat in\n";
  proto::JobFileRef ref;
  ref.file = file_id(8);
  ref.local_name = "in";
  ref.version = 1;
  submit.files.push_back(ref);
  send(submit);
  pump();
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);

  server_->detach(pair_.b.get());
  // Another client's Hello runs a full scheduling pass while ws is away.
  auto other = net::make_loopback_pair("ws2", "super");
  server_->attach(other.b.get());
  ASSERT_TRUE(other.a->send(proto::encode_message(proto::Hello{"ws2", "net-x"}))
                  .ok());
  net::pump(other);
  EXPECT_EQ(server_->stats().pulls_sent, 1u) << "no pull to an absent owner";

  pair_ = net::make_loopback_pair("ws", "super");
  server_->attach(pair_.b.get());
  pair_.a->set_receiver([this](Bytes wire) {
    auto m = proto::decode_message(wire);
    if (m.ok()) received_.push_back(std::move(m).take());
  });
  received_.clear();
  send(proto::Hello{"ws", "net-x"});
  pump();
  ASSERT_EQ(count_of<proto::PullRequest>(), 1u);
  proto::Update update;
  update.file = file_id(8);
  update.new_version = 1;
  update.payload = pack_delta(diff::Delta::make_full("back\n"));
  send(update);
  pump();
  const auto* out = last_of<proto::JobOutput>();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->exit_code, 0);
}

// A restarted client's token counter starts over. Its first job must be a
// new job even when its new Connection is allocated where the old one was.
TEST_F(ServerEdgeTest, ReconnectedClientNeverGetsAnOldJobsId) {
  std::vector<u64> ids;
  for (int round = 0; round < 20; ++round) {
    server_->detach(pair_.b.get());
    pair_ = net::make_loopback_pair("ws", "super");
    server_->attach(pair_.b.get());
    pair_.a->set_receiver([this](Bytes wire) {
      auto m = proto::decode_message(wire);
      if (m.ok()) received_.push_back(std::move(m).take());
    });
    received_.clear();
    send(proto::Hello{"ws", "net-x"});
    proto::SubmitJob submit;
    submit.client_job_token = 1;
    submit.command_file = "echo again\n";
    send(submit);
    pump();
    const auto* reply = last_of<proto::SubmitReply>();
    ASSERT_NE(reply, nullptr);
    ASSERT_TRUE(reply->accepted);
    EXPECT_EQ(std::count(ids.begin(), ids.end(), reply->job_id), 0)
        << "round " << round << " got job " << reply->job_id << " again";
    ids.push_back(reply->job_id);
  }
  EXPECT_EQ(server_->stats().jobs_submitted, 20u);
}

// A pull in flight when a newer version is announced is replaced, not
// doubled: notify v1, notify v2 (both PullRequests go out), then the
// answers arrive newest first. The file held one slot throughout, so no
// slot leaks, and even a one-slot server still pulls the next file.
TEST_F(ServerEdgeTest, OverlappingPullsHoldOneSlot) {
  auto notify = [this](u64 inode, u64 version, const std::string& content) {
    proto::NotifyNewVersion n;
    n.file = file_id(inode);
    n.version = version;
    n.size = content.size();
    n.crc = crc32(reinterpret_cast<const u8*>(content.data()), content.size());
    send(n);
    pump();
  };
  auto answer = [this](u64 version, const std::string& content) {
    proto::Update update;
    update.file = file_id(1);
    update.new_version = version;
    update.payload = pack_delta(diff::Delta::make_full(content));
    send(update);
    pump();
  };
  for (const std::size_t cap : {4, 1}) {
    ServerConfig sc;
    sc.max_outstanding_pulls = cap;
    start(proto::kAllCodecs, sc);
    notify(1, 1, "one\n");
    notify(1, 2, "two\n");
    EXPECT_EQ(count_of<proto::PullRequest>(), 2u) << "cap " << cap;
    answer(2, "two\n");
    answer(1, "one\n");
    EXPECT_EQ(outstanding_pulls_gauge(), 0.0) << "cap " << cap;
    received_.clear();
    notify(2, 1, "other\n");
    EXPECT_EQ(count_of<proto::PullRequest>(), 1u) << "cap " << cap;
  }
}

// v2's answer overtakes v1's on one connection. The late v1 answer is
// dropped: the cache, the journal and the acked version all stay at v2.
// Answers that arrive oldest first are each cached and acked, as before.
TEST_F(ServerEdgeTest, LateAnswerToAnOlderPullIsDropped) {
  auto notify = [this](u64 version, const std::string& content) {
    proto::NotifyNewVersion n;
    n.file = file_id(1);
    n.version = version;
    n.size = content.size();
    n.crc = crc32(reinterpret_cast<const u8*>(content.data()), content.size());
    send(n);
    pump();
  };
  auto answer = [this](u64 version, const std::string& content) {
    proto::Update update;
    update.file = file_id(1);
    update.new_version = version;
    update.payload = pack_delta(diff::Delta::make_full(content));
    send(update);
    pump();
  };
  for (const bool newest_first : {true, false}) {
    persist::MemDir disk;
    persist::DurableStore store(&disk);
    start(proto::kAllCodecs, ServerConfig{}, &store);
    notify(1, "one\n");
    notify(2, "two\n");
    answer(newest_first ? 2 : 1, newest_first ? "two\n" : "one\n");
    answer(newest_first ? 1 : 2, newest_first ? "one\n" : "two\n");
    const std::string key = server_->domains().cache_key(file_id(1));
    const auto* entry = server_->file_cache().peek(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->version, 2u) << newest_first;
    EXPECT_EQ(entry->content, "two\n") << newest_first;
    std::vector<u64> acked;
    for (const auto& m : received_) {
      if (const auto* ack = std::get_if<proto::UpdateAck>(&m)) {
        EXPECT_TRUE(ack->ok);
        acked.push_back(ack->version);
      }
    }
    const std::vector<u64> expected_acks =
        newest_first ? std::vector<u64>{2} : std::vector<u64>{1, 2};
    EXPECT_EQ(acked, expected_acks);
    EXPECT_EQ(server_->stats().stale_updates_dropped, newest_first ? 1u : 0u);

    // The journal replays to v2 as well.
    server_.reset();
    persist::DurableStore reopened(&disk);
    ShadowServer recovered(ServerConfig{}, nullptr, &reopened);
    ASSERT_TRUE(recovered.recover_from_storage().ok());
    const auto* replayed = recovered.file_cache().peek(key);
    ASSERT_NE(replayed, nullptr);
    EXPECT_EQ(replayed->version, 2u) << newest_first;
    received_.clear();
  }
}

// A desync loses frames on one session only. Its resync pulls again what
// was in flight to that client; a pull in flight to another client over a
// healthy session is not sent twice.
TEST_F(ServerEdgeTest, ResyncRearmsOnlyItsOwnClientsPulls) {
  ServerConfig sc;
  sc.name = "super";
  sc.reliable_session = true;
  ShadowServer server(sc);
  struct Peer {
    net::LoopbackPair pair;
    std::unique_ptr<proto::ReliableChannel> channel;
    std::size_t pulls = 0;
  };
  std::map<std::string, Peer> peers;
  for (const std::string name : {"a", "b"}) {
    Peer& peer = peers[name];
    peer.pair = net::make_loopback_pair(name, "super");
    server.attach(peer.pair.b.get());
    peer.channel = std::make_unique<proto::ReliableChannel>(peer.pair.a.get());
    peer.channel->set_receiver([&peer](Bytes wire) {
      auto m = proto::decode_message(wire);
      if (m.ok() && std::holds_alternative<proto::PullRequest>(m.value())) {
        ++peer.pulls;
      }
    });
    proto::NotifyNewVersion notify;
    notify.file = file_id(name == "a" ? 1 : 2);
    notify.version = 1;
    for (const proto::Message& m :
         {proto::Message(proto::Hello{name, "net-x"}), proto::Message(notify)}) {
      ASSERT_TRUE(peer.channel->send(proto::encode_message(m)).ok());
    }
    net::pump(peer.pair);
    ASSERT_EQ(peer.pulls, 1u) << name;
  }

  // a's end resets the session (as after its retransmit limit): the
  // server's session with a declares a desync and resyncs.
  Peer& a = peers["a"];
  ASSERT_TRUE(a.pair.a
                  ->send(proto::encode_frame(proto::FrameType::kReset,
                                             a.channel->next_send_seq(), {}))
                  .ok());
  for (auto& [name, peer] : peers) net::pump(peer.pair);
  EXPECT_EQ(server.stats().session_resyncs, 1u);
  EXPECT_EQ(peers["a"].pulls, 2u);
  EXPECT_EQ(peers["b"].pulls, 1u) << "b's session lost nothing";
}

}  // namespace
}  // namespace shadow::server
