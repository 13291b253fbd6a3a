// The job scheduler's indexes under random load. After every step of a
// random run (submit, resubmit, notify, update, pull answers in order or
// newest first, output acks, job finishes, disconnects, client restarts
// that renumber their versions, evictions, snapshot restores and journal
// replays) the queue's active ids, input readers, ready set and submission
// index, the scheduler's visit bookkeeping and the pull table must agree
// with what the job map, the cache and the file table imply
// (ShadowServer::check_job_indexes).
// Each run ends with every client connected and answering: every job must
// then finish, and every finished job's output must be its command run on
// the bytes its file references name (that version, or a newer one of the
// same numbering: a job may run on newer bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compress.hpp"
#include "diff/delta.hpp"
#include "net/loopback.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "proto/messages.hpp"
#include "server/shadow_server.hpp"
#include "sim/simulator.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace shadow::server {
namespace {

constexpr const char* kDomain = "net-j";
constexpr u64 kFiles = 6;

naming::GlobalFileId file_id(u64 n) {
  naming::GlobalFileId id;
  id.domain = kDomain;
  id.host = "ws" + std::to_string(n % 2);
  id.path = "/in" + std::to_string(n);
  id.inode = n + 1;
  return id;
}

std::string owner_of(u64 file) { return "ws" + std::to_string(file % 2); }

/// Version `version` of `file` in the owner's `epoch`-th numbering (each
/// client restart starts a new one).
std::string content_of(u64 file, u64 version, u64 epoch) {
  return "file " + std::to_string(file) + " v" + std::to_string(version) +
         (epoch == 0 ? "" : " e" + std::to_string(epoch)) + "\n" +
         std::string(30 * (file + 1), static_cast<char>('a' + version % 26)) +
         "\n";
}

u32 crc_of(const std::string& text) {
  return crc32(reinterpret_cast<const u8*>(text.data()), text.size());
}

Bytes full_payload(const std::string& content) {
  BufWriter w;
  diff::Delta::make_full(content).encode(w);
  return compress::compress(w.take(), compress::Codec::kStored);
}

struct Client {
  net::LoopbackPair pair;
  std::vector<proto::Message> inbox;
};

/// One server (replaced on a simulated crash) and its forged clients.
class Rig {
 public:
  Rig(ServerConfig config, bool simulated, bool durable)
      : config_(std::move(config)), simulated_(simulated), durable_(durable) {
    boot(/*recover=*/false);
  }

  ShadowServer& server() { return *server_; }
  sim::Simulator& sim() { return sim_; }
  /// Job ids of every JobOutput any client received, in arrival order.
  const std::vector<u64>& outputs() const { return outputs_; }

  void connect(const std::string& name) {
    auto client = std::make_unique<Client>();
    client->pair = net::make_loopback_pair(name, "super");
    Client* raw = client.get();
    client->pair.a->set_receiver([this, raw](Bytes wire) {
      auto m = proto::decode_message(wire);
      if (!m.ok()) return;
      if (const auto* out = std::get_if<proto::JobOutput>(&m.value())) {
        outputs_.push_back(out->job_id);
      }
      raw->inbox.push_back(std::move(m).take());
    });
    server_->attach(client->pair.b.get());
    clients_[name] = std::move(client);
    send(name, proto::Hello{name, kDomain});
  }

  void disconnect(const std::string& name) {
    auto it = clients_.find(name);
    if (it == clients_.end()) return;
    server_->detach(it->second->pair.b.get());
    clients_.erase(it);
  }

  bool connected(const std::string& name) const {
    return clients_.count(name) != 0;
  }

  void send(const std::string& name, const proto::Message& m) {
    auto& client = *clients_.at(name);
    ASSERT_TRUE(client.pair.a->send(proto::encode_message(m)).ok());
    net::pump(client.pair);
    pump_all();  // what the message made the server send to others
  }

  /// Deliver whatever the server has queued for every client.
  void pump_all() {
    for (auto& [name, client] : clients_) net::pump(client->pair);
  }

  void submit(const std::string& name, u64 token,
              const std::vector<u64>& files,
              const std::string& first_command = "") {
    proto::SubmitJob submit;
    submit.client_job_token = token;
    submit.command_file = first_command + "cat";
    for (std::size_t i = 0; i < files.size(); ++i) {
      proto::JobFileRef ref;
      ref.file = file_id(files[i]);
      ref.local_name = "in" + std::to_string(i);
      ref.version = versions_.at(files[i]);
      ref.crc = crc_of(content(files[i], ref.version));
      named_[ref.crc] = {files[i], ref.version, epochs_[owner_of(files[i])]};
      submit.files.push_back(ref);
      submit.command_file += " " + ref.local_name;
    }
    submit.command_file += "\n";
    submit.output_name = "out" + std::to_string(token);
    submit.error_name = "err" + std::to_string(token);
    send(name, submit);
  }

  /// Announce a new version, even while a pull for an older one is in
  /// flight (the newer pull then replaces it in the file's one slot).
  void notify(u64 file) {
    ++versions_[file];
    announce(file);
  }

  void push_update(u64 file) { push_version(file, versions_.at(file)); }

  /// The client's process restarts: a new connection, and its numbering
  /// starts again at 1 with other content. With background updates on it
  /// announces its files at once; off, the server learns of them from its
  /// next submit or push.
  void restart(const std::string& name, bool background_updates) {
    disconnect(name);
    connect(name);
    for (auto& [file, version] : versions_) {
      if (owner_of(file) != name) continue;
      newest_[{file, epochs_[name]}] = version;
    }
    ++epochs_[name];
    for (auto& [file, version] : versions_) {
      if (owner_of(file) != name) continue;
      version = 1;
      if (background_updates) announce(file);
    }
  }

  bool has_active_jobs(const std::string& name) const {
    for (const u64 id : server_->jobs().active_ids()) {
      if (server_->jobs().find(id).value()->client_name == name) return true;
    }
    return false;
  }

  /// Answer the pulls `name` has received (all, or a random part), ack
  /// its outputs. Newest first, every pull is answered with the version it
  /// asked for, so a late answer can follow a newer one.
  void answer(const std::string& name, Rng* rng, bool newest_first = false) {
    if (!connected(name)) return;
    std::vector<proto::Message> inbox;
    inbox.swap(clients_.at(name)->inbox);
    if (newest_first) std::reverse(inbox.begin(), inbox.end());
    for (const auto& m : inbox) {
      if (rng != nullptr && rng->chance(0.3)) {
        clients_.at(name)->inbox.push_back(m);  // not yet
        continue;
      }
      if (const auto* pull = std::get_if<proto::PullRequest>(&m)) {
        for (u64 f = 0; f < kFiles; ++f) {
          if (file_id(f) != pull->file) continue;
          push_version(f, newest_first ? std::min(pull->want_version,
                                                  versions_.at(f))
                                       : versions_.at(f));
        }
      } else if (const auto* out = std::get_if<proto::JobOutput>(&m)) {
        proto::JobOutputAck ack;
        ack.job_id = out->job_id;
        send(name, ack);
      }
      if (!connected(name)) return;
    }
  }

  /// Every finished job's output is `cat` over, for each input, the bytes
  /// of the version its reference names or a newer one of the same
  /// numbering.
  void check_outputs() const {
    for (const auto& [id, record] : server_->jobs().all()) {
      if (record.exit_code != 0 ||
          (record.state != proto::JobState::kCompleted &&
           record.state != proto::JobState::kDelivered)) {
        continue;
      }
      std::string_view out = record.output_content;
      for (const auto& ref : record.files) {
        const auto named = named_.find(ref.crc);
        ASSERT_NE(named, named_.end()) << "job " << id;
        const auto [file, version, epoch] = named->second;
        const u64 newest = epoch == epochs_.at(owner_of(file))
                               ? versions_.at(file)
                               : newest_.at({file, epoch});
        bool matched = false;
        for (u64 v = version; !matched && v <= newest; ++v) {
          const std::string bytes = content_of(file, v, epoch);
          matched = out.substr(0, bytes.size()) == bytes;
          if (matched) out.remove_prefix(bytes.size());
        }
        ASSERT_TRUE(matched) << "job " << id << " read " << ref.local_name
                             << " from other bytes than v" << version
                             << " (or newer) of numbering " << epoch;
      }
      EXPECT_TRUE(out.empty()) << "job " << id;
    }
  }

  /// Crash and recover from the journal (durable rigs), reconnecting
  /// every client.
  void crash_and_recover() {
    std::vector<std::string> names;
    for (const auto& [name, client] : clients_) names.push_back(name);
    for (const auto& name : names) disconnect(name);
    boot(/*recover=*/true);
    for (const auto& name : names) connect(name);
  }

 private:
  std::string content(u64 file, u64 version) const {
    return content_of(file, version, epochs_.at(owner_of(file)));
  }

  void announce(u64 file) {
    proto::NotifyNewVersion n;
    n.file = file_id(file);
    n.version = versions_.at(file);
    const std::string bytes = content(file, n.version);
    n.size = bytes.size();
    n.crc = crc_of(bytes);
    send(owner_of(file), n);
  }

  void push_version(u64 file, u64 version) {
    proto::Update u;
    u.file = file_id(file);
    u.base_version = 0;
    u.new_version = version;
    u.payload = full_payload(content(file, version));
    send(owner_of(file), u);
  }

  void boot(bool recover) {
    server_.reset();
    store_.reset();
    if (durable_) {
      store_ = std::make_unique<persist::DurableStore>(&disk_,
                                                       /*compact_every=*/7);
    }
    server_ = std::make_unique<ShadowServer>(
        config_, simulated_ ? &sim_ : nullptr, store_.get());
    if (recover) {
      ASSERT_TRUE(server_->recover_from_storage().ok());
    }
  }

  ServerConfig config_;
  bool simulated_;
  bool durable_;
  sim::Simulator sim_;
  persist::MemDir disk_;
  std::unique_ptr<persist::DurableStore> store_;
  std::unique_ptr<ShadowServer> server_;
  std::map<std::string, std::unique_ptr<Client>> clients_;
  std::vector<u64> outputs_;
  std::map<u64, u64> versions_ = {{0, 1}, {1, 1}, {2, 1},
                                  {3, 1}, {4, 1}, {5, 1}};
  std::map<std::string, u64> epochs_ = {{"ws0", 0}, {"ws1", 0}};
  struct Named {
    u64 file, version, epoch;
  };
  std::map<u32, Named> named_;  // submitted CRC -> the bytes it names
  /// (file, numbering) -> its last version, for numberings a restart ended.
  std::map<std::pair<u64, u64>, u64> newest_;
};

#define EXPECT_INDEXES_HOLD(rig, step)                                  \
  do {                                                                  \
    const Status st = (rig).server().check_job_indexes();               \
    ASSERT_TRUE(st.ok()) << "after step " << (step) << ": "             \
                         << st.to_string();                             \
  } while (0)

void random_run(u64 seed, bool simulated, bool durable) {
  ServerConfig config;
  config.name = "super";
  // Any one job's inputs fit (at most 396 bytes); both clients' files
  // (702 bytes) do not, so puts evict.
  config.cache_budget = 500;
  config.max_outstanding_pulls = 2;
  config.max_concurrent_jobs = 2;
  config.cpu_ops_per_second = 1e6;
  Rig rig(config, simulated, durable);
  Rng rng(seed);
  rig.connect("ws0");
  rig.connect("ws1");
  std::map<std::string, u64> tokens = {{"ws0", 0}, {"ws1", 0}};
  std::map<std::string, std::vector<u64>> last_files;
  for (int step = 0; step < 250; ++step) {
    const std::string name = rng.chance(0.5) ? "ws0" : "ws1";
    const u64 op = rng.below(100);
    if (!rig.connected(name)) {
      if (op < 30) rig.connect(name);
    } else if (op < 25) {
      // A job over 1-3 of this client's own files.
      std::vector<u64> files;
      const u64 count = 1 + rng.below(3);
      for (u64 i = 0; i < count; ++i) {
        files.push_back(2 * rng.below(kFiles / 2) + (name == "ws1"));
      }
      last_files[name] = files;
      rig.submit(name, ++tokens[name], files);
    } else if (op < 30 && tokens[name] > 0) {
      rig.submit(name, tokens[name], last_files[name]);  // a resend
    } else if (op < 45) {
      rig.notify(2 * rng.below(kFiles / 2) + (name == "ws1"));
    } else if (op < 52) {
      rig.push_update(2 * rng.below(kFiles / 2) + (name == "ws1"));
    } else if (op < 75) {
      rig.answer(name, &rng);
    } else if (op < 85 && simulated) {
      rig.sim().run_until(rig.sim().now() + rng.below(3000));
    } else if (op < 89) {
      rig.disconnect(name);
    } else if (op < 92) {
      rig.server().evict_file(file_id(rng.below(kFiles)));
    } else if (op < 95 && !durable) {
      // A restored copy of the snapshot indexes the same jobs.
      ShadowServer copy(config);
      ASSERT_TRUE(copy.restore_state(rig.server().save_state()).ok());
      const Status st = copy.check_job_indexes();
      ASSERT_TRUE(st.ok()) << "restored at step " << step << ": "
                           << st.to_string();
    } else if (op < 95 && durable) {
      rig.crash_and_recover();
    } else if (op < 97 && !rig.has_active_jobs(name)) {
      rig.restart(name, /*background_updates=*/rng.chance(0.5));
    } else if (op >= 97) {
      rig.answer(name, nullptr, /*newest_first=*/true);
    }
    EXPECT_INDEXES_HOLD(rig, step);
  }
  // Everyone back and answering: every job finishes.
  for (const char* name : {"ws0", "ws1"}) {
    if (!rig.connected(name)) rig.connect(name);
  }
  for (int round = 0; round < 200 && rig.server().jobs().active_count() > 0;
       ++round) {
    rig.answer("ws0", nullptr);
    rig.answer("ws1", nullptr);
    if (simulated) rig.sim().run_until(rig.sim().now() + 100'000);
    EXPECT_INDEXES_HOLD(rig, 1000 + round);
  }
  EXPECT_EQ(rig.server().jobs().active_count(), 0u) << "seed " << seed;
  rig.check_outputs();
}

TEST(JobIndexTest, RandomLiveRunsKeepIndexesExact) {
  for (u64 seed = 1; seed <= 30; ++seed) {
    random_run(seed, /*simulated=*/false, /*durable=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JobIndexTest, RandomSimulatedRunsKeepIndexesExact) {
  for (u64 seed = 1; seed <= 30; ++seed) {
    random_run(seed, /*simulated=*/true, /*durable=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(JobIndexTest, RandomRunsAcrossJournalReplayKeepIndexesExact) {
  for (u64 seed = 1; seed <= 30; ++seed) {
    random_run(seed, /*simulated=*/false, /*durable=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// One job slot and a load monitor that says wait after every job: jobs
// still start lowest ready id first, whatever order their inputs arrived
// in (the order a pass over every job in id order gives).
TEST(JobIndexTest, OneSlotUnderLoadStartsLowestReadyIdFirst) {
  ServerConfig config;
  config.name = "super";
  config.max_concurrent_jobs = 1;
  config.cpu_ops_per_second = 1e6;
  config.load.high_water = 0.3;
  config.load.decay = sim::from_seconds(1);
  config.load.backoff = sim::from_seconds(0.5);
  Rig rig(config, /*simulated=*/true, /*durable=*/false);
  rig.connect("ws0");
  rig.connect("ws1");

  proto::SubmitJob first;
  first.client_job_token = 100;
  first.command_file = "burn 2000000\necho first\n";
  first.output_name = "first";
  rig.send("ws0", first);  // job 1: holds the slot for 2 s, no inputs
  const std::string burn = "burn 300000\n";
  rig.submit("ws0", 1, {0}, burn);  // job 2
  rig.submit("ws1", 1, {1}, burn);  // job 3
  rig.submit("ws0", 2, {2}, burn);  // job 4
  rig.submit("ws1", 2, {3}, burn);  // job 5
  // Inputs arrive newest job first while job 1 runs.
  for (const u64 file : {3, 2, 1, 0}) rig.push_update(file);
  EXPECT_EQ(rig.server().jobs().ready_ids(), (std::set<u64>{2, 3, 4, 5}));

  // Each job runs >= 0.3 s, so 50 ms steps see the outputs one by one.
  while (rig.sim().now() < sim::from_seconds(60)) {
    rig.sim().run_until(rig.sim().now() + sim::from_seconds(0.05));
    rig.pump_all();
  }
  EXPECT_EQ(rig.outputs(), (std::vector<u64>{1, 2, 3, 4, 5}));
  EXPECT_GT(rig.server().stats().deferred_by_load, 0u);
}

}  // namespace
}  // namespace shadow::server
