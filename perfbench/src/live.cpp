#include "live.hpp"

#include <poll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client/shadow_client.hpp"
#include "client/shadow_editor.hpp"
#include "compress/compress.hpp"
#include "core/workload.hpp"
#include "daemon.hpp"
#include "diff/delta.hpp"
#include "job/executor.hpp"
#include "net/tcp_transport.hpp"
#include "persist/durable_store.hpp"
#include "server/shard_router.hpp"
#include "server/sharded_server.hpp"
#include "trace.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"
#include "vfs/cluster.hpp"

namespace perfbench {

namespace {

namespace sh = shadow;

constexpr char kServerName[] = "supercomputer";
constexpr char kDomain[] = "perfbench-net";
constexpr std::size_t kConnections = 4;
constexpr std::size_t kShards = 2;  // shadowd --threads 2
constexpr double kRoundTimeoutS = 60;
constexpr double kEditPercent = 2.0;

// edit_text: each connection owns a few text files of tens of KB.
constexpr std::size_t kTextFiles = 4;
constexpr std::size_t kTextMinBytes = 20'000;
constexpr std::size_t kTextMaxBytes = 60'000;
constexpr std::size_t kEditsPerConn = 300;

// job_backlog: job t reads its own two inputs plus one shared file. With
// more templates than the window, the input edited before job i is read
// by no outstanding job (those are i-W+1 .. i-1), so every job's output
// is fixed by the inputs the client held when it submitted.
constexpr std::size_t kTemplates = 12;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kJobsPerConn = 300;
constexpr std::size_t kEditEvery = 3;
constexpr std::size_t kInputMinBytes = 2'000;
constexpr std::size_t kInputMaxBytes = 6'000;
static_assert(kTemplates >= kWindow, "edited inputs must be idle");

const char* const kCommands[] = {
    "sort A > s\nhead 20 s\nwc B\n",
    "grep e A > g\nwc g\ntail 5 B\nwc lib.in\n",
    "rev A > r\nhead 10 r\nuniq B > u\nwc u\n",
    "cat A B lib.in > t\nsort t > u\ntail 15 u\n",
};

// The message types whose codec cost the traced run reports.
const char* const kProtoTypes[] = {
    "NotifyNewVersion", "PullRequest", "Update",    "UpdateAck",
    "SubmitJob",        "SubmitReply", "JobOutput", "JobOutputAck",
};

sh::u64 mix(sh::u64 a, sh::u64 b) {
  sh::u64 z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

/// Four client names, two pinned to each shard by the same hash the
/// server routes with, so both shard threads carry equal load.
std::vector<std::string> client_names() {
  sh::server::ShardRouter router(kShards);
  std::vector<std::string> names;
  std::vector<std::size_t> per_shard(kShards, 0);
  for (int k = 0; names.size() < kConnections; ++k) {
    const std::string name = "ws" + std::to_string(k);
    const std::size_t s = router.shard_of_client(kDomain, name);
    if (per_shard[s] < kConnections / kShards) {
      ++per_shard[s];
      names.push_back(name);
    }
  }
  return names;
}

std::shared_ptr<const std::string> share(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

/// One connection's inputs for a pass, drawn from its own stream before
/// anything is timed: the initial files and every edit, in order. Every
/// round of the pass replays the same plan.
struct ConnPlan {
  struct Edit {
    std::size_t file = 0;
    std::shared_ptr<const std::string> before;
    std::shared_ptr<const std::string> after;
  };
  std::string name;
  std::vector<std::string> paths;
  std::vector<std::shared_ptr<const std::string>> initial;
  std::vector<Edit> edits;
};

/// Sizes follow a fixed ladder so every seed does the same amount of work;
/// contents and edits come from the seed.
std::vector<ConnPlan> make_plans(bool edit_text, unsigned long long seed) {
  const auto names = client_names();
  std::vector<ConnPlan> plans(names.size());
  for (std::size_t k = 0; k < names.size(); ++k) {
    ConnPlan& p = plans[k];
    p.name = names[k];
    sh::Rng rng(mix(seed, k + 1));
    auto add_file = [&](std::string path, std::size_t size) {
      p.paths.push_back(std::move(path));
      p.initial.push_back(share(sh::core::make_file(size, rng.next())));
    };
    if (edit_text) {
      for (std::size_t i = 0; i < kTextFiles; ++i) {
        add_file("/w/f" + std::to_string(i) + ".txt",
                 kTextMinBytes +
                     i * (kTextMaxBytes - kTextMinBytes) / (kTextFiles - 1));
      }
    } else {
      for (std::size_t t = 0; t < kTemplates; ++t) {
        for (const char* side : {"a", "b"}) {
          const std::size_t rung = p.paths.size() % 5;
          add_file("/w/" + std::string(side) + std::to_string(t) + ".in",
                   kInputMinBytes + rung * (kInputMaxBytes - kInputMinBytes) / 4);
        }
      }
      add_file("/w/lib.in", 4'000);
    }
    auto content = p.initial;
    auto add_edit = [&](std::size_t f) {
      std::string next;
      do {
        next = sh::core::modify_percent(*content[f], kEditPercent, rng.next());
      } while (next == *content[f]);
      auto after = share(std::move(next));
      p.edits.push_back({f, content[f], after});
      content[f] = std::move(after);
    };
    if (edit_text) {
      for (std::size_t e = 0; e < kEditsPerConn; ++e) {
        add_edit(rng.below(p.paths.size()));
      }
    } else {
      // Before job i (every kEditEvery-th) one of its own two inputs.
      for (std::size_t i = 0; i < kJobsPerConn; i += kEditEvery) {
        add_edit(2 * (i % kTemplates) + rng.below(2));
      }
    }
  }
  return plans;
}

/// One edit the client saved and the server has not yet acknowledged.
struct PendingAck {
  std::string key;
  sh::u64 version = 0;
  sh::u64 saved_ns = 0;
  bool measured = false;  // setup transfers are not latency samples
  std::size_t bytes = 0;  // full size of the saved version
};

/// The benchmark's record of one submitted job.
struct JobRecord {
  std::string command;
  sh::u64 token = 0;
  std::map<std::string, std::shared_ptr<const std::string>> inputs;
  std::string expect_copy_of;  // edit_text check: output must equal input
  sh::u64 submit_ns = 0;
  sh::u64 done_ns = 0;
  bool done = false;
  bool measured = false;
  int exit_code = 0;
  std::string output;
};

struct Conn {
  std::string name;
  std::unique_ptr<sh::net::TcpTransport> tcp;
  std::unique_ptr<TimedTransport> timed;
  sh::net::Transport* transport = nullptr;
  std::unique_ptr<sh::client::ShadowClient> client;
  std::unique_ptr<sh::client::ShadowEditor> editor;
  const ConnPlan* plan = nullptr;

  std::vector<std::shared_ptr<const std::string>> content;  // as saved
  std::vector<PendingAck> pending;

  std::size_t next_edit = 0;  // index into plan->edits
  std::vector<JobRecord> jobs;
  std::map<sh::u64, std::size_t> job_of_token;
  std::size_t next_job = 0;

  int fd() const {
    return tcp != nullptr ? tcp->fd() : timed->inner().fd();
  }
  sh::u64 wire_bytes() const {
    // TcpTransport counts message bytes; each frame adds a 4-byte length.
    return transport->bytes_sent() + 4 * transport->messages_sent();
  }
};

/// Everything one pass accumulates over its rounds.
struct Accum {
  std::vector<double> setup_s;
  std::vector<double> ack_ms;
  std::vector<double> turnaround_ms;
  std::vector<double> peak_rss_mb;
  double measured_s = 0;
  // The workload's own operation (edit_text: save to UpdateAck; job_backlog:
  // submit to output written), one entry per round.
  std::vector<double> round_p50_ms;
  std::vector<double> round_p90_ms;
  std::vector<double> round_per_s;
  sh::u64 acked_updates = 0;
  sh::u64 jobs_done = 0;
  sh::u64 wire_bytes = 0;
  sh::u64 wire_frames = 0;
  sh::u64 baseline_bytes = 0;
  sh::u64 attempted = 0;
  sh::u64 failed = 0;
  std::vector<std::string> problems;
  std::size_t rounds = 0;

  // Traced pass only.
  std::map<std::string, std::vector<double>> span_us;       // duration
  std::map<std::string, std::vector<double>> span_self_us;  // self time
  std::vector<double> ack_wait_us;
  std::vector<double> queue_depth;
  std::vector<double> exec_us;
  std::vector<double> job_wait_us;  // server residence minus execution
  sh::u64 gated_replies = 0;
  TimedDir::Counts persist;
  sh::u64 job_records = 0;
  sh::cache::CacheStats cache;
  sh::u64 cache_bytes = 0;
  std::vector<sh::Bytes> messages;
  std::vector<std::unique_ptr<TraceSink>> sinks;
};

/// The server side of a traced round: the classes shadowd runs
/// (ShardedServer over DurableStore over FsDir, one journal per shard),
/// hosted here with one thread per shard, each owning the connections
/// its shard serves. Transports and journal directories are wrapped in
/// the timing decorators.
class InProcServer {
 public:
  InProcServer(const std::string& journal_dir, bool reverse_shadow,
               TraceSink* sink)
      : sink_(sink) {
    std::vector<sh::persist::DurableStore*> stores;
    for (std::size_t i = 0; i < kShards; ++i) {
      dirs_.push_back(std::make_unique<TimedDir>(
          std::make_unique<sh::persist::FsDir>(journal_dir + "/shard" +
                                               std::to_string(i))));
      stores_.push_back(
          std::make_unique<sh::persist::DurableStore>(dirs_.back().get()));
      stores_.back()->set_group_commit(sh::persist::GroupCommitConfig{});
      stores.push_back(stores_.back().get());
    }
    sh::server::ServerConfig config;
    config.name = kServerName;
    config.reverse_shadow = reverse_shadow;
    sharded_ = std::make_unique<sh::server::ShardedServer>(config, kShards,
                                                          stores);
  }

  ~InProcServer() { stop(); }
  InProcServer(const InProcServer&) = delete;
  InProcServer& operator=(const InProcServer&) = delete;

  sh::Status start() {
    SHADOW_TRY(sharded_->recover_all());
    SHADOW_TRY(listener_.listen(0));
    for (std::size_t i = 0; i < kShards; ++i) {
      workers_[i].thread = std::thread([this, i] { run_worker(i); });
    }
    return sh::Status();
  }

  unsigned port() const { return listener_.port(); }

  /// Accept the connection `client` just opened and hand it to the
  /// thread of the shard that will serve it.
  sh::Status accept(const std::string& client) {
    auto accepted = listener_.accept_blocking(5000);
    if (!accepted.ok()) return accepted.error();
    auto timed = std::make_unique<TimedTransport>(
        std::move(accepted).take(), TimedTransport::Side::kServer, client);
    sharded_->attach(timed.get());
    const std::size_t s = sharded_->router().shard_of_client(kDomain, client);
    std::lock_guard<std::mutex> lock(workers_[s].mu);
    workers_[s].incoming.push_back(std::move(timed));
    return sh::Status();
  }

  /// Stop the shard threads and fold the server-side observations into
  /// `acc`. Called after every client has disconnected.
  void finish(Accum& acc, std::map<std::string, double>& job_residence_us) {
    stop();
    for (std::size_t i = 0; i < kShards; ++i) {
      auto& shard = sharded_->shard(i);
      shard.flush_persist();
      shard.wait_persist_idle();
      acc.job_records += shard.jobs().size();
      const auto& cs = shard.file_cache().stats();
      acc.cache.hits += cs.hits;
      acc.cache.misses += cs.misses;
      acc.cache.evictions += cs.evictions;
      acc.cache_bytes += shard.file_cache().bytes_used();
      const auto& pc = dirs_[i]->counts();
      acc.persist.appends += pc.appends;
      acc.persist.append_bytes += pc.append_bytes;
      acc.persist.syncs += pc.syncs;
      Worker& w = workers_[i];
      acc.queue_depth.insert(acc.queue_depth.end(), w.depth.begin(),
                             w.depth.end());
      for (auto& t : w.owned) {
        acc.ack_wait_us.insert(acc.ack_wait_us.end(), t->ack_wait_us().begin(),
                               t->ack_wait_us().end());
        acc.gated_replies += t->gated_replies();
        job_residence_us.insert(t->job_residence_us().begin(),
                                t->job_residence_us().end());
      }
    }
  }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mu;  // guards incoming
    std::vector<std::unique_ptr<TimedTransport>> incoming;
    std::vector<std::unique_ptr<TimedTransport>> owned;  // thread-owned
    std::vector<double> depth;  // active jobs, sampled after each batch
  };

  void stop() {
    stopping_.store(true);
    for (auto& w : workers_) {
      if (w.thread.joinable()) w.thread.join();
    }
  }

  void run_worker(std::size_t i) {
    sink_->bind_thread("shard" + std::to_string(i));
    Worker& w = workers_[i];
    auto& shard = sharded_->shard(i);
    std::vector<pollfd> fds;
    sh::u64 last_sweep = now_ns();
    while (!stopping_.load()) {
      {
        std::lock_guard<std::mutex> lock(w.mu);
        for (auto& t : w.incoming) w.owned.push_back(std::move(t));
        w.incoming.clear();
      }
      fds.clear();
      for (auto& t : w.owned) {
        if (!t->inner().closed()) fds.push_back({t->inner().fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 1);
      std::size_t moved = 0;
      for (auto& t : w.owned) moved += t->poll();
      moved += shard.pump_persist();
      if (moved > 0) {
        w.depth.push_back(static_cast<double>(shard.jobs().active_count()));
      }
      if (now_ns() - last_sweep > 50'000'000) {
        last_sweep = now_ns();
        shard.expire_leases();
        shard.reap_doomed();
      }
    }
    TraceSink::unbind_thread();
  }

  TraceSink* sink_;
  std::atomic<bool> stopping_{false};
  // Declaration order is destruction order reversed: the shards hold raw
  // pointers to the stores and the transports.
  std::vector<std::unique_ptr<TimedDir>> dirs_;
  std::vector<std::unique_ptr<sh::persist::DurableStore>> stores_;
  std::array<Worker, kShards> workers_;
  std::unique_ptr<sh::server::ShardedServer> sharded_;
  sh::net::TcpListener listener_;
};

/// One round: fresh server, fresh clients, the workload's fixed inputs.
class Round {
 public:
  Round(const LiveOptions& options, bool traced, std::size_t index,
        const std::vector<ConnPlan>& plans, Accum& acc)
      : options_(options),
        traced_(traced),
        index_(index),
        plans_(plans),
        acc_(acc),
        edit_text_(options.workload == "edit_text") {}

  void run() {
    const std::string dir = options_.work_dir + "/round" +
                            std::to_string(index_) + (traced_ ? "t" : "");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    deadline_ns_ = now_ns() + static_cast<sh::u64>(kRoundTimeoutS * 1e9);

    if (traced_) {
      acc_.sinks.push_back(std::make_unique<TraceSink>());
      sink_ = acc_.sinks.back().get();
      sink_->bind_thread("client");
    }
    const sh::u64 t0 = now_ns();
    if (!start_server(dir)) return finish_round(dir);
    if (!connect_and_create()) return finish_round(dir);
    acc_.setup_s.push_back((now_ns() - t0) / 1e9);

    if (edit_text_ ? measure_edits() : measure_jobs()) {
      if (edit_text_) check_shadow_copies();
      verify_jobs();
    }
    finish_round(dir);
  }

 private:
  bool fail(const std::string& why) {
    acc_.problems.push_back("round " + std::to_string(index_) + ": " + why);
    return false;
  }

  bool start_server(const std::string& dir) {
    if (traced_) {
      server_ = std::make_unique<InProcServer>(dir + "/journal", !edit_text_,
                                               sink_);
      if (auto st = server_->start(); !st.ok()) {
        return fail("in-process server: " + st.to_string());
      }
      port_ = server_->port();
      return true;
    }
    std::vector<std::string> args = {"--threads", std::to_string(kShards)};
    if (options_.journal) {
      args.push_back("--journal");
      args.push_back(dir + "/journal");
    }
    if (!edit_text_) args.push_back("--reverse-shadow");
    daemon_ = std::make_unique<Daemon>();
    if (auto st = daemon_->start(options_.shadowd, args, dir + "/shadowd.log",
                                 10.0);
        !st.ok()) {
      return fail(st.to_string());
    }
    port_ = daemon_->port();
    return true;
  }

  bool connect_and_create() {
    conns_.resize(plans_.size());
    for (std::size_t k = 0; k < plans_.size(); ++k) {
      Conn& c = conns_[k];
      c.plan = &plans_[k];
      c.name = c.plan->name;
      c.content = c.plan->initial;
      auto& fs = cluster_.add_host(c.name);
      (void)fs.mkdir_p("/w");
      (void)fs.mkdir_p("/out");
      auto tcp = sh::net::tcp_connect(static_cast<sh::u16>(port_), kServerName);
      if (!tcp.ok()) return fail("connect: " + tcp.error().to_string());
      if (traced_) {
        if (auto st = server_->accept(c.name); !st.ok()) {
          return fail("accept: " + st.to_string());
        }
        c.timed = std::make_unique<TimedTransport>(
            std::move(tcp).take(), TimedTransport::Side::kClient, c.name);
        c.timed->capture_messages(index_ < 2);
        c.transport = c.timed.get();
      } else {
        c.tcp = std::move(tcp).take();
        c.transport = c.tcp.get();
      }
      sh::client::ShadowEnvironment env;
      env.codec = sh::compress::Codec::kLz77;
      c.client = std::make_unique<sh::client::ShadowClient>(c.name, env,
                                                            &cluster_, kDomain);
      c.editor = std::make_unique<sh::client::ShadowEditor>(c.client.get(),
                                                            &cluster_);
      c.client->on_job_output(
          [this, &c](const sh::client::JobView& view) { on_output(c, view); });
      c.client->connect(kServerName, c.transport);
      for (std::size_t i = 0; i < c.content.size(); ++i) {
        if (!save(c, i, /*measured=*/false)) return false;
      }
    }
    return pump([this] {
      for (auto& c : conns_) {
        if (!c.pending.empty() || c.client->server_protocol(kServerName) < 1) {
          return false;
        }
      }
      return true;
    });
  }

  /// Write content[i] through the shadow editor and expect its ack.
  bool save(Conn& c, std::size_t i, bool measured) {
    const sh::u64 t = now_ns();
    std::string key;
    sh::u64 version = 0;
    {
      ScopedSpan span("client.capture");
      const std::string& next = *c.content[i];
      const std::string& path = c.plan->paths[i];
      auto st = c.editor->edit(path,
                               [&next](const std::string&) { return next; });
      if (!st.ok()) return fail("save: " + st.to_string());
      auto id = c.client->resolve_name(path);
      if (!id.ok()) return fail("resolve: " + id.error().to_string());
      key = id.value().key();
      const auto latest = c.client->versions().chain(key).latest_number();
      version = latest ? *latest : 0;
      if (traced_) {
        span.set_op("e/" + c.name + "/" + key + "/" + std::to_string(version));
      }
    }
    c.pending.push_back(
        PendingAck{std::move(key), version, t, measured, c.content[i]->size()});
    ++acc_.attempted;
    return true;
  }

  /// Save the connection's next planned edit (~2% of one file).
  bool edit(Conn& c) {
    const ConnPlan::Edit& e = c.plan->edits[c.next_edit++];
    c.content[e.file] = e.after;
    return save(c, e.file, /*measured=*/true);
  }

  /// Count acks that arrived for the connection's pending edits.
  void collect_acks(Conn& c) {
    if (c.pending.empty()) return;
    const auto acked = c.client->acked_versions(kServerName);
    const sh::u64 now = now_ns();
    for (auto it = c.pending.begin(); it != c.pending.end();) {
      auto a = acked.find(it->key);
      if (a == acked.end() || a->second < it->version) {
        ++it;
        continue;
      }
      if (it->measured) {
        acc_.ack_ms.push_back((now - it->saved_ns) / 1e6);
        ++acc_.acked_updates;
        acc_.baseline_bytes += edit_text_ ? it->bytes : 0;
      }
      it = c.pending.erase(it);
    }
  }

  void on_output(Conn& c, const sh::client::JobView& view) {
    auto it = c.job_of_token.find(view.token);
    if (it == c.job_of_token.end()) return;
    JobRecord& job = c.jobs[it->second];
    job.done = true;
    job.done_ns = now_ns();
    job.exit_code = view.exit_code;
    auto out = cluster_.read_file(c.name, view.output_path);
    if (out.ok()) job.output = std::move(out).take();
  }

  /// Poll every connection (closed loop: `step` issues the next request
  /// of a connection that made progress) until `done` or the deadline.
  template <class Done, class Step>
  bool pump(Done done, Step step) {
    std::vector<pollfd> fds;
    while (!done()) {
      if (now_ns() > deadline_ns_) return fail("round deadline passed");
      std::size_t moved = 0;
      for (auto& c : conns_) {
        const std::size_t n = c.transport->poll();
        if (n == 0) continue;
        moved += n;
        collect_acks(c);
        if (!step(c)) return false;
      }
      if (moved > 0) continue;
      fds.clear();
      for (auto& c : conns_) fds.push_back({c.fd(), POLLIN, 0});
      ::poll(fds.data(), fds.size(), 1);
    }
    return true;
  }
  template <class Done>
  bool pump(Done done) {
    return pump(done, [](Conn&) { return true; });
  }

  sh::u64 wire_now() const {
    sh::u64 total = 0;
    for (const auto& c : conns_) total += c.wire_bytes();
    return total;
  }
  sh::u64 frames_now() const {
    sh::u64 total = 0;
    for (const auto& c : conns_) total += c.transport->messages_sent();
    return total;
  }

  /// Summarise this round's latencies `samples[from..]` and its rate.
  void close_round(const std::vector<double>& samples, std::size_t from,
                   double seconds) {
    const std::vector<double> mine(samples.begin() + from, samples.end());
    const Percentile p50 = percentile(mine, 0.5);
    const Percentile p90 = percentile(mine, 0.9);
    acc_.round_p50_ms.push_back(p50.value);
    acc_.round_p90_ms.push_back(p90.value);
    acc_.round_per_s.push_back(mine.size() / seconds);
  }

  bool measure_edits() {
    const std::size_t first = acc_.ack_ms.size();
    const sh::u64 wire0 = wire_now();
    const sh::u64 frames0 = frames_now();
    const sh::u64 t0 = now_ns();
    auto next = [this](Conn& c) {
      if (!c.pending.empty() || c.next_edit == c.plan->edits.size()) {
        return true;
      }
      return edit(c);
    };
    for (auto& c : conns_) {
      if (!next(c)) return false;
    }
    const bool ok = pump(
        [this] {
          for (auto& c : conns_) {
            if (c.next_edit < c.plan->edits.size() || !c.pending.empty()) {
              return false;
            }
          }
          return true;
        },
        next);
    const double seconds = (now_ns() - t0) / 1e9;
    acc_.measured_s += seconds;
    if (ok) close_round(acc_.ack_ms, first, seconds);
    acc_.wire_bytes += wire_now() - wire0;
    acc_.wire_frames += frames_now() - frames0;
    return ok;
  }

  sh::Result<sh::u64> submit(Conn& c, JobRecord job,
                             const std::vector<std::size_t>& files,
                             const std::string& out_name) {
    sh::client::ShadowClient::SubmitOptions options;
    for (const std::size_t f : files) options.files.push_back(c.plan->paths[f]);
    options.command_file = job.command;
    options.output_path = "/out/" + out_name + ".out";
    options.error_path = "/out/" + out_name + ".err";
    job.submit_ns = now_ns();
    c.jobs.push_back(std::move(job));
    auto token = c.client->submit(options);
    if (!token.ok()) return token.error();
    c.jobs.back().token = token.value();
    c.job_of_token[token.value()] = c.jobs.size() - 1;
    ++acc_.attempted;
    return token;
  }

  bool submit_next(Conn& c) {
    const std::size_t i = c.next_job++;
    const std::size_t t = i % kTemplates;
    const std::size_t a = 2 * t;
    const std::size_t b = 2 * t + 1;
    const std::size_t lib = c.content.size() - 1;
    if (i % kEditEvery == 0 && !edit(c)) return false;
    JobRecord job;
    job.measured = true;
    const std::string a_name = "a" + std::to_string(t) + ".in";
    const std::string b_name = "b" + std::to_string(t) + ".in";
    job.command = replace_all(
        replace_all(kCommands[t % std::size(kCommands)], "A", a_name), "B",
        b_name);
    job.inputs = {{a_name, c.content[a]}, {b_name, c.content[b]},
                  {"lib.in", c.content[lib]}};
    for (const auto& [name, content] : job.inputs) {
      acc_.baseline_bytes += content->size();
    }
    auto token = submit(c, std::move(job), {a, b, lib}, "t" + std::to_string(t));
    if (!token.ok()) return fail("submit: " + token.error().to_string());
    return true;
  }

  bool measure_jobs() {
    const std::size_t first = acc_.turnaround_ms.size();
    const sh::u64 wire0 = wire_now();
    const sh::u64 frames0 = frames_now();
    const sh::u64 t0 = now_ns();
    // Closed window: job i goes out once job i-W has delivered its output.
    auto refill = [this](Conn& c) {
      while (c.next_job < kJobsPerConn &&
             (c.next_job < kWindow || c.jobs[c.next_job - kWindow].done)) {
        if (!submit_next(c)) return false;
      }
      return true;
    };
    for (auto& c : conns_) {
      if (!refill(c)) return false;
    }
    const bool ok = pump(
        [this] {
          for (auto& c : conns_) {
            if (c.next_job < kJobsPerConn || !c.pending.empty()) return false;
            for (const auto& job : c.jobs) {
              if (!job.done) return false;
            }
          }
          return true;
        },
        refill);
    const double seconds = (now_ns() - t0) / 1e9;
    acc_.measured_s += seconds;
    acc_.wire_bytes += wire_now() - wire0;
    acc_.wire_frames += frames_now() - frames0;
    for (auto& c : conns_) {
      for (const auto& job : c.jobs) {
        if (!job.done) continue;
        acc_.turnaround_ms.push_back((job.done_ns - job.submit_ns) / 1e6);
        ++acc_.jobs_done;
      }
    }
    if (ok) close_round(acc_.turnaround_ms, first, seconds);
    return ok;
  }

  /// One `cat` job per file: the server's shadow copy, rebuilt from the
  /// deltas, must equal the client's file.
  void check_shadow_copies() {
    for (auto& c : conns_) {
      for (std::size_t i = 0; i < c.content.size(); ++i) {
        const std::string local = "f" + std::to_string(i) + ".txt";
        JobRecord job;
        job.command = "cat " + local + "\n";
        job.inputs = {{local, c.content[i]}};
        job.expect_copy_of = *c.content[i];
        auto token = submit(c, std::move(job), {i}, "check" + std::to_string(i));
        if (!token.ok()) {
          fail("check submit: " + token.error().to_string());
          return;
        }
      }
    }
    pump([this] {
      for (auto& c : conns_) {
        for (const auto& job : c.jobs) {
          if (!job.done) return false;
        }
      }
      return true;
    });
  }

  /// Compare every job output with the executor run here on the inputs
  /// the client held at submit.
  void verify_jobs() {
    const sh::job::Executor executor;
    for (auto& c : conns_) {
      for (const auto& job : c.jobs) {
        if (!job.done) {
          ++acc_.failed;
          continue;
        }
        std::map<std::string, std::string> inputs;
        for (const auto& [name, content] : job.inputs) inputs[name] = *content;
        const sh::u64 t0 = now_ns();
        auto expected = executor.run_command_file(job.command, std::move(inputs));
        const double exec_us = (now_ns() - t0) / 1e3;
        bool match = expected.ok() && expected.value().exit_code == 0 &&
                     job.exit_code == 0 &&
                     expected.value().output == job.output;
        if (!job.expect_copy_of.empty() && job.output != job.expect_copy_of) {
          match = false;
        }
        if (!match) {
          ++acc_.failed;
          fail("job output differs from the local executor (" + c.name + ")");
        }
        if (traced_ && job.measured) {
          acc_.exec_us.push_back(exec_us);
          exec_by_op_["j/" + c.name + "/" + std::to_string(job.token)] = exec_us;
        }
      }
    }
  }

  void finish_round(const std::string& dir) {
    for (auto& c : conns_) {
      if (c.client == nullptr) continue;
      const auto& st = c.client->stats();
      const sh::u64 refused = st.nack_full_resends + st.server_busy +
                              st.output_nacks_sent + st.session_resyncs;
      if (refused > 0) {
        acc_.failed += refused;
        fail(c.name + ": " + std::to_string(refused) +
             " nacks, busy replies or resyncs");
      }
      for (const auto& p : c.pending) {
        if (p.measured) ++acc_.failed;
      }
    }
    if (daemon_ != nullptr) {
      acc_.peak_rss_mb.push_back(daemon_->peak_rss_mb());
    } else {
      acc_.peak_rss_mb.push_back(vm_hwm_mb("self"));
    }
    if (traced_) {
      for (auto& c : conns_) {
        if (c.timed == nullptr) continue;
        acc_.messages.insert(acc_.messages.end(), c.timed->captured().begin(),
                             c.timed->captured().end());
      }
    }
    // Clients leave first; the daemon then drains with nothing pending.
    for (auto& c : conns_) {
      c.editor.reset();
      c.client.reset();
    }
    conns_.clear();
    if (daemon_ != nullptr) {
      if (auto st = daemon_->stop(10.0); !st.ok()) fail(st.to_string());
    }
    if (server_ != nullptr) {
      std::map<std::string, double> residence;
      server_->finish(acc_, residence);
      for (const auto& [op, exec] : exec_by_op_) {
        auto it = residence.find(op);
        if (it != residence.end()) {
          acc_.job_wait_us.push_back(std::max(0.0, it->second - exec));
        }
      }
    }
    if (traced_) TraceSink::unbind_thread();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ++acc_.rounds;
  }

  const LiveOptions& options_;
  bool traced_;
  std::size_t index_;
  const std::vector<ConnPlan>& plans_;
  Accum& acc_;
  bool edit_text_;
  sh::u64 deadline_ns_ = 0;
  unsigned port_ = 0;
  TraceSink* sink_ = nullptr;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<InProcServer> server_;
  sh::vfs::Cluster cluster_;
  std::vector<Conn> conns_;
  std::map<std::string, double> exec_by_op_;  // traced: local exec time
};

void add_span_samples(Accum& acc) {
  for (const auto& sink : acc.sinks) {
    for (const Tracer* t : sink->tracers()) {
      for (const auto& s : t->spans()) {
        acc.span_us[s.name].push_back(s.duration_us());
        acc.span_self_us[s.name].push_back(s.self_us());
      }
    }
  }
}

/// Per-layer timings of the codec functions on the run's own inputs: every
/// planned edit and every message of the first two rounds.
void codec_layers(const Accum& acc, const std::vector<ConnPlan>& plans,
                  Report& r) {
  std::vector<double> compute, apply, delta_bytes, comp, decomp, comp_ratio;
  for (const auto& plan : plans) {
    for (const auto& [file, before, after] : plan.edits) {
      sh::u64 t = now_ns();
      auto delta = sh::diff::Delta::compute(*before, *after,
                                            sh::diff::Algorithm::kHuntMcIlroy);
      compute.push_back((now_ns() - t) / 1e3);
      sh::BufWriter w;
      delta.encode(w);
      const sh::Bytes raw = w.take();
      delta_bytes.push_back(static_cast<double>(raw.size()));
      t = now_ns();
      const sh::Bytes packed =
          sh::compress::compress(raw, sh::compress::Codec::kLz77);
      comp.push_back((now_ns() - t) / 1e3);
      comp_ratio.push_back(ratio(packed.size(), raw.size()));
      t = now_ns();
      auto unpacked = sh::compress::decompress(packed);
      decomp.push_back((now_ns() - t) / 1e3);
      t = now_ns();
      auto rebuilt = delta.apply(*before);
      apply.push_back((now_ns() - t) / 1e3);
      if (!unpacked.ok() || unpacked.value() != raw || !rebuilt.ok() ||
          rebuilt.value() != *after) {
        r.fail("codec round trip failed on an edit of the run");
      }
    }
  }
  r.set_median("diff.compute_us", compute, "us");
  r.set_median("diff.apply_us", apply, "us");
  r.set_median("diff.delta_bytes", delta_bytes, "B");
  r.set_median("compress.us", comp, "us");
  r.set_median("decompress.us", decomp, "us");
  r.set_median("compress.ratio", comp_ratio, "ratio");
  r.set_median("cdc.compute_us", {}, "us");
  r.set_median("cdc.delta_bytes", {}, "B");

  std::map<std::string, std::vector<double>> enc, dec;
  for (const auto& wire : acc.messages) {
    const std::string type = message_type(wire);
    sh::u64 t = now_ns();
    auto decoded = sh::proto::decode_message(wire);
    dec[type].push_back((now_ns() - t) / 1e3);
    if (!decoded.ok()) continue;
    t = now_ns();
    const sh::Bytes again = sh::proto::encode_message(decoded.value());
    enc[type].push_back((now_ns() - t) / 1e3);
    if (again != wire) r.fail("proto re-encode differs for " + type);
  }
  for (const char* type : kProtoTypes) {
    r.set_median(std::string("proto.encode_us.") + type, enc[type], "us");
    r.set_median(std::string("proto.decode_us.") + type, dec[type], "us");
  }
}

void report_layers(const Accum& acc, const std::vector<ConnPlan>& plans,
                   bool edit_text, Report& r) {
  auto spans = [&acc](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> none;
    auto it = acc.span_us.find(name);
    return it == acc.span_us.end() ? none : it->second;
  };
  auto self = [&acc](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> none;
    auto it = acc.span_self_us.find(name);
    return it == acc.span_self_us.end() ? none : it->second;
  };
  r.set_median("client.capture_us", spans("client.capture"), "us");
  r.set_median("client.update_build_us_p50", spans("client.PullRequest"), "us");
  const auto& build = spans("client.PullRequest");
  if (build.empty()) {
    r.set("client.update_build_us_p99", 0.0, "us", 0);
  } else {
    r.set_percentile("client.update_build_us_p99", percentile(build, 0.99), "us");
  }
  r.set_median("client.output_us", spans("client.JobOutput"), "us");

  codec_layers(acc, plans, r);

  const double updates = static_cast<double>(acc.acked_updates);
  r.set_median("net.send_us", spans("net.send.client"), "us");
  r.set("net.frames_per_update", ratio(acc.wire_frames, updates), "count",
        acc.acked_updates);
  r.set("net.bytes_per_update", ratio(acc.wire_bytes, updates), "B",
        acc.acked_updates);

  r.set_median("server.update_us", self("server.Update"), "us");
  r.set_median("server.notify_us", self("server.NotifyNewVersion"), "us");
  r.set_median("server.submit_us", self("server.SubmitJob"), "us");
  r.set_median("server.output_ack_us", self("server.JobOutputAck"), "us");
  r.set_median("server.ack_wait_us", acc.ack_wait_us, "us");
  const double rounds = std::max<double>(1, acc.rounds);
  r.set("server.job_records", acc.job_records / rounds, "count", acc.rounds);

  const double lookups = static_cast<double>(acc.cache.hits + acc.cache.misses);
  r.set("cache.hit_rate", ratio(acc.cache.hits, lookups), "ratio",
        static_cast<std::size_t>(lookups));
  r.set("cache.evictions", acc.cache.evictions / rounds, "count", acc.rounds);
  r.set("cache.bytes_used", acc.cache_bytes / rounds, "B", acc.rounds);

  const double acks = static_cast<double>(acc.gated_replies);
  r.set("persist.appends_per_ack", ratio(acc.persist.appends, acks), "count",
        acc.gated_replies);
  r.set("persist.bytes_per_ack", ratio(acc.persist.append_bytes, acks), "B",
        acc.gated_replies);
  r.set("persist.syncs_per_ack", ratio(acc.persist.syncs, acks), "count",
        acc.gated_replies);
  r.set_median("persist.sync_us_p50", spans("persist.sync"), "us");
  const auto& syncs = spans("persist.sync");
  if (syncs.empty()) {
    r.set("persist.sync_us_p99", 0.0, "us", 0);
  } else {
    r.set_percentile("persist.sync_us_p99", percentile(syncs, 0.99), "us");
  }
  r.set_median("persist.append_us", spans("persist.append"), "us");

  r.set_median("job.exec_us", edit_text ? std::vector<double>{} : acc.exec_us, "us");
  r.set_median("job.wait_us", edit_text ? std::vector<double>{} : acc.job_wait_us,
          "us");
  r.set("job.queue_depth", mean(acc.queue_depth) * kShards, "count",
        acc.queue_depth.size());
}

}  // namespace

void run_live(const LiveOptions& options, bool traced, Report& report) {
  const bool edit_text = options.workload == "edit_text";
  const auto plans = make_plans(edit_text, options.seed);
  Accum acc;
  const sh::u64 end = now_ns() + static_cast<sh::u64>(options.seconds * 1e9);
  // At least three rounds: set-up time is then a median of several
  // start-ups, and job_backlog's edit acks pass a thousand samples.
  for (std::size_t i = 0; i < 3 || now_ns() < end; ++i) {
    Round(options, traced, i, plans, acc).run();
    if (!acc.problems.empty()) break;
  }

  for (const auto& p : acc.problems) report.fail(p);
  report.count_ops(acc.attempted, acc.failed);

  const std::size_t rounds = acc.rounds;
  report.set("setup_s", median(acc.setup_s), "s", acc.setup_s.size());
  report.set("peak_rss_mb", median(acc.peak_rss_mb), "MiB",
             acc.peak_rss_mb.size());
  report.set("rounds", static_cast<double>(rounds), "count", rounds);

  const double updates = static_cast<double>(acc.acked_updates);
  report.set_percentile("update_ack_p50_ms", percentile(acc.ack_ms, 0.5), "ms");
  report.set_percentile("update_ack_p99_ms", percentile(acc.ack_ms, 0.99), "ms");
  report.set("updates_per_s", ratio(updates, acc.measured_s), "1/s",
             acc.acked_updates);
  report.set("wire_bytes_per_update", ratio(acc.wire_bytes, updates), "B",
             acc.acked_updates);
  report.set("server_peak_rss_mb", median(acc.peak_rss_mb), "MiB",
             acc.peak_rss_mb.size());
  if (edit_text) {
  } else {
    const double jobs = static_cast<double>(acc.jobs_done);
    report.set_percentile("job_turnaround_p50_ms",
                          percentile(acc.turnaround_ms, 0.5), "ms");
    report.set_percentile("job_turnaround_p99_ms",
                          percentile(acc.turnaround_ms, 0.99), "ms");
    report.set("jobs_per_s", ratio(jobs, acc.measured_s), "1/s", acc.jobs_done);
  }
  // The gated metrics: medians over rounds of each round's own figure, so
  // one disturbed round cannot move them. Sample counts are the pooled
  // operations behind them.
  const std::size_t ops = edit_text ? acc.ack_ms.size() : acc.turnaround_ms.size();
  report.set("latency_p50_ms", median(acc.round_p50_ms), "ms", ops);
  report.set("latency_p90_ms", median(acc.round_p90_ms), "ms", ops);
  report.set("throughput_per_s", median(acc.round_per_s), "1/s", ops);
  report.set("wire_per_baseline", ratio(acc.wire_bytes, acc.baseline_bytes),
             "ratio", edit_text ? acc.acked_updates : acc.jobs_done);
  const double attempted = static_cast<double>(std::max<sh::u64>(1, acc.attempted));
  report.set("ops_failed_frac", acc.failed / attempted, "ratio", acc.attempted);

  if (!traced) return;
  add_span_samples(acc);
  report_layers(acc, plans, edit_text, report);
  if (!options.spans_path.empty()) {
    // Every round feeds the per-layer figures; the first two rounds'
    // spans are written out (a round of job_backlog holds ~100k spans).
    for (std::size_t i = 0; i < std::min<std::size_t>(2, acc.sinks.size());
         ++i) {
      if (!acc.sinks[i]->write_jsonl(options.spans_path,
                                     options.workload + "/round" +
                                         std::to_string(i))) {
        report.fail("cannot write spans to " + options.spans_path);
      }
    }
  }
}

}  // namespace perfbench
