// shadowd — the shadow server daemon (paper §7: "a server process listens
// at a well-known port for connections from clients").
//
//   shadowd --port 7788 [--name supercomputer] [--threads N]
//           [--cache-budget BYTES] [--eviction lru|fifo|largest-first]
//           [--reverse-shadow] [--no-cdc] [--codec stored|rle|lz77]
//           [--journal DIR] [--verbose]
//
// One process shape (docs/CONCURRENCY.md): a ShardedServer with --threads
// N shards (default 1), each on its own event-loop thread, while the main
// thread accepts and routes new connections. Accepts any number of
// clients; serves until signalled. With --once it exits after the first
// client disconnects (used by the e2e test).
//
// Durability: --journal DIR write-ahead journals every acknowledged
// mutation to DIR/shard<i>/journal.wal, so acked state survives a
// kill -9. Inspect a shard's directory with tools/wal.
//
// Group commit (docs/DURABILITY.md): --commit-window USEC batches journal
// records from concurrent connections under one fsync per window; 0 (the
// default) keeps the classic fsync-per-record path byte-for-byte.
// --commit-batch-records / --commit-batch-bytes seal a batch early;
// --commit-pipeline overlaps the fsync with framing of the next batch.
//
// Overload control (docs/OPERATIONS.md): --lease-usec expires sessions
// whose clients stopped talking; --max-connections / --max-conn-bytes /
// --max-queued-bytes / --max-parked-acks / --max-active-jobs cap the
// work the daemon will accept before answering ServerBusy with
// --retry-after-usec. SIGTERM
// (or SIGINT) begins a graceful drain: stop admitting, tell connected
// clients, flush every open group-commit window, then exit — or give up
// after --drain-deadline microseconds. A second signal exits at once.
#include <pthread.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "net/tcp_transport.hpp"
#include "persist/durable_store.hpp"
#include "persist/storage.hpp"
#include "server/sharded_server.hpp"
#include "util/logging.hpp"

using namespace shadow;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = g_stop + 1; }

u64 steady_micros() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Strict numeric flag parsing: the whole value must be a base-10
/// integer. atoi-style prefix parsing let typos like `--port 78x88`
/// silently bind the wrong port; a missing value used to be silently
/// ignored, leaving the default in place.
bool parse_u64(const char* flag, const char* v, unsigned long long* out) {
  if (v == nullptr) {
    std::fprintf(stderr, "shadowd: %s requires a value\n", flag);
    return false;
  }
  if (*v == '\0') {
    std::fprintf(stderr, "shadowd: %s requires a numeric value\n", flag);
    return false;
  }
  for (const char* p = v; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      std::fprintf(stderr, "shadowd: bad value for %s: '%s'\n", flag, v);
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (errno != 0 || *end != '\0') {
    std::fprintf(stderr, "shadowd: value for %s out of range: '%s'\n", flag,
                 v);
    return false;
  }
  *out = n;
  return true;
}
}  // namespace

int main(int argc, char** argv) {
  u16 port = 7788;
  bool once = false;
  std::size_t threads = 1;
  u64 drain_deadline_us = 5'000'000;
  std::string journal_dir;
  persist::GroupCommitConfig group;
  bool commit_flags = false;
  server::ServerConfig config;
  config.name = "supercomputer";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto missing = [](const char* flag) {
      std::fprintf(stderr, "shadowd: %s requires a value\n", flag);
    };
    if (arg == "--port") {
      unsigned long long n = 0;
      if (!parse_u64("--port", next(), &n)) return 2;
      if (n > 65535) {
        std::fprintf(stderr, "shadowd: --port must be 0..65535\n");
        return 2;
      }
      port = static_cast<u16>(n);
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) { missing("--name"); return 2; }
      config.name = v;
    } else if (arg == "--cache-budget") {
      unsigned long long n = 0;
      if (!parse_u64("--cache-budget", next(), &n)) return 2;
      config.cache_budget = static_cast<std::size_t>(n);
    } else if (arg == "--eviction") {
      const char* v = next();
      if (v == nullptr) { missing("--eviction"); return 2; }
      if (std::strcmp(v, "lru") == 0) {
        config.eviction = cache::EvictionPolicy::kLru;
      } else if (std::strcmp(v, "fifo") == 0) {
        config.eviction = cache::EvictionPolicy::kFifo;
      } else if (std::strcmp(v, "largest-first") == 0) {
        config.eviction = cache::EvictionPolicy::kLargestFirst;
      } else {
        std::fprintf(stderr, "shadowd: unknown eviction policy: %s\n", v);
        return 2;
      }
    } else if (arg == "--reverse-shadow") {
      config.reverse_shadow = true;
    } else if (arg == "--no-cdc") {
      config.cdc_enabled = false;
    } else if (arg == "--codec") {
      const char* v = next();
      if (v == nullptr) { missing("--codec"); return 2; }
      if (std::strcmp(v, "stored") == 0) {
        config.output_codec = compress::Codec::kStored;
      } else if (std::strcmp(v, "rle") == 0) {
        config.output_codec = compress::Codec::kRle;
      } else if (std::strcmp(v, "lz77") == 0) {
        config.output_codec = compress::Codec::kLz77;
      } else {
        std::fprintf(stderr, "shadowd: unknown codec: %s\n", v);
        return 2;
      }
    } else if (arg == "--threads") {
      unsigned long long n = 0;
      if (!parse_u64("--threads", next(), &n)) return 2;
      if (n < 1 || n > 64) {
        std::fprintf(stderr, "shadowd: --threads must be 1..64\n");
        return 2;
      }
      threads = static_cast<std::size_t>(n);
    } else if (arg == "--lease-usec") {
      unsigned long long n = 0;
      if (!parse_u64("--lease-usec", next(), &n)) return 2;
      config.lease_usec = n;
    } else if (arg == "--max-connections") {
      unsigned long long n = 0;
      if (!parse_u64("--max-connections", next(), &n)) return 2;
      config.overload.max_connections = static_cast<std::size_t>(n);
    } else if (arg == "--max-conn-bytes") {
      unsigned long long n = 0;
      if (!parse_u64("--max-conn-bytes", next(), &n)) return 2;
      config.overload.max_conn_queued_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--max-queued-bytes") {
      unsigned long long n = 0;
      if (!parse_u64("--max-queued-bytes", next(), &n)) return 2;
      config.overload.max_total_queued_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--max-parked-acks") {
      unsigned long long n = 0;
      if (!parse_u64("--max-parked-acks", next(), &n)) return 2;
      config.overload.max_parked_acks = static_cast<std::size_t>(n);
    } else if (arg == "--max-active-jobs") {
      unsigned long long n = 0;
      if (!parse_u64("--max-active-jobs", next(), &n)) return 2;
      config.overload.max_active_jobs = static_cast<std::size_t>(n);
    } else if (arg == "--retry-after-usec") {
      unsigned long long n = 0;
      if (!parse_u64("--retry-after-usec", next(), &n)) return 2;
      config.overload.retry_after_usec = n;
    } else if (arg == "--drain-deadline") {
      unsigned long long n = 0;
      if (!parse_u64("--drain-deadline", next(), &n)) return 2;
      drain_deadline_us = n;
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr) { missing("--journal"); return 2; }
      journal_dir = v;
    } else if (arg == "--commit-window") {
      unsigned long long n = 0;
      if (!parse_u64("--commit-window", next(), &n)) return 2;
      group.window_us = n;
      commit_flags = true;
    } else if (arg == "--commit-batch-records") {
      unsigned long long n = 0;
      if (!parse_u64("--commit-batch-records", next(), &n)) return 2;
      if (n == 0) {
        std::fprintf(stderr, "shadowd: --commit-batch-records must be >= 1\n");
        return 2;
      }
      group.max_batch_records = n;
      commit_flags = true;
    } else if (arg == "--commit-batch-bytes") {
      unsigned long long n = 0;
      if (!parse_u64("--commit-batch-bytes", next(), &n)) return 2;
      if (n == 0) {
        std::fprintf(stderr, "shadowd: --commit-batch-bytes must be >= 1\n");
        return 2;
      }
      group.max_batch_bytes = n;
      commit_flags = true;
    } else if (arg == "--commit-pipeline") {
      group.pipeline = true;
      commit_flags = true;
    } else if (arg == "--verbose") {
      Logger::instance().set_level(LogLevel::kDebug);
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) { missing("--log-level"); return 2; }
      auto level = log_level_from_name(v);
      if (!level.ok()) {
        std::fprintf(stderr, "shadowd: %s\n",
                     level.error().to_string().c_str());
        return 2;
      }
      Logger::instance().set_level(level.value());
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--help") {
      std::printf("usage: shadowd [--port N] [--name NAME] [--threads N] "
                  "[--cache-budget BYTES] [--eviction POLICY] "
                  "[--reverse-shadow] [--no-cdc] [--codec CODEC] "
                  "[--journal DIR] [--commit-window USEC] "
                  "[--commit-batch-records N] [--commit-batch-bytes B] "
                  "[--commit-pipeline] [--lease-usec USEC] "
                  "[--max-connections N] [--max-conn-bytes B] "
                  "[--max-queued-bytes B] [--max-parked-acks N] "
                  "[--max-active-jobs N] "
                  "[--retry-after-usec USEC] [--drain-deadline USEC] "
                  "[--once] [--verbose] [--log-level LEVEL]\n");
      return 0;
    } else {
      std::fprintf(stderr, "shadowd: unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (commit_flags && journal_dir.empty()) {
    std::fprintf(stderr,
                 "shadowd: --commit-* options require --journal DIR\n");
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Drain notices go to every live connection, some of which are already
  // half-closed; a write there must fail with EPIPE, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  // Every thread started below (shard loops, pipelined-commit workers)
  // inherits a mask that blocks SIGINT/SIGTERM; the main thread unblocks
  // them before serving, so a signal always interrupts its poll.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  std::vector<std::unique_ptr<persist::FsDir>> shard_fs;
  std::vector<std::unique_ptr<persist::DurableStore>> shard_stores;
  std::vector<persist::DurableStore*> store_ptrs;
  if (!journal_dir.empty()) {
    // Every shard journals under DIR/shard<i>/. A journal or snapshot at
    // the top of DIR was written for the layout before shards; starting
    // empty beside it would silently lose acked state.
    for (const char* name : {persist::DurableStore::kJournalName,
                             persist::DurableStore::kSnapshotName}) {
      const std::string top = journal_dir + "/" + name;
      if (::access(top.c_str(), F_OK) == 0) {
        std::fprintf(stderr,
                     "shadowd: %s is outside the shard layout; move it to "
                     "%s/shard0/ and restart\n",
                     top.c_str(), journal_dir.c_str());
        return 1;
      }
    }
    for (std::size_t i = 0; i < threads; ++i) {
      shard_fs.push_back(std::make_unique<persist::FsDir>(
          journal_dir + "/shard" + std::to_string(i)));
      shard_stores.push_back(
          std::make_unique<persist::DurableStore>(shard_fs.back().get()));
      shard_stores.back()->set_group_commit(group);
      store_ptrs.push_back(shard_stores.back().get());
    }
  }
  server::ShardedServer sharded(config, threads, store_ptrs);
  if (!store_ptrs.empty()) {
    if (auto st = sharded.recover_all(); st.ok()) {
      const auto stats = sharded.aggregate_stats();
      std::size_t cached = 0;
      for (std::size_t i = 0; i < threads; ++i) {
        cached += sharded.shard(i).file_cache().entry_count();
      }
      std::printf("shadowd: recovered %zu shards from %s "
                  "(%llu journal records, %llu requeued jobs, "
                  "%zu cached files)\n",
                  threads, journal_dir.c_str(),
                  static_cast<unsigned long long>(stats.recovered_records),
                  static_cast<unsigned long long>(stats.requeued_jobs),
                  cached);
    } else {
      std::fprintf(stderr, "shadowd: cannot recover from %s: %s\n",
                   journal_dir.c_str(), st.to_string().c_str());
      return 1;
    }
  }
  net::TcpListener listener;
  if (auto st = listener.listen(port); !st.ok()) {
    std::fprintf(stderr, "shadowd: %s\n", st.to_string().c_str());
    return 1;
  }
  sharded.start_threads();
  pthread_sigmask(SIG_UNBLOCK, &stop_signals, nullptr);
  std::printf("shadowd: %s listening on 127.0.0.1:%u (%zu shards)\n",
              config.name.c_str(), listener.port(), threads);
  std::fflush(stdout);

  u64 announced = 0;
  sharded.serve(listener, [&] {
    for (; announced < sharded.accepted(); ++announced) {
      std::printf("shadowd: client connected\n");
      std::fflush(stdout);
    }
    return g_stop != 0 ||
           (once && announced > 0 && sharded.live_connections() == 0);
  });

  if (g_stop != 0) {
    // Graceful drain: tell every connected v1 client, flush the open
    // group-commit windows, and keep answering late dialers with
    // ServerBusy(draining) until every notice has left its queue and
    // every parked ack is durable. A second signal (or the deadline)
    // forces the exit; stop_threads() below still syncs whatever the
    // journal already holds.
    sharded.begin_drain();
    std::printf("shadowd: draining (deadline %llu us)\n",
                static_cast<unsigned long long>(drain_deadline_us));
    std::fflush(stdout);
    const u64 t0 = steady_micros();
    bool drained = false;
    sharded.serve(listener, [&] {
      drained = sharded.drain_complete();
      return drained || g_stop >= 2 ||
             steady_micros() - t0 >= drain_deadline_us;
    });
    if (drained) {
      std::printf("shadowd: drained cleanly in %llu us\n",
                  static_cast<unsigned long long>(steady_micros() - t0));
    } else {
      std::fprintf(stderr, "shadowd: drain deadline passed with work "
                   "still pending; exiting anyway\n");
    }
  }
  sharded.stop_threads();

  const auto stats = sharded.aggregate_stats();
  std::printf("shadowd: exiting; %llu updates received (%llu full, %llu "
              "delta), %llu jobs completed\n",
              static_cast<unsigned long long>(stats.updates_received),
              static_cast<unsigned long long>(stats.full_transfers),
              static_cast<unsigned long long>(stats.delta_transfers),
              static_cast<unsigned long long>(stats.jobs_completed));
  return 0;
}
