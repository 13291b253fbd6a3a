// Load monitoring for the demand-driven server (paper §5.2: "By
// monitoring the load average, cache size to disk space ratio, number of
// incoming jobs, network delays, etc., the remote host can decide when is
// the best time to retrieve the needed files and to schedule and run the
// jobs"; §3 Adaptability: "the system should dynamically tune itself").
//
// The monitor keeps a UNIX-style exponentially-decayed load average over
// the number of running jobs, sampled on the simulated clock. The server
// consults it before issuing pulls and starting jobs; above the high-water
// mark it defers and retries after a backoff interval.
#pragma once

#include <string>

#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace shadow::server {

struct LoadMonitorConfig {
  /// Load average above which pulls and job starts are deferred.
  /// <= 0 disables load-based deferral entirely.
  double high_water = 0.0;
  /// Decay time constant of the load average, microseconds.
  sim::SimTime decay = 60 * sim::kMicrosPerSecond;
  /// How long to wait before re-checking when deferred.
  sim::SimTime backoff = 5 * sim::kMicrosPerSecond;
};

/// Unified admission budget (overload control, docs/OPERATIONS.md). The
/// load monitor above DEFERS work the server has already accepted; these
/// budgets REFUSE work at the door with a ServerBusy carrying
/// retry_after_usec, so clients back off instead of piling up. Every
/// budget is per shard; 0 disables that budget.
struct OverloadConfig {
  /// Registered client sessions per shard; a Hello beyond this is shed.
  std::size_t max_connections = 0;
  /// Byte cap on each connection's outbound send queue (applied to the
  /// transport at attach). A send overflowing it drops the CONNECTION,
  /// never blocks the shard loop; the client reconnects and resyncs.
  std::size_t max_conn_queued_bytes = 0;
  /// Cap on the SUM of all connections' queued output bytes; submits
  /// beyond it are shed (results would only deepen the backlog).
  std::size_t max_total_queued_bytes = 0;
  /// Cap on journal records staged behind the open group-commit window
  /// (each may park a deferred ack); submits beyond it are shed.
  std::size_t max_parked_acks = 0;
  /// Cap on active (queued+waiting+running) jobs, the server's one
  /// job-count budget; submits beyond it are SHED with ServerBusy +
  /// retry-after (a legacy v0 client gets a refusing SubmitReply). The
  /// client re-submits from its archive after a jittered backoff, so
  /// transient bursts queue politely at the clients instead of in the
  /// server.
  std::size_t max_active_jobs = 0;
  /// Hint returned with every ServerBusy: how long the client should
  /// back off (its own jittered backoff takes this as the floor).
  u64 retry_after_usec = 500'000;
};

class LoadMonitor {
 public:
  LoadMonitor(LoadMonitorConfig config, sim::Simulator* simulator)
      : config_(config), sim_(simulator) {}

  /// Current instantaneous demand being averaged (set by the server to
  /// its running-job count whenever it changes).
  void set_demand(double demand);

  /// Exponentially-decayed load average as of now.
  double load_average() const;

  /// True when new work should be deferred.
  bool overloaded() const {
    return config_.high_water > 0 && load_average() > config_.high_water;
  }

  const LoadMonitorConfig& config() const { return config_; }

  /// Instantaneous demand last fed to set_demand().
  double demand() const { return demand_; }

  /// Mirror thresholds and current readings into the global telemetry
  /// registry (load.average, load.demand, load.high_water, ...), with
  /// `prefix` prepended to every name ("shard0." for a sharded server's
  /// shard 0, "" for a standalone server). Cold path; called when an
  /// admin snapshot is taken.
  void publish(const std::string& prefix = std::string()) const;

 private:
  /// Fold the elapsed time into the average.
  void advance() const;

  LoadMonitorConfig config_;
  sim::Simulator* sim_;
  mutable double average_ = 0.0;
  double demand_ = 0.0;
  mutable sim::SimTime last_update_ = 0;
};

}  // namespace shadow::server
