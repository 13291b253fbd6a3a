// Lifecycle of one real shadowd process: spawn it on an ephemeral port
// with a fresh journal directory, read the port from its "listening on"
// line, read its peak RSS, and stop it with SIGTERM, requiring a clean
// drain and exit code 0.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/result.hpp"

namespace perfbench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();  // kills and reaps a daemon that was never stopped
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Start `binary` with `args` (plus --port 0), stdout and stderr going
  /// to `log_path`; returns once the daemon is listening.
  shadow::Status start(const std::string& binary,
                       const std::vector<std::string>& args,
                       const std::string& log_path, double timeout_s);

  unsigned port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// VmHWM of the running daemon, in MiB (0 when unreadable).
  double peak_rss_mb() const;

  /// SIGTERM, then wait up to `timeout_s` for exit. Fails unless the
  /// daemon reported a clean drain and exited with status 0.
  shadow::Status stop(double timeout_s);

 private:
  pid_t pid_ = -1;
  unsigned port_ = 0;
  std::string log_path_;
};

/// VmHWM of process `pid` ("self" for this process) in MiB, 0 on error.
double vm_hwm_mb(const std::string& pid);

/// Reset this process's VmHWM to its current RSS (Linux clear_refs 5).
bool reset_own_hwm();

}  // namespace perfbench
