// The two live workloads: one process, one thread, four TCP connections
// driving a shadow server in closed loops.
//
//   edit_text    each connection edits ~2% of one of its text files, saves
//                through the shadow editor and waits for the UpdateAck.
//   job_backlog  each connection keeps a window of jobs outstanding; every
//                few submits it first edits one input of the next job.
//
// A run repeats identical rounds (same inputs, fresh server, fresh
// journal) until its time is spent, so every count repeats exactly and
// the cost of a message never depends on how long the run went on.
#pragma once

#include <string>

#include "stats.hpp"

namespace perfbench {

struct LiveOptions {
  std::string workload;  // "edit_text" or "job_backlog"
  unsigned long long seed = 1;
  double seconds = 10;
  std::string shadowd;     // daemon binary for the untraced pass
  /// Give the daemon a journal (fsync per durable record). The traced
  /// server always journals.
  bool journal = false;
  std::string work_dir;    // journals and daemon logs
  std::string spans_path;  // traced pass: every span, written at the end
};

/// Untraced (`traced` false): rounds against a real shadowd process; fills
/// the end-to-end metrics. Traced: the same rounds against the classes
/// shadowd uses, hosted in this process behind timing decorators; fills
/// the end-to-end metrics as measured under tracing plus every per-layer
/// metric.
void run_live(const LiveOptions& options, bool traced, Report& report);

}  // namespace perfbench
