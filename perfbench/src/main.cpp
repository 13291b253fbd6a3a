// perfbench — the repository benchmark program.
//
//   perfbench --workload edit_text|job_backlog|population --seed N
//             --seconds S --trace 0|1 --shadowd PATH --spec PATH
//             --work-dir DIR [--spans PATH]
//
// --trace 0 measures the workload untraced and prints every end-to-end
// metric. --trace 1 splits the time between an untraced pass and a traced
// pass of the same seed, prints every per-layer metric, and reports how
// far the traced pass's end-to-end numbers moved (the tracing overhead).
// Every metric is printed with its unit and sample count; the last line
// is one JSON object. Exit status 0 only when every output was correct.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "live.hpp"
#include "population.hpp"
#include "stats.hpp"

namespace {

using perfbench::Report;

struct Named {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
const Named kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"throughput_per_s", "1/s"},
    {"wire_per_baseline", "ratio"}, {"peak_rss_mb", "MiB"},
};

// Must match "per_layer" in BENCHMARK.json. A layer a workload does not
// exercise reads 0 with 0 samples there.
const Named kPerLayer[] = {
    {"client.capture_us", "us"},
    {"client.update_build_us_p50", "us"},
    {"client.update_build_us_p99", "us"},
    {"client.output_us", "us"},
    {"diff.compute_us", "us"},
    {"diff.apply_us", "us"},
    {"diff.delta_bytes", "B"},
    {"compress.us", "us"},
    {"decompress.us", "us"},
    {"compress.ratio", "ratio"},
    {"cdc.compute_us", "us"},
    {"cdc.delta_bytes", "B"},
    {"proto.encode_us.NotifyNewVersion", "us"},
    {"proto.decode_us.NotifyNewVersion", "us"},
    {"proto.encode_us.PullRequest", "us"},
    {"proto.decode_us.PullRequest", "us"},
    {"proto.encode_us.Update", "us"},
    {"proto.decode_us.Update", "us"},
    {"proto.encode_us.UpdateAck", "us"},
    {"proto.decode_us.UpdateAck", "us"},
    {"proto.encode_us.SubmitJob", "us"},
    {"proto.decode_us.SubmitJob", "us"},
    {"proto.encode_us.SubmitReply", "us"},
    {"proto.decode_us.SubmitReply", "us"},
    {"proto.encode_us.JobOutput", "us"},
    {"proto.decode_us.JobOutput", "us"},
    {"proto.encode_us.JobOutputAck", "us"},
    {"proto.decode_us.JobOutputAck", "us"},
    {"net.send_us", "us"},
    {"net.frames_per_update", "count"},
    {"net.bytes_per_update", "B"},
    {"server.update_us", "us"},
    {"server.notify_us", "us"},
    {"server.submit_us", "us"},
    {"server.output_ack_us", "us"},
    {"server.ack_wait_us", "us"},
    {"server.job_records", "count"},
    {"cache.hit_rate", "ratio"},
    {"cache.evictions", "count"},
    {"cache.bytes_used", "B"},
    {"persist.appends_per_ack", "count"},
    {"persist.bytes_per_ack", "B"},
    {"persist.syncs_per_ack", "count"},
    {"persist.sync_us_p50", "us"},
    {"persist.sync_us_p99", "us"},
    {"persist.append_us", "us"},
    {"job.exec_us", "us"},
    {"job.wait_us", "us"},
    {"job.queue_depth", "count"},
    {"sim.full_transfers", "count"},
    {"sim.delta_transfers", "count"},
    {"sim.cdc_transfers", "count"},
    {"sim.cache_evictions", "count"},
    {"sim.shed_rate", "ratio"},
    {"sim.jobs_in_flight_at_end", "count"},
    {"trace.setup_s_change", "ratio"},
    {"trace.latency_p50_ms_change", "ratio"},
    {"trace.latency_p90_ms_change", "ratio"},
    {"trace.throughput_per_s_change", "ratio"},
};

struct Args {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string shadowd;
  std::string spec;
  std::string work_dir;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s requires a value\n", arg.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (arg == "--shadowd") {
      a->shadowd = v;
    } else if (arg == "--spec") {
      a->spec = v;
    } else if (arg == "--work-dir") {
      a->work_dir = v;
    } else if (arg == "--spans") {
      a->spans = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", arg.c_str(), v);
      return false;
    }
  }
  const bool live = a->workload == "edit_text" || a->workload == "job_backlog";
  if (!live && a->workload != "population") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a->workload.c_str());
    return false;
  }
  if (a->seconds <= 0 || (a->trace != 0 && a->trace != 1) ||
      a->work_dir.empty() || (live && a->shadowd.empty()) ||
      (!live && a->spec.empty())) {
    std::fprintf(stderr, "perfbench: missing or invalid arguments\n");
    return false;
  }
  return true;
}

/// One pass of the workload. The gated (--trace 0) live runs keep the
/// daemon's journal off: fsync latency on a shared disk swings several-fold
/// from minute to minute and would swamp every other layer. Traced
/// invocations journal in both passes, so the per-layer figures cover the
/// durable path and the two passes stay comparable.
void run_pass(const Args& a, bool traced, double seconds, Report& report) {
  if (a.workload == "population") {
    perfbench::run_population({a.spec, a.seed, seconds}, traced, report);
  } else {
    perfbench::run_live({a.workload, a.seed, seconds, a.shadowd,
                         /*journal=*/a.trace == 1, a.work_dir,
                         traced ? a.spans : std::string()},
                        traced, report);
  }
}

void print_report(const std::string& label, const Report& r) {
  for (const auto& [name, m] : r.metrics()) {
    std::printf("%-12s %-36s %16.6g %-6s n=%zu\n", label.c_str(), name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  for (const auto& p : r.problems()) {
    std::printf("%-12s FAILED: %s\n", label.c_str(), p.c_str());
  }
}

std::string json_metrics(const Report& r, const Named* names, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const double v = r.has(names[i].name) ? r.get(names[i].name).value : 0.0;
    if (i > 0) out += ", ";
    out += perfbench::json_string(names[i].name) + ": {\"value\": " +
           perfbench::json_number(v) + ", \"unit\": " +
           perfbench::json_string(names[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) return 2;

  Report untraced;
  Report traced;
  const bool tracing = a.trace == 1;
  // A traced invocation measures for the same total time: half untraced
  // (the reference) and half traced.
  run_pass(a, false, tracing ? a.seconds / 2 : a.seconds, untraced);
  print_report(a.workload, untraced);
  if (tracing && untraced.problems().empty()) {
    run_pass(a, true, a.seconds / 2, traced);
    for (const char* name : {"setup_s", "latency_p50_ms", "latency_p90_ms",
                             "throughput_per_s"}) {
      if (!untraced.has(name) || !traced.has(name)) continue;
      const double base = untraced.get(name).value;
      const double change = base > 0 ? traced.get(name).value / base - 1 : 0;
      traced.set(std::string("trace.") + name + "_change", change, "ratio",
                 traced.get(name).samples);
    }
    print_report(a.workload + "/traced", traced);
  }

  const bool correct = untraced.correct() && traced.correct();
  const unsigned long long attempted =
      std::max(1ULL, untraced.attempted() + traced.attempted());
  const unsigned long long failed = untraced.failed() + traced.failed();
  const std::string metrics =
      tracing ? json_metrics(traced, kPerLayer, std::size(kPerLayer))
              : json_metrics(untraced, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
