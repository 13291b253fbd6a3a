#include "population.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "cdc/signature.hpp"
#include "compress/compress.hpp"
#include "core/workload.hpp"
#include "daemon.hpp"
#include "diff/delta.hpp"
#include "job/executor.hpp"
#include "proto/messages.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "telemetry/registry.hpp"
#include "trace.hpp"
#include "util/byte_io.hpp"

namespace perfbench {

namespace {

namespace sh = shadow;

// Edit pairs timed per host class in the traced pass.
constexpr int kPairsPerClass = 20;
// Set-up samples per repeat of the run.
constexpr int kSetupSamples = 50;


/// The runner reports its tail percentiles from a histogram; the evidence
/// behind them is the number of completed jobs.
Percentile from_report(double value, sh::u64 samples, double q) {
  Percentile p;
  p.value = value;
  p.samples = samples;
  const auto rank = static_cast<sh::u64>(std::ceil(q * samples));
  p.beyond = samples > rank ? samples - rank : 0;
  p.valid = samples > 0 && p.beyond >= kMinBeyond;
  return p;
}

/// Codec and job timings on inputs drawn like each host class draws its
/// own: a data file of the class's size and kind, edited by the class's
/// edit percentage, shipped as an Update.
void codec_layers(const sh::scenario::Scenario& sc, unsigned long long seed,
                  Report& r) {
  std::vector<double> compute, apply, delta_bytes, comp, decomp, comp_ratio;
  std::vector<double> cdc_us, cdc_bytes, enc, dec, exec;
  const sh::job::Executor executor;
  for (std::size_t ci = 0; ci < sc.hosts.size(); ++ci) {
    const auto& cls = sc.hosts[ci];
    for (int k = 0; k < kPairsPerClass; ++k) {
      const sh::u64 s = seed * 1'000'003ULL + ci * 1'009ULL + k;
      const auto size = static_cast<std::size_t>(cls.file_size);
      const std::string base = cls.binary ? sh::core::make_binary_file(size, s)
                                          : sh::core::make_file(size, s);
      const std::string next =
          cls.binary ? sh::core::overwrite_percent(base, cls.edit_percent, s + 1)
                     : sh::core::modify_percent(base, cls.edit_percent, s + 1);
      sh::diff::Delta delta;
      sh::u64 t = now_ns();
      if (cls.binary) {
        const auto sig = sh::cdc::signature_of(base, sh::cdc::ChunkerParams{});
        delta = sh::diff::Delta::compute_cdc(sig, next);
        cdc_us.push_back((now_ns() - t) / 1e3);
      } else {
        delta = sh::diff::Delta::compute(base, next,
                                         sh::diff::Algorithm::kHuntMcIlroy);
        compute.push_back((now_ns() - t) / 1e3);
      }
      sh::BufWriter w;
      delta.encode(w);
      const sh::Bytes raw = w.take();
      (cls.binary ? cdc_bytes : delta_bytes).push_back(raw.size());
      t = now_ns();
      sh::proto::Update update;
      update.payload = sh::compress::compress(raw, sh::compress::Codec::kLz77);
      comp.push_back((now_ns() - t) / 1e3);
      comp_ratio.push_back(ratio(update.payload.size(), raw.size()));
      t = now_ns();
      const sh::Bytes wire = sh::proto::encode_message(update);
      enc.push_back((now_ns() - t) / 1e3);
      t = now_ns();
      auto decoded = sh::proto::decode_message(wire);
      dec.push_back((now_ns() - t) / 1e3);
      t = now_ns();
      auto unpacked = sh::compress::decompress(update.payload);
      decomp.push_back((now_ns() - t) / 1e3);
      t = now_ns();
      auto rebuilt = delta.apply(base);
      if (!cls.binary) apply.push_back((now_ns() - t) / 1e3);
      if (!decoded.ok() || !unpacked.ok() || unpacked.value() != raw ||
          !rebuilt.ok() || rebuilt.value() != next) {
        r.fail("codec round trip failed on a " + cls.name + " edit");
      }
      t = now_ns();
      auto ran = executor.run_command_file(
          "burn " + std::to_string(cls.job_ops) + "\n", {{"data", next}});
      exec.push_back((now_ns() - t) / 1e3);
      if (!ran.ok() || ran.value().exit_code != 0) {
        r.fail("burn job failed for " + cls.name);
      }
    }
  }
  r.set_median("diff.compute_us", compute, "us");
  r.set_median("diff.apply_us", apply, "us");
  r.set_median("diff.delta_bytes", delta_bytes, "B");
  r.set_median("compress.us", comp, "us");
  r.set_median("decompress.us", decomp, "us");
  r.set_median("compress.ratio", comp_ratio, "ratio");
  r.set_median("cdc.compute_us", cdc_us, "us");
  r.set_median("cdc.delta_bytes", cdc_bytes, "B");
  r.set_median("proto.encode_us.Update", enc, "us");
  r.set_median("proto.decode_us.Update", dec, "us");
  r.set_median("job.exec_us", exec, "us");
}

}  // namespace

void run_population(const PopulationOptions& options, bool traced,
                    Report& report) {
  std::ifstream in(options.spec_path);
  if (!in.is_open()) {
    report.fail("cannot read " + options.spec_path);
    return;
  }
  std::stringstream text;
  text << in.rdbuf();

  std::vector<double> setup_s, wall_s, rss_mb;
  sh::scenario::ScenarioReport first;
  std::string first_json;
  sh::scenario::Scenario scenario;
  double cache_bytes = 0;
  const sh::u64 end = now_ns() + static_cast<sh::u64>(options.seconds * 1e9);
  for (int i = 0; i < 2 || now_ns() < end; ++i) {
    // Set-up (parse the spec, build the runner) takes microseconds; take
    // many samples so its median is steady.
    std::unique_ptr<sh::scenario::ScenarioRunner> runner;
    for (int k = 0; k < kSetupSamples; ++k) {
      const sh::u64 t0 = now_ns();
      auto parsed = sh::scenario::parse_scenario(text.str());
      if (!parsed.ok()) {
        report.fail(options.spec_path + ": " + parsed.error().to_string());
        return;
      }
      scenario = std::move(parsed).take();
      scenario.seed = options.seed;
      runner = std::make_unique<sh::scenario::ScenarioRunner>(scenario);
      setup_s.push_back((now_ns() - t0) / 1e9);
    }

    reset_own_hwm();
    const sh::u64 t0 = now_ns();
    auto run = runner->run();
    wall_s.push_back((now_ns() - t0) / 1e9);
    rss_mb.push_back(vm_hwm_mb("self"));
    if (!run.ok()) {
      report.fail("population run failed: " + run.error().to_string());
      return;
    }
    const std::string json = sh::scenario::to_json(run.value());
    if (i == 0) {
      first = run.value();
      first_json = json;
      cache_bytes =
          sh::telemetry::Registry::global().gauge("server.cache_bytes").value();
    } else if (json != first_json) {
      report.fail("population report differs between repeats of one seed");
      return;
    }
  }

  const auto& rep = first;
  const double wall = median(wall_s);
  report.count_ops(rep.edits + rep.submitted, rep.busy_rejects);
  if (rep.busy_rejects > 0) {
    report.fail(std::to_string(rep.busy_rejects) + " submits shed");
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("sim_wall_s", wall, "s", wall_s.size());
  report.set("peak_rss_mb", median(rss_mb), "MiB", rss_mb.size());
  report.set("rounds", static_cast<double>(wall_s.size()), "count",
             wall_s.size());

  report.set_percentile("latency_p50_ms",
                        from_report(rep.p50_ms, rep.completed, 0.5), "ms");
  report.set_percentile("latency_p90_ms",
                        from_report(rep.p90_ms, rep.completed, 0.9), "ms");
  report.set("sim_job_turnaround_p50_s", rep.p50_ms / 1e3, "s", rep.completed);
  report.set_percentile("sim_job_turnaround_p99_s",
                        from_report(rep.p99_ms / 1e3, rep.completed, 0.99), "s");
  // Jobs per simulated second, like the latencies above: the rate the
  // simulated users see. The simulator's own speed is sim_wall_s, which
  // follows the host's load and is not gated.
  report.set("throughput_per_s", rep.jobs_per_sec, "1/s", rep.completed);
  // Unclamped: a population that ships more than the F-policy baseline
  // must read above 1, not as "saved 0%".
  const double wire = ratio(rep.payload_bytes, rep.baseline_bytes);
  report.set("wire_per_baseline", wire, "ratio", rep.completed);
  report.set("sim_wire_per_baseline", wire, "ratio", rep.completed);
  report.set("sim.jobs_in_flight_at_end",
             static_cast<double>(rep.submitted - rep.completed), "count",
             rep.submitted);
  report.set("ops_failed_frac",
             ratio(rep.busy_rejects, std::max<sh::u64>(1, rep.edits + rep.submitted)),
             "ratio", rep.edits + rep.submitted);

  if (!traced) return;
  const double transfers = static_cast<double>(rep.updates_received);
  report.set("sim.full_transfers", static_cast<double>(rep.full_transfers),
             "count", rep.updates_received);
  report.set("sim.delta_transfers", static_cast<double>(rep.delta_transfers),
             "count", rep.updates_received);
  report.set("sim.cdc_transfers", static_cast<double>(rep.cdc_transfers),
             "count", rep.updates_received);
  report.set("sim.cache_evictions", static_cast<double>(rep.cache_evictions),
             "count", static_cast<std::size_t>(transfers));
  report.set("sim.shed_rate", rep.shed_rate, "ratio", rep.submitted);
  report.set("cache.hit_rate", rep.cache_hit_rate, "ratio",
             rep.cache_hits + rep.cache_misses);
  report.set("cache.evictions", static_cast<double>(rep.cache_evictions),
             "count", 1);
  report.set("cache.bytes_used", cache_bytes, "B", 1);
  codec_layers(scenario, options.seed, report);
}

}  // namespace perfbench
