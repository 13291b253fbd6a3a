// Ablation (paper §8.3): "There are different algorithms proposed to
// compute the differences between two files [MM85, Tic84]. We will study
// these algorithms and adopt the one that offers better performance."
//
// Compares Hunt–McIlroy (the prototype's algorithm), Myers O(ND)
// (Miller–Myers), and Tichy block-move on CPU time and delta size across
// edit patterns, plus the cost of applying an ed script on the receiving
// side. google-benchmark binary; delta sizes are attached as counters,
// and a summary table prints at exit.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "core/workload.hpp"
#include "diff/diff.hpp"

namespace {

using shadow::core::make_file;
using shadow::core::modify_percent;
using shadow::diff::Algorithm;
using shadow::diff::Delta;

constexpr std::size_t kFileSize = 100'000;

std::string base_file() { return make_file(kFileSize, 42); }

// Scattered small edits (the paper's primary workload).
std::string scattered(double percent) {
  return modify_percent(base_file(), percent, 7);
}

// A block move: the pattern Tichy wins on and line-LCS handles poorly.
std::string block_moved() {
  const std::string b = base_file();
  return b.substr(b.size() / 3) + b.substr(0, b.size() / 3);
}

void run_algo(benchmark::State& state, Algorithm algo,
              const std::string& target) {
  const std::string base = base_file();
  std::size_t delta_bytes = 0;
  for (auto _ : state) {
    const Delta d = Delta::compute(base, target, algo);
    delta_bytes = d.wire_size();
    benchmark::DoNotOptimize(delta_bytes);
  }
  state.counters["delta_bytes"] =
      benchmark::Counter(static_cast<double>(delta_bytes));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFileSize));
}

void BM_HuntMcIlroy_1pct(benchmark::State& s) {
  run_algo(s, Algorithm::kHuntMcIlroy, scattered(1));
}
void BM_HuntMcIlroy_10pct(benchmark::State& s) {
  run_algo(s, Algorithm::kHuntMcIlroy, scattered(10));
}
void BM_HuntMcIlroy_50pct(benchmark::State& s) {
  run_algo(s, Algorithm::kHuntMcIlroy, scattered(50));
}
void BM_HuntMcIlroy_BlockMove(benchmark::State& s) {
  run_algo(s, Algorithm::kHuntMcIlroy, block_moved());
}
void BM_Myers_1pct(benchmark::State& s) {
  run_algo(s, Algorithm::kMyers, scattered(1));
}
void BM_Myers_10pct(benchmark::State& s) {
  run_algo(s, Algorithm::kMyers, scattered(10));
}
void BM_Myers_50pct(benchmark::State& s) {
  run_algo(s, Algorithm::kMyers, scattered(50));
}
void BM_Myers_BlockMove(benchmark::State& s) {
  run_algo(s, Algorithm::kMyers, block_moved());
}
void BM_Tichy_1pct(benchmark::State& s) {
  run_algo(s, Algorithm::kBlockMove, scattered(1));
}
void BM_Tichy_10pct(benchmark::State& s) {
  run_algo(s, Algorithm::kBlockMove, scattered(10));
}
void BM_Tichy_50pct(benchmark::State& s) {
  run_algo(s, Algorithm::kBlockMove, scattered(50));
}
void BM_Tichy_BlockMove(benchmark::State& s) {
  run_algo(s, Algorithm::kBlockMove, block_moved());
}

// The receiving side: the server rebuilding the target from its cached
// base (verify base CRC, replay the ed script, verify target CRC).
void run_apply(benchmark::State& state, const std::string& target) {
  const std::string base = base_file();
  const Delta d = Delta::compute(base, target, Algorithm::kHuntMcIlroy);
  for (auto _ : state) {
    auto rebuilt = d.apply(base);
    benchmark::DoNotOptimize(rebuilt);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFileSize));
}

void BM_ApplyEd_1pct(benchmark::State& s) { run_apply(s, scattered(1)); }
void BM_ApplyEd_10pct(benchmark::State& s) { run_apply(s, scattered(10)); }

BENCHMARK(BM_HuntMcIlroy_1pct);
BENCHMARK(BM_HuntMcIlroy_10pct);
BENCHMARK(BM_HuntMcIlroy_50pct);
BENCHMARK(BM_HuntMcIlroy_BlockMove);
BENCHMARK(BM_Myers_1pct);
BENCHMARK(BM_Myers_10pct);
BENCHMARK(BM_Myers_50pct);
BENCHMARK(BM_Myers_BlockMove);
BENCHMARK(BM_Tichy_1pct);
BENCHMARK(BM_Tichy_10pct);
BENCHMARK(BM_Tichy_50pct);
BENCHMARK(BM_Tichy_BlockMove);
BENCHMARK(BM_ApplyEd_1pct);
BENCHMARK(BM_ApplyEd_10pct);

void print_size_table() {
  std::printf("\n=== Delta sizes (bytes) on a %zu-byte file ===\n",
              kFileSize);
  std::printf("%-14s %12s %12s %12s %12s\n", "algorithm", "1%-edit",
              "10%-edit", "50%-edit", "block-move");
  const Algorithm algos[] = {Algorithm::kHuntMcIlroy, Algorithm::kMyers,
                             Algorithm::kBlockMove};
  const std::string base = base_file();
  const std::string targets[] = {scattered(1), scattered(10), scattered(50),
                                 block_moved()};
  for (Algorithm algo : algos) {
    std::printf("%-14s", shadow::diff::algorithm_name(algo));
    for (const auto& target : targets) {
      std::printf(" %12zu", Delta::compute(base, target, algo).wire_size());
    }
    std::printf("\n");
  }
  std::printf("expected: block-move delta tiny only for Tichy; ed-script "
              "algorithms treat a move as delete+insert.\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Machine-readable output (bench/bench_to_json.sh -> BENCH_diff.json)
  // must stay pure JSON, so the human-oriented table is suppressed then.
  bool json_output = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark_format=json") == 0) {
      json_output = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_output) print_size_table();
  return 0;
}
