// Unit tests for the batch executor's built-in command set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "job/executor.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace shadow::job {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutionResult run(const std::string& commands,
                      std::map<std::string, std::string> inputs = {}) {
    auto result = executor_.run_command_file(commands, std::move(inputs));
    EXPECT_TRUE(result.ok());
    return result.ok() ? std::move(result).take() : ExecutionResult{};
  }
  Executor executor_;
};

TEST_F(ExecutorTest, EchoAndCat) {
  auto r = run("echo hello batch world\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "hello batch world\n");

  auto r2 = run("cat a b\n", {{"a", "first\n"}, {"b", "second\n"}});
  EXPECT_EQ(r2.output, "first\nsecond\n");
}

TEST_F(ExecutorTest, SortAndUniq) {
  auto r = run("sort in\n", {{"in", "c\na\nb\na\n"}});
  EXPECT_EQ(r.output, "a\na\nb\nc\n");
  auto r2 = run("sort in > s\nuniq s\n", {{"in", "c\na\nb\na\n"}});
  EXPECT_EQ(r2.output, "a\nb\nc\n");
}

TEST_F(ExecutorTest, GrepHeadTailRev) {
  const std::string data = "apple\nbanana\ncherry\napricot\n";
  EXPECT_EQ(run("grep ap in\n", {{"in", data}}).output, "apple\napricot\n");
  EXPECT_EQ(run("head 2 in\n", {{"in", data}}).output, "apple\nbanana\n");
  EXPECT_EQ(run("tail 2 in\n", {{"in", data}}).output, "cherry\napricot\n");
  EXPECT_EQ(run("rev in\n", {{"in", "1\n2\n3\n"}}).output, "3\n2\n1\n");
}

TEST_F(ExecutorTest, WcCountsEverything) {
  auto r = run("wc in\n", {{"in", "one two\nthree\n"}});
  EXPECT_EQ(r.output, "2 3 14\n");
}

TEST_F(ExecutorTest, SumAndScale) {
  EXPECT_EQ(run("sum in\n", {{"in", "1 x\n2.5 y\nnot-a-number\n"}}).output,
            "3.5\n");
  EXPECT_EQ(run("scale 2 in\n", {{"in", "1 a 2\n"}}).output, "2 a 4\n");
}

TEST_F(ExecutorTest, GenIsDeterministic) {
  auto a = run("gen 50 7\n");
  auto b = run("gen 50 7\n");
  auto c = run("gen 50 8\n");
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output, c.output);
  EXPECT_EQ(std::count(a.output.begin(), a.output.end(), '\n'), 50);
}

TEST_F(ExecutorTest, MatmulChecksumStable) {
  auto a = run("matmul 16 3\n");
  auto b = run("matmul 16 3\n");
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output.find("matmul 16 checksum"), std::string::npos);
  EXPECT_GE(a.cpu_cost, 16u * 16u * 16u);
}

TEST_F(ExecutorTest, MatmulRejectsHugeSize) {
  auto r = run("matmul 100000 1\n");
  EXPECT_EQ(r.exit_code, 1);
}

TEST_F(ExecutorTest, PipelineThroughRedirects) {
  auto r = run(
      "gen 20 5 > raw\n"
      "sort raw > sorted\n"
      "head 3 sorted > top\n"
      "wc top\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.substr(0, 2), "3 ");
  EXPECT_TRUE(r.sandbox.count("raw"));
  EXPECT_TRUE(r.sandbox.count("sorted"));
  EXPECT_TRUE(r.sandbox.count("top"));
}

TEST_F(ExecutorTest, MissingFileAborts) {
  auto r = run("cat ghost\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("ghost"), std::string::npos);
}

TEST_F(ExecutorTest, UnknownCommandAborts) {
  auto r = run("frobnicate x\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("unknown command"), std::string::npos);
}

TEST_F(ExecutorTest, FailCommandAborts) {
  auto r = run("echo before\nfail deliberate stop\necho after\n");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output, "before\n");  // "after" never ran
  EXPECT_NE(r.error.find("deliberate stop"), std::string::npos);
}

TEST_F(ExecutorTest, BadNumericArgAborts) {
  EXPECT_EQ(run("head lots in\n", {{"in", "x\n"}}).exit_code, 1);
  EXPECT_EQ(run("scale wide in\n", {{"in", "1\n"}}).exit_code, 1);
}

TEST_F(ExecutorTest, MissingArgsAbort) {
  EXPECT_EQ(run("sort\n").exit_code, 1);
  EXPECT_EQ(run("grep onlypattern\n").exit_code, 1);
}

TEST_F(ExecutorTest, BurnChargesExactCost) {
  auto r = run("burn 12345\necho done\n");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "done\n");
  EXPECT_GE(r.cpu_cost, 12345u);
  EXPECT_EQ(run("burn notanumber\n").exit_code, 1);
}

TEST_F(ExecutorTest, CpuCostGrowsWithData) {
  auto small = run("gen 10 1 > d\nsort d\n");
  auto large = run("gen 1000 1 > d\nsort d\n");
  EXPECT_GT(large.cpu_cost, small.cpu_cost);
}

TEST_F(ExecutorTest, ParseErrorSurfacesAsError) {
  auto result = executor_.run_command_file("", {});
  EXPECT_FALSE(result.ok());
}

// ---- parity with the vector-of-lines implementation -------------------
//
// The line commands (sort/uniq/grep/head/tail/rev/wc) work on views of
// the sandbox file and append into one output string. The reference below
// is the implementation they replaced: split_lines copies, one vector per
// line for wc, join_lines. Every field of the result must match it.

struct RefAbort {
  std::string message;
};

const std::string& ref_read(std::map<std::string, std::string>& files,
                            const std::string& name) {
  auto it = files.find(name);
  if (it == files.end()) {
    throw RefAbort{"no such file in job sandbox: " + name};
  }
  return it->second;
}

u64 ref_parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw RefAbort{std::string("bad ") + what + ": " + s};
  }
  return v;
}

void ref_require(const Command& cmd, std::size_t n) {
  if (cmd.args.size() < n) {
    throw RefAbort{cmd.program + ": expected at least " + std::to_string(n) +
                   " argument(s)"};
  }
}

std::string ref_run_one(const Command& cmd,
                        std::map<std::string, std::string>& files,
                        u64& cpu_cost) {
  const auto& p = cmd.program;
  if (p == "cat") {
    ref_require(cmd, 1);
    std::string out;
    for (const auto& name : cmd.args) {
      const auto& content = ref_read(files, name);
      cpu_cost += content.size();
      out += content;
    }
    return out;
  }
  if (p == "echo") {
    std::string out = join(cmd.args, " ");
    out += "\n";
    cpu_cost += out.size();
    return out;
  }
  if (p == "sort") {
    ref_require(cmd, 1);
    auto lines = split_lines(ref_read(files, cmd.args[0]));
    cpu_cost += lines.size() * 16 + ref_read(files, cmd.args[0]).size();
    std::sort(lines.begin(), lines.end());
    return join_lines(lines);
  }
  if (p == "uniq") {
    ref_require(cmd, 1);
    const auto lines = split_lines(ref_read(files, cmd.args[0]));
    cpu_cost += ref_read(files, cmd.args[0]).size();
    std::vector<std::string> out;
    for (const auto& line : lines) {
      if (out.empty() || out.back() != line) out.push_back(line);
    }
    return join_lines(out);
  }
  if (p == "grep") {
    ref_require(cmd, 2);
    const auto& pattern = cmd.args[0];
    const auto lines = split_lines(ref_read(files, cmd.args[1]));
    cpu_cost += ref_read(files, cmd.args[1]).size();
    std::string out;
    for (const auto& line : lines) {
      if (line.find(pattern) != std::string::npos) out += line;
    }
    return out;
  }
  if (p == "head" || p == "tail") {
    ref_require(cmd, 2);
    const u64 n = ref_parse_u64(cmd.args[0], "line count");
    auto lines = split_lines(ref_read(files, cmd.args[1]));
    cpu_cost += ref_read(files, cmd.args[1]).size();
    std::vector<std::string> keep;
    if (p == "head") {
      for (std::size_t i = 0; i < lines.size() && i < n; ++i) {
        keep.push_back(lines[i]);
      }
    } else {
      const std::size_t start =
          lines.size() > n ? lines.size() - static_cast<std::size_t>(n) : 0;
      for (std::size_t i = start; i < lines.size(); ++i) {
        keep.push_back(lines[i]);
      }
    }
    return join_lines(keep);
  }
  if (p == "rev") {
    ref_require(cmd, 1);
    auto lines = split_lines(ref_read(files, cmd.args[0]));
    cpu_cost += ref_read(files, cmd.args[0]).size();
    std::reverse(lines.begin(), lines.end());
    return join_lines(lines);
  }
  if (p == "wc") {
    ref_require(cmd, 1);
    const auto& content = ref_read(files, cmd.args[0]);
    cpu_cost += content.size();
    const auto lines = split_lines(content);
    std::size_t words = 0;
    for (const auto& line : lines) words += split_nonempty(line, ' ').size();
    return std::to_string(lines.size()) + " " + std::to_string(words) + " " +
           std::to_string(content.size()) + "\n";
  }
  throw RefAbort{"unknown command: " + p};
}

ExecutionResult reference_run(const std::vector<Command>& commands,
                              std::map<std::string, std::string> files) {
  ExecutionResult result;
  try {
    for (const auto& cmd : commands) {
      std::string out = ref_run_one(cmd, files, result.cpu_cost);
      if (cmd.redirect.empty()) {
        result.output += out;
      } else {
        files[cmd.redirect] = std::move(out);
      }
    }
  } catch (const RefAbort& abort) {
    result.exit_code = 1;
    result.error += abort.message + "\n";
  }
  result.sandbox = std::move(files);
  return result;
}

void expect_same(const ExecutionResult& got, const ExecutionResult& want,
                 const std::string& context) {
  EXPECT_EQ(got.output, want.output) << context;
  EXPECT_EQ(got.error, want.error) << context;
  EXPECT_EQ(got.exit_code, want.exit_code) << context;
  EXPECT_EQ(got.cpu_cost, want.cpu_cost) << context;
  EXPECT_EQ(got.sandbox, want.sandbox) << context;
}

std::string describe(const std::vector<Command>& commands,
                     const std::map<std::string, std::string>& files) {
  std::string out;
  for (const auto& cmd : commands) {
    out += "[" + cmd.program;
    for (const auto& arg : cmd.args) out += " '" + arg + "'";
    if (!cmd.redirect.empty()) out += " > " + cmd.redirect;
    out += "] ";
  }
  for (const auto& [name, content] : files) {
    out += name + "=\"" + content + "\" ";
  }
  return out;
}

// Text built to hit the line-boundary cases: blank lines, lines of only
// spaces, runs of spaces, and no trailing newline.
std::string random_text(Rng& rng) {
  static const char* const kPieces[] = {"a", "b", "ab", "e", " ", "  ",
                                        "\n", "\n", "ba e", "eee"};
  const std::size_t pieces = rng.below(24);
  std::string text;
  for (std::size_t i = 0; i < pieces; ++i) text += kPieces[rng.below(10)];
  return text;
}

Command random_command(Rng& rng) {
  static const char* const kPrograms[] = {"sort", "uniq", "grep", "head",
                                          "tail", "rev",  "wc",   "cat"};
  static const char* const kFiles[] = {"in", "x", "y", "missing"};
  static const char* const kPatterns[] = {"", "a", "b", " ", "e ", "ab",
                                          "\n", "zz"};
  static const char* const kCounts[] = {"0", "1", "2", "3", "7",
                                        "99999999999", "-1", "x"};
  Command cmd;
  cmd.program = kPrograms[rng.below(8)];
  const char* file = kFiles[rng.below(rng.chance(0.9) ? 3 : 4)];
  if (cmd.program == "grep") {
    cmd.args.push_back(kPatterns[rng.below(8)]);
  } else if (cmd.program == "head" || cmd.program == "tail") {
    cmd.args.push_back(kCounts[rng.below(rng.chance(0.9) ? 5 : 8)]);
  }
  if (!rng.chance(0.03)) cmd.args.push_back(file);  // else: missing argument
  if (rng.chance(0.4)) cmd.redirect = kFiles[rng.below(3)];
  return cmd;
}

TEST(ExecutorParityTest, LineCommandEdgeCases) {
  const Executor executor;
  const std::vector<std::string> texts = {
      "", "\n", "\n\n\n", "   ", "  \n \n", "a", "a\n", "b\na", "a b  c\n\n d",
      "x\ny\nx\nx\n", " a \n a\n", "no newline at all"};
  const std::vector<std::vector<std::string>> argv = {
      {"sort"}, {"uniq"}, {"rev"}, {"wc"}, {"grep", ""}, {"grep", " "},
      {"grep", "a"}, {"head", "0"}, {"head", "1"}, {"head", "100"},
      {"tail", "0"}, {"tail", "1"}, {"tail", "2"}, {"tail", "100"}};
  for (const auto& text : texts) {
    for (const auto& words : argv) {
      Command cmd;
      cmd.program = words[0];
      cmd.args.assign(words.begin() + 1, words.end());
      cmd.args.push_back("in");
      const std::map<std::string, std::string> files = {{"in", text}};
      expect_same(executor.run({cmd}, files), reference_run({cmd}, files),
                  describe({cmd}, files));
    }
  }
}

TEST(ExecutorParityTest, RedirectIntoItsOwnInput) {
  const Executor executor;
  const std::map<std::string, std::string> files = {{"in", "c\nb\na\nb"}};
  std::vector<Command> chain(3);
  chain[0] = Command{"sort", {"in"}, "in"};
  chain[1] = Command{"uniq", {"in"}, "in"};
  chain[2] = Command{"rev", {"in"}, ""};
  expect_same(executor.run(chain, files), reference_run(chain, files),
              describe(chain, files));
}

TEST(ExecutorParityTest, AbortedCommandLeavesEarlierOutputOnly) {
  const Executor executor;
  const std::map<std::string, std::string> files = {{"in", "a\nb\n"}};
  std::vector<Command> chain(3);
  chain[0] = Command{"head", {"1", "in"}, ""};
  chain[1] = Command{"tail", {"nope", "in"}, ""};
  chain[2] = Command{"wc", {"in"}, ""};
  const auto got = executor.run(chain, files);
  expect_same(got, reference_run(chain, files), describe(chain, files));
  EXPECT_EQ(got.output, "a\n");
  EXPECT_EQ(got.exit_code, 1);
}

TEST(ExecutorParityTest, RandomChainsMatchVectorOfLinesReference) {
  const Executor executor;
  Rng rng(20240611);
  for (int trial = 0; trial < 4000; ++trial) {
    std::map<std::string, std::string> files;
    files["in"] = random_text(rng);
    if (rng.chance(0.5)) files["x"] = random_text(rng);
    std::vector<Command> chain;
    const std::size_t length = 1 + rng.below(4);
    for (std::size_t i = 0; i < length; ++i) {
      chain.push_back(random_command(rng));
    }
    const auto got = executor.run(chain, files);
    const auto want = reference_run(chain, files);
    expect_same(got, want, describe(chain, files));
    if (::testing::Test::HasFailure()) break;  // one counterexample is enough
  }
}

}  // namespace
}  // namespace shadow::job
