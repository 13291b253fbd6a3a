#include "job/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/text.hpp"

namespace shadow::job {

namespace {

struct JobAbort {
  std::string message;
};

class Sandbox {
 public:
  explicit Sandbox(std::map<std::string, std::string> files)
      : files_(std::move(files)) {}

  const std::string& read(const std::string& name) {
    auto it = files_.find(name);
    if (it == files_.end()) {
      throw JobAbort{"no such file in job sandbox: " + name};
    }
    return it->second;
  }

  void write(const std::string& name, std::string content) {
    files_[name] = std::move(content);
  }

  std::map<std::string, std::string> take() { return std::move(files_); }

 private:
  std::map<std::string, std::string> files_;
};

u64 parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw JobAbort{std::string("bad ") + what + ": " + s};
  }
  return v;
}

double parse_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw JobAbort{std::string("bad ") + what + ": " + s};
  }
  return v;
}

void require_args(const Command& cmd, std::size_t min_count) {
  if (cmd.args.size() < min_count) {
    throw JobAbort{cmd.program + ": expected at least " +
                   std::to_string(min_count) + " argument(s)"};
  }
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Calls fn(line) for each line of `text`, '\n' retained (split_lines
// boundaries) without building a vector.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    const void* nl =
        std::memchr(text.data() + start, '\n', text.size() - start);
    const std::size_t end =
        nl == nullptr
            ? text.size()
            : static_cast<std::size_t>(static_cast<const char*>(nl) -
                                       text.data()) + 1;
    fn(text.substr(start, end - start));
    start = end;
  }
}

// The first `n` lines of `text`, as one view.
std::string_view first_lines(std::string_view text, u64 n) {
  std::size_t end = 0;
  for (u64 i = 0; i < n && end < text.size(); ++i) {
    const void* nl = std::memchr(text.data() + end, '\n', text.size() - end);
    end = nl == nullptr ? text.size()
                        : static_cast<std::size_t>(
                              static_cast<const char*>(nl) - text.data()) + 1;
  }
  return text.substr(0, end);
}

// The last `n` lines of `text`, as one view. A final line without '\n'
// is a line too.
std::string_view last_lines(std::string_view text, u64 n) {
  if (n == 0 || text.empty()) return {};
  // Skip the last line's own terminator, then walk back n - 1 more.
  std::size_t start = text.size() - 1;
  for (u64 seen = 0; start > 0; --start) {
    if (text[start - 1] == '\n' && ++seen == n) break;
  }
  return text.substr(start);
}

// Executes one command, appending its stdout to `out` and accumulating
// cpu cost.
void run_one(const Command& cmd, Sandbox& sandbox, u64& cpu_cost,
             std::string& out) {
  const auto& p = cmd.program;

  if (p == "cat") {
    require_args(cmd, 1);
    for (const auto& name : cmd.args) {
      const auto& content = sandbox.read(name);
      cpu_cost += content.size();
      out += content;
    }
    return;
  }
  if (p == "echo") {
    const std::size_t before = out.size();
    out += join(cmd.args, " ");
    out += "\n";
    cpu_cost += out.size() - before;
    return;
  }
  if (p == "gen") {
    require_args(cmd, 2);
    const u64 lines = parse_u64(cmd.args[0], "line count");
    const u64 seed = parse_u64(cmd.args[1], "seed");
    Rng rng(seed);
    const std::size_t before = out.size();
    for (u64 i = 0; i < lines; ++i) {
      out += std::to_string(rng.below(1000000)) + " " + rng.ascii_line(32) +
             "\n";
    }
    cpu_cost += out.size() - before;
    return;
  }
  if (p == "sort") {
    require_args(cmd, 1);
    const auto& content = sandbox.read(cmd.args[0]);
    auto lines = split_line_views(content);
    cpu_cost += lines.size() * 16 + content.size();
    std::sort(lines.begin(), lines.end());
    out.reserve(out.size() + content.size());
    for (const auto line : lines) out += line;
    return;
  }
  if (p == "uniq") {
    require_args(cmd, 1);
    const auto& content = sandbox.read(cmd.args[0]);
    cpu_cost += content.size();
    out.reserve(out.size() + content.size());
    std::string_view last;
    bool any = false;
    for_each_line(content, [&](std::string_view line) {
      if (any && line == last) return;
      out += line;
      last = line;
      any = true;
    });
    return;
  }
  if (p == "grep") {
    require_args(cmd, 2);
    const std::string_view pattern = cmd.args[0];
    const auto& content = sandbox.read(cmd.args[1]);
    cpu_cost += content.size();
    for_each_line(content, [&](std::string_view line) {
      if (line.find(pattern) != std::string_view::npos) out += line;
    });
    return;
  }
  if (p == "head" || p == "tail") {
    require_args(cmd, 2);
    const u64 n = parse_u64(cmd.args[0], "line count");
    const auto& content = sandbox.read(cmd.args[1]);
    cpu_cost += content.size();
    out += p == "head" ? first_lines(content, n) : last_lines(content, n);
    return;
  }
  if (p == "rev") {
    require_args(cmd, 1);
    const auto& content = sandbox.read(cmd.args[0]);
    const auto lines = split_line_views(content);
    cpu_cost += content.size();
    out.reserve(out.size() + content.size());
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) out += *it;
    return;
  }
  if (p == "wc") {
    require_args(cmd, 1);
    const auto& content = sandbox.read(cmd.args[0]);
    cpu_cost += content.size();
    // A word is a maximal run of non-space bytes within one line; the
    // line's '\n' belongs to it (a blank line counts one word), so a new
    // word starts at any non-space byte after a space or a newline.
    std::size_t words = 0;
    bool in_word = false;
    for (const char c : content) {
      if (c == ' ') {
        in_word = false;
        continue;
      }
      if (!in_word) ++words;
      in_word = c != '\n';
    }
    out += std::to_string(count_lines(content)) + " " +
           std::to_string(words) + " " + std::to_string(content.size()) +
           "\n";
    return;
  }
  if (p == "sum") {
    require_args(cmd, 1);
    const auto lines = split_lines(sandbox.read(cmd.args[0]));
    cpu_cost += sandbox.read(cmd.args[0]).size();
    double total = 0;
    for (const auto& line : lines) {
      const auto fields = split_nonempty(trim(line), ' ');
      if (!fields.empty()) {
        char* end = nullptr;
        const double v = std::strtod(fields[0].c_str(), &end);
        if (end != fields[0].c_str()) total += v;
      }
    }
    out += format_double(total) + "\n";
    return;
  }
  if (p == "scale") {
    require_args(cmd, 2);
    const double factor = parse_double(cmd.args[0], "factor");
    const auto lines = split_lines(sandbox.read(cmd.args[1]));
    cpu_cost += 2 * sandbox.read(cmd.args[1]).size();
    for (const auto& line : lines) {
      const bool had_newline = !line.empty() && line.back() == '\n';
      const std::string body =
          had_newline ? line.substr(0, line.size() - 1) : line;
      std::vector<std::string> tokens;
      for (const auto& tok : split(body, ' ')) {
        char* end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (!tok.empty() && end == tok.c_str() + tok.size()) {
          tokens.push_back(format_double(v * factor));
        } else {
          tokens.push_back(tok);
        }
      }
      out += join(tokens, " ");
      if (had_newline) out += "\n";
    }
    return;
  }
  if (p == "matmul") {
    require_args(cmd, 2);
    const u64 n = parse_u64(cmd.args[0], "matrix size");
    const u64 seed = parse_u64(cmd.args[1], "seed");
    if (n == 0 || n > 512) {
      throw JobAbort{"matmul: size must be in [1, 512]"};
    }
    Rng rng(seed);
    const std::size_t dim = static_cast<std::size_t>(n);
    std::vector<double> a(dim * dim);
    std::vector<double> b(dim * dim);
    for (auto& x : a) x = rng.uniform();
    for (auto& x : b) x = rng.uniform();
    double checksum = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = 0; j < dim; ++j) {
        double acc = 0;
        for (std::size_t k = 0; k < dim; ++k) {
          acc += a[i * dim + k] * b[k * dim + j];
        }
        checksum += acc;
      }
    }
    cpu_cost += n * n * n;
    out += "matmul " + std::to_string(n) + " checksum " +
           format_double(checksum) + "\n";
    return;
  }
  if (p == "burn") {
    // Charge abstract CPU without computing anything: load/scheduling
    // experiments use this to shape job durations precisely.
    require_args(cmd, 1);
    cpu_cost += parse_u64(cmd.args[0], "op count");
    return;
  }
  if (p == "fail") {
    throw JobAbort{cmd.args.empty() ? "job aborted" : join(cmd.args, " ")};
  }
  throw JobAbort{"unknown command: " + p};
}

}  // namespace

ExecutionResult Executor::run(const std::vector<Command>& commands,
                              std::map<std::string, std::string> inputs) const {
  ExecutionResult result;
  Sandbox sandbox(std::move(inputs));
  // A command's stdout goes straight into the job's output; a redirect
  // builds a fresh string (its input may be the file it replaces).
  std::size_t kept = 0;  // output length before the running command
  try {
    for (const auto& cmd : commands) {
      kept = result.output.size();
      if (cmd.redirect.empty()) {
        run_one(cmd, sandbox, result.cpu_cost, result.output);
      } else {
        std::string out;
        run_one(cmd, sandbox, result.cpu_cost, out);
        sandbox.write(cmd.redirect, std::move(out));
      }
    }
  } catch (const JobAbort& abort) {
    result.output.resize(kept);  // an aborted command prints nothing
    result.exit_code = 1;
    result.error += abort.message + "\n";
  }
  result.sandbox = sandbox.take();
  return result;
}

Result<ExecutionResult> Executor::run_command_file(
    const std::string& command_file,
    std::map<std::string, std::string> inputs) const {
  SHADOW_ASSIGN_OR_RETURN(commands, parse_command_file(command_file));
  return run(commands, std::move(inputs));
}

}  // namespace shadow::job
