#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.value = values[rank - 1];
  p.beyond = n - rank;
  p.valid = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit, samples};
}

void Report::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit) {
  set(name, p.value, unit, p.samples);
  if (!p.valid) {
    fail(name + ": only " + std::to_string(p.beyond) + " of " +
         std::to_string(p.samples) + " samples lie beyond the reported value (need " +
         std::to_string(kMinBeyond) + ")");
  }
}

void Report::set_median(const std::string& name,
                        const std::vector<double>& values,
                        const std::string& unit) {
  if (values.empty()) {
    set(name, 0.0, unit, 0);
    return;
  }
  set_percentile(name, percentile(values, 0.5), unit);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
