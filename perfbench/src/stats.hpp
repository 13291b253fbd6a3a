// Sample summaries and the metric report the benchmark prints.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One percentile read from a sample set, with the evidence behind it:
/// how many samples there were and how many lie beyond the reported
/// value. A tail with fewer than kMinBeyond samples beyond it is not
/// reported as valid.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool valid = false;
};

constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in (0, 1)) of `values` (unsorted is fine).
Percentile percentile(std::vector<double> values, double q);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// a / b, or 0 when b is 0.
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // observations behind the value
};

/// Metrics in insertion-independent (name) order plus the bookkeeping of
/// the run: attempted/failed operations and every reason the run is not
/// correct.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// Record a percentile; an invalid tail marks the run incorrect.
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit);
  /// Median of `values`; a layer with no samples reads 0 with 0 samples.
  void set_median(const std::string& name, const std::vector<double>& values,
                  const std::string& unit);
  void fail(const std::string& why) { problems_.push_back(why); }
  void count_ops(unsigned long long attempted, unsigned long long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const Metric& get(const std::string& name) const { return metrics_.at(name); }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& problems() const { return problems_; }
  unsigned long long attempted() const { return attempted_; }
  unsigned long long failed() const { return failed_; }
  bool correct() const { return problems_.empty() && failed_ == 0; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> problems_;
  unsigned long long attempted_ = 0;
  unsigned long long failed_ = 0;
};

/// JSON string literal for `s` (quotes included).
std::string json_string(const std::string& s);
/// Decimal form of `v` with all 17 significant digits.
std::string json_number(double v);

}  // namespace perfbench
