// Metric collection and output for middlefl_bench.
//
// A Report holds every metric one workload run produced, each as the raw
// samples it was measured from (per-window rates, per-step times, per-setup
// durations...). The reported value is the median of the samples; the
// sample count and interquartile range travel with it into the --out JSON
// so a reader can judge the noise floor of every number.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace middlefl::bench::suite {

/// Median and quartiles by linear interpolation between order statistics.
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
Summary summarize(std::vector<double> samples);

/// Interpolated quantile `q` in [0, 1] of an unsorted sample; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Protocol header: which build, on which host, with which settings.
struct Header {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::size_t pool_threads = 0;
};

class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };

  /// Records (or replaces) a metric from its samples.
  void set(const std::string& name, const std::string& unit,
           std::vector<double> samples);
  /// Single-sample shorthand (deterministic counts, ratios, peaks).
  void set(const std::string& name, const std::string& unit, double value) {
    set(name, unit, std::vector<double>{value});
  }

  /// Records a correctness check; a failed one marks the run incorrect,
  /// counts one failed operation and is listed in the output.
  void check(bool ok, const std::string& what);

  /// Operation accounting: every step, evaluation and request attempted,
  /// and those that failed (rejected, incomplete or check-failed).
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  bool correct() const noexcept { return failures_.empty(); }

  /// One `workload name value unit` line per metric.
  void print_lines(std::ostream& out, const std::string& workload) const;
  /// The machine-readable result line: correct/attempted/failed and every
  /// metric's median with its unit, on one line.
  void print_result(std::ostream& out) const;
  /// Full record: header, checks and every metric with its sample
  /// statistics. Throws std::runtime_error when `path` cannot be written.
  void write_json(const std::string& path, const Header& header) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace middlefl::bench::suite
