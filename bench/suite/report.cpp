#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "config/json.hpp"
#include "tensor/cpu_features.hpp"

namespace middlefl::bench::suite {

namespace {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.count = samples.size();
  s.median = sorted_quantile(samples, 0.5);
  s.q1 = sorted_quantile(samples, 0.25);
  s.q3 = sorted_quantile(samples, 0.75);
  return s;
}

double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return sorted_quantile(samples, q);
}

void Report::set(const std::string& name, const std::string& unit,
                 std::vector<double> samples) {
  const bool finite = std::all_of(samples.begin(), samples.end(),
                                  [](double v) { return std::isfinite(v); });
  if (!finite || samples.empty()) check(false, name + " has finite samples");
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.samples = std::move(samples);
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, std::move(samples)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) {
    checks_.push_back(what);
    return;
  }
  failures_.push_back(what);
  ++failed_;
}

void Report::print_lines(std::ostream& out,
                         const std::string& workload) const {
  for (const Metric& m : metrics_) {
    out << workload << ' ' << m.name << ' '
        << config::format_number(summarize(m.samples).median) << ' ' << m.unit
        << '\n';
  }
  for (const std::string& failure : failures_) {
    out << workload << " CHECK-FAILED " << failure << '\n';
  }
}

void Report::print_result(std::ostream& out) const {
  using config::Json;
  Json metrics = Json::make_object();
  for (const Metric& m : metrics_) {
    Json entry = Json::make_object();
    entry.set("value", Json::make_number(summarize(m.samples).median));
    entry.set("unit", Json::make_string(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  Json result = Json::make_object();
  result.set("correct", Json::make_bool(correct()));
  result.set("attempted", Json::make_uint(attempted_));
  result.set("failed", Json::make_uint(failed_));
  result.set("metrics", std::move(metrics));
  out << result.dump(0) << '\n';
}

void Report::write_json(const std::string& path, const Header& header) const {
  using config::Json;
  Json h = Json::make_object();
  h.set("workload", Json::make_string(header.workload));
  h.set("seed", Json::make_uint(header.seed));
  h.set("seconds", Json::make_number(header.seconds));
  h.set("trace", Json::make_bool(header.trace));
  h.set("smoke", Json::make_bool(header.smoke));
  h.set("git_sha", Json::make_string(MIDDLEFL_BENCH_SHA));
  h.set("compiler", Json::make_string(MIDDLEFL_BENCH_COMPILER));
  h.set("build_type", Json::make_string(MIDDLEFL_BENCH_BUILD_TYPE));
  h.set("native_flavor", Json::make_string(MIDDLEFL_BENCH_FLAVOR));
  h.set("gemm_isa", Json::make_string(tensor::to_string(tensor::active_isa())));
  h.set("nproc", Json::make_uint(std::thread::hardware_concurrency()));
  h.set("pool_threads", Json::make_uint(header.pool_threads));

  Json metrics = Json::make_object();
  for (const Metric& m : metrics_) {
    const Summary s = summarize(m.samples);
    Json entry = Json::make_object();
    entry.set("value", Json::make_number(s.median));
    entry.set("unit", Json::make_string(m.unit));
    entry.set("samples", Json::make_uint(s.count));
    entry.set("median", Json::make_number(s.median));
    entry.set("q1", Json::make_number(s.q1));
    entry.set("q3", Json::make_number(s.q3));
    entry.set("iqr", Json::make_number(s.q3 - s.q1));
    metrics.set(m.name, std::move(entry));
  }
  Json checks = Json::make_array();
  for (const std::string& c : checks_) checks.push_back(Json::make_string(c));
  Json failures = Json::make_array();
  for (const std::string& f : failures_) {
    failures.push_back(Json::make_string(f));
  }

  Json root = Json::make_object();
  root.set("header", std::move(h));
  root.set("correct", Json::make_bool(correct()));
  root.set("attempted", Json::make_uint(attempted_));
  root.set("failed", Json::make_uint(failed_));
  root.set("checks_passed", std::move(checks));
  root.set("checks_failed", std::move(failures));
  root.set("metrics", std::move(metrics));

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  root.write(out);
  out << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace middlefl::bench::suite
