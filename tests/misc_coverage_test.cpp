// Remaining-path coverage: logging filters, file-backed CSV/trace/model IO
// error paths, BLAS scalar corner cases, generator validation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synthetic.hpp"
#include "mobility/trace.hpp"
#include "tensor/blas.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace {

using middlefl::util::LogLevel;

TEST(Logging, LevelGateIsRespected) {
  const auto saved = middlefl::util::log_level();
  middlefl::util::set_log_level(LogLevel::kOff);
  // Must not crash or emit; we can at least exercise the disabled path.
  MIDDLEFL_LOG(Error) << "suppressed " << 42;
  middlefl::util::set_log_level(LogLevel::kTrace);
  MIDDLEFL_LOG(Trace) << "emitted to stderr " << 3.14;
  middlefl::util::set_log_level(saved);
  SUCCEED();
}

TEST(Logging, OrderingOfLevels) {
  EXPECT_LT(static_cast<int>(LogLevel::kTrace),
            static_cast<int>(LogLevel::kDebug));
  EXPECT_LT(static_cast<int>(LogLevel::kWarn),
            static_cast<int>(LogLevel::kError));
}

TEST(CsvWriter, FileConstructorCreatesAndFails) {
  const std::string path = "/tmp/middlefl_csv_test.csv";
  {
    middlefl::util::CsvWriter writer(path);
    writer.header({"a", "b"});
    writer.add(1).add(2.5).end_row();
  }
  std::ifstream check(path);
  std::string line;
  std::getline(check, line);
  EXPECT_EQ(line, "a,b");
  std::getline(check, line);
  EXPECT_EQ(line, "1,2.5");
  std::remove(path.c_str());

  EXPECT_THROW(middlefl::util::CsvWriter("/nonexistent/dir/out.csv"),
               std::runtime_error);
}

TEST(Blas, GemmAlphaZeroScalesOnly) {
  std::vector<float> a(4, 100.0f), b(4, 100.0f);
  std::vector<float> c{1, 2, 3, 4};
  middlefl::tensor::gemm(middlefl::tensor::Trans::kNo,
                         middlefl::tensor::Trans::kNo, 2, 2, 2, 0.0f, a, b,
                         2.0f, c);
  EXPECT_FLOAT_EQ(c[0], 2.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(Blas, GemvSizeChecks) {
  std::vector<float> a(6), x(2), y(3);
  EXPECT_NO_THROW(middlefl::tensor::gemv(middlefl::tensor::Trans::kNo, 3, 2,
                                         1.0f, a, x, 0.0f, y));
  std::vector<float> bad_x(3);
  EXPECT_THROW(middlefl::tensor::gemv(middlefl::tensor::Trans::kNo, 3, 2,
                                      1.0f, a, bad_x, 0.0f, y),
               std::invalid_argument);
}

TEST(Synthetic, SampleIntoValidation) {
  middlefl::data::SyntheticConfig cfg;
  cfg.num_classes = 3;
  cfg.height = 4;
  cfg.width = 4;
  const middlefl::data::SyntheticGenerator gen(cfg);
  middlefl::parallel::Xoshiro256 rng(1);
  std::vector<float> sample(16);
  EXPECT_THROW(gen.sample_into(3, rng, sample), std::out_of_range);
  EXPECT_THROW(gen.sample_into(-1, rng, sample), std::out_of_range);
  std::vector<float> wrong(8);
  EXPECT_THROW(gen.sample_into(0, rng, wrong), std::invalid_argument);
  EXPECT_NO_THROW(gen.sample_into(0, rng, sample));
}

TEST(Trace, FileRoundTrip) {
  middlefl::mobility::Trace trace(3, 2);
  trace.append({0, 1, 0});
  trace.append({1, 1, 0});
  const std::string path = "/tmp/middlefl_trace_test.txt";
  trace.save_file(path);
  const auto loaded = middlefl::mobility::Trace::load_file(path);
  EXPECT_EQ(loaded.num_steps(), 2u);
  EXPECT_EQ(loaded.edge_at(1, 0), 1u);
  std::remove(path.c_str());
  EXPECT_THROW(middlefl::mobility::Trace::load_file("/no/such/file"),
               std::runtime_error);
  EXPECT_THROW(trace.save_file("/nonexistent/dir/trace.txt"),
               std::runtime_error);
}

}  // namespace
