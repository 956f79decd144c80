#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"

namespace {

using middlefl::util::CliParser;
using middlefl::util::csv_escape;
using middlefl::util::CsvWriter;
using middlefl::util::EmaSmoother;
using middlefl::util::RunningStats;

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("1.5"), "1.5");
}

TEST(CsvEscape, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"step", "acc"});
  writer.add(10).add(0.5).end_row();
  writer.add(20).add(0.75).end_row();
  EXPECT_EQ(out.str(), "step,acc\n10,0.5\n20,0.75\n");
  EXPECT_EQ(writer.rows_written(), 2u);
}

TEST(CsvWriter, HeaderAfterRowsThrows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.add("x").end_row();
  EXPECT_THROW(writer.header({"a"}), std::logic_error);
}

TEST(CsvWriter, NumberFormattingRoundTrips) {
  EXPECT_EQ(middlefl::util::csv_number(0.125), "0.125");
  EXPECT_EQ(middlefl::util::csv_number(3.0), "3");
  // 9 significant digits round-trip typical accuracies.
  EXPECT_EQ(middlefl::util::csv_number(0.123456789), "0.123456789");
}

TEST(ParseNumber, TakesOnlyWholeTokens) {
  using middlefl::util::parse_number;
  EXPECT_EQ(parse_number<std::size_t>("0", "f"), 0u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615", "f"),
            18446744073709551615u);
  EXPECT_EQ(parse_number<double>("-1.5e-3", "f"), -1.5e-3);
  EXPECT_TRUE(std::isinf(parse_number<double>("inf", "f")));
  for (const char* bad : {"", " 3", "3 ", "+3", "-3", "5abc", "abc", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_number<std::size_t>(bad, "f"), std::runtime_error)
        << "'" << bad << "'";
  }
  for (const char* bad : {"", "0.5x", "abc", "+1", "1e999", " 1"}) {
    EXPECT_THROW(parse_number<double>(bad, "f"), std::runtime_error)
        << "'" << bad << "'";
  }
  try {
    parse_number<std::size_t>("-3", "line 7: step");
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "line 7: step: expected a non-negative integer, got '-3'");
  }
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 3.5);
  EXPECT_DOUBLE_EQ(stats.max(), 3.5);
}

TEST(EmaSmoother, FirstValuePassesThrough) {
  EmaSmoother ema(0.5);
  EXPECT_FALSE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.update(4.0), 4.0);
  EXPECT_DOUBLE_EQ(ema.update(8.0), 6.0);
  EXPECT_DOUBLE_EQ(ema.update(6.0), 6.0);
}

TEST(MovingAverage, FlatSeriesUnchanged) {
  const std::vector<double> series(10, 3.0);
  const auto smoothed = middlefl::util::moving_average(series, 2);
  for (double v : smoothed) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(MovingAverage, WindowTruncatesAtEnds) {
  const std::vector<double> series{0, 10, 20};
  const auto smoothed = middlefl::util::moving_average(series, 1);
  EXPECT_DOUBLE_EQ(smoothed[0], 5.0);   // mean of {0, 10}
  EXPECT_DOUBLE_EQ(smoothed[1], 10.0);  // mean of {0, 10, 20}
  EXPECT_DOUBLE_EQ(smoothed[2], 15.0);  // mean of {10, 20}
}

TEST(Quantile, MedianAndExtremes) {
  std::vector<double> values{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(middlefl::util::quantile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(middlefl::util::quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(middlefl::util::quantile(values, 1.0), 5.0);
  EXPECT_THROW(middlefl::util::quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(middlefl::util::mean(values), 2.5);
  EXPECT_NEAR(middlefl::util::sample_stddev(values), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(middlefl::util::mean({}), 0.0);
}

TEST(Logging, LevelRoundTrip) {
  using middlefl::util::LogLevel;
  using middlefl::util::parse_log_level;
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::kInfo);
  EXPECT_EQ(middlefl::util::to_string(LogLevel::kError), "ERROR");
}

TEST(Cli, ParsesTypedFlags) {
  int steps = 10;
  double lr = 0.01;
  bool verbose = false;
  std::string task = "mnist";
  CliParser cli("test");
  cli.add_flag("steps", "step count", &steps);
  cli.add_flag("lr", "learning rate", &lr);
  cli.add_flag("verbose", "chatty", &verbose);
  cli.add_flag("task", "task name", &task);

  const char* argv[] = {"prog", "--steps", "50", "--lr=0.5", "--verbose",
                        "--task", "cifar10"};
  EXPECT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(steps, 50);
  EXPECT_DOUBLE_EQ(lr, 0.5);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(task, "cifar10");
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("test");
  int x = 0;
  cli.add_flag("x", "", &x);
  const char* argv[] = {"prog", "--y", "1"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, BadValueThrows) {
  CliParser cli("test");
  int x = 0;
  cli.add_flag("x", "", &x);
  const char* argv[] = {"prog", "--x", "abc"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);

  // Doubles: one whole, finite, in-range token, or an error naming the
  // flag (out-of-range used to escape as a bare "stod").
  for (const char* bad : {"1e999", "-1e999", "nan", "inf", "-inf", "0.5x",
                          "abc", ""}) {
    CliParser doubles("test");
    double lr = 0.01;
    doubles.add_flag("lr", "", &lr);
    const char* args[] = {"prog", "--lr", bad};
    try {
      doubles.parse(3, args);
      ADD_FAILURE() << "expected '" << bad << "' to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "invalid value '" + std::string(bad) + "' for --lr");
    }
    EXPECT_EQ(lr, 0.01);
  }
  CliParser doubles("test");
  double lr = 0.0;
  doubles.add_flag("lr", "", &lr);
  const char* good[] = {"prog", "--lr", "2.5e-3"};
  ASSERT_TRUE(doubles.parse(3, good));
  EXPECT_EQ(lr, 2.5e-3);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("test");
  int x = 0;
  cli.add_flag("x", "", &x);
  const char* argv[] = {"prog", "--x"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, RepeatedFlagThrows) {
  // A second value must not silently replace the first: the error names
  // the flag, whatever form either occurrence takes.
  const auto parse_error = [](std::vector<const char*> argv) {
    CliParser cli("test");
    int x = 0;
    bool quiet = false;
    cli.add_flag("x", "", &x);
    cli.add_flag("quiet", "", &quiet);
    try {
      cli.parse(static_cast<int>(argv.size()), argv.data());
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(parse_error({"prog", "--x", "5", "--x", "7"}),
            "flag --x given twice");
  EXPECT_EQ(parse_error({"prog", "--x=5", "--quiet", "--x=7"}),
            "flag --x given twice");
  EXPECT_EQ(parse_error({"prog", "--quiet", "--quiet"}),
            "flag --quiet given twice");
  EXPECT_EQ(parse_error({"prog", "--x", "5", "--quiet"}), "accepted");
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, DuplicateFlagThrows) {
  CliParser cli("test");
  int x = 0;
  cli.add_flag("x", "", &x);
  EXPECT_THROW(cli.add_flag("x", "", &x), std::logic_error);
}

TEST(Cli, HelpTextListsFlagsAndDefaults) {
  CliParser cli("my tool");
  int steps = 42;
  cli.add_flag("steps", "number of steps", &steps);
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("my tool"), std::string::npos);
  EXPECT_NE(help.find("--steps"), std::string::npos);
  EXPECT_NE(help.find("42"), std::string::npos);
}

}  // namespace
