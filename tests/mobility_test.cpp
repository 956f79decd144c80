#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "mobility/markov_mobility.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"

namespace {

using middlefl::mobility::MarkovMobility;
using middlefl::mobility::measure_mobility;
using middlefl::mobility::moved_devices;
using middlefl::mobility::MoveTopology;
using middlefl::mobility::record_trace;
using middlefl::mobility::Trace;
using middlefl::mobility::TraceMobility;

std::vector<std::size_t> initial_assignment(std::size_t devices,
                                            std::size_t edges) {
  std::vector<std::size_t> a(devices);
  for (std::size_t m = 0; m < devices; ++m) a[m] = m % edges;
  return a;
}

TEST(MovedDevices, DetectsChanges) {
  EXPECT_EQ(moved_devices({0, 1, 2}, {0, 2, 2}), std::vector<std::size_t>{1});
  EXPECT_TRUE(moved_devices({0, 1}, {0, 1}).empty());
  EXPECT_THROW(moved_devices({0}, {0, 1}), std::invalid_argument);
}

TEST(Markov, ValidatesArguments) {
  EXPECT_THROW(MarkovMobility({0, 1}, 2, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(MarkovMobility({0, 1}, 2, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(MarkovMobility({0, 5}, 2, 0.5, 1), std::out_of_range);
  EXPECT_THROW(MarkovMobility({0, 1}, 0, 0.5, 1), std::invalid_argument);
}

TEST(Markov, ZeroMobilityNeverMoves) {
  MarkovMobility model(initial_assignment(20, 4), 4, 0.0, 7);
  const auto before = model.assignment();
  for (int t = 0; t < 50; ++t) model.advance();
  EXPECT_EQ(model.assignment(), before);
}

TEST(Markov, FullMobilityAlwaysMoves) {
  MarkovMobility model(initial_assignment(20, 4), 4, 1.0, 7);
  auto prev = model.assignment();
  for (int t = 0; t < 10; ++t) {
    model.advance();
    EXPECT_EQ(moved_devices(prev, model.assignment()).size(), 20u);
    prev = model.assignment();
  }
}

TEST(Markov, EmpiricalMobilityMatchesP) {
  for (double p : {0.1, 0.3, 0.5}) {
    MarkovMobility model(initial_assignment(100, 10), 10, p, 11);
    const double measured = measure_mobility(model, 500);
    EXPECT_NEAR(measured, p, 0.03) << "P = " << p;
  }
}

TEST(Markov, MovesGoToOtherEdges) {
  MarkovMobility model(initial_assignment(50, 5), 5, 1.0, 3);
  auto prev = model.assignment();
  model.advance();
  const auto& cur = model.assignment();
  for (std::size_t m = 0; m < 50; ++m) EXPECT_NE(prev[m], cur[m]);
}

TEST(Markov, SingleEdgeIsStationary) {
  MarkovMobility model(std::vector<std::size_t>(10, 0), 1, 1.0, 3);
  model.advance();
  for (std::size_t e : model.assignment()) EXPECT_EQ(e, 0u);
}

TEST(Markov, ResetRestoresInitialState) {
  const auto init = initial_assignment(30, 3);
  MarkovMobility model(init, 3, 0.5, 9);
  for (int t = 0; t < 20; ++t) model.advance();
  model.reset();
  EXPECT_EQ(model.assignment(), init);
  EXPECT_EQ(model.step(), 0u);
}

TEST(Markov, AcceptsMaxEdgesRejectsOneMore) {
  // Home edges are 2-byte ids: 65536 edges is the most they can name.
  const std::vector<std::size_t> init = {0, 65535, 40000};
  MarkovMobility widest(init, 65536, 1.0, 3);
  widest.set_topology(MoveTopology::kHomeRing, 0.5);
  for (int t = 0; t < 8; ++t) {
    widest.advance();
    for (std::size_t e : widest.assignment()) EXPECT_LT(e, 65536u);
  }
  widest.reset();
  EXPECT_EQ(widest.assignment(), init);
  EXPECT_THROW(MarkovMobility(init, 65537, 0.5, 3), std::invalid_argument);
}

TEST(Markov, HomeRingResetRestoresTheExactInitialAssignment) {
  // Commuters return to the home edge read from the 2-byte home map; after
  // a reset the walk must replay a fresh model's trajectory exactly.
  constexpr std::size_t kEdges = 300;
  std::vector<std::size_t> init(500);
  for (std::size_t m = 0; m < init.size(); ++m) init[m] = (m * 7919) % kEdges;
  MarkovMobility walked(init, kEdges, 0.7, 19);
  walked.set_topology(MoveTopology::kHomeRing, 0.6);
  for (int t = 0; t < 25; ++t) walked.advance();
  EXPECT_NE(walked.assignment(), init);
  walked.reset();
  EXPECT_EQ(walked.assignment(), init);
  EXPECT_EQ(walked.step(), 0u);

  MarkovMobility fresh(init, kEdges, 0.7, 19);
  fresh.set_topology(MoveTopology::kHomeRing, 0.6);
  std::size_t returned_home = 0;
  for (int t = 0; t < 25; ++t) {
    walked.advance();
    fresh.advance();
    ASSERT_EQ(walked.assignment(), fresh.assignment()) << "step " << t;
    ASSERT_EQ(*walked.movers(), *fresh.movers()) << "step " << t;
    for (std::size_t m : *walked.movers()) {
      returned_home += walked.assignment()[m] == init[m] ? 1 : 0;
    }
  }
  EXPECT_GT(returned_home, 0u);
}

TEST(Markov, DeterministicReplay) {
  MarkovMobility a(initial_assignment(40, 4), 4, 0.4, 13);
  MarkovMobility b(initial_assignment(40, 4), 4, 0.4, 13);
  for (int t = 0; t < 30; ++t) {
    a.advance();
    b.advance();
    EXPECT_EQ(a.assignment(), b.assignment());
  }
}

TEST(Markov, HeterogeneousProbabilities) {
  std::vector<double> probs(10, 0.0);
  probs[0] = 1.0;  // only device 0 moves
  MarkovMobility model(initial_assignment(10, 3), 3, probs, 5);
  EXPECT_NEAR(model.global_mobility(), 0.1, 1e-12);
  auto prev = model.assignment();
  model.advance();
  const auto moved = moved_devices(prev, model.assignment());
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0], 0u);
}

// --- Traces ---

TEST(Trace, RecordAndReplayMatchesSource) {
  MarkovMobility source(initial_assignment(15, 3), 3, 0.5, 21);
  const Trace trace = record_trace(source, 25);
  EXPECT_EQ(trace.num_steps(), 26u);

  TraceMobility replay(trace);
  source.reset();
  EXPECT_EQ(replay.assignment(), source.assignment());
  for (int t = 0; t < 25; ++t) {
    source.advance();
    replay.advance();
    EXPECT_EQ(replay.assignment(), source.assignment());
  }
}

TEST(Trace, ReplayHoldsLastAssignmentPastEnd) {
  MarkovMobility source(initial_assignment(5, 2), 2, 0.5, 22);
  const Trace trace = record_trace(source, 3);
  TraceMobility replay(trace);
  for (int t = 0; t < 10; ++t) replay.advance();
  std::size_t last = trace.num_steps() - 1;
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(replay.assignment()[m], trace.edge_at(last, m));
  }
}

TEST(Trace, SaveLoadRoundTrip) {
  MarkovMobility source(initial_assignment(8, 4), 4, 0.7, 23);
  const Trace trace = record_trace(source, 12);
  std::stringstream buffer;
  trace.save(buffer);
  const Trace loaded = Trace::load(buffer);
  EXPECT_EQ(loaded.num_devices(), trace.num_devices());
  EXPECT_EQ(loaded.num_edges(), trace.num_edges());
  EXPECT_EQ(loaded.num_steps(), trace.num_steps());
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    for (std::size_t m = 0; m < trace.num_devices(); ++m) {
      EXPECT_EQ(loaded.edge_at(t, m), trace.edge_at(t, m));
    }
  }
}

TEST(Trace, LoadRejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(Trace::load(empty), std::runtime_error);
  std::stringstream bad_header("not a header\n");
  EXPECT_THROW(Trace::load(bad_header), std::runtime_error);
  std::stringstream truncated(
      "# middlefl-trace v1 devices=2 edges=2 steps=2\n0 0 0\n");
  EXPECT_THROW(Trace::load(truncated), std::runtime_error);
}

/// The std::runtime_error message Trace::load throws for `text` ("" when
/// it loads).
std::string trace_load_error(const std::string& text) {
  std::stringstream in(text);
  try {
    Trace::load(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Trace, LoadRejectsOverflowingHeader) {
  // steps * devices wrapped to 0, so the table was empty and the record's
  // cell index wrote past it.
  const std::string message = trace_load_error(
      "# middlefl-trace v1 devices=9223372036854775808 edges=2 steps=2\n"
      "1 0 0\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("overflows"), std::string::npos) << message;
  // A product that fits but that the input does not hold fails on the
  // count, without sizing a table for it.
  EXPECT_NE(trace_load_error(
                "# middlefl-trace v1 devices=4611686018427387904 edges=2 "
                "steps=2\n0 0 0\n")
                .find("line 2: expected 9223372036854775808 records"),
            std::string::npos);
}

TEST(EdgeIdRange, TraceRejectsEdgesPastTheCellRange) {
  // Cells are 2-byte edge ids: a header naming more edges fails at line 1,
  // before any record is read.
  const std::string message = trace_load_error(
      "# middlefl-trace v1 devices=1 edges=70000 steps=1\n0 0 69999\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("edges=70000"), std::string::npos) << message;
  EXPECT_THROW(Trace(1, 65537), std::invalid_argument);

  // 65536 edges is the widest trace; its top edge round-trips.
  std::stringstream widest(
      "# middlefl-trace v1 devices=2 edges=65536 steps=1\n0 0 65535\n"
      "0 1 7\n");
  const Trace trace = Trace::load(widest);
  EXPECT_EQ(trace.edge_at(0, 0), 65535u);
  EXPECT_EQ(trace.edge_at(0, 1), 7u);
}

TEST(Trace, LoadRejectsDuplicateRecords) {
  // Two records for (0, 0) matched the count check and left (0, 1) at
  // edge 0.
  const std::string message = trace_load_error(
      "# middlefl-trace v1 devices=2 edges=2 steps=1\n0 0 1\n0 0 1\n");
  EXPECT_NE(message.find("line 3: duplicate record for step 0 device 0"),
            std::string::npos)
      << message;
  EXPECT_EQ(trace_load_error(
                "# middlefl-trace v1 devices=2 edges=2 steps=1\n0 1 1\n\n"
                "0 0 1\n"),
            "");
}

TEST(Trace, LoadErrorsNameTheirLine) {
  const std::string header = "# middlefl-trace v1 devices=2 edges=2 steps=1\n";
  const std::pair<std::string, const char*> bad[] = {
      {"# middlefl-trace v1 devices=2x edges=2 steps=1\n0 0 0\n0 1 0\n",
       "line 1: devices"},
      {"# middlefl-trace v1 devices=2 edges=-2 steps=1\n0 0 0\n0 1 0\n",
       "line 1: edges"},
      // A repeated header key used to win silently (steps=1 read as 7).
      {"# middlefl-trace v1 devices=2 edges=2 steps=1 steps=7\n0 0 0\n"
       "0 1 0\n",
       "line 1: key 'steps' given twice"},
      {"# middlefl-trace v1 devices=2 edges=2 edges=2 steps=1\n0 0 0\n"
       "0 1 0\n",
       "line 1: key 'edges' given twice"},
      {header + "0 0 0\n0 1 x\n", "line 3: edge"},
      {header + "0 0 0\n0 -1 0\n", "line 3: device"},
      {header + "0 0 0\n0 1\n", "line 3: expected '<step> <device> <edge>'"},
      {header + "0 0 0 7\n0 1 0\n", "line 2: expected"},
      {header + "0 0 0\n0 1 2\n", "line 3: record '0 1 2' out of range"},
      {header + "0 0 0\n0 1 0\n1 0 0\n", "line 4"},
      {header + "0 0 0\n\n", "input ends at line 3: expected 2 records, got 1"},
  };
  for (const auto& [text, where] : bad) {
    const std::string message = trace_load_error(text);
    EXPECT_NE(message.find(where), std::string::npos)
        << text << " -> '" << message << "'";
  }
}

TEST(Trace, AppendValidates) {
  Trace trace(3, 2);
  EXPECT_THROW(trace.append({0, 1}), std::invalid_argument);
  EXPECT_THROW(trace.append({0, 1, 5}), std::out_of_range);
  EXPECT_NO_THROW(trace.append({0, 1, 1}));
  EXPECT_THROW(trace.edge_at(1, 0), std::out_of_range);
}

TEST(MeasureMobility, ZeroStepsIsZero) {
  MarkovMobility model(initial_assignment(5, 2), 2, 0.5, 1);
  EXPECT_EQ(measure_mobility(model, 0), 0.0);
}

// --- Move topologies (locality) ---

using middlefl::mobility::MoveTopology;

TEST(MarkovTopology, DefaultIsUniform) {
  MarkovMobility model(initial_assignment(10, 4), 4, 0.5, 31);
  EXPECT_EQ(model.topology(), MoveTopology::kUniform);
}

TEST(MarkovTopology, SetTopologyValidatesHomeBias) {
  MarkovMobility model(initial_assignment(10, 4), 4, 0.5, 31);
  EXPECT_THROW(model.set_topology(MoveTopology::kHomeRing, -0.1),
               std::invalid_argument);
  EXPECT_THROW(model.set_topology(MoveTopology::kHomeRing, 1.1),
               std::invalid_argument);
  EXPECT_NO_THROW(model.set_topology(MoveTopology::kHomeRing, 0.5));
  EXPECT_EQ(model.topology(), MoveTopology::kHomeRing);
}

TEST(MarkovTopology, RingOnlyMovesToAdjacentEdges) {
  constexpr std::size_t kEdges = 6;
  MarkovMobility model(initial_assignment(60, kEdges), kEdges, 1.0, 33);
  model.set_topology(MoveTopology::kRing);
  auto prev = model.assignment();
  for (int t = 0; t < 20; ++t) {
    model.advance();
    const auto& cur = model.assignment();
    for (std::size_t m = 0; m < cur.size(); ++m) {
      const std::size_t up = (prev[m] + 1) % kEdges;
      const std::size_t down = (prev[m] + kEdges - 1) % kEdges;
      EXPECT_TRUE(cur[m] == up || cur[m] == down)
          << "device " << m << " jumped " << prev[m] << " -> " << cur[m];
    }
    prev = cur;
  }
}

TEST(MarkovTopology, RingPreservesEmpiricalP) {
  MarkovMobility model(initial_assignment(100, 8), 8, 0.3, 35);
  model.set_topology(MoveTopology::kRing);
  EXPECT_NEAR(measure_mobility(model, 400), 0.3, 0.03);
}

TEST(MarkovTopology, HomeRingPreservesEmpiricalP) {
  MarkovMobility model(initial_assignment(100, 8), 8, 0.5, 36);
  model.set_topology(MoveTopology::kHomeRing, 0.5);
  EXPECT_NEAR(measure_mobility(model, 400), 0.5, 0.03);
}

TEST(MarkovTopology, HomeRingRetainsPopulationsBetterThanUniform) {
  // The property that motivates the topology: with home bias, devices stay
  // correlated with their home edge far longer than under uniform jumps.
  const auto retention = [](MoveTopology topology) {
    MarkovMobility model(initial_assignment(200, 10), 10, 0.5, 37);
    model.set_topology(topology, 0.6);
    const auto initial = model.assignment();
    std::size_t at_home = 0, samples = 0;
    for (int t = 0; t < 100; ++t) {
      model.advance();
      if (t < 20) continue;  // past the transient
      for (std::size_t m = 0; m < initial.size(); ++m) {
        if (model.assignment()[m] == initial[m]) ++at_home;
        ++samples;
      }
    }
    return static_cast<double>(at_home) / static_cast<double>(samples);
  };
  const double uniform = retention(MoveTopology::kUniform);
  const double home = retention(MoveTopology::kHomeRing);
  EXPECT_NEAR(uniform, 0.1, 0.03);  // 1/num_edges: fully mixed
  EXPECT_GT(home, uniform + 0.15);  // strong home correlation persists
}

TEST(MarkovTopology, HomeBiasOneSnapsBackImmediately) {
  MarkovMobility model(initial_assignment(50, 5), 5, 1.0, 38);
  model.set_topology(MoveTopology::kHomeRing, 1.0);
  const auto initial = model.assignment();
  model.advance();  // everyone moves off home (they are at home: ring move)
  model.advance();  // every away device returns home
  // After two steps with P=1 and bias 1: devices alternate home/away; at
  // even steps they are home again.
  EXPECT_EQ(model.assignment(), initial);
}

}  // namespace
