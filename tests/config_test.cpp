// The declarative-scenario contract: strict JSON parsing with source
// locations, schema round trips (write -> read -> write is a fixpoint),
// unknown-key rejection, legacy-alias normalization, the reflection-driven
// per-leaf perturbation property, and config-built vs hand-built
// simulation equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/json.hpp"
#include "config/reflect.hpp"
#include "config/scenario.hpp"
#include "config/scenario_build.hpp"
#include "core/simulation.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "mobility/markov_mobility.hpp"
#include "optim/sgd.hpp"
#include "parallel/rng.hpp"

namespace {

using namespace middlefl;
using config::Json;

// ---------------------------------------------------------------------------
// JSON value/parser

TEST(JsonParser, ParsesScalarsAndStructure) {
  const Json doc = config::parse_json(
      R"({"a": 1, "b": -2.5, "c": "s", "d": [true, false, null], "e": {}})",
      "buf");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("a")->is_unsigned());
  EXPECT_EQ(doc.find("a")->as_uint(), 1u);
  EXPECT_FALSE(doc.find("b")->is_unsigned());
  EXPECT_DOUBLE_EQ(doc.find("b")->as_number(), -2.5);
  EXPECT_EQ(doc.find("c")->as_string(), "s");
  ASSERT_TRUE(doc.find("d")->is_array());
  EXPECT_EQ(doc.find("d")->items().size(), 3u);
  EXPECT_TRUE(doc.find("e")->is_object());
}

TEST(JsonParser, ErrorsCarrySourceLineAndColumn) {
  try {
    config::parse_json("{\n  \"a\": 1,\n  \"b\": nul\n}", "spec.json");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spec.json:3:"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, RejectsDuplicateKeys) {
  EXPECT_THROW(config::parse_json(R"({"a": 1, "a": 2})", "buf"),
               std::runtime_error);
}

TEST(JsonParser, RejectsTrailingContent) {
  EXPECT_THROW(config::parse_json("{} {}", "buf"), std::runtime_error);
}

TEST(JsonParser, RejectsDeepNestingWithPosition) {
  // 256 nested arrays/objects parse; one more is a positioned error, not a
  // recursion into the stack. 100k unbalanced brackets stop at the cap.
  const std::string ok = std::string(255, '[') + "{\"k\": 1}" +
                         std::string(255, ']');
  EXPECT_TRUE(config::parse_json(ok, "ok.json").is_array());
  try {
    config::parse_json(std::string(100000, '['), "deep.json");
    FAIL() << "expected a nesting error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "deep.json:1:257: nesting deeper than 256"),
              std::string::npos)
        << e.what();
  }
  try {
    config::parse_json("{\"a\":\n" + std::string(256, '['), "deep.json");
    FAIL() << "expected a nesting error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deep.json:2:256:"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, PreservesUint64BeyondDoubleRange) {
  const std::uint64_t big = (1ull << 53) + 1;  // not representable as double
  const Json doc =
      config::parse_json("{\"seed\": " + std::to_string(big) + "}", "buf");
  ASSERT_TRUE(doc.find("seed")->is_unsigned());
  EXPECT_EQ(doc.find("seed")->as_uint(), big);
  EXPECT_NE(doc.dump(0).find(std::to_string(big)), std::string::npos);
}

TEST(JsonParser, RejectsOverflowingNumbersWithPosition) {
  // A literal past the double range is an error at its first character,
  // not a silent infinity.
  const std::string huge_integer = "1" + std::string(400, '0');
  const std::pair<std::string, std::string> cases[] = {
      {"{\"a\": 1e999}", "1:7:"},
      {"{\"a\":\n  -1e999}", "2:3:"},
      {"[0, 1.5E+309]", "1:5:"},
      {"{\"a\": " + huge_integer + "}", "1:7:"},
  };
  for (const auto& [text, where] : cases) {
    try {
      config::parse_json(text, "num.json");
      ADD_FAILURE() << "expected '" << text.substr(0, 24) << "' to fail";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("num.json:" + where +
                                           " number out of range"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest finite doubles and underflowing literals still load.
  EXPECT_EQ(config::parse_json("1.7976931348623157e308", "buf").as_number(),
            1.7976931348623157e308);
  EXPECT_EQ(config::parse_json("-1e-999", "buf").as_number(), 0.0);
}

TEST(JsonParser, DumpParseDumpIsFixpoint) {
  const Json doc = config::parse_json(
      R"({"w": 0.1, "x": [1, 2.75, "s"], "y": {"z": true}, "n": null})",
      "buf");
  const std::string once = doc.dump();
  const std::string twice = config::parse_json(once, "buf").dump();
  EXPECT_EQ(once, twice);
}

TEST(JsonSetByPath, ReplacesNestedLeavesAndCreatesMissingOnes) {
  Json doc = config::parse_json(R"({"sim": {"seed": 1}})", "buf");
  config::set_by_path(doc, "sim.seed", Json::make_uint(7));
  config::set_by_path(doc, "sim.transport.wan_up.loss_prob",
                      Json::make_number(0.25));
  EXPECT_EQ(doc.find("sim")->find("seed")->as_uint(), 7u);
  EXPECT_DOUBLE_EQ(doc.find("sim")
                       ->find("transport")
                       ->find("wan_up")
                       ->find("loss_prob")
                       ->as_number(),
                   0.25);
  EXPECT_THROW(config::set_by_path(doc, "sim.seed.deeper", Json::make_null()),
               std::runtime_error);
  // A created object takes the value's position, so a decode error on an
  // invented key points at the value rather than at 0:0.
  Json value = Json::make_uint(3);
  value.set_position(4, 9);
  config::set_by_path(doc, "simx.total_steps", value);
  EXPECT_EQ(doc.find("simx")->line(), 4);
  EXPECT_EQ(doc.find("simx")->column(), 9);
}

// ---------------------------------------------------------------------------
// ScenarioSpec schema

TEST(ScenarioSchema, LeafCountsArePinned) {
  // Adding a member to SimulationConfig (or any spec struct) without a
  // describe() entry fails here: bump the constant only together with the
  // schema entry, the perturbation property below then covers the new leaf.
  EXPECT_EQ(config::count_fields<core::SimulationConfig>(),
            config::kSimulationConfigLeaves);
  EXPECT_EQ(config::count_fields<config::ScenarioSpec>(),
            config::kScenarioSpecLeaves);
}

TEST(ScenarioSchema, DefaultSpecRoundTripsAsFixpoint) {
  const config::ScenarioSpec spec;
  const std::string once = config::scenario_to_text(spec);
  const config::ScenarioSpec reparsed =
      config::parse_scenario(once, "default");
  EXPECT_EQ(config::scenario_to_text(reparsed), once);
}

TEST(ScenarioSchema, EveryLeafPerturbationRoundTrips) {
  const std::string baseline =
      config::scenario_to_text(config::ScenarioSpec{});
  for (std::size_t leaf = 0; leaf < config::kScenarioSpecLeaves; ++leaf) {
    config::ScenarioSpec spec;
    const std::string name = config::perturb_field(spec, leaf);
    ASSERT_FALSE(name.empty()) << "leaf " << leaf << " not reachable";
    const std::string once = config::scenario_to_text(spec);
    EXPECT_NE(once, baseline)
        << "leaf " << leaf << " ('" << name << "') is invisible in the "
        << "serialized form";
    config::ScenarioSpec reparsed;
    ASSERT_NO_THROW(reparsed = config::parse_scenario(once, name))
        << "leaf " << leaf << " ('" << name << "')";
    EXPECT_EQ(config::scenario_to_text(reparsed), once)
        << "leaf " << leaf << " ('" << name << "') does not round-trip";
  }
  // One past the last leaf: nothing to mutate.
  config::ScenarioSpec spec;
  EXPECT_TRUE(
      config::perturb_field(spec, config::kScenarioSpecLeaves).empty());
}

TEST(ScenarioSchema, RejectsUnknownKeysWithLocation) {
  try {
    config::parse_scenario("{\n  \"edges\": 4,\n  \"edgez\": 5\n}",
                           "spec.json");
    FAIL() << "expected unknown-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.json:3:"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key 'edgez'"), std::string::npos) << what;
  }
}

TEST(ScenarioSchema, OverridesSpliceByPathBeforeTheStrictDecode) {
  const Json base = config::parse_json(
      R"({"name": "base", "edges": 4, "sim": {"total_steps": 9}})", "b.json");
  const Json overrides = config::parse_json(
      R"({"sim.total_steps": 60, "algorithm": "fedmes",
          "sim.transport.wan_up.compression": {"kind": "topk",
                                               "top_k_fraction": 0.5}})",
      "--set");
  const config::ScenarioSpec spec =
      config::scenario_with_overrides(base, "b.json", overrides, "--set");
  EXPECT_EQ(spec.name, "base");
  EXPECT_EQ(spec.edges, 4u);
  EXPECT_EQ(spec.sim.total_steps, 60u);
  EXPECT_EQ(spec.algorithm, "fedmes");
  EXPECT_EQ(spec.sim.transport.wan_up.compression.kind,
            transport::CompressionKind::kTopK);
  EXPECT_DOUBLE_EQ(spec.sim.transport.wan_up.compression.top_k_fraction,
                   0.5);
  // No overrides: the plain strict decode.
  EXPECT_EQ(config::scenario_to_text(config::scenario_with_overrides(
                base, "b.json", Json::make_object(), "--set")),
            config::scenario_to_text(
                config::scenario_from_json(base, "b.json")));
}

TEST(ScenarioSchema, OverrideErrorsNameTheirSourcePathAndPosition) {
  const Json base = config::parse_json(R"({"edgez": 4})", "b.json");
  const Json good = config::parse_json(R"({"edges": 4})", "b.json");
  const auto error = [](const Json& document, std::string_view overrides) {
    try {
      config::scenario_with_overrides(
          document, "b.json", config::parse_json(overrides, "axes.json"),
          "axes.json");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error(good, R"({"sim.totl_steps": 5})"),
            "axes.json:1:20: unknown key 'totl_steps' (path "
            "'sim.totl_steps')");
  EXPECT_EQ(error(good, R"({"simx.total_steps": 5})"),
            "axes.json:1:22: unknown key 'simx' (path 'simx.total_steps')");
  EXPECT_EQ(error(good, R"({"sim.total_steps": "many"})"),
            "axes.json:1:21: key 'total_steps' expects a non-negative "
            "integer "
            "(path 'sim.total_steps')");
  EXPECT_EQ(error(good, R"({"edges.count": 5})"),
            "axes.json:1:17: path 'edges.count' descends into a non-object");
  EXPECT_EQ(error(good, "[1]"),
            "axes.json:1:1: expects a JSON object mapping dotted spec paths "
            "to values");
  // An error that is not in an override names the document's source.
  EXPECT_EQ(error(base, R"({"edges": 4})"), "b.json:1:11: unknown key 'edgez'");
}

TEST(ScenarioSchema, OverlappingOverridesAreRejectedNamingBothPaths) {
  // Two overrides of one leaf would resolve last-wins, whichever key comes
  // last; a path and its prefix both set is an error at the second one.
  const Json base = config::parse_json(R"({"edges": 4})", "b.json");
  const auto error = [&](std::string_view overrides) {
    try {
      config::scenario_with_overrides(
          base, "b.json", config::parse_json(overrides, "--set"), "--set");
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error(R"({"sim.total_steps": 2, "sim": {"total_steps": 3}})"),
            "--set:1:31: path 'sim' overlaps path 'sim.total_steps' at "
            "--set:1:21; set each leaf once");
  EXPECT_EQ(error(R"({"sim": {"total_steps": 3}, "sim.total_steps": 2})"),
            "--set:1:48: path 'sim.total_steps' overlaps path 'sim' at "
            "--set:1:9; set each leaf once");
  // Siblings under one parent, and a path that extends another's last
  // segment without a '.', are not overlaps.
  const config::ScenarioSpec spec = config::scenario_with_overrides(
      base, "b.json",
      config::parse_json(
          R"({"sim.total_steps": 2, "sim.batch_size": 4,
              "lr_schedule.mu": 0.25, "lr_schedule.beta": 7})",
          "--set"),
      "--set");
  EXPECT_EQ(spec.sim.total_steps, 2u);
  EXPECT_EQ(spec.sim.batch_size, 4u);
  EXPECT_DOUBLE_EQ(spec.lr_schedule.mu, 0.25);
  EXPECT_DOUBLE_EQ(spec.lr_schedule.beta, 7.0);
  EXPECT_NO_THROW(config::check_disjoint_paths(
      config::parse_json(R"({"a.decay": 1, "a.decay_every": 2})", "--set"),
      "--set"));
}

TEST(EdgeIdRange, ScenarioRejectsEdgesPastTheMapAtTheirPosition) {
  // The per-device edge maps hold 2-byte ids: more than 65536 edges fails
  // while loading, at the key, not after the run is built.
  EXPECT_EQ(config::parse_scenario(R"({"edges": 65536})", "spec.json").edges,
            65536u);
  try {
    config::parse_scenario("{\n  \"name\": \"wide\",\n  \"edges\": 70000\n}",
                           "spec.json");
    FAIL() << "expected an edge-count error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.json:3:"), std::string::npos) << what;
    EXPECT_NE(what.find("'edges'"), std::string::npos) << what;
    EXPECT_NE(what.find("70000"), std::string::npos) << what;
  }
}

TEST(ScenarioSchema, RejectsUnknownNestedKeysWithLocation) {
  try {
    config::parse_scenario(
        "{\n  \"mobility\": {\n    \"switch_probability\": 0.5\n  }\n}",
        "spec.json");
    FAIL() << "expected unknown-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spec.json:3:"), std::string::npos) << what;
    EXPECT_NE(what.find("'switch_probability'"), std::string::npos) << what;
  }
}

TEST(ScenarioSchema, RemovedKeysAreRejectedWithPosition) {
  // The old uplink spellings, the carry policy, the fleet's storage codec,
  // the training extensions beyond Algorithm 1, the straggler model,
  // per-class tracking, the step-decay and warmup schedules and
  // random-waypoint mobility are gone from the schema: a spec that still
  // writes one fails as an unknown key, pointing at the key's value.
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& where,
                                  const std::string& key) {
    try {
      config::parse_scenario(text, "spec.json");
      ADD_FAILURE() << "expected '" << key << "' to be rejected";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("spec.json:" + where + ": unknown key '" + key +
                          "'"),
                std::string::npos)
          << what;
    }
  };
  expect_rejected(
      "{\n  \"sim\": {\n    \"upload_failure_prob\": 0.2\n  }\n}", "3:28",
      "upload_failure_prob");
  expect_rejected(
      "{\n  \"sim\": {\n    \"seed\": 7,\n"
      "    \"upload_compression\": {\"kind\": \"topk\"}\n  }\n}",
      "4:27", "upload_compression");
  expect_rejected(
      "{\"sim\": {\"transport\": {\n  \"carry\": {\"loss_prob\": 0}}}}",
      "2:12", "carry");
  // (Written in two pieces so that searching the tree for the removed
  // name finds no live use.)
  expect_rejected(
      "{\"sim\": {\"fleet\": {\n  \"at" "_rest\": {\"kind\": \"none\"}}}}",
      "2:14", "at" "_rest");
  expect_rejected("{\n  \"model\": {\"dropout\": 0.25}\n}", "2:24",
                  "dropout");
  // {"<parent>": {\n  "<key>": <value>}}: the value sits at line 2,
  // column key.size() + 7.
  const auto expect_leaf_rejected = [&](const std::string& parent,
                                        const std::string& key,
                                        const std::string& value) {
    expect_rejected(
        "{\"" + parent + "\": {\n  \"" + key + "\": " + value + "}}",
        "2:" + std::to_string(key.size() + 7), key);
  };
  expect_leaf_rejected("sim", "prox" "_mu", "0.1");
  expect_leaf_rejected("sim", "clip" "_norm", "5");
  expect_leaf_rejected("sim", "server" "_momentum", "0.3");
  expect_leaf_rejected("sim", "reset" "_optimizer_each_round", "false");
  expect_leaf_rejected("sim", "device" "_speeds", "[1]");
  expect_leaf_rejected("sim", "round" "_deadline", "4");
  expect_leaf_rejected("sim", "track" "_per_class", "true");
  expect_leaf_rejected("lr_schedule", "decay", "0.5");
  expect_leaf_rejected("lr_schedule", "decay" "_every", "100");
  expect_leaf_rejected("lr_schedule", "warmup" "_steps", "100");
  for (const char* key :
       {"width", "height", "speed_min", "speed_max", "pause_probability"}) {
    expect_leaf_rejected("mobility", key, "1");
  }
}

TEST(ScenarioSchema, RejectsTypeMismatch) {
  EXPECT_THROW(config::parse_scenario(R"({"edges": "ten"})", "buf"),
               std::runtime_error);
  EXPECT_THROW(config::parse_scenario(R"({"edges": -4})", "buf"),
               std::runtime_error);
}

TEST(ScenarioSchema, RejectsIllegalChoiceListingOptions) {
  // The removed random-waypoint model and step-decay/warmup schedules are
  // illegal choices like any other.
  const std::pair<const char*, const char*> bad[] = {
      {R"({"algorithm": "fedfoo"})", "middle"},
      {R"({"mobility": {"model": "random-waypoint"}})", "(markov|trace)"},
      {R"({"lr_schedule": {"kind": "step-decay"}})",
       "(default|constant|theorem1)"},
      {R"({"lr_schedule": {"kind": "warmup"}})", "(default|constant|theorem1)"},
  };
  for (const auto& [text, listed] : bad) {
    try {
      config::parse_scenario(text, "buf");
      ADD_FAILURE() << "expected choice error for " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(listed), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Algorithm registry

TEST(AlgorithmRegistry, CoversEveryEnumValue) {
  const auto& names = core::algorithm_names();
  ASSERT_EQ(names.size(), 6u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    // Registry keys are listed in enum order and round-trip through the
    // parser; every entry builds a complete policy.
    EXPECT_EQ(core::parse_algorithm(names[i]),
              static_cast<core::Algorithm>(i));
    const core::AlgorithmSpec spec = core::make_algorithm(names[i]);
    EXPECT_NE(spec.selection, nullptr) << names[i];
  }
  EXPECT_THROW(core::make_algorithm("fedfoo"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Builder equivalence: config-built == hand-built, bit for bit

TEST(ScenarioBuilder, MatchesHandConstructedSimulationBitwise) {
  config::ScenarioSpec spec;
  spec.sim.total_steps = 20;
  spec.sim.eval_every = 10;
  spec.sim.eval_samples = 100;
  spec.data.devices = 12;
  spec.edges = 3;

  const auto built = config::build_scenario(spec);
  auto config_sim = config::make_simulation(built);
  const auto config_history =
      config_sim->run([](const core::EvalPoint&) {});

  // The same construction sequence, written out by hand the way the flag
  // front ends always did it.
  auto dcfg = data::task_config(data::TaskKind::kMnist, 0.5);
  dcfg.seed = parallel::hash_combine(dcfg.seed, spec.sim.seed);
  const data::SyntheticGenerator generator(dcfg);
  const data::Dataset train = generator.generate(60, 1);
  const data::Dataset test = generator.generate(30, 2);
  const auto partition =
      data::partition_major_class(train, 12, 80, 0.9, spec.sim.seed + 11);
  auto homes =
      data::assign_edges_by_major_class(partition, 3, dcfg.num_classes);
  auto mobility_model = std::make_unique<mobility::MarkovMobility>(
      homes, 3, 0.5, spec.sim.seed + 101);
  mobility_model->set_topology(mobility::MoveTopology::kHomeRing, 0.5);
  nn::ModelSpec model = spec.model;
  model.input_shape =
      tensor::Shape{dcfg.channels, dcfg.height, dcfg.width};
  model.num_classes = dcfg.num_classes;
  optim::Sgd optimizer(
      optim::SgdConfig{.learning_rate = 0.005, .momentum = 0.9});
  core::Simulation manual_sim(spec.sim, model, optimizer, train, partition,
                              test, std::move(mobility_model),
                              core::make_algorithm(core::Algorithm::kMiddle));
  const auto manual_history =
      manual_sim.run([](const core::EvalPoint&) {});

  ASSERT_EQ(config_history.points.size(), manual_history.points.size());
  for (std::size_t i = 0; i < config_history.points.size(); ++i) {
    EXPECT_EQ(config_history.points[i].step, manual_history.points[i].step);
    EXPECT_EQ(config_history.points[i].accuracy,
              manual_history.points[i].accuracy);
    EXPECT_EQ(config_history.points[i].loss, manual_history.points[i].loss);
  }
}

TEST(ScenarioBuilder, LrScheduleRejectsValuesThatTrainToNan) {
  // Each spec would train to a NaN loss; the builder rejects it and names
  // the offending key.
  const std::pair<std::string, std::string> bad[] = {
      {R"({"kind": "constant", "base_lr": -0.5})", "base_lr"},
      {R"({"kind": "constant", "base_lr": 0})", "base_lr"},
      {R"({"kind": "theorem1", "mu": 0})", "mu"},
      {R"({"kind": "theorem1", "mu": -2})", "mu"},
      {R"({"kind": "theorem1", "beta": -1})", "beta"},
  };
  for (const auto& [schedule, key] : bad) {
    SCOPED_TRACE(schedule);
    const config::ScenarioSpec spec = config::parse_scenario(
        "{\"lr_schedule\": " + schedule + "}", "lr.json");
    try {
      config::make_lr_schedule(spec.lr_schedule, 10);
      ADD_FAILURE() << "expected lr_schedule." << key << " to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("lr_schedule." + key + " must be"),
                std::string::npos)
          << e.what();
    }
  }
  config::LrScheduleSpec infinite;
  infinite.kind = "constant";
  infinite.base_lr = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config::make_lr_schedule(infinite, 10), std::invalid_argument);

  // The edges of each legal range still build.
  const std::string good[] = {
      R"({"kind": "theorem1", "beta": 0})",
      R"({"kind": "constant", "base_lr": 1e-6})",
  };
  for (const std::string& schedule : good) {
    const config::ScenarioSpec spec = config::parse_scenario(
        "{\"lr_schedule\": " + schedule + "}", "lr.json");
    EXPECT_TRUE(config::make_lr_schedule(spec.lr_schedule, 10)) << schedule;
  }
}

TEST(ScenarioBuilder, TraceMustMatchTheSpecsEdgesAndDevices) {
  // A trace recorded for another topology used to replace the spec's edge
  // (or device) count silently; make_mobility refuses it by name.
  const std::string path = ::testing::TempDir() + "config_test_3x4.trace";
  {
    std::ofstream out(path);
    out << "# middlefl-trace v1 devices=4 edges=3 steps=1\n";
    for (int m = 0; m < 4; ++m) out << "0 " << m << " " << m % 3 << "\n";
  }
  config::ScenarioSpec spec;
  spec.mobility.model = "trace";
  spec.mobility.trace_file = path;
  const std::vector<std::size_t> homes{0, 1, 2, 0};
  const auto error = [&]() -> std::string {
    try {
      config::make_mobility(spec, homes);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  spec.edges = 10;
  spec.data.devices = 4;
  EXPECT_EQ(error(), "mobility.trace_file '" + path +
                         "' has edges=3 but the spec has edges 10");
  spec.edges = 3;
  spec.data.devices = 5;
  EXPECT_EQ(error(), "mobility.trace_file '" + path +
                         "' has devices=4 but the spec has data.devices 5");
  spec.data.devices = 4;
  EXPECT_EQ(error(), "accepted");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Topology names (shared parser used by CLI and schema)

TEST(TopologyNames, RoundTripAndLegacyAliases) {
  EXPECT_EQ(mobility::parse_topology("home-ring"),
            mobility::MoveTopology::kHomeRing);
  EXPECT_EQ(mobility::parse_topology("home_ring"),
            mobility::MoveTopology::kHomeRing);
  EXPECT_EQ(mobility::to_string(mobility::MoveTopology::kRing), "ring");
  EXPECT_THROW(mobility::parse_topology("torus"), std::invalid_argument);
}

}  // namespace
