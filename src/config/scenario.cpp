#include "config/scenario.hpp"

#include <fstream>
#include <string>

#include "mobility/edge_id.hpp"

namespace middlefl::config {

// Compile-time half of the schema-registration guard: on the reference ABI
// a new SimulationConfig member changes the struct size before anyone
// remembers the describe() entry, so the build fails here with a pointer
// to the schema instead of silently dropping the field from specs.
// (config_test pins the flattened leaf counts for every platform.)
#if defined(__x86_64__) && defined(__GLIBCXX__) && defined(_GLIBCXX_RELEASE)
#define MIDDLEFL_SIMCONFIG_SIZE 344
static_assert(sizeof(core::SimulationConfig) == MIDDLEFL_SIMCONFIG_SIZE,
              "SimulationConfig changed size: register the new member in "
              "Schema<SimulationConfig> (src/config/scenario.hpp) and "
              "update MIDDLEFL_SIMCONFIG_SIZE");
#endif

ScenarioSpec scenario_from_json(const Json& document,
                                const std::string& source_name) {
  ScenarioSpec spec;
  from_json(document, source_name, spec);
  // The per-device edge maps hold 2-byte ids: reject the count here, at
  // its position, rather than after the run is built.
  if (spec.edges > mobility::kMaxEdges) {
    throw std::runtime_error(
        position_of(source_name, *document.find("edges")) + ": key 'edges': " +
        std::to_string(spec.edges) + " past the " +
        std::to_string(mobility::kMaxEdges) + " an edge id can name");
  }
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text,
                            const std::string& source_name) {
  return scenario_from_json(parse_json(text, source_name), source_name);
}

ScenarioSpec load_scenario_file(const std::string& path) {
  return scenario_from_json(parse_json_file(path), path);
}

void check_disjoint_paths(const Json& overrides, const std::string& source) {
  const auto& members = overrides.members();
  for (std::size_t b = 1; b < members.size(); ++b) {
    for (std::size_t a = 0; a < b; ++a) {
      // With a '.' appended, a path starts with another exactly when the
      // two are equal or it lies below the other.
      const std::string first = members[a].first + '.';
      const std::string second = members[b].first + '.';
      if (first.starts_with(second) || second.starts_with(first)) {
        throw std::runtime_error(
            position_of(source, members[b].second) + ": path '" +
            members[b].first + "' overlaps path '" + members[a].first +
            "' at " + position_of(source, members[a].second) +
            "; set each leaf once");
      }
    }
  }
}

ScenarioSpec scenario_with_overrides(Json document,
                                     const std::string& source_name,
                                     const Json& overrides,
                                     const std::string& overrides_source) {
  if (!overrides.is_object()) {
    throw std::runtime_error(position_of(overrides_source, overrides) +
                             ": expects a JSON object mapping dotted spec "
                             "paths to values");
  }
  check_disjoint_paths(overrides, overrides_source);
  for (const auto& [path, value] : overrides.members()) {
    Json alone = Json::make_object();
    try {
      set_by_path(alone, path, value);
      set_by_path(document, path, value);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(position_of(overrides_source, value) + ": " +
                               e.what());
    }
    try {
      scenario_from_json(alone, overrides_source);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(std::string(e.what()) + " (path '" + path +
                               "')");
    }
  }
  return scenario_from_json(document, source_name);
}

Json scenario_to_json(const ScenarioSpec& spec) { return to_json(spec); }

std::string scenario_to_text(const ScenarioSpec& spec) {
  return scenario_to_json(spec).dump() + "\n";
}

void save_scenario_file(const ScenarioSpec& spec, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << scenario_to_text(spec);
  if (!out) {
    throw std::runtime_error("failed writing scenario to '" + path + "'");
  }
}

}  // namespace middlefl::config
