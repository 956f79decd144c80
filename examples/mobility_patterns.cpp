// Mobility substrate tour: the three Markov topologies and trace
// record/replay of a home-ring run.
//
//   ./examples/mobility_patterns
#include <iomanip>
#include <iostream>
#include <sstream>

#include "mobility/markov_mobility.hpp"
#include "mobility/trace.hpp"

using namespace middlefl::mobility;

namespace {

std::vector<std::size_t> round_robin(std::size_t devices, std::size_t edges) {
  std::vector<std::size_t> a(devices);
  for (std::size_t m = 0; m < devices; ++m) a[m] = m % edges;
  return a;
}

/// How quickly do edge populations mix? Measures, after `steps` steps, the
/// fraction of devices still connected to their initial edge.
double home_retention(MobilityModel& model, std::size_t steps) {
  model.reset();
  const auto initial = model.assignment();
  for (std::size_t t = 0; t < steps; ++t) model.advance();
  std::size_t at_home = 0;
  for (std::size_t m = 0; m < initial.size(); ++m) {
    if (model.assignment()[m] == initial[m]) ++at_home;
  }
  model.reset();
  return static_cast<double>(at_home) / static_cast<double>(initial.size());
}

}  // namespace

int main() {
  constexpr std::size_t kDevices = 100;
  constexpr std::size_t kEdges = 10;
  std::cout << std::fixed << std::setprecision(3);

  // --- Markov topologies -------------------------------------------------
  std::cout << "Markov edge-transition mobility, P = 0.5:\n";
  for (const auto [topology, name] :
       {std::pair{MoveTopology::kUniform, "uniform teleport"},
        std::pair{MoveTopology::kRing, "ring neighbour"},
        std::pair{MoveTopology::kHomeRing, "home-biased ring"}}) {
    MarkovMobility model(round_robin(kDevices, kEdges), kEdges, 0.5, 11);
    model.set_topology(topology, 0.5);
    std::cout << "  " << std::setw(17) << name
              << "  empirical P = " << measure_mobility(model, 300)
              << "  home retention after 50 steps = "
              << home_retention(model, 50) << "\n";
  }
  std::cout << "(uniform mixes populations into IID; home-biased keeps the\n"
               " geographic class correlation that makes edge data Non-IID)\n\n";

  // --- Trace record / replay ----------------------------------------------
  // The paper-style runs' process: home-biased ring walks at P = 0.5.
  MarkovMobility live(round_robin(kDevices, kEdges), kEdges, 0.5, 12);
  live.set_topology(MoveTopology::kHomeRing, 0.5);
  std::cout << "Trace record/replay:\n";
  Trace trace = record_trace(live, /*steps=*/40);
  std::ostringstream buffer;
  trace.save(buffer);
  std::cout << "  recorded " << trace.num_steps() << " snapshots ("
            << buffer.str().size() << " bytes serialized)\n";

  std::istringstream reader(buffer.str());
  TraceMobility replay(Trace::load(reader));
  // record_trace leaves the live model reset to step 0.
  bool identical = live.assignment() == replay.assignment();
  for (std::size_t t = 0; t < 40; ++t) {
    live.advance();
    replay.advance();
    identical = identical && live.assignment() == replay.assignment();
  }
  std::cout << "  replay matches live model step-for-step: "
            << (identical ? "yes" : "NO") << "\n";
  return identical ? 0 : 1;
}
