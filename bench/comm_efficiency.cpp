// Communication efficiency — accuracy per transferred byte.
//
// HFL's raison d'etre (§1, [19,33]) is trading expensive WAN traffic for
// cheap edge-local traffic; MIDDLE additionally claims its knowledge
// transfer is communication-free (the carried model is already on the
// device, unlike FedMes' extra edge download). This bench quantifies both:
// for each algorithm it reports final accuracy, wireless/WAN transfer
// counts, and the uplink byte volume under three upload-compression
// settings (none / top-10% sparsification / 8-bit quantization).
#include <iomanip>
#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace middlefl;

int run(int argc, const char* const* argv) {
  bench::BenchOptions options;
  std::string task_flag = "mnist";
  util::CliParser cli("comm-efficiency: accuracy vs transferred bytes");
  options.register_flags(cli);
  cli.add_flag("task", "task to measure on", &task_flag);
  if (!cli.parse(argc, argv)) return 0;
  bench::print_banner("Communication efficiency", options);

  const auto kind = data::parse_task(task_flag);
  const auto setup = bench::make_task_setup(kind, options);

  struct CompressionCase {
    std::string name;
    transport::CompressionConfig config;
  };
  const CompressionCase compressions[] = {
      {"none", {transport::CompressionKind::kNone, 0.1}},
      {"top10%", {transport::CompressionKind::kTopK, 0.1}},
      {"quant8", {transport::CompressionKind::kQuant8, 0.1}},
  };

  auto csv = bench::open_csv(options);
  csv->header({"algorithm", "compression", "final_accuracy",
               "wireless_transfers", "wan_transfers", "upload_mb",
               "accuracy_per_upload_mb"});

  for (const auto algorithm : core::kAllAlgorithms) {
    for (const auto& compression : compressions) {
      auto mobility = std::make_unique<mobility::MarkovMobility>(
          setup.initial_edges, setup.num_edges, options.mobility,
          options.seed + 101);
      mobility->set_topology(mobility::MoveTopology::kHomeRing, 0.5);
      auto cfg = setup.sim_cfg;
      cfg.transport.wireless_up.compression = compression.config;
      core::Simulation sim(cfg, setup.model_spec, *setup.optimizer,
                           *setup.train, setup.partition, *setup.test,
                           std::move(mobility),
                           core::make_algorithm(algorithm));
      const auto history = sim.run();
      const double upload_mb =
          static_cast<double>(sim.upload_bytes()) / (1024.0 * 1024.0);
      csv->add(core::to_string(algorithm))
          .add(compression.name)
          .add(history.final_accuracy())
          .add(sim.comm_stats().wireless_transfers())
          .add(sim.comm_stats().wan_transfers())
          .add(upload_mb)
          .add(upload_mb > 0 ? history.final_accuracy() / upload_mb : 0.0);
      csv->end_row();
      std::cerr << "   " << std::setw(8) << core::to_string(algorithm)
                << "  " << std::setw(7) << compression.name << "  acc "
                << std::fixed << std::setprecision(3)
                << history.final_accuracy() << "  uplink " << std::setw(7)
                << std::setprecision(2) << upload_mb << " MB  (wireless "
                << sim.comm_stats().wireless_transfers() << ", WAN "
                << sim.comm_stats().wan_transfers() << " transfers)\n";
    }
  }
  std::cerr << "(MIDDLE's knowledge transfer adds zero transfers; FedMes "
               "pays an extra edge download per moved device)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
