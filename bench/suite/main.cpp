// middlefl_bench — one workload of the repository benchmark per process.
//
//   middlefl_bench --workload fleet_1m --seed 3 --seconds 15 --trace 1
//                  --out fleet_1m.json --trace-out fleet_1m.trace.json
//
// Prints one `workload name value unit` line per metric, then, as the last
// line of stdout, a JSON object {"correct", "attempted", "failed",
// "metrics"}. --out writes the full record (protocol header, checks, and
// every metric's sample count, median and quartiles). Exit status: 0 when
// every correctness check passed, 3 when one failed, 1 on an error (no
// result line). run.py builds this binary and runs every workload in its
// own child process.
#include <algorithm>
#include <iostream>
#include <thread>

#include "affinity.hpp"
#include "parallel/thread_pool.hpp"
#include "report.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace middlefl;
using namespace middlefl::bench::suite;

int run(int argc, const char* const* argv) {
  Context ctx;
  std::size_t seed = 1;
  std::size_t trace = 0;
  std::string out;
  util::CliParser cli(
      "middlefl_bench: end-to-end and per-layer benchmark, one workload per "
      "process");
  cli.add_flag("workload", "fig6_mnist | paper_cnn | fleet_1m | serve_train",
               &ctx.workload);
  cli.add_flag("seed", "input seed", &seed);
  cli.add_flag("seconds", "measurement budget of the untraced pass",
               &ctx.seconds);
  cli.add_flag("trace", "1 = also run the traced per-layer pass", &trace);
  cli.add_flag("smoke", "tiny sizes (CI smoke run)", &ctx.smoke);
  cli.add_flag("out", "write the full JSON record here", &out);
  cli.add_flag("trace-out", "write the traced pass's Chrome trace here",
               &ctx.trace_out);
  if (!cli.parse(argc, argv)) return 0;
  if (trace > 1 || !(ctx.seconds > 0.0)) {
    std::cerr << "error: --trace must be 0 or 1 and --seconds positive\n";
    return 1;
  }
  ctx.seed = seed;
  ctx.trace = trace == 1;

  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  parallel::ThreadPool::set_default_size(std::min<std::size_t>(2, hardware));
  ctx.pool = &parallel::ThreadPool::global();
  pin_threads(*ctx.pool, hardware);

  Report report;
  run_workload(ctx, report);

  Header header;
  header.workload = ctx.workload;
  header.seed = ctx.seed;
  header.seconds = ctx.seconds;
  header.trace = ctx.trace;
  header.smoke = ctx.smoke;
  header.pool_threads = ctx.pool->size();
  if (!out.empty()) report.write_json(out, header);
  report.print_lines(std::cout, ctx.workload);
  report.print_result(std::cout);
  return report.correct() ? 0 : 3;
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
