// tmsbench: runs one workload of the repository benchmark.
//
//   tmsbench --workload compile_suite|simulate_suite|serve_routed
//            --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result: one JSON object with
// correct, attempted, failed and metrics (the end-to-end metrics, or
// with --trace 1 the per-layer table, which is also printed as text and
// written with the spans under .bench_out/). Exit codes: 0 when every
// check passed, 1 when a check failed or the run could not complete, 2
// on a usage error.
#include <cstdio>
#include <exception>
#include <iostream>

#include "common.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (const auto err = perfbench::parse_args(argc, argv, args)) {
    std::cerr << "tmsbench: " << *err
              << "\nusage: tmsbench --workload compile_suite|simulate_suite|serve_routed"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  perfbench::Outcome out;
  try {
    if (args.workload == "compile_suite") {
      out = perfbench::run_compile_suite(args);
    } else if (args.workload == "simulate_suite") {
      out = perfbench::run_simulate_suite(args);
    } else if (args.workload == "serve_routed") {
      out = perfbench::run_serve_routed(args);
    } else {
      std::cerr << "tmsbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& ex) {
    std::cerr << "tmsbench: " << args.workload << " aborted: " << ex.what() << "\n";
    return 1;
  }

  if (args.trace) {
    std::cout << "per-layer table (" << args.workload << ", seed " << args.seed << "):\n"
              << perfbench::layers_to_text(out.metrics);
    const std::string stem = args.workload + "-seed" + std::to_string(args.seed);
    if (const auto err = perfbench::write_trace_outputs(".bench_out", stem, out.metrics)) {
      std::cerr << "tmsbench: " << *err << "\n";
      return 1;
    }
    std::cout << "spans and table written to .bench_out/" << stem << ".{trace,layers}.json\n";
  }
  if (!out.correct) std::cerr << "tmsbench: check failed: " << out.failure << "\n";
  std::cout << perfbench::result_json(out) << std::endl;
  return out.correct ? 0 : 1;
}
