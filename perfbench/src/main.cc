// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload zoo-infer|serve-overload|paper-sweep
//             --seed N --seconds S --trace 0|1 [--inject CHECK]
//
// and prints, as its last line, one JSON object with `correct`,
// `attempted`, `failed` and `metrics`. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics. See
// perfbench/README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"
#include "obs/trace.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "zoo-infer|serve-overload|paper-sweep --seed N --seconds S "
               "--trace 0|1 [--inject off-grid|swap-rows|serve-count|"
               "energy-order]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--inject") {
        opt.inject = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  // Room for the largest traced operation (one sweep) on every thread.
  qnn::obs::set_trace_buffer_capacity(std::size_t{1} << 20);
  qnn::obs::set_trace_enabled(false);
  perfbench::Result result;
  try {
    if (opt.workload == "zoo-infer") {
      perfbench::run_zoo_infer(opt, result);
    } else if (opt.workload == "serve-overload") {
      perfbench::run_serve_overload(opt, result);
    } else if (opt.workload == "paper-sweep") {
      perfbench::run_paper_sweep(opt, result);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
    if (opt.trace) perfbench::run_kernel_probes(result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 3;
  }
  return result.emit();
}
