// perfbench — the repository's whole-system benchmark (README.md).
//
//   perfbench --workload infer|train|serve|hw_sweep --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--smoke] [--corrupt]
//
// Prints human-readable lines, a `fingerprint:` line, and as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer catalog (common.cpp), measured from spans the benchmark
// records around its own calls into each layer. Exit status: 0 when every
// checked output was correct, 1 on any mismatch, 2 on a usage error or an
// exception (no result line). Requests refused or answered late count in
// "failed" without making the run incorrect.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "base/parallel.hpp"
#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"}, {"items_per_s", "1/s"},
    {"lat_p50_ms", "ms"},   {"lat_p90_ms", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload infer|train|serve|hw_sweep "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--smoke] [--corrupt]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--corrupt") {
        o.corrupt = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // At most 4 pool threads, whatever RPBCM_THREADS says, so runs on hosts
  // with more cores stay comparable; the fingerprint records the count.
  rpbcm::base::set_num_threads(
      std::min<std::size_t>(4, rpbcm::base::hardware_threads()));

  Result r;
  try {
    if (opt.workload == "infer") {
      r = perfbench::run_infer(opt);
    } else if (opt.workload == "train") {
      r = perfbench::run_train(opt);
    } else if (opt.workload == "serve") {
      r = perfbench::run_serve(opt);
    } else if (opt.workload == "hw_sweep") {
      r = perfbench::run_hw_sweep(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }

  // The JSON carries exactly one metric set: end-to-end, or the per-layer
  // catalog with 0 for every layer this workload bypasses.
  std::map<std::string, perfbench::Metric> out;
  if (opt.trace) {
    for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
      auto it = r.metrics.find(name);
      out[name] = perfbench::Metric{
          it != r.metrics.end() ? it->second.value : 0.0, unit};
    }
  } else {
    for (const auto& m : kEndToEnd) {
      auto it = r.metrics.find(m[0]);
      if (it == r.metrics.end() || it->second.unit != m[1]) {
        std::cerr << "perfbench: " << opt.workload << " did not measure "
                  << m[0] << " [" << m[1] << "]\n";
        return 2;
      }
      out[m[0]] = it->second;
    }
  }

  for (const auto& line : r.notes) std::cout << line << '\n';
  std::cout << opt.workload << ": failed_frac = "
            << (r.attempted > 0 ? double(r.failed) / double(r.attempted) : 0.0)
            << " (" << r.failed << " of " << r.attempted << " failed, "
            << r.mismatched << " wrong outputs)\n";
  std::cout << "fingerprint: " << perfbench::fingerprint_json() << '\n';
  if (!perfbench::comparable_build())
    std::cout << "WARNING: " << PERFBENCH_BUILD_TYPE
              << " build — figures are not comparable with Release runs\n";
  for (const auto& [name, m] : out)
    std::cout << "metric " << name << " = " << number(m.value) << ' '
              << m.unit << '\n';

  const bool correct = r.mismatched == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
