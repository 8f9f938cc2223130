// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--work-dir DIR]
//   perfbench --list-metrics
//
// Runs one workload (circuit_local, stencil_dist4, service_2tenants),
// checks its output against the serial reference, and prints a human table
// followed by one JSON line: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exit code 0 only when every check
// passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--work-dir DIR]\n       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.start_ns = perfbench::now_ns();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      for (const auto* list :
           {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()})
        for (const perfbench::MetricSpec& s : *list)
          std::printf("%s %s %s\n", list == &perfbench::end_to_end_metrics()
                                        ? "end_to_end" : "per_layer",
                      s.name, s.unit);
      return 0;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0)) return usage(argv[0]);

  perfbench::Report report;
  try {
    if (!perfbench::run_workload(o, &report)) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  const std::string out = report.render(o.trace);
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
