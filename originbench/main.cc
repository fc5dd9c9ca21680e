// originbench — the repository's end-to-end benchmark.
//
//   originbench --workload grid|grid_dist|sweep|service --seed N
//               --seconds S --trace 0|1
//
// Every run builds its inputs from --seed, measures for about --seconds,
// checks every output against an independent reference, and prints one
// JSON result line last. --trace 0 prints the end-to-end metrics; --trace 1
// runs the workload again under the span tracer with the library's
// metrics enabled and prints the per-layer metrics instead. See
// originbench/METRICS.md for what each workload loads and what each
// metric means.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

bool optimized_build() {
#if defined(__OPTIMIZE__)
  const std::string type = ORIGINBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: originbench --workload grid|grid_dist|sweep|service "
               "--seed N --seconds S --trace 0|1 [--smallest] "
               "[--corrupt record|result]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  originbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--corrupt" && has_value) {
      options.corrupt = argv[++i];
    } else if (arg == "--smallest") {
      options.smallest = true;
    } else {
      return usage();
    }
  }
  if (options.seconds < 1) return usage();
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "originbench: refusing to measure a non-optimized build "
                 "(CMAKE_BUILD_TYPE='%s'); rebuild with Release, "
                 "RelWithDebInfo or MinSizeRel\n",
                 ORIGINBENCH_BUILD_TYPE);
    return 2;
  }
  if (options.workload == "grid") return originbench::run_grid(options);
  if (options.workload == "grid_dist") {
    return originbench::run_grid_dist(options);
  }
  if (options.workload == "sweep") return originbench::run_sweep(options);
  if (options.workload == "service") return originbench::run_service(options);
  return usage();
}
