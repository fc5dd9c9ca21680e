// Benchmark regression gate: compares a candidate google-benchmark JSON
// report against a checked-in baseline and fails (exit 1) when any
// benchmark's cpu_time regressed by more than the threshold.
//
//   bench_gate <baseline.json> <candidate.json> [threshold_percent]
//   bench_gate --overhead <candidate.json> <base> <variant> [threshold]
//   bench_gate --wall <baseline.json> <candidate.json> <field> [threshold]
//
// Threshold defaults to 25% — wide enough to absorb CI machine noise,
// tight enough to catch a hot path re-growing a serialize/parse round
// trip or a lock. Benchmarks present only in the candidate are reported
// and pass (new benchmarks shouldn't require a baseline update to land);
// benchmarks that disappeared from the candidate fail, because a silently
// dropped benchmark is how a gate goes blind. Timings from different
// hardware are not comparable, so the gate also fails — asking for the
// baseline to be re-recorded on this host — when the reports' context
// disagrees on num_cpus or cpu_model (the CPU model micro_scanner stamps
// into its context). No threshold widens that check.
//
// --overhead compares two benchmarks within ONE report: it fails when
// <variant>'s cpu_time exceeds <base>'s by more than the threshold
// (default 5%). Both run in the same process seconds apart, so the
// machine-noise argument for a wide threshold doesn't apply — this is
// how ci.sh bounds the cost of metrics-enabled scanning over disabled
// (DESIGN.md §9's "cheap when enabled" rule).
//
// --wall compares one named scalar field between two FLAT JSON objects
// (one "key": value pair per line — the shape bench/record.sh keeps in
// BENCH_wall.json and `originscan loadgen --json-out` emits). This is
// how ci.sh bounds the service loadgen's p99 latency:
//   bench_gate --wall BENCH_wall.json candidate.json loadgen_p99_us 25
//
// The parser is deliberately minimal: it extracts "name"/"cpu_time"
// pairs from the `benchmarks` array of google-benchmark's JSON format
// (one key per line, as --benchmark_format=json emits). It is not a
// general JSON parser and doesn't need to be.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace {

// Extracts the string value of `"key": "value"` from a line, or empty.
std::string string_value(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto open = line.find('"', pos + needle.size());
  if (open == std::string::npos) return {};
  const auto close = line.find('"', open + 1);
  if (close == std::string::npos) return {};
  return line.substr(open + 1, close - open - 1);
}

// Extracts the numeric value of `"key": 1.23e4` from a line, or NaN.
double number_value(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::strtod("nan", nullptr);
  return std::strtod(line.c_str() + pos + needle.size(), nullptr);
}

// name -> cpu_time (ns). Aggregate rows (e.g. _mean/_stddev from
// repeated runs) are keyed by their full reported name, so baseline and
// candidate compare like with like.
std::map<std::string, double> load_report(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path);
    std::exit(2);
  }
  std::map<std::string, double> times;
  std::string line;
  std::string current;
  while (std::getline(in, line)) {
    const std::string name = string_value(line, "name");
    if (!name.empty()) current = name;
    const double cpu = number_value(line, "cpu_time");
    if (!current.empty() && cpu == cpu) {  // cpu == cpu: not NaN
      times[current] = cpu;
      current.clear();
    }
  }
  return times;
}

// The host facts a google-benchmark report's context records.
struct HostContext {
  double num_cpus = 0;
  std::string cpu_model;  // empty when the report has none
};

HostContext load_context(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path);
    std::exit(2);
  }
  HostContext context;
  context.num_cpus = std::strtod("nan", nullptr);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"benchmarks\":") != std::string::npos) break;
    const double cpus = number_value(line, "num_cpus");
    if (cpus == cpus) context.num_cpus = cpus;
    const std::string model = string_value(line, "cpu_model");
    if (!model.empty()) context.cpu_model = model;
  }
  return context;
}

int run_overhead(int argc, char** argv) {
  if (argc < 5 || argc > 6) {
    std::fprintf(stderr,
                 "usage: %s --overhead <candidate.json> <base_benchmark> "
                 "<variant_benchmark> [threshold_percent]\n",
                 argv[0]);
    return 2;
  }
  const double threshold = argc == 6 ? std::strtod(argv[5], nullptr) : 5.0;
  if (!(threshold > 0)) {
    std::fprintf(stderr, "bench_gate: bad threshold %s\n", argv[5]);
    return 2;
  }
  const auto report = load_report(argv[2]);
  const auto base = report.find(argv[3]);
  const auto variant = report.find(argv[4]);
  if (base == report.end() || variant == report.end()) {
    std::fprintf(stderr, "bench_gate: %s missing from %s\n",
                 base == report.end() ? argv[3] : argv[4], argv[2]);
    return 2;
  }
  const double delta_pct =
      (variant->second - base->second) / base->second * 100.0;
  const bool regressed = delta_pct > threshold;
  std::printf("%s %s %.1f ns vs %s %.1f ns  (%+.1f%%, limit +%.0f%%)\n",
              regressed ? "FAIL    " : "ok      ", argv[3], base->second,
              argv[4], variant->second, delta_pct, threshold);
  if (regressed) {
    std::printf("bench_gate: %s costs %.1f%% over %s — the enabled "
                "observability path must stay within %.0f%%\n",
                argv[4], delta_pct, argv[3], threshold);
    return 1;
  }
  return 0;
}

// Reads one `"field": <number>` scalar out of a flat JSON file, NaN if
// absent.
double load_field(const char* path, const std::string& field) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path);
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    const double value = number_value(line, field.c_str());
    if (value == value) return value;
  }
  return std::strtod("nan", nullptr);
}

int run_wall(int argc, char** argv) {
  if (argc < 5 || argc > 6) {
    std::fprintf(stderr,
                 "usage: %s --wall <baseline.json> <candidate.json> <field> "
                 "[threshold_percent]\n",
                 argv[0]);
    return 2;
  }
  const double threshold = argc == 6 ? std::strtod(argv[5], nullptr) : 25.0;
  if (!(threshold > 0)) {
    std::fprintf(stderr, "bench_gate: bad threshold %s\n", argv[5]);
    return 2;
  }
  const std::string field = argv[4];
  const double base = load_field(argv[2], field);
  const double cand = load_field(argv[3], field);
  if (base != base) {
    std::fprintf(stderr,
                 "bench_gate: %s missing from baseline %s — re-record with "
                 "bench/record.sh\n",
                 field.c_str(), argv[2]);
    return 2;
  }
  if (cand != cand) {
    std::fprintf(stderr, "bench_gate: %s missing from candidate %s\n",
                 field.c_str(), argv[3]);
    return 2;
  }
  if (!(base > 0)) {
    std::fprintf(stderr, "bench_gate: baseline %s is %g — not gateable\n",
                 field.c_str(), base);
    return 2;
  }
  const double delta_pct = (cand - base) / base * 100.0;
  const bool regressed = delta_pct > threshold;
  std::printf("%s %-32s %10.1f -> %10.1f  (%+.1f%%, limit +%.0f%%)\n",
              regressed ? "FAIL    " : "ok      ", field.c_str(), base, cand,
              delta_pct, threshold);
  if (regressed) {
    std::printf("bench_gate: %s regressed %.1f%% beyond the %.0f%% gate — "
                "refresh BENCH_wall.json with bench/record.sh only if the "
                "slowdown is intended\n",
                field.c_str(), delta_pct, threshold);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--overhead") == 0) {
    return run_overhead(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--wall") == 0) {
    return run_wall(argc, argv);
  }
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <candidate.json> "
                 "[threshold_percent]\n       %s --overhead <candidate.json> "
                 "<base_benchmark> <variant_benchmark> [threshold_percent]\n",
                 argv[0], argv[0]);
    return 2;
  }
  const double threshold = argc == 4 ? std::strtod(argv[3], nullptr) : 25.0;
  if (!(threshold > 0)) {
    std::fprintf(stderr, "bench_gate: bad threshold %s\n", argv[3]);
    return 2;
  }

  const HostContext base_host = load_context(argv[1]);
  const HostContext cand_host = load_context(argv[2]);
  if (!(base_host.num_cpus == cand_host.num_cpus) ||
      base_host.cpu_model != cand_host.cpu_model) {
    std::printf(
        "bench_gate: %s was recorded on another host (num_cpus %g, "
        "cpu_model \"%s\") than %s (num_cpus %g, cpu_model \"%s\"); "
        "timings from different hardware are not comparable — re-record "
        "the baseline on this host with bench/record.sh\n",
        argv[1], base_host.num_cpus, base_host.cpu_model.c_str(), argv[2],
        cand_host.num_cpus, cand_host.cpu_model.c_str());
    return 1;
  }

  const auto baseline = load_report(argv[1]);
  const auto candidate = load_report(argv[2]);
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_gate: no benchmarks in baseline %s\n",
                 argv[1]);
    return 2;
  }

  int failures = 0;
  for (const auto& [name, base_ns] : baseline) {
    const auto it = candidate.find(name);
    if (it == candidate.end()) {
      std::printf("MISSING  %-32s (in baseline, not in candidate)\n",
                  name.c_str());
      ++failures;
      continue;
    }
    const double delta_pct = (it->second - base_ns) / base_ns * 100.0;
    const bool regressed = delta_pct > threshold;
    std::printf("%s %-32s %10.1f ns -> %10.1f ns  (%+.1f%%)\n",
                regressed ? "FAIL    " : "ok      ", name.c_str(), base_ns,
                it->second, delta_pct);
    if (regressed) ++failures;
  }
  for (const auto& [name, cpu_ns] : candidate) {
    if (baseline.find(name) == baseline.end()) {
      std::printf("NEW      %-32s %10.1f ns  (no baseline; passes)\n",
                  name.c_str(), cpu_ns);
    }
  }

  if (failures > 0) {
    std::printf("bench_gate: %d regression(s) beyond %.0f%% — refresh the "
                "baseline with bench/record.sh only if the slowdown is "
                "intended\n",
                failures, threshold);
    return 1;
  }
  std::printf("bench_gate: all %zu benchmarks within %.0f%% of baseline\n",
              baseline.size(), threshold);
  return 0;
}
