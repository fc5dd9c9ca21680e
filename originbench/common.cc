#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/parallel.h"
#include "netbase/rng.h"
#include "scanner/permutation.h"
#include "scanner/zmap.h"

namespace originbench {
namespace {

// Linearly interpolated quantile of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Tail summarize(std::vector<double> values) {
  Tail tail;
  tail.n = values.size();
  if (values.empty()) return tail;
  tail.p50 = quantile(values, 0.5);
  // Below 40 samples that percentile falls under p75; use the maximum.
  if (values.size() < 40) {
    tail.tail = *std::max_element(values.begin(), values.end());
    tail.tail_q = 1.0;
    return tail;
  }
  const double q =
      std::min(0.99, 1.0 - 10.0 / static_cast<double>(values.size()));
  tail.tail = quantile(std::move(values), q);
  tail.tail_q = q;
  return tail;
}

std::uint64_t scenario_seed(std::uint64_t seed) {
  return originscan::net::mix_u64(seed, 0x05CA9u, 0xBE4Cu);
}

int bench_jobs() { return originscan::core::hardware_jobs(); }

double permutation_ns_per_addr(std::uint32_t universe, std::uint64_t seed,
                               int passes, Report& report) {
  namespace scan = originscan::scan;
  const auto group = scan::CyclicGroup::for_size(universe, seed);
  std::uint32_t buffer[scan::ZMapScanner::kRunBatch];
  std::uint64_t total = 0;
  std::uint64_t short_passes = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    auto iterator = group.all();
    std::uint64_t covered = 0;
    while (const std::size_t n = iterator.next_batch(buffer)) covered += n;
    short_passes += covered == universe ? 0 : 1;
    total += covered;
  }
  const double elapsed = seconds_since(start);
  report.check(static_cast<std::uint64_t>(passes), short_passes,
               "permutation covers the universe");
  return total == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(total);
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// ---- Report ----------------------------------------------------------

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string avx512_flags() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    std::string flags;
    while (words >> word) {
      if (word.rfind("avx512", 0) == 0) {
        if (!flags.empty()) flags += ' ';
        flags += word;
      }
    }
    return flags;
  }
  return "";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::latency(const std::string& p50_name, const std::string& p99_name,
                     const Tail& tail) {
  metric(p50_name, tail.p50, "ms");
  metric(p99_name, tail.tail, "ms");
  note(p99_name, "q=" + number(tail.tail_q) + " n=" + std::to_string(tail.n));
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

void Report::check(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0) {
    std::fprintf(stderr, "originbench: check failed: %s (%llu of %llu)\n",
                 what.c_str(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

int Report::finish(const Options& options) const {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %ld, \"cpu_model\": \"%s\", "
      "\"avx512\": \"%s\", \"build_type\": \"%s\"}}\n",
      json_escape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(cpu_model()).c_str(), avx512_flags().c_str(),
      ORIGINBENCH_BUILD_TYPE);
  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i != 0) info += ", ";
    info += "\"" + json_escape(notes_[i].first) + "\": \"" +
            json_escape(notes_[i].second) + "\"";
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics_[i].first + "\": {\"value\": " +
            number(metrics_[i].second.first) + ", \"unit\": \"" +
            metrics_[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// ---- Tracer ----------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::uint32_t Tracer::begin(const std::string& name, std::uint64_t trace_id,
                            std::uint32_t parent) {
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = parent;
  span.start_ns = now_ns();
  std::scoped_lock lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  std::scoped_lock lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::uint32_t Tracer::record(const std::string& name, std::uint64_t trace_id,
                             std::uint32_t parent, Clock::time_point start,
                             Clock::time_point end) {
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = parent;
  span.start_ns = to_ns(start);
  span.end_ns = to_ns(end);
  std::scoped_lock lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::aggregate(const std::string& name, std::uint64_t trace_id,
                       std::uint32_t parent, Clock::time_point start,
                       Clock::time_point end, std::int64_t busy_ns,
                       std::uint64_t count) {
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = parent;
  span.start_ns = to_ns(start);
  span.end_ns = to_ns(end);
  span.busy_ns = busy_ns;
  span.count = count;
  std::scoped_lock lock(mutex_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (const Span& span : spans_) children[span.parent].push_back(span.id);
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (const Span& span : spans_) {
    const std::int64_t own =
        span.busy_ns >= 0 ? span.busy_ns : span.end_ns - span.start_ns;
    // Union of the real child intervals, clipped to this span; aggregate
    // children cover their busy time.
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    std::int64_t covered = 0;
    for (std::uint32_t child_id : children[span.id]) {
      const Span& child = spans_[child_id - 1];
      if (child.busy_ns >= 0) {
        covered += child.busy_ns;
        continue;
      }
      const std::int64_t lo = std::max(child.start_ns, span.start_ns);
      const std::int64_t hi = std::min(child.end_ns, span.end_ns);
      if (hi > lo) intervals.push_back({lo, hi});
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.id - 1] = std::max<std::int64_t>(0, own - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds_by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> by_name;
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_name;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

namespace {

double uncovered_share(const Span& span, std::int64_t self_ns) {
  const std::int64_t duration = span.end_ns - span.start_ns;
  return duration <= 0 ? 0.0
                       : static_cast<double>(self_ns) /
                             static_cast<double>(duration);
}

}  // namespace

double Tracer::unattributed_share(std::uint32_t root) const {
  const std::vector<std::int64_t> self = self_ns();
  std::scoped_lock lock(mutex_);
  return uncovered_share(spans_[root - 1], self[root - 1]);
}

std::vector<double> Tracer::unattributed_shares(const std::string& name) const {
  const std::vector<std::int64_t> self = self_ns();
  std::scoped_lock lock(mutex_);
  std::vector<double> shares;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      shares.push_back(uncovered_share(spans_[i], self[i]));
    }
  }
  return shares;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::scoped_lock lock(mutex_);
  for (const Span& span : spans_) {
    out << "{\"name\": \"" << span.name << "\", \"trace_id\": "
        << span.trace_id << ", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns;
    if (span.busy_ns >= 0) {
      out << ", \"busy_ns\": " << span.busy_ns << ", \"count\": "
          << span.count;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

void write_trace(const Tracer& tracer, const Options& options,
                 Report& report) {
  std::error_code error;
  std::filesystem::create_directories(kOutDir, error);
  const std::string path = std::string(kOutDir) + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (tracer.write(path)) {
    report.note("trace_file", path);
  } else {
    std::fprintf(stderr, "originbench: could not write %s\n", path.c_str());
  }
}

// ---- Metric sets -----------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.build_world_s", "s"},
      {"sim.prewarm_ms", "ms"},
      {"sim.block_cache_hit_ratio", "ratio"},
      {"sim.live_share", "ratio"},
      {"scanner.perm_ns_per_addr", "ns"},
      {"scanner.l4_ns_per_target", "ns"},
      {"scanner.grabs", "count"},
      {"scanner.l7_us_per_grab.http.p50", "us"},
      {"scanner.l7_us_per_grab.http.p99", "us"},
      {"scanner.l7_us_per_grab.https.p50", "us"},
      {"scanner.l7_us_per_grab.https.p99", "us"},
      {"scanner.l7_us_per_grab.ssh.p50", "us"},
      {"scanner.l7_us_per_grab.ssh.p99", "us"},
      {"scanner.l7_share", "ratio"},
      {"scanner.l7_share.http", "ratio"},
      {"scanner.l7_share.https", "ratio"},
      {"scanner.l7_share.ssh", "ratio"},
      {"scanner.cell_ms.p50", "ms"},
      {"scanner.cell_ms.max", "ms"},
      {"scanner.l7_completed_ratio", "ratio"},
      {"scanner.l7_attempts_per_grab", "count"},
      {"core.parallel_eff", "ratio"},
      {"core.analysis_ms", "ms"},
      {"core.serialize_ms_per_mib", "ms/MiB"},
      {"core.journal_commit_ms.p50", "ms"},
      {"core.journal_commit_ms.p99", "ms"},
      {"journal.segment_bytes", "bytes"},
      {"core.dist_overhead_s", "s"},
      {"dist.segments_received", "count"},
      {"service.exec_ms.p50", "ms"},
      {"service.exec_ms.p99", "ms"},
      {"service.queue_ms.p50", "ms"},
      {"service.queue_ms.p99", "ms"},
      {"service.admit_ms.p50", "ms"},
      {"service.admit_ms.p99", "ms"},
      {"service.inflight_peak", "count"},
      {"service.queue_depth", "count"},
      {"netbase.frame_us_per_result", "us"},
      {"service.result_kib", "KiB"},
      {"gen.late_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed_share", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return kMetrics;
}

void emit_per_layer(Report& report, std::map<std::string, double> values) {
  values["fail_ratio"] = report.fail_ratio();
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    report.metric(name, it == values.end() ? 0.0 : it->second, unit);
    if (it != values.end()) values.erase(it);
  }
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "originbench: unregistered per-layer metric %s\n",
                 name.c_str());
  }
}

void emit_end_to_end(Report& report, const EndToEnd& e2e) {
  report.metric("setup_s", median(e2e.setup_s), "s");
  report.note("setup_s", "n=" + std::to_string(e2e.setup_s.size()));
  report.metric("run_s", median(e2e.run_s), "s");
  std::string samples;
  for (double value : e2e.run_s) samples += " " + number(value);
  report.note("run_s", "n=" + std::to_string(e2e.run_s.size()) + ":" + samples);
  report.latency("p50_ms.low", "p99_ms.low",
                 e2e.low ? *e2e.low : summarize(e2e.low_ms));
  report.latency("p50_ms.high", "p99_ms.high",
                 e2e.high ? *e2e.high : summarize(e2e.high_ms));
  report.metric("max_rps", e2e.max_rps, "1/s");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace originbench
