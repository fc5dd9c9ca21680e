// Shared pieces of the originbench benchmark: command-line options, the
// result report (the JSON line printed last), percentile
// summaries, the host/build stamp, and the in-memory span tracer used by
// `--trace 1` runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace originbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Self-test hook: deliberately corrupt one output before it is checked
  // ("record" alters one scan record / the sweep result, "result" flips
  // one byte of one service RESULT). The check must catch it.
  std::string corrupt;
  // Self-test sizing: the smallest inputs each workload accepts.
  bool smallest = false;
};

// Scratch directory (relative to the checkout root) for span files and
// journals; ignored by git.
inline constexpr char kOutDir[] = ".bench_out";

// Median plus the highest percentile that still has at least ten samples
// beyond it (capped at p99); with fewer than 40 samples, where that
// percentile would fall under p75, the tail is the maximum.
struct Tail {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  // the quantile `tail` was taken at
  std::size_t n = 0;
};
Tail summarize(std::vector<double> values);
double median(std::vector<double> values);

// Seed of the simulated universe for a benchmark seed.
std::uint64_t scenario_seed(std::uint64_t seed);

// Worker count a workload runs at: the host's CPU count.
int bench_jobs();

// Peak resident set of this process and of its waited-for children,
// whichever is larger, in MiB.
double peak_rss_mib();

// Collects metrics and output checks and prints the final result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // A latency pair (milliseconds), with the sample count and tail
  // quantile noted on the info line.
  void latency(const std::string& p50_name, const std::string& p99_name,
               const Tail& tail);
  void note(const std::string& key, const std::string& value);
  // Records `attempted` checked operations of which `failed` failed.
  void check(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  // Any failed check makes the run incorrect.
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  [[nodiscard]] double fail_ratio() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  // Prints the stamp line, the info line and the result line; returns the
  // process exit code (non-zero when any output check failed).
  int finish(const Options& options) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Nanoseconds per address of walking a `universe`-sized permutation with
// `seed` through CyclicGroup::Iterator::next_batch, as ZMapScanner::run
// consumes it, `passes` times; checks that each pass covers the universe.
double permutation_ns_per_addr(std::uint32_t universe, std::uint64_t seed,
                               int passes, Report& report);

// ---- Tracing ---------------------------------------------------------
// Spans are recorded from the benchmark's own code around each call into
// a library layer. Every span carries the id of the cell or request it
// belongs to; parents are explicit so spans opened on worker threads can
// hang under a span of the thread that started them. An aggregate span
// stands for `count` back-to-back calls inside its parent (per-grab
// spans would cost more memory than the scan); it covers `busy_ns` of
// the parent.
struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
  std::int64_t busy_ns = -1;  // aggregate spans only
};

class Tracer {
 public:
  Tracer();
  // Opens a span and returns its id (never 0).
  std::uint32_t begin(const std::string& name, std::uint64_t trace_id,
                      std::uint32_t parent);
  void end(std::uint32_t id);
  // Records a finished span with known end points; returns its id.
  std::uint32_t record(const std::string& name, std::uint64_t trace_id,
                       std::uint32_t parent, Clock::time_point start,
                       Clock::time_point end);
  // Records a finished aggregate span.
  void aggregate(const std::string& name, std::uint64_t trace_id,
                 std::uint32_t parent, Clock::time_point start,
                 Clock::time_point end, std::int64_t busy_ns,
                 std::uint64_t count);
  // Nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const;

  // Self time per span: its duration minus the part its children cover
  // (the union of child intervals; aggregate children add their busy
  // time). Summed by span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name() const;
  // Durations (seconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  // Fraction of span `root`'s duration that no child covers.
  [[nodiscard]] double unattributed_share(std::uint32_t root) const;
  // The same fraction for every span with this name.
  [[nodiscard]] std::vector<double> unattributed_shares(
      const std::string& name) const;
  // Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t trace_id,
             std::uint32_t parent)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, trace_id, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Writes the tracer's spans to <kOutDir>/trace-<workload>-<seed>.jsonl and
// notes the path on the report.
void write_trace(const Tracer& tracer, const Options& options, Report& report);

// Per-layer metric names printed by every `--trace 1` run, in order, with
// their units. Layers a workload does not load report 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Fills every per-layer metric missing from `values` with 0 and emits the
// full set on `report`, in per_layer_metrics() order. Call it after the
// last output check: it also reports the run's fail_ratio.
void emit_per_layer(Report& report, std::map<std::string, double> values);

// Emits the end-to-end metric set every untraced run prints.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> low_ms;   // unit latencies at the low load
  std::vector<double> high_ms;  // unit latencies at the high load
  // Set instead of the samples when a workload summarizes them itself.
  std::optional<Tail> low;
  std::optional<Tail> high;
  double max_rps = 0.0;
};
void emit_end_to_end(Report& report, const EndToEnd& e2e);

// Per-workload entry points.
int run_grid(const Options& options);
int run_grid_dist(const Options& options);
int run_sweep(const Options& options);
int run_service(const Options& options);

}  // namespace originbench
