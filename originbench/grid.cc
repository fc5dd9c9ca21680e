// The `grid` and `grid_dist` workloads: the paper's 7 origins x 3
// protocols x 3 trials grid on the materialized paper_default universe,
// run in process (core::Experiment::run at jobs = nproc, followed by the
// analysis the `experiment` CLI runs) or through core::run_distributed
// (2 forked workers x 2 scan jobs) into a fresh core::ExperimentJournal.
//
// Both are checked cell by cell, and by the SHA-256 of
// core::serialize_results, against a reference grid computed per seed
// before the timed loop (see make_reference).
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "core/access_matrix.h"
#include "core/analysis/coverage.h"
#include "core/classify.h"
#include "core/dist.h"
#include "core/experiment.h"
#include "core/journal.h"
#include "core/parallel.h"
#include "core/store.h"
#include "netbase/rng.h"
#include "netbase/sha256.h"
#include "scanner/orchestrator.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "sim/internet.h"

namespace originbench {
namespace {

namespace core = originscan::core;
namespace net = originscan::net;
namespace obsv = originscan::obsv;
namespace proto = originscan::proto;
namespace scan = originscan::scan;
namespace sim = originscan::sim;

constexpr int kDistWorkers = 2;
constexpr int kDistScanJobs = 2;

core::ExperimentConfig grid_config(const Options& options, int jobs) {
  core::ExperimentConfig config;
  config.scenario = sim::ScenarioConfig::paper_default();
  if (options.smallest) config.scenario.universe_size = 1u << 13;
  config.scenario.seed = scenario_seed(options.seed);
  config.jobs = jobs;
  return config;
}

std::string grid_sha256(const std::vector<scan::ScanResult>& results) {
  const std::vector<std::uint8_t> bytes = core::serialize_results(results);
  return net::Sha256::hex(net::Sha256::of(bytes));
}

bool same_cell(const scan::ScanResult& a, const scan::ScanResult& b) {
  return a.origin_code == b.origin_code && a.protocol == b.protocol &&
         a.trial == b.trial && a.records == b.records &&
         a.banners == b.banners && a.l4_stats == b.l4_stats &&
         a.attempt_histogram == b.attempt_histogram && !a.aborted &&
         !b.aborted;
}

// What the analysis stage produced, reduced to numbers a rerun must
// reproduce exactly.
struct AnalysisDigest {
  std::vector<std::uint64_t> union_sizes;
  std::vector<double> coverage;
  std::vector<std::uint64_t> missing;
  bool operator==(const AnalysisDigest&) const = default;
};

// The per-protocol analysis the `experiment` CLI runs after a grid.
AnalysisDigest run_analysis(const core::Experiment& experiment,
                            Tracer* tracer = nullptr,
                            std::uint32_t parent = 0) {
  AnalysisDigest digest;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    std::optional<core::AccessMatrix> matrix;
    {
      ScopedSpan span(tracer, "core.access_matrix", 0, parent);
      matrix.emplace(core::AccessMatrix::build(experiment, protocol));
    }
    std::optional<core::CoverageTable> coverage;
    {
      ScopedSpan span(tracer, "core.coverage", 0, parent);
      coverage.emplace(core::compute_coverage(*matrix));
    }
    std::optional<core::Classification> classification;
    {
      ScopedSpan span(tracer, "core.classification", 0, parent);
      classification.emplace(*matrix);
    }
    digest.union_sizes.insert(digest.union_sizes.end(),
                              coverage->union_size.begin(),
                              coverage->union_size.end());
    for (std::size_t o = 0; o < matrix->origins(); ++o) {
      digest.coverage.push_back(coverage->mean_two_probe(o));
      for (int t = 0; t < matrix->trials(); ++t) {
        const auto counts = classification->breakdown(o, t);
        digest.missing.insert(
            digest.missing.end(),
            {counts.transient_host, counts.transient_net,
             counts.longterm_host, counts.longterm_net, counts.unknown});
      }
    }
  }
  return digest;
}

// Per-cell latency from the experiment's progress lines, which fire as
// each cell completes. In process, a lane (thread) runs cells back to
// back, so a cell's latency is the time since the previous completion on
// the same thread (or since the grid started). The distributed master
// reports completions on its own thread; there an origin's chain runs
// back to back on one worker, so the interval between consecutive
// completions of one origin is a cell's latency — chain heads, whose
// start the master does not see, are skipped.
class CellClock {
 public:
  explicit CellClock(bool by_origin) : by_origin_(by_origin) {}
  // Also records each measured cell as a "<name>" span under `parent`,
  // with the cell's own id.
  void trace_to(Tracer* tracer, const std::string& name,
                std::uint32_t parent) {
    tracer_ = tracer;
    span_name_ = name;
    parent_ = parent;
  }

  void start() { start_ = Clock::now(); }

  void on_progress(std::string_view line) {
    const auto now = Clock::now();
    std::scoped_lock lock(mutex_);
    std::string key;
    if (by_origin_) {
      // "trial N <protocol> <ORIGIN>: ..."
      std::size_t pos = 0;
      for (int field = 0; field < 3 && pos != std::string_view::npos;
           ++field) {
        pos = line.find(' ', pos);
        if (pos != std::string_view::npos) ++pos;
      }
      const std::size_t colon = line.find(':', pos);
      if (pos == std::string_view::npos || colon == std::string_view::npos) {
        return;
      }
      key = std::string(line.substr(pos, colon - pos));
    } else {
      key = std::to_string(
          std::hash<std::thread::id>{}(std::this_thread::get_id()));
    }
    const auto it = last_.find(key);
    if (it == last_.end()) {
      if (!by_origin_) add(line, start_, now);
      last_.emplace(key, now);
    } else {
      add(line, it->second, now);
      it->second = now;
    }
  }

  [[nodiscard]] const std::vector<double>& samples_ms() const {
    return samples_ms_;
  }

 private:
  void add(std::string_view line, Clock::time_point from,
           Clock::time_point to) {
    samples_ms_.push_back(seconds_between(from, to) * 1e3);
    if (tracer_ != nullptr) {
      // The cell's id: its "trial N <protocol> <ORIGIN>" prefix.
      const std::uint64_t id =
          std::hash<std::string_view>{}(line.substr(0, line.find(':')));
      tracer_->record(span_name_, id, parent_, from, to);
    }
  }

  bool by_origin_;
  Tracer* tracer_ = nullptr;
  std::string span_name_;
  std::uint32_t parent_ = 0;
  Clock::time_point start_ = Clock::now();
  std::mutex mutex_;
  std::unordered_map<std::string, Clock::time_point> last_;
  std::vector<double> samples_ms_;
};

struct GridReference {
  std::vector<scan::ScanResult> results;
  std::string sha256;
  AnalysisDigest analysis;
  std::vector<double> cell_ms;  // serial cell latencies
};

// The grid every timed run must reproduce: the serial (jobs = 1) grid,
// computed once per seed before the timed loop.
GridReference make_reference(const Options& options) {
  core::Experiment experiment(grid_config(options, 1));
  CellClock clock(false);
  clock.start();
  experiment.run([&clock](std::string_view line) { clock.on_progress(line); });
  GridReference reference;
  reference.sha256 = grid_sha256(experiment.all_results());
  reference.analysis = run_analysis(experiment);
  reference.results = experiment.all_results();
  reference.cell_ms = clock.samples_ms();
  return reference;
}

// Checks one grid against the reference: every cell compared, lost cells
// counted as failed, and the whole grid's serialized SHA-256 compared.
// The self-test's "record" corruption alters one record of one cell first.
void check_grid(Report& report, const Options& options,
                const std::vector<scan::ScanResult>& results,
                std::size_t lost_cells, const GridReference& reference,
                const std::string& what, bool& corrupted) {
  const std::vector<scan::ScanResult>* checked = &results;
  std::vector<scan::ScanResult> altered;
  if (options.corrupt == "record" && !corrupted) {
    altered = results;
    for (auto& cell : altered) {
      if (!cell.records.empty()) {
        cell.records[cell.records.size() / 2].synack_mask ^= 1;
        break;
      }
    }
    checked = &altered;
    corrupted = true;
  }
  const std::uint64_t cells = reference.results.size();
  std::uint64_t failed = lost_cells;
  if (checked->size() != reference.results.size()) {
    failed = cells;
  } else {
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < cells; ++i) {
      if (!same_cell((*checked)[i], reference.results[i])) ++mismatched;
    }
    failed = std::min<std::uint64_t>(cells, std::max(failed, mismatched));
    if (failed == 0 && grid_sha256(*checked) != reference.sha256) failed = 1;
  }
  report.check(cells, failed, what + ": cells vs the serial reference");
}

std::string fresh_dir(const std::string& stem) {
  static int counter = 0;
  const std::string dir = std::string(kOutDir) + "/" + stem + "-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter++);
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  return dir;
}

void remove_dir(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

bool time_left(Clock::time_point start, const Options& options, int reps,
               int min_reps) {
  return reps < min_reps || seconds_since(start) < options.seconds;
}

// Set-up: constructing the experiment, which builds the world.
constexpr int kSetupRepeats = 7;
std::vector<double> time_setup(const Options& options, int jobs) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    core::Experiment experiment(grid_config(options, jobs));
    setup_s.push_back(seconds_since(start));
  }
  return setup_s;
}

// ---- Traced grid -----------------------------------------------------
// The traced run drives the same cells itself, so that spans can sit
// around each layer: per-trial Internets over the experiment's world and
// one serial chain per origin on `jobs` lanes (as Experiment::run does),
// and per cell sim prewarm, ZMapScanner::run with a collector that times
// every ZGrabEngine::grab, and the final address sort. The collector
// mirrors run_scan's own; the cells must equal the reference's.

struct TracedCell {
  scan::ScanResult result;
  obsv::MetricBlock metrics;
  std::vector<float> grab_us;
  double cell_s = 0.0;
  double grab_s = 0.0;
  std::uint64_t targets = 0;
};

scan::ScanResult traced_scan(sim::Internet& internet, sim::OriginId origin,
                             proto::Protocol protocol,
                             const core::ExperimentConfig& config,
                             TracedCell& cell, Tracer& tracer,
                             std::uint64_t trace_id, std::uint32_t parent) {
  const sim::World& world = internet.world();
  scan::ZMapConfig zmap_config;
  zmap_config.seed = net::mix_u64(internet.context().experiment_seed,
                                  internet.context().trial, 0x5EEDAULL);
  zmap_config.universe_size = world.universe_size;
  zmap_config.protocol = protocol;
  zmap_config.probes = config.probes;
  zmap_config.probe_interval = config.probe_interval;
  zmap_config.scan_duration = config.scan_duration;
  zmap_config.source_ips = world.origins[origin].source_ips;
  zmap_config.blocklist = config.blocklist;
  zmap_config.metrics = &cell.metrics;

  scan::ZGrabConfig zgrab_config;
  zgrab_config.protocol = protocol;
  zgrab_config.retry.max_retries = config.l7_retries;
  zgrab_config.retry.retry_banner_failures = config.retry_banner_failures;
  zgrab_config.metrics = &cell.metrics;

  scan::ScanResult result;
  result.origin_code = world.origins[origin].code;
  result.protocol = protocol;
  result.trial = internet.context().trial;

  scan::ZMapScanner zmap(zmap_config, &internet, origin);
  scan::ZGrabEngine zgrab(zgrab_config, &internet, origin);
  std::int64_t busy_ns = 0;
  std::uint64_t grabs = 0;
  Clock::time_point first_grab{};
  Clock::time_point last_grab{};
  const auto collect = [&](const scan::L4Result& l4) {
    scan::ScanRecord record;
    record.addr = l4.addr;
    record.synack_mask = l4.synack_mask;
    record.rst_mask = l4.rst_mask;
    record.probe_second = static_cast<std::uint32_t>(l4.probe_time.seconds());
    if (l4.any_synack()) {
      const auto as = world.as_of(l4.addr);
      net::VirtualTime connect_time = l4.probe_time;
      const int first_answered = __builtin_ctz(l4.synack_mask);
      connect_time += net::VirtualTime::from_micros(
          config.probe_interval.micros() * first_answered);
      if (as) connect_time += internet.rtt(origin, *as);
      connect_time += net::VirtualTime::from_millis(5);

      const auto start = Clock::now();
      const scan::L7Result l7 = zgrab.grab(l4.source_ip, l4.addr, connect_time);
      const auto end = Clock::now();
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count();
      if (grabs == 0) first_grab = start;
      last_grab = end;
      busy_ns += ns;
      ++grabs;
      cell.grab_us.push_back(static_cast<float>(ns) * 1e-3f);
      record.l7 = l7.outcome;
      record.explicit_close = l7.explicit_close;
      if (l7.attempts > 0) {
        if (result.attempt_histogram.size() <
            static_cast<std::size_t>(l7.attempts)) {
          result.attempt_histogram.resize(
              static_cast<std::size_t>(l7.attempts), 0);
        }
        ++result.attempt_histogram[static_cast<std::size_t>(l7.attempts) - 1];
      }
    }
    result.records.push_back(record);
  };
  {
    ScopedSpan span(&tracer, "zmap.run", trace_id, parent);
    result.l4_stats = zmap.run(collect);
    if (grabs != 0) {
      tracer.aggregate("zgrab.grab", trace_id, span.id(), first_grab,
                       last_grab, busy_ns, grabs);
    }
  }
  {
    ScopedSpan span(&tracer, "scan.finalize", trace_id, parent);
    std::sort(result.records.begin(), result.records.end(),
              [](const scan::ScanRecord& a, const scan::ScanRecord& b) {
                return a.addr < b.addr;
              });
  }
  cell.grab_s = static_cast<double>(busy_ns) * 1e-9;
  return result;
}

struct TracedGrid {
  std::vector<TracedCell> cells;
  double wall_s = 0.0;
};

TracedGrid run_traced_grid(const core::Experiment& host, int jobs,
                           Tracer& tracer, std::uint32_t parent) {
  const core::ExperimentConfig& config = host.config();
  const sim::World& world = host.world();
  sim::PersistentState persistent;
  std::vector<std::unique_ptr<sim::Internet>> internets;
  for (int trial = 0; trial < config.trials; ++trial) {
    sim::TrialContext context;
    context.trial = trial;
    context.experiment_seed = config.scenario.seed;
    context.simultaneous_origins = static_cast<int>(world.origins.size());
    context.scan_duration = config.scan_duration;
    internets.push_back(
        std::make_unique<sim::Internet>(&world, context, &persistent));
  }
  TracedGrid grid;
  grid.cells.resize(host.cell_count());
  const std::size_t origins = world.origins.size();
  const std::size_t protocols = config.protocols.size();
  const auto run_cell = [&](std::size_t slot) {
    const sim::OriginId origin = slot % origins;
    const std::size_t p = (slot / origins) % protocols;
    const int trial = static_cast<int>(slot / (origins * protocols));
    TracedCell& cell = grid.cells[slot];
    const auto start = Clock::now();
    ScopedSpan span(&tracer, "scan.cell", slot + 1, parent);
    sim::Internet& internet = *internets[static_cast<std::size_t>(trial)];
    {
      ScopedSpan prewarm(&tracer, "sim.prewarm", slot + 1, span.id());
      internet.prewarm(origin, config.protocols[p]);
    }
    cell.result = traced_scan(internet, origin, config.protocols[p], config,
                              cell, tracer, slot + 1, span.id());
    cell.targets = cell.result.l4_stats.targets_probed;
    cell.cell_s = seconds_since(start);
  };
  std::vector<std::function<void()>> chains;
  for (std::size_t origin = 0; origin < origins; ++origin) {
    chains.push_back([&, origin] {
      for (int trial = 0; trial < config.trials; ++trial) {
        for (std::size_t p = 0; p < protocols; ++p) {
          run_cell((static_cast<std::size_t>(trial) * protocols + p) *
                       origins +
                   origin);
        }
      }
    });
  }
  const auto start = Clock::now();
  core::run_parallel(jobs, std::move(chains));
  grid.wall_s = seconds_since(start);
  return grid;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Scan-layer metrics from a merged block of the library's own counters.
void scan_counter_metrics(const obsv::MetricBlock& block,
                          std::map<std::string, double>& layer) {
  using obsv::Counter;
  const double hits =
      static_cast<double>(block.counter(Counter::kUniverseBlockCacheHit));
  const double misses =
      static_cast<double>(block.counter(Counter::kUniverseBlockCacheMiss));
  layer["sim.block_cache_hit_ratio"] = ratio(hits, hits + misses);
  // Probes that cleared the batch classifier (forward loss, outage,
  // liveness) and replayed through the scalar path to the policy layer:
  // IDS drops plus delivered answers. Live probes lost on the reverse
  // path share the loss_model counter with forward drops and are left
  // out, so this is a lower bound.
  const double live =
      static_cast<double>(block.counter(Counter::kSimDropsIds) +
                          block.counter(Counter::kSimResponsesSynack) +
                          block.counter(Counter::kSimResponsesRst));
  layer["sim.live_share"] = ratio(
      live, static_cast<double>(block.counter(Counter::kZmapProbesSent)));
  const double grabs = static_cast<double>(block.counter(Counter::kZgrabGrabs));
  layer["scanner.grabs"] = grabs;
  layer["scanner.l7_completed_ratio"] = ratio(
      static_cast<double>(block.counter(Counter::kZgrabCompleted)), grabs);
  layer["scanner.l7_attempts_per_grab"] = ratio(
      static_cast<double>(
          block.histogram_sum(obsv::Histogram::kZgrabAttempts)),
      static_cast<double>(
          block.histogram_count(obsv::Histogram::kZgrabAttempts)));
}

// Records every cell into a fresh journal, one span per commit.
void journal_commits(const core::Experiment& host,
                     const std::vector<scan::ScanResult>& results,
                     Tracer& tracer, std::uint32_t parent,
                     std::map<std::string, double>& layer, Report& report,
                     std::vector<std::string>& leftovers) {
  const std::string dir = fresh_dir("journal");
  std::string error;
  auto journal =
      core::ExperimentJournal::open(dir, host.config_fingerprint(), &error);
  std::uint64_t failed = journal.has_value() ? 0 : results.size();
  obsv::MetricBlock block;
  std::vector<double> commit_ms;
  if (journal.has_value()) {
    for (std::size_t slot = 0; slot < results.size(); ++slot) {
      ScopedSpan span(&tracer, "core.journal_commit", slot + 1, parent);
      const auto start = Clock::now();
      if (!journal->record_done(host.cell_key_at(slot), results[slot],
                                core::IdsSnapshot{}, 1, &block, &error)) {
        ++failed;
      }
      commit_ms.push_back(seconds_since(start) * 1e3);
    }
  }
  report.check(results.size(), failed, "journal commits: " + error);
  const Tail tail = summarize(commit_ms);
  layer["core.journal_commit_ms.p50"] = tail.p50;
  layer["core.journal_commit_ms.p99"] = tail.tail;
  layer["journal.segment_bytes"] = ratio(
      static_cast<double>(
          block.histogram_sum(obsv::Histogram::kJournalSegmentBytes)),
      static_cast<double>(
          block.histogram_count(obsv::Histogram::kJournalSegmentBytes)));
  leftovers.push_back(dir);
}

// One run_distributed grid into a fresh journal; returns its wall time.
double distributed_grid(const Options& options, const GridReference& reference,
                        Report& report, bool& corrupted,
                        obsv::MetricsRegistry* registry,
                        obsv::MetricBlock* dist_block, CellClock* clock,
                        std::vector<std::string>* leftovers = nullptr) {
  core::ExperimentConfig config = grid_config(options, kDistScanJobs);
  config.metrics = registry;
  core::Experiment experiment(config);
  const std::string dir = fresh_dir("dist");
  std::string error;
  auto journal = core::ExperimentJournal::open(
      dir, experiment.config_fingerprint(), &error);
  if (!journal.has_value()) {
    report.check(experiment.cell_count(), experiment.cell_count(),
                 "grid_dist: journal open failed: " + error);
    return 0.0;
  }
  core::DistOptions dist_options;
  dist_options.workers = kDistWorkers;
  std::fflush(stdout);
  std::fflush(stderr);
  const auto start = Clock::now();
  if (clock != nullptr) clock->start();
  const core::RunReport run = core::run_distributed(
      experiment, &*journal, core::SupervisorPolicy{}, dist_options,
      dist_block, [clock](std::string_view line) {
        if (clock != nullptr) clock->on_progress(line);
      });
  const double elapsed = seconds_since(start);
  check_grid(report, options, experiment.all_results(), run.cells_lost,
             reference, "grid_dist", corrupted);
  if (leftovers != nullptr) {
    leftovers->push_back(dir);
  } else {
    remove_dir(dir);
  }
  return elapsed;
}

int trace_grid(const Options& options, const GridReference& reference,
               Report& report) {
  const int jobs = bench_jobs();
  bool corrupted = false;
  std::map<std::string, double> layer;

  // Untraced twin, for the tracing overhead.
  double untraced_s = 0.0;
  {
    core::Experiment experiment(grid_config(options, jobs));
    const auto start = Clock::now();
    experiment.run();
    (void)run_analysis(experiment);
    untraced_s = seconds_since(start);
    check_grid(report, options, experiment.all_results(),
               experiment.lost_cells().size(), reference, "grid (untraced)",
               corrupted);
  }

  Tracer tracer;
  std::vector<double> build_s;
  for (int i = 0; i < 2; ++i) {
    const auto start = Clock::now();
    core::Experiment throwaway(grid_config(options, jobs));
    build_s.push_back(seconds_since(start));
  }
  const auto build_start = Clock::now();
  core::Experiment host(grid_config(options, jobs));
  build_s.push_back(seconds_since(build_start));
  layer["sim.build_world_s"] = median(build_s);

  // Inside the root span only calls into the library; the benchmark's own
  // bookkeeping and output checks come after it.
  const std::uint32_t root = tracer.begin("workload.grid", 0, 0);
  TracedGrid grid = run_traced_grid(host, jobs, tracer, root);
  std::vector<scan::ScanResult> results;
  for (TracedCell& cell : grid.cells) results.push_back(std::move(cell.result));
  {
    ScopedSpan span(&tracer, "core.serialize", 0, root);
    const auto start = Clock::now();
    const std::vector<std::uint8_t> bytes = core::serialize_results(results);
    const double mib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    layer["core.serialize_ms_per_mib"] = ratio(seconds_since(start) * 1e3, mib);
  }
  AnalysisDigest analysis;
  double analysis_s = 0.0;
  bool adopted = false;
  {
    ScopedSpan span(&tracer, "core.analysis", 0, root);
    const auto start = Clock::now();
    adopted = host.adopt_results(std::move(results));
    if (adopted) analysis = run_analysis(host, &tracer, span.id());
    analysis_s = seconds_since(start);
  }
  {
    // The trial-0 permutation, as the grid's first trial walks it.
    ScopedSpan span(&tracer, "scanner.permutation", 0, root);
    layer["scanner.perm_ns_per_addr"] = permutation_ns_per_addr(
        host.world().universe_size,
        net::mix_u64(host.config().scenario.seed, 0, 0x5EEDAULL), 1, report);
  }
  // The journal layer grid_dist loads, timed here where nothing else
  // writes: each cell recorded into a fresh ExperimentJournal.
  std::vector<std::string> leftovers;  // removed after the traced section
  journal_commits(host, host.all_results(), tracer, root, layer, report,
                  leftovers);
  tracer.end(root);
  for (const std::string& dir : leftovers) remove_dir(dir);
  const double traced_s = grid.wall_s + analysis_s;

  report.check(1, adopted ? 0 : 1,
               "grid (traced): adopt_results accepts the grid");
  check_grid(report, options, host.all_results(), 0, reference,
             "grid (traced)", corrupted);
  report.check(1, analysis == reference.analysis ? 0 : 1,
               "grid (traced): analysis vs the serial reference");

  obsv::MetricBlock merged;
  std::map<proto::Protocol, std::vector<double>> grab_us;
  std::map<proto::Protocol, double> grab_s;
  std::map<proto::Protocol, double> cell_s;
  double all_cell_s = 0.0;
  double all_grab_s = 0.0;
  std::uint64_t targets = 0;
  for (std::size_t slot = 0; slot < grid.cells.size(); ++slot) {
    const TracedCell& cell = grid.cells[slot];
    const proto::Protocol protocol = host.cell_key_at(slot).protocol;
    merged.merge_from(cell.metrics);
    auto& us = grab_us[protocol];
    us.insert(us.end(), cell.grab_us.begin(), cell.grab_us.end());
    grab_s[protocol] += cell.grab_s;
    cell_s[protocol] += cell.cell_s;
    all_cell_s += cell.cell_s;
    all_grab_s += cell.grab_s;
    targets += cell.targets;
  }

  const auto self = tracer.self_seconds_by_name();
  const auto self_of = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  layer["sim.prewarm_ms"] = median(tracer.durations("sim.prewarm")) * 1e3;
  layer["scanner.l4_ns_per_target"] =
      ratio(self_of("zmap.run") * 1e9, static_cast<double>(targets));
  for (const auto& [protocol, samples] : grab_us) {
    std::string name(proto::name_of(protocol));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const Tail tail = summarize(samples);
    layer["scanner.l7_us_per_grab." + name + ".p50"] = tail.p50;
    layer["scanner.l7_us_per_grab." + name + ".p99"] = tail.tail;
    layer["scanner.l7_share." + name] =
        ratio(grab_s[protocol], cell_s[protocol]);
  }
  layer["scanner.l7_share"] = ratio(all_grab_s, all_cell_s);
  const std::vector<double> cells = tracer.durations("scan.cell");
  layer["scanner.cell_ms.p50"] = median(cells) * 1e3;
  layer["scanner.cell_ms.max"] =
      cells.empty() ? 0.0 : *std::max_element(cells.begin(), cells.end()) * 1e3;
  layer["core.parallel_eff"] =
      ratio(all_cell_s, static_cast<double>(jobs) * grid.wall_s);
  layer["core.analysis_ms"] = analysis_s * 1e3;
  scan_counter_metrics(merged, layer);
  layer["trace.overhead_ratio"] = ratio(traced_s, untraced_s);
  layer["trace.unattributed_share"] = tracer.unattributed_share(root);
  report.note("untraced_run_s", std::to_string(untraced_s));
  report.note("traced_run_s", std::to_string(traced_s));
  write_trace(tracer, options, report);
  emit_per_layer(report, std::move(layer));
  return report.finish(options);
}

int trace_grid_dist(const Options& options, const GridReference& reference,
                    Report& report) {
  bool corrupted = false;
  std::map<std::string, double> layer;

  // Untraced distributed grid, then the journaled in-process grid at the
  // same thread count: the difference is what distribution costs.
  obsv::MetricBlock untraced_dist_block;
  const double untraced_s =
      distributed_grid(options, reference, report, corrupted, nullptr,
                       &untraced_dist_block, nullptr);
  double journaled_s = 0.0;
  {
    core::Experiment experiment(
        grid_config(options, kDistWorkers * kDistScanJobs));
    const std::string dir = fresh_dir("journaled");
    std::string error;
    auto journal = core::ExperimentJournal::open(
        dir, experiment.config_fingerprint(), &error);
    const auto start = Clock::now();
    const core::RunReport run = experiment.run_journaled(
        journal.has_value() ? &*journal : nullptr);
    journaled_s = seconds_since(start);
    check_grid(report, options, experiment.all_results(), run.cells_lost,
               reference, "journaled grid", corrupted);
    remove_dir(dir);
  }

  // Traced distributed grid: the library's counters on (merged on the
  // master from every worker's METRICS segments), spans around the run
  // and around each cell as the master sees it complete.
  Tracer tracer;
  obsv::MetricsRegistry registry;
  obsv::MetricBlock dist_block;
  std::vector<std::string> leftovers;  // removed after the traced section
  const std::uint32_t root = tracer.begin("workload.grid_dist", 0, 0);
  double traced_s = 0.0;
  {
    ScopedSpan span(&tracer, "core.run_distributed", 0, root);
    CellClock clock(true);
    clock.trace_to(&tracer, "dist.cell", span.id());
    traced_s = distributed_grid(options, reference, report, corrupted,
                                &registry, &dist_block, &clock, &leftovers);
  }
  // The master-side share of the write path: serializing the grid.
  {
    ScopedSpan span(&tracer, "core.serialize", 0, root);
    const auto start = Clock::now();
    const std::vector<std::uint8_t> bytes =
        core::serialize_results(reference.results);
    const double mib = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
    layer["core.serialize_ms_per_mib"] = ratio(seconds_since(start) * 1e3, mib);
  }
  tracer.end(root);
  for (const std::string& dir : leftovers) remove_dir(dir);

  scan_counter_metrics(registry.snapshot(), layer);
  layer["sim.build_world_s"] =
      median(time_setup(options, kDistScanJobs));
  layer["core.dist_overhead_s"] = untraced_s - journaled_s;
  layer["dist.segments_received"] = static_cast<double>(
      dist_block.counter(obsv::Counter::kDistSegmentsReceived));
  layer["trace.overhead_ratio"] = ratio(traced_s, untraced_s);
  layer["trace.unattributed_share"] = tracer.unattributed_share(root);
  report.note("untraced_run_s", std::to_string(untraced_s));
  report.note("journaled_run_s", std::to_string(journaled_s));
  write_trace(tracer, options, report);
  emit_per_layer(report, std::move(layer));
  return report.finish(options);
}

}  // namespace

int run_grid(const Options& options) {
  Report report;
  const GridReference reference = make_reference(options);
  if (options.trace) return trace_grid(options, reference, report);

  const int jobs = bench_jobs();
  EndToEnd e2e;
  e2e.setup_s = time_setup(options, jobs);
  e2e.low_ms = reference.cell_ms;
  bool corrupted = false;
  const auto start = Clock::now();
  for (int reps = 0; time_left(start, options, reps, 3); ++reps) {
    core::Experiment experiment(grid_config(options, jobs));
    CellClock clock(false);
    const auto run_start = Clock::now();
    clock.start();
    experiment.run([&clock](std::string_view line) { clock.on_progress(line); });
    const AnalysisDigest analysis = run_analysis(experiment);
    e2e.run_s.push_back(seconds_since(run_start));
    e2e.high_ms.insert(e2e.high_ms.end(), clock.samples_ms().begin(),
                       clock.samples_ms().end());

    check_grid(report, options, experiment.all_results(),
               experiment.lost_cells().size(), reference, "grid", corrupted);
    report.check(1, analysis == reference.analysis ? 0 : 1,
                 "grid: analysis vs the serial reference");
  }
  e2e.max_rps = static_cast<double>(reference.results.size()) /
                median(e2e.run_s);
  emit_end_to_end(report, e2e);
  report.note("units", "grid cells; low = serial reference, high = jobs " +
                           std::to_string(jobs));
  return report.finish(options);
}

// Each distributed grid leaves a journal of about three fsync'd files per
// cell; removing them is part of the loop (freeing fsync'd blocks is slow
// on some filesystems), so a run usually makes one distributed grid.
int run_grid_dist(const Options& options) {
  Report report;
  const GridReference reference = make_reference(options);
  if (options.trace) return trace_grid_dist(options, reference, report);

  EndToEnd e2e;
  e2e.setup_s = time_setup(options, kDistScanJobs);
  e2e.low_ms = reference.cell_ms;
  bool corrupted = false;
  const auto start = Clock::now();
  for (int reps = 0; time_left(start, options, reps, 1); ++reps) {
    CellClock clock(true);
    e2e.run_s.push_back(distributed_grid(options, reference, report,
                                         corrupted, nullptr, nullptr,
                                         &clock));
    e2e.high_ms.insert(e2e.high_ms.end(), clock.samples_ms().begin(),
                       clock.samples_ms().end());
  }
  e2e.max_rps = static_cast<double>(reference.results.size()) /
                median(e2e.run_s);
  emit_end_to_end(report, e2e);
  report.note("units", "grid cells; low = serial reference, high = " +
                           std::to_string(kDistWorkers) + " workers x " +
                           std::to_string(kDistScanJobs) + " scan jobs");
  return report.finish(options);
}

}  // namespace originbench
