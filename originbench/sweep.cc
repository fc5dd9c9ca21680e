// The `sweep` workload: a procedural full-Internet L4 sweep
// (ScenarioConfig::full_internet, origin US1, HTTP) through
// scan::run_l4_sweep at jobs = nproc. All L4: permutation, resolve_batch,
// handle_probe_batch and live replay, with no L7, no records and no
// journal. Every sweep's result (stats, counts and order-independent
// digest) must equal one serial sweep's, computed per seed before the
// timed loop.
#include <cstdio>
#include <map>
#include <optional>

#include "common.h"
#include "netbase/rng.h"
#include "scanner/orchestrator.h"
#include "scanner/zmap.h"
#include "sim/internet.h"
#include "sim/scenario.h"

namespace originbench {
namespace {

namespace net = originscan::net;
namespace obsv = originscan::obsv;
namespace proto = originscan::proto;
namespace scan = originscan::scan;
namespace sim = originscan::sim;

constexpr int kSweepBits = 25;
constexpr int kSmallestSweepBits = 20;
constexpr int kSetupRepeats = 7;

// The universe keeps the scenario's default seed, so every run sweeps the
// same Internet (the procedural AS catalog, and with it the size of the
// serial rate-IDS lane, varies a lot between universe seeds); --seed is
// the experiment seed, which draws the sweep's permutation and the trial's
// host liveness.
sim::ScenarioConfig sweep_scenario(const Options& options) {
  return sim::ScenarioConfig::full_internet(
      options.smallest ? kSmallestSweepBits : kSweepBits);
}

// Builds the world kSetupRepeats times (the set-up cost a user pays per
// process) and keeps the last.
sim::World build_world_timed(const Options& options,
                             std::vector<double>& setup_s) {
  const sim::ScenarioConfig config = sweep_scenario(options);
  std::optional<sim::World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto start = Clock::now();
    world.emplace(
        sim::build_world(config, sim::paper_origins(config.universe_size)));
    setup_s.push_back(seconds_since(start));
  }
  return std::move(*world);
}

sim::TrialContext sweep_context(const sim::World& world,
                                const Options& options) {
  sim::TrialContext context;
  context.experiment_seed = scenario_seed(options.seed);
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  return context;
}

struct TimedSweep {
  scan::SweepResult result;
  double seconds = 0.0;
};

TimedSweep sweep_once(const sim::World& world, const Options& options,
                      int jobs, obsv::MetricBlock* metrics = nullptr) {
  sim::PersistentState persistent;
  sim::Internet internet(&world, sweep_context(world, options), &persistent);
  scan::SweepOptions sweep_options;
  sweep_options.jobs = jobs;
  sweep_options.metrics = metrics;
  const auto start = Clock::now();
  TimedSweep sweep;
  sweep.result = scan::run_l4_sweep(internet, world.origin_id("US1"),
                                    proto::Protocol::kHttp, sweep_options);
  sweep.seconds = seconds_since(start);
  return sweep;
}

void check_sweep(Report& report, const Options& options,
                 scan::SweepResult result, const scan::SweepResult& reference,
                 const std::string& what, bool& corrupted) {
  if (options.corrupt == "record" && !corrupted) {
    result.digest ^= 1;
    corrupted = true;
  }
  const bool ok = !result.aborted && result == reference;
  report.check(1, ok ? 0 : 1, what + ": result vs the serial sweep");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int trace_sweep(const Options& options, const sim::World& world,
                const std::vector<double>& setup_s,
                const scan::SweepResult& reference, Report& report) {
  const int jobs = bench_jobs();
  bool corrupted = false;
  std::map<std::string, double> layer;
  layer["sim.build_world_s"] = median(setup_s);

  const TimedSweep untraced = sweep_once(world, options, jobs);
  check_sweep(report, options, untraced.result, reference, "sweep (untraced)",
              corrupted);

  Tracer tracer;
  const std::uint32_t root = tracer.begin("workload.sweep", 0, 0);
  const sim::OriginId origin = world.origin_id("US1");
  const sim::TrialContext context = sweep_context(world, options);
  scan::ZMapConfig zmap_config;
  zmap_config.seed =
      net::mix_u64(context.experiment_seed, context.trial, 0x5EEDAULL);
  zmap_config.universe_size = world.universe_size;
  zmap_config.protocol = proto::Protocol::kHttp;
  zmap_config.source_ips = world.origins[origin].source_ips;

  // The permutation alone, consumed as ZMapScanner::run consumes it.
  {
    ScopedSpan span(&tracer, "scanner.permutation", 0, root);
    layer["scanner.perm_ns_per_addr"] = permutation_ns_per_addr(
        world.universe_size, zmap_config.seed, 1, report);
  }

  // Loss/outage cache construction for the sweep's (origin, protocol).
  {
    sim::PersistentState persistent;
    sim::Internet internet(&world, context, &persistent);
    ScopedSpan span(&tracer, "sim.prewarm", 0, root);
    const auto start = Clock::now();
    internet.prewarm(origin, proto::Protocol::kHttp);
    layer["sim.prewarm_ms"] = seconds_since(start) * 1e3;
  }

  // The workload itself with the library's counters on.
  obsv::MetricBlock block;
  double traced_s = 0.0;
  {
    ScopedSpan span(&tracer, "scan.sweep", 0, root);
    const TimedSweep traced = sweep_once(world, options, jobs, &block);
    traced_s = traced.seconds;
    check_sweep(report, options, traced.result, reference, "sweep (traced)",
                corrupted);
  }

  // One serial ZMapScanner::run over the whole universe, folding the same
  // digest run_l4_sweep folds: the L4 layer's own time per target.
  std::uint64_t targets = 0;
  {
    sim::PersistentState persistent;
    sim::Internet internet(&world, context, &persistent);
    scan::ZMapScanner zmap(zmap_config, &internet, origin);
    scan::SweepResult serial;
    ScopedSpan span(&tracer, "zmap.run", 0, root);
    serial.l4_stats = zmap.run([&serial](const scan::L4Result& l4) {
      const auto probe_second =
          static_cast<std::uint32_t>(l4.probe_time.seconds());
      serial.digest += net::mix_u64(
          l4.addr.value(),
          (static_cast<std::uint64_t>(l4.synack_mask) << 8) | l4.rst_mask,
          probe_second);
      ++serial.responsive;
      if (l4.synack_mask != 0) {
        ++serial.synack_targets;
      } else {
        ++serial.rst_only_targets;
      }
    });
    targets = serial.l4_stats.targets_probed;
    check_sweep(report, options, serial, reference, "ZMapScanner::run",
                corrupted);
  }
  tracer.end(root);

  const auto self = tracer.self_seconds_by_name();
  layer["scanner.l4_ns_per_target"] =
      ratio(self.at("zmap.run") * 1e9, static_cast<double>(targets));
  using obsv::Counter;
  const double hits =
      static_cast<double>(block.counter(Counter::kUniverseBlockCacheHit));
  const double misses =
      static_cast<double>(block.counter(Counter::kUniverseBlockCacheMiss));
  layer["sim.block_cache_hit_ratio"] = ratio(hits, hits + misses);
  layer["sim.live_share"] =
      ratio(static_cast<double>(block.counter(Counter::kSimDropsIds) +
                                block.counter(Counter::kSimResponsesSynack) +
                                block.counter(Counter::kSimResponsesRst)),
            static_cast<double>(block.counter(Counter::kZmapProbesSent)));
  layer["scanner.grabs"] =
      static_cast<double>(block.counter(Counter::kZgrabGrabs));
  layer["trace.overhead_ratio"] = ratio(traced_s, untraced.seconds);
  layer["trace.unattributed_share"] = tracer.unattributed_share(root);
  report.note("untraced_run_s", std::to_string(untraced.seconds));
  report.note("traced_run_s", std::to_string(traced_s));
  write_trace(tracer, options, report);
  emit_per_layer(report, std::move(layer));
  return report.finish(options);
}

}  // namespace

int run_sweep(const Options& options) {
  Report report;
  EndToEnd e2e;
  const sim::World world = build_world_timed(options, e2e.setup_s);
  const TimedSweep reference = sweep_once(world, options, 1);
  if (reference.result.aborted) {
    report.check(1, 1, "serial reference sweep aborted");
  }
  if (options.trace) {
    return trace_sweep(options, world, e2e.setup_s, reference.result, report);
  }

  const int jobs = bench_jobs();
  e2e.low_ms.push_back(reference.seconds * 1e3);
  bool corrupted = false;
  const auto start = Clock::now();
  for (int reps = 0; reps < 3 || seconds_since(start) < options.seconds;
       ++reps) {
    const TimedSweep sweep = sweep_once(world, options, jobs);
    e2e.run_s.push_back(sweep.seconds);
    e2e.high_ms.push_back(sweep.seconds * 1e3);
    check_sweep(report, options, sweep.result, reference.result, "sweep",
                corrupted);
  }
  e2e.max_rps =
      static_cast<double>(reference.result.l4_stats.targets_probed) /
      median(e2e.run_s);
  emit_end_to_end(report, e2e);
  report.note("units", "targets; low = serial sweep, high = jobs " +
                           std::to_string(jobs));
  return report.finish(options);
}

}  // namespace originbench
