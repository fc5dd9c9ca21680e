#include "scanner/orchestrator.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "netbase/rng.h"

namespace originscan::scan {
namespace {

// One lane's share of a parallel scan: records and banners accumulate
// independently, then merge into the final ScanResult.
struct LaneOutput {
  std::vector<ScanRecord> records;
  std::vector<std::string> banners;
  std::vector<std::uint64_t> attempt_histogram;
  ZMapScanner::Stats stats;
  // This lane's single-writer metric shard; merged (commutatively) into
  // ScanOptions::metrics after the parallel join, so the aggregate is
  // independent of lane count and completion order.
  obsv::MetricBlock metrics;
};

// Bumps the bucket for a grab that took `attempts` handshake attempts.
void record_attempts(std::vector<std::uint64_t>& histogram, int attempts) {
  if (attempts <= 0) return;
  if (histogram.size() < static_cast<std::size_t>(attempts)) {
    histogram.resize(static_cast<std::size_t>(attempts), 0);
  }
  ++histogram[static_cast<std::size_t>(attempts) - 1];
}

// Element-wise histogram sum (parallel lane merge).
void merge_histograms(std::vector<std::uint64_t>& into,
                      const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

// Builds the L4 callback: record the probe result and, if a SYN-ACK
// arrived, schedule the ZGrab follow-up. Shared verbatim by the serial
// sweep and every parallel lane so their per-record behavior cannot
// diverge.
std::function<void(const L4Result&)> make_collector(
    sim::Internet& internet, sim::OriginId origin, ZGrabEngine& zgrab,
    const ScanOptions& options, std::vector<ScanRecord>& records,
    std::vector<std::string>& banners,
    std::vector<std::uint64_t>& attempt_histogram) {
  const sim::World& world = internet.world();
  return [&internet, &zgrab, &options, &records, &banners,
          &attempt_histogram, &world, origin](const L4Result& l4) {
    ScanRecord record;
    record.addr = l4.addr;
    record.synack_mask = l4.synack_mask;
    record.rst_mask = l4.rst_mask;
    record.probe_second =
        static_cast<std::uint32_t>(l4.probe_time.seconds());

    std::string banner;
    if (l4.any_synack()) {
      // ZGrab connects as soon as the first SYN-ACK arrives: one RTT
      // after whichever probe was answered first (delayed second probes
      // shift the handshake with them), plus a small turnaround.
      const auto as = world.as_of(l4.addr);
      net::VirtualTime connect_time = l4.probe_time;
      const int first_answered = __builtin_ctz(l4.synack_mask);
      connect_time += net::VirtualTime::from_micros(
          options.probe_interval.micros() * first_answered);
      if (as) connect_time += internet.rtt(origin, *as);
      connect_time += net::VirtualTime::from_millis(5);

      const L7Result l7 = zgrab.grab(l4.source_ip, l4.addr, connect_time);
      record.l7 = l7.outcome;
      record.explicit_close = l7.explicit_close;
      banner = l7.banner;
      record_attempts(attempt_histogram, l7.attempts);
    }
    records.push_back(record);
    if (options.keep_banners) banners.push_back(std::move(banner));
  };
}

// Emits the scan's virtual-clock phase spans. The shard-lane spans come
// from a canonical 4-way slot partition built here, NOT from the lanes
// that actually executed — the partition is a pure function of the
// permutation, so the trace is byte-identical for any --jobs value (the
// determinism contract in DESIGN.md §9). Runs once per scan, after the
// sweep, and only when tracing is enabled; its extra permutation walk
// never touches the disabled path.
void emit_scan_trace(const ScanOptions& options, const ZMapConfig& zmap_config,
                     const sim::Internet& internet, proto::Protocol protocol,
                     const ScanResult& result) {
  constexpr std::uint32_t kTraceLanes = 4;
  const sim::World& world = internet.world();
  const sim::PolicyEngine& policy = internet.policy_engine();
  const auto defer = [&world, &policy, protocol](net::Ipv4Addr dst) {
    const auto as = world.as_of(dst);
    return as && policy.rate_ids_applies(*as, protocol);
  };
  const ScanSchedule schedule =
      ZMapScanner::build_schedule(zmap_config, kTraceLanes, defer);
  const double spp = 1.0 / zmap_config.effective_pps(zmap_config.universe_size);
  const auto slot_time = [spp](std::uint64_t slot) {
    return net::VirtualTime::from_seconds(static_cast<double>(slot) * spp);
  };
  const std::uint64_t probes = static_cast<std::uint64_t>(zmap_config.probes);
  obsv::TraceRecorder& trace = *options.trace;
  const std::string& track = options.trace_track;

  trace.instant(
      track, "permutation.build", net::VirtualTime{},
      {{"targets", std::to_string(schedule.target_count())},
       {"blocklisted", std::to_string(schedule.blocklisted_skipped)},
       {"deferred", std::to_string(schedule.deferred.size())}});

  const auto lane_span = [&](const std::vector<ScheduledTarget>& lane,
                             const std::string& lane_track,
                             const std::string& name) {
    if (lane.empty()) return;
    trace.span(lane_track, name, slot_time(lane.front().first_packet),
               slot_time(lane.back().first_packet + probes - 1),
               {{"targets", std::to_string(lane.size())}});
  };
  for (std::size_t i = 0; i < schedule.shards.size(); ++i) {
    lane_span(schedule.shards[i], track + "/lane" + std::to_string(i),
              "zmap.lane");
  }
  lane_span(schedule.deferred, track + "/deferred", "zmap.lane.deferred");

  // ZMap's cooldown: after the last packet leaves, the receive thread
  // keeps listening (8 s by default) for stragglers. Our virtual-clock
  // analog is a fixed window after the final schedule slot.
  const std::uint64_t total_packets = schedule.target_count() * probes;
  if (total_packets > 0) {
    const net::VirtualTime sweep_end = slot_time(total_packets - 1);
    trace.span(track, "zmap.cooldown", sweep_end,
               sweep_end + net::VirtualTime::from_seconds(8.0), {});
  }

  // The zgrab wave: the span of probe times across every record whose
  // SYN-ACK triggered an L7 handshake. Records are address-sorted and
  // byte-identical across jobs, so min/max are too.
  bool any_l7 = false;
  std::uint32_t first_second = 0;
  std::uint32_t last_second = 0;
  std::uint64_t grabs = 0;
  for (const ScanRecord& record : result.records) {
    if (record.l7 == sim::L7Outcome::kNotAttempted) continue;
    if (!any_l7 || record.probe_second < first_second) {
      first_second = record.probe_second;
    }
    if (!any_l7 || record.probe_second > last_second) {
      last_second = record.probe_second;
    }
    any_l7 = true;
    ++grabs;
  }
  if (any_l7) {
    trace.span(track, "zgrab.wave",
               net::VirtualTime::from_seconds(first_second),
               net::VirtualTime::from_seconds(last_second),
               {{"grabs", std::to_string(grabs)}});
  }
}

}  // namespace

void finalize(ScanResult& result, bool keep_banners) {
  if (!result.banners.empty() &&
      result.banners.size() != result.records.size()) {
    throw std::logic_error(
        "ScanResult banner/record misalignment: " +
        std::to_string(result.banners.size()) + " banners vs " +
        std::to_string(result.records.size()) + " records");
  }
  std::vector<std::size_t> order(result.records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.records[a].addr < result.records[b].addr;
  });
  std::vector<ScanRecord> sorted_records;
  sorted_records.reserve(result.records.size());
  std::vector<std::string> sorted_banners;
  sorted_banners.reserve(result.banners.size());
  for (std::size_t i : order) {
    sorted_records.push_back(result.records[i]);
    if (keep_banners && !result.banners.empty()) {
      sorted_banners.push_back(std::move(result.banners[i]));
    }
  }
  result.records = std::move(sorted_records);
  result.banners = std::move(sorted_banners);
}

ScanResult run_scan(sim::Internet& internet, sim::OriginId origin,
                    proto::Protocol protocol, const ScanOptions& options) {
  const sim::World& world = internet.world();

  ZMapConfig zmap_config;
  // One permutation seed per trial, shared by every synchronized origin.
  zmap_config.seed = net::mix_u64(internet.context().experiment_seed,
                                  internet.context().trial, 0x5EEDAULL);
  zmap_config.universe_size = world.universe_size;
  zmap_config.protocol = protocol;
  zmap_config.probes = options.probes;
  zmap_config.probe_interval = options.probe_interval;
  zmap_config.scan_duration = options.scan_duration;
  zmap_config.source_ips = world.origins[origin].source_ips;
  zmap_config.blocklist = options.blocklist;
  zmap_config.allowlist = options.target_prefix;
  zmap_config.faults = options.faults;
  zmap_config.cancel = options.cancel;

  ZGrabConfig zgrab_config;
  zgrab_config.protocol = protocol;
  zgrab_config.retry.max_retries = options.l7_retries;
  zgrab_config.retry.retry_banner_failures = options.retry_banner_failures;
  zgrab_config.faults = options.faults;

  ScanResult result;
  result.origin_code = world.origins[origin].code;
  result.protocol = protocol;
  result.trial = internet.context().trial;

  if (options.metrics != nullptr) {
    options.metrics->gauge_max(obsv::Gauge::kScanUniverseSize,
                               world.universe_size);
  }

  const int jobs = std::max(1, options.jobs);
  if (jobs == 1) {
    // Serial path: the one lane writes straight into the caller's block.
    zmap_config.metrics = options.metrics;
    zgrab_config.metrics = options.metrics;
    ZMapScanner zmap(zmap_config, &internet, origin);
    ZGrabEngine zgrab(zgrab_config, &internet, origin);
    result.l4_stats = zmap.run(
        make_collector(internet, origin, zgrab, options, result.records,
                       result.banners, result.attempt_histogram));
    result.aborted = options.cancel != nullptr && options.cancel->cancelled();
    finalize(result, options.keep_banners);
    if (options.trace != nullptr && !result.aborted) {
      emit_scan_trace(options, zmap_config, internet, protocol, result);
    }
    return result;
  }

  // Parallel path: split the sweep into `jobs` shard lanes plus one
  // serial lane for rate-IDS networks (the only order-sensitive state in
  // the simulation — see DESIGN.md). Every lane stamps probes from the
  // same global virtual clock, so the merged, address-sorted result is
  // bit-identical to the serial sweep.
  const sim::PolicyEngine& policy = internet.policy_engine();
  const auto defer = [&world, &policy, protocol](net::Ipv4Addr dst) {
    const auto as = world.as_of(dst);
    return as && policy.rate_ids_applies(*as, protocol);
  };
  const ScanSchedule schedule = ZMapScanner::build_schedule(
      zmap_config, static_cast<std::uint32_t>(jobs), defer);

  // Build the loss/outage caches up front so the lanes never contend on
  // the cache writer lock.
  internet.prewarm(origin, protocol);

  std::vector<LaneOutput> lanes(schedule.shards.size() + 1);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(lanes.size());
  const auto make_lane_task = [&](std::span<const ScheduledTarget> targets,
                                  LaneOutput& lane, bool serial) {
    return [&internet, origin, &zmap_config, &zgrab_config, &options,
            targets, &lane, serial] {
      // Each lane scans through config copies pointing at its own metric
      // shard, keeping the blocks single-writer (nullptr when disabled).
      ZMapConfig lane_zmap = zmap_config;
      ZGrabConfig lane_zgrab = zgrab_config;
      if (options.metrics != nullptr) {
        lane_zmap.metrics = &lane.metrics;
        lane_zgrab.metrics = &lane.metrics;
      }
      ZMapScanner zmap(lane_zmap, &internet, origin);
      ZGrabEngine zgrab(lane_zgrab, &internet, origin);
      const auto collect =
          make_collector(internet, origin, zgrab, options, lane.records,
                         lane.banners, lane.attempt_histogram);
      // The deferred rate-IDS lane stays on the scalar reference path
      // (DESIGN.md §13); shard lanes ride the SoA batch pipeline.
      lane.stats = serial ? zmap.run_scheduled_serial(targets, collect)
                          : zmap.run_scheduled(targets, collect);
    };
  };
  // The deferred lane goes first: it is the one lane that cannot be
  // split, so it should never sit behind shard lanes in the queue.
  tasks.push_back(
      make_lane_task(schedule.deferred, lanes.back(), /*serial=*/true));
  for (std::size_t i = 0; i < schedule.shards.size(); ++i) {
    tasks.push_back(
        make_lane_task(schedule.shards[i], lanes[i], /*serial=*/false));
  }
  core::run_parallel(jobs, std::move(tasks));

  result.aborted = options.cancel != nullptr && options.cancel->cancelled();
  result.l4_stats.blocklisted_skipped = schedule.blocklisted_skipped;
  if (options.metrics != nullptr) {
    // The parallel path filters blocklisted targets in build_schedule
    // rather than per lane, so the counter is credited here, matching
    // what run() counts on the serial path.
    options.metrics->add(obsv::Counter::kZmapBlocklistedSkipped,
                         schedule.blocklisted_skipped);
  }
  std::size_t total_records = 0;
  for (const LaneOutput& lane : lanes) total_records += lane.records.size();
  result.records.reserve(total_records);
  for (LaneOutput& lane : lanes) {
    result.l4_stats += lane.stats;
    merge_histograms(result.attempt_histogram, lane.attempt_histogram);
    if (options.metrics != nullptr) options.metrics->merge_from(lane.metrics);
    result.records.insert(result.records.end(), lane.records.begin(),
                          lane.records.end());
    result.banners.insert(result.banners.end(),
                          std::make_move_iterator(lane.banners.begin()),
                          std::make_move_iterator(lane.banners.end()));
  }
  finalize(result, options.keep_banners);
  if (options.trace != nullptr && !result.aborted) {
    emit_scan_trace(options, zmap_config, internet, protocol, result);
  }
  return result;
}

namespace {

// One lane of a windowed sweep: a scanner constructed once (so its probe
// context, block cache, and metric shard live for the whole sweep) plus
// the lane's commutative accumulators. Folding a result is addition
// only, so the merged totals are independent of lane count and order.
struct SweepLane {
  std::vector<ScheduledTarget> targets;  // this window's share
  ZMapScanner::Stats stats;
  std::uint64_t digest = 0;
  std::uint64_t responsive = 0;
  std::uint64_t synack_targets = 0;
  std::uint64_t rst_only_targets = 0;
  obsv::MetricBlock metrics;
  std::optional<ZMapScanner> scanner;
  std::function<void(const L4Result&)> collect;
};

std::function<void(const L4Result&)> make_sweep_collector(SweepLane& lane) {
  return [&lane](const L4Result& l4) {
    const auto probe_second =
        static_cast<std::uint32_t>(l4.probe_time.seconds());
    lane.digest += net::mix_u64(
        l4.addr.value(),
        (static_cast<std::uint64_t>(l4.synack_mask) << 8) | l4.rst_mask,
        probe_second);
    ++lane.responsive;
    if (l4.synack_mask != 0) {
      ++lane.synack_targets;
    } else {
      ++lane.rst_only_targets;
    }
  };
}

void merge_lane(SweepResult& result, const SweepLane& lane,
                obsv::MetricBlock* metrics) {
  result.l4_stats += lane.stats;
  result.digest += lane.digest;
  result.responsive += lane.responsive;
  result.synack_targets += lane.synack_targets;
  result.rst_only_targets += lane.rst_only_targets;
  if (metrics != nullptr) metrics->merge_from(lane.metrics);
}

}  // namespace

SweepResult run_l4_sweep(sim::Internet& internet, sim::OriginId origin,
                         proto::Protocol protocol,
                         const SweepOptions& options) {
  const sim::World& world = internet.world();

  ZMapConfig zmap_config;
  zmap_config.seed = net::mix_u64(internet.context().experiment_seed,
                                  internet.context().trial, 0x5EEDAULL);
  zmap_config.universe_size = world.universe_size;
  zmap_config.protocol = protocol;
  zmap_config.probes = options.probes;
  zmap_config.probe_interval = options.probe_interval;
  zmap_config.scan_duration = options.scan_duration;
  zmap_config.source_ips = world.origins[origin].source_ips;
  zmap_config.blocklist = options.blocklist;
  zmap_config.cancel = options.cancel;

  SweepResult result;
  if (options.metrics != nullptr) {
    options.metrics->gauge_max(obsv::Gauge::kScanUniverseSize,
                               world.universe_size);
  }

  const int jobs = std::max(1, options.jobs);
  if (jobs == 1) {
    // Serial path: ZMapScanner::run already streams the permutation in
    // batches with O(1) state; fold its results directly.
    SweepLane lane;
    zmap_config.metrics = options.metrics;
    lane.scanner.emplace(zmap_config, &internet, origin);
    lane.stats = lane.scanner->run(make_sweep_collector(lane));
    merge_lane(result, lane, nullptr);  // metrics already wrote through
    result.aborted = options.cancel != nullptr && options.cancel->cancelled();
    return result;
  }

  // Parallel path: consume the permutation in fixed-size windows. Each
  // window fills per-lane target vectors (round-robin; any assignment
  // yields the same result because per-target decisions depend only on
  // the target and its global slot), runs the lanes to a barrier, and
  // reuses the vectors — peak memory is one window, not the universe.
  // Rate-IDS targets go to a dedicated serial lane; windows execute in
  // permutation order, so that lane sees them in global order exactly as
  // the serial sweep would. Procedural catalog networks carry only
  // stateless policies (scenario.cc:build_catalog), so the deferred
  // check needs no per-address derivation above the override boundary.
  const sim::PolicyEngine& policy = internet.policy_engine();
  const auto defer = [&world, &policy, protocol](net::Ipv4Addr dst) {
    if (world.procedural.covers(dst)) return false;
    const auto as = world.topology.as_of(dst);
    return as && policy.rate_ids_applies(*as, protocol);
  };

  internet.prewarm(origin, protocol);

  // lanes[0..jobs) are shard lanes; lanes[jobs] is the deferred lane.
  std::vector<SweepLane> lanes(static_cast<std::size_t>(jobs) + 1);
  for (SweepLane& lane : lanes) {
    ZMapConfig lane_config = zmap_config;
    if (options.metrics != nullptr) lane_config.metrics = &lane.metrics;
    lane.scanner.emplace(lane_config, &internet, origin);
    lane.collect = make_sweep_collector(lane);
  }

  auto group = CyclicGroup::for_size(zmap_config.universe_size,
                                     zmap_config.seed);
  auto iterator = group.all();
  std::array<std::uint32_t, 4096> buffer;
  const std::uint64_t probes = static_cast<std::uint64_t>(zmap_config.probes);
  std::uint64_t emitted = 0;
  std::uint64_t blocklisted = 0;
  std::size_t next_lane = 0;
  bool exhausted = false;

  while (!exhausted) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      result.aborted = true;
      break;
    }
    for (SweepLane& lane : lanes) lane.targets.clear();
    std::uint32_t in_window = 0;
    while (in_window < options.window_targets) {
      const std::size_t filled = iterator.next_batch(buffer);
      if (filled == 0) {
        exhausted = true;
        break;
      }
      for (std::size_t i = 0; i < filled; ++i) {
        const net::Ipv4Addr dst(buffer[i]);
        if (zmap_config.blocklist.is_blocked(dst)) {
          ++blocklisted;
          continue;
        }
        // Global slot of this target's first probe: identical to the
        // serial sweep's targets_sent * probes, stride 1.
        const ScheduledTarget target{dst, emitted * probes};
        ++emitted;
        ++in_window;
        if (defer(dst)) {
          lanes.back().targets.push_back(target);
        } else {
          lanes[next_lane].targets.push_back(target);
          next_lane = (next_lane + 1) % static_cast<std::size_t>(jobs);
        }
      }
    }

    std::vector<std::function<void()>> tasks;
    tasks.reserve(lanes.size());
    const auto add_task = [&tasks](SweepLane& lane, bool serial) {
      if (lane.targets.empty()) return;
      tasks.push_back([&lane, serial] {
        // The deferred rate-IDS lane keeps the scalar reference path;
        // shard lanes ride the SoA batch pipeline (DESIGN.md §13).
        lane.stats +=
            serial ? lane.scanner->run_scheduled_serial(lane.targets,
                                                        lane.collect)
                   : lane.scanner->run_scheduled(lane.targets, lane.collect);
      });
    };
    // Deferred lane first: it cannot be split, so it must not queue
    // behind shard lanes.
    add_task(lanes.back(), /*serial=*/true);
    for (std::size_t i = 0; i + 1 < lanes.size(); ++i) {
      add_task(lanes[i], /*serial=*/false);
    }
    if (!tasks.empty()) core::run_parallel(jobs, std::move(tasks));
  }

  if (options.cancel != nullptr && options.cancel->cancelled()) {
    result.aborted = true;
  }
  for (const SweepLane& lane : lanes) {
    merge_lane(result, lane, options.metrics);
  }
  result.l4_stats.blocklisted_skipped = blocklisted;
  if (options.metrics != nullptr && blocklisted > 0) {
    options.metrics->add(obsv::Counter::kZmapBlocklistedSkipped, blocklisted);
  }
  return result;
}

}  // namespace originscan::scan
