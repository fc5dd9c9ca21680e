// Runs one complete ZMap + ZGrab scan (one origin x protocol x trial)
// against a simulated Internet and produces the per-host records that the
// analysis layer consumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "obsv/trace.h"
#include "proto/protocol.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "sim/internet.h"

namespace originscan::scan {

// One responsive target, as recorded by a scan. Kept POD-small: a full
// experiment holds tens of millions of these.
struct ScanRecord {
  net::Ipv4Addr addr;
  std::uint8_t synack_mask = 0;  // which of the back-to-back probes answered
  std::uint8_t rst_mask = 0;
  sim::L7Outcome l7 = sim::L7Outcome::kNotAttempted;
  bool explicit_close = false;
  std::uint32_t probe_second = 0;  // probe time, seconds from scan start

  [[nodiscard]] bool l7_completed() const {
    return l7 == sim::L7Outcome::kCompleted;
  }
  [[nodiscard]] std::uint32_t probe_hour() const {
    return probe_second / 3600;
  }

  friend bool operator==(const ScanRecord&, const ScanRecord&) = default;
};

struct ScanResult {
  std::string origin_code;
  proto::Protocol protocol{};
  int trial = 0;
  std::vector<ScanRecord> records;  // sorted by address
  // Parallel to `records` when ScanOptions::keep_banners was set;
  // empty otherwise.
  std::vector<std::string> banners;
  ZMapScanner::Stats l4_stats;
  // Bucket k counts the L7 grabs that needed exactly k + 1 handshake
  // attempts (the Section-6 MaxStartups retry analysis reads this).
  // Side statistics only — deliberately not part of ScanRecord, so the
  // store format and record-level byte-identity are unaffected.
  std::vector<std::uint64_t> attempt_histogram;
  // True when the scan was cut short by a tripped CancelToken. An
  // aborted result is an arbitrary truncation — callers must discard it,
  // never persist or analyze it. Not serialized.
  bool aborted = false;

  [[nodiscard]] std::uint64_t grabs_attempted() const {
    std::uint64_t total = 0;
    for (std::uint64_t bucket : attempt_histogram) total += bucket;
    return total;
  }

  [[nodiscard]] std::size_t completed_count() const {
    std::size_t count = 0;
    for (const auto& record : records) {
      if (record.l7_completed()) ++count;
    }
    return count;
  }
};

struct ScanOptions {
  int probes = 2;
  // Spacing between probes to one target (see ZMapConfig::probe_interval).
  net::VirtualTime probe_interval;
  int l7_retries = 0;
  Blocklist blocklist;
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
  // Restrict the sweep to one prefix (Section-6 retry experiment).
  std::optional<net::Prefix> target_prefix;
  // Record L7 banners (page titles / TLS suites / SSH versions).
  bool keep_banners = false;
  // Worker threads for this one scan. With jobs > 1 the sweep is split
  // into shard lanes that run concurrently and merge into the canonical
  // address-sorted result; the output is bit-identical to jobs == 1 (see
  // "Parallel execution" in DESIGN.md).
  int jobs = 1;
  // Extend the L7 retry ladder to banner-level failures (read timeouts,
  // truncated banners, mid-handshake closes); see RetryPolicy.
  bool retry_banner_failures = false;
  // Deterministic fault injection, threaded into both scan engines.
  // Fault decisions are pure functions of (seed, slot/host), so they
  // commute with the parallel lanes. Null = no faults.
  const fault::FaultInjector* faults = nullptr;
  // Cooperative cancellation: every shard lane polls this token per
  // target batch, and a tripped token marks the result aborted. Null =
  // uncancellable.
  const CancelToken* cancel = nullptr;
  // Observability (both null by default = disabled at zero cost).
  // `metrics` receives this scan's counters: the serial path writes into
  // it directly; the parallel path gives each lane its own single-writer
  // block and merges them (commutatively) after the join, so the totals
  // are byte-identical for any jobs value.
  obsv::MetricBlock* metrics = nullptr;
  // `trace` receives virtual-clock phase spans (permutation build, the
  // canonical 4-way shard-lane partition, cooldown, zgrab wave). The
  // trace describes the scan's logical schedule — a pure function of
  // (world, config, seed) — so it too is identical for any jobs value.
  obsv::TraceRecorder* trace = nullptr;
  // Track-name prefix for this scan's trace spans (e.g. "US1/http/t0").
  std::string trace_track = "scan";
};

// Sorts records (and any parallel banners) by address: the last step of
// every scan. The banner vector must stay pair-aligned with the records
// — an empty banner vector means "banners not kept", anything else must
// match exactly (std::logic_error otherwise), or a merged result would
// silently associate banners with the wrong hosts.
void finalize(ScanResult& result, bool keep_banners);

// Scans the Internet's whole universe from `origin`.
ScanResult run_scan(sim::Internet& internet, sim::OriginId origin,
                    proto::Protocol protocol, const ScanOptions& options = {});

// ---- Full-universe L4 sweep -----------------------------------------
// run_scan materializes one ScanRecord per responsive target and (with
// jobs > 1) a full precomputed schedule — both O(universe) in memory,
// fine up to ~2^24 but hopeless for a 4.3-billion-address sweep.
// run_l4_sweep is the bounded-RSS alternative for procedural universes:
// L4 only (no ZGrab wave), results folded into commutative aggregates
// (counts and an order-independent digest) instead of being stored, and
// the parallel path consumes the permutation in fixed-size windows so
// peak memory is O(jobs * window_targets) regardless of universe size.
//
// Determinism: every probe decision is a pure function of its target
// and global schedule slot, and both are identical for any `jobs`; only
// rate-IDS networks carry cross-target state, and those targets run on
// one serial lane in global permutation order. The digest is a sum over
// per-target hashes, so lane assignment and completion order cannot
// change it: SweepResult compares equal across `--jobs` values.
struct SweepOptions {
  int probes = 2;
  net::VirtualTime probe_interval;
  Blocklist blocklist;
  net::VirtualTime scan_duration = net::VirtualTime::from_hours(21);
  int jobs = 1;
  // Targets dispatched per parallel window (the RSS knob). Each window
  // barriers, so smaller windows trade join overhead for memory.
  std::uint32_t window_targets = 1u << 18;
  const CancelToken* cancel = nullptr;
  obsv::MetricBlock* metrics = nullptr;
};

struct SweepResult {
  ZMapScanner::Stats l4_stats;
  std::uint64_t responsive = 0;      // targets with >= 1 validated answer
  std::uint64_t synack_targets = 0;  // ... answering with a SYN-ACK
  std::uint64_t rst_only_targets = 0;
  // Order-independent checksum of the full result stream: the wrapping
  // sum of mix(addr, masks, probe_second) over every responsive target.
  // Equal digests mean equal per-target outcomes and timestamps.
  std::uint64_t digest = 0;
  bool aborted = false;

  friend bool operator==(const SweepResult&, const SweepResult&) = default;
};

SweepResult run_l4_sweep(sim::Internet& internet, sim::OriginId origin,
                         proto::Protocol protocol,
                         const SweepOptions& options = {});

}  // namespace originscan::scan
