#include "core/experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "netbase/sha256.h"

namespace originscan::core {
namespace {

std::vector<sim::OriginSpec> roster_for(const ExperimentConfig& config) {
  switch (config.roster) {
    case ExperimentConfig::Roster::kPaper:
      return sim::paper_origins(config.scenario.universe_size);
    case ExperimentConfig::Roster::kPaperWithCarinet:
      return sim::paper_origins_with_carinet(config.scenario.universe_size);
    case ExperimentConfig::Roster::kColocated:
      return sim::colocated_origins(config.scenario.universe_size);
  }
  return sim::paper_origins(config.scenario.universe_size);
}

}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      world_(sim::build_world(config_.scenario, roster_for(config_))) {
  world_.uniform_random_loss = config_.uniform_random_loss;
}

Experiment::Experiment(ExperimentConfig config, sim::World world)
    : config_(std::move(config)), world_(std::move(world)) {
  config_.scenario.seed = world_.seed;
}

std::size_t Experiment::index(int trial, std::size_t protocol_index,
                              sim::OriginId origin) const {
  return (static_cast<std::size_t>(trial) * config_.protocols.size() +
          protocol_index) *
             world_.origins.size() +
         origin;
}

CellKey Experiment::cell_key_at(std::size_t slot) const {
  const std::size_t origin_count = world_.origins.size();
  const std::size_t protocol_count = config_.protocols.size();
  const std::size_t origin = slot % origin_count;
  const std::size_t p = (slot / origin_count) % protocol_count;
  const int trial = static_cast<int>(slot / (origin_count * protocol_count));
  return CellKey{world_.origins[origin].code, config_.protocols[p], trial};
}

// ---- CellEngine ------------------------------------------------------

CellEngine::CellEngine(Experiment& experiment) : experiment_(experiment) {
  // One Internet per trial, created up front: the PolicyEngine
  // constructors pre-insert the persistent IDS map entries serially,
  // before any worker thread can touch them. This must also precede any
  // journal adoption restore — restore_ids writes into those entries.
  const ExperimentConfig& config = experiment_.config_;
  internets_.reserve(static_cast<std::size_t>(config.trials));
  for (int trial = 0; trial < config.trials; ++trial) {
    sim::TrialContext context;
    context.trial = trial;
    context.experiment_seed = config.scenario.seed;
    context.simultaneous_origins =
        static_cast<int>(experiment_.world_.origins.size());
    context.scan_duration = config.scan_duration;
    internets_.push_back(std::make_unique<sim::Internet>(
        &experiment_.world_, context, &experiment_.persistent_));
    internets_.back()->set_fault_injector(config.faults);
  }
}

IdsSnapshot CellEngine::capture_origin(sim::OriginId origin) const {
  return capture_ids(experiment_.persistent_,
                     experiment_.world_.origins[origin].source_ips);
}

void CellEngine::restore_origin(sim::OriginId origin,
                                const IdsSnapshot& snapshot) {
  restore_ids(experiment_.persistent_,
              experiment_.world_.origins[origin].source_ips, snapshot);
}

CellOutcome CellEngine::run_cell(std::size_t slot, CellSupervisor& supervisor,
                                 obsv::MetricBlock* cell_block) {
  const ExperimentConfig& config = experiment_.config_;
  const sim::World& world = experiment_.world_;
  const std::size_t origin_count = world.origins.size();
  const std::size_t protocol_count = config.protocols.size();
  const sim::OriginId origin = slot % origin_count;
  const std::size_t p = (slot / origin_count) % protocol_count;
  const int trial =
      static_cast<int>(slot / (origin_count * protocol_count));
  const CellKey key = experiment_.cell_key_at(slot);
  const std::string track = key.origin_code + "/" +
                            std::string(proto::name_of(key.protocol)) +
                            "/t" + std::to_string(key.trial);
  const auto source_ips =
      std::span<const net::Ipv4Addr>(world.origins[origin].source_ips);

  // Per-cell metric attribution: `attempt_block` is a fresh scratch
  // block per attempt — an aborted attempt's counters are simply thrown
  // away with it, mirroring the IDS rollback. `cell_block` is the cell's
  // durable delta: the supervisor's fault taps, the successful attempt's
  // counters, and the retry accounting.
  obsv::MetricBlock attempt_block;

  CellOutcome outcome = supervisor.run_cell(
      slot,
      [&](const scan::CancelToken& token) {
        // Warm the (origin, protocol) loss/outage caches before the
        // sweep: the scan's ProbeContexts then resolve against warm
        // entries, and neither the probe hot loop nor the ZGrab
        // connect path ever takes the cache writer lock — regardless
        // of how concurrently-running origin chains interleave.
        internets_[static_cast<std::size_t>(trial)]->prewarm(
            origin, config.protocols[p]);
        scan::ScanOptions options;
        options.probes = config.probes;
        options.probe_interval = config.probe_interval;
        options.l7_retries = config.l7_retries;
        options.blocklist = config.blocklist;
        options.scan_duration = config.scan_duration;
        options.retry_banner_failures = config.retry_banner_failures;
        options.faults = config.faults;
        options.cancel = &token;
        options.jobs = scan_jobs_;
        if (cell_block != nullptr) {
          attempt_block = obsv::MetricBlock{};
          options.metrics = &attempt_block;
        }
        options.trace = config.trace;
        options.trace_track = track;
        return scan::run_scan(*internets_[static_cast<std::size_t>(trial)],
                              origin, config.protocols[p], options);
      },
      [&] { return capture_ids(experiment_.persistent_, source_ips); },
      [&](const IdsSnapshot& snapshot) {
        restore_ids(experiment_.persistent_, source_ips, snapshot);
      },
      cell_block);

  if (outcome.status == CellOutcome::Status::kDone && cell_block != nullptr) {
    const std::uint64_t retries =
        static_cast<std::uint64_t>(std::max(0, outcome.attempts - 1));
    cell_block->merge_from(attempt_block);
    cell_block->add(obsv::Counter::kSupervisorRetries, retries);
    if (retries > 0) {
      cell_block->observe(
          obsv::Histogram::kSupervisorBackoffMicros,
          static_cast<std::uint64_t>(outcome.backoff_total.micros()));
    }
  }
  return outcome;
}

void Experiment::run(const std::function<void(std::string_view)>& progress) {
  const RunReport report = run_journaled(nullptr, SupervisorPolicy{}, progress);
  if (report.status == RunReport::Status::kKilled) {
    throw std::runtime_error(
        "experiment killed (" + report.kill_reason +
        "); run with a journal (--resume-dir) to make this recoverable");
  }
}

std::string Experiment::config_fingerprint() const {
  // Canonical description of everything that determines the output.
  // jobs and faults are deliberately excluded: a journal written at one
  // jobs value resumes at any other, and resuming *without* the fault
  // that killed the original run is the whole point.
  std::string canon = "seed=" + std::to_string(config_.scenario.seed);
  canon += ";universe=" + std::to_string(world_.universe_size);
  canon += ";origins=";
  for (const auto& origin : world_.origins) canon += origin.code + ",";
  canon += ";trials=" + std::to_string(config_.trials);
  canon += ";protocols=";
  for (proto::Protocol p : config_.protocols) {
    canon += std::string(proto::name_of(p)) + ",";
  }
  canon += ";probes=" + std::to_string(config_.probes);
  canon +=
      ";probe_interval=" + std::to_string(config_.probe_interval.micros());
  canon += ";l7_retries=" + std::to_string(config_.l7_retries);
  canon += ";uniform_loss=" +
           std::to_string(config_.uniform_random_loss ? 1 : 0);
  canon += ";duration=" + std::to_string(config_.scan_duration.micros());
  canon += ";banner_retry=" +
           std::to_string(config_.retry_banner_failures ? 1 : 0);
  canon += ";blocklist=" + std::to_string(config_.blocklist.blocked_count());
  return net::Sha256::hex(net::Sha256::of(std::span(
      reinterpret_cast<const std::uint8_t*>(canon.data()), canon.size())));
}

Experiment::AdoptionPlan Experiment::adopt_journal(ExperimentJournal& journal) {
  assert(results_.size() == cell_count() && lost_.size() == cell_count());
  const std::size_t protocol_count = config_.protocols.size();
  const std::size_t origin_count = world_.origins.size();

  AdoptionPlan plan;
  plan.adopted.assign(cell_count(), false);
  plan.latest.resize(origin_count);
  plan.have_snapshot.assign(origin_count, false);

  // Every journal entry must map into this grid (the fingerprint check
  // at open makes a mismatch here a corrupt journal, not a config
  // change).
  for (const JournalEntry& entry : journal.entries()) {
    const sim::OriginId origin = world_.origin_id(entry.key.origin_code);
    if (origin == ~sim::OriginId{0}) {
      throw std::runtime_error("journal names unknown origin \"" +
                               entry.key.origin_code + "\"");
    }
    bool known_protocol = false;
    for (proto::Protocol p : config_.protocols) {
      known_protocol = known_protocol || p == entry.key.protocol;
    }
    if (!known_protocol || entry.key.trial < 0 ||
        entry.key.trial >= config_.trials) {
      throw std::runtime_error(
          "journal entry outside the experiment grid: " +
          entry.key.origin_code + " " +
          std::string(proto::name_of(entry.key.protocol)) + " trial " +
          std::to_string(entry.key.trial));
    }
  }

  // Adopt per origin, in chain order. Entries must form a prefix of
  // the origin's chain: the journal appends in execution order, so a
  // gap means lost manifest lines — the IDS snapshots after the gap
  // would no longer describe the state their cells actually saw.
  for (sim::OriginId origin = 0; origin < origin_count; ++origin) {
    bool gap = false;
    // Set when a cell of this origin's chain fails segment/sidecar
    // verification: the cell is quarantined (demoted to absent, re-run on
    // this resume) and every later entry in the chain is demoted with it
    // — their IDS provenance includes the cell that went bad.
    bool quarantined = false;
    for (int trial = 0; trial < config_.trials; ++trial) {
      for (std::size_t p = 0; p < protocol_count; ++p) {
        const CellKey key{world_.origins[origin].code, config_.protocols[p],
                          trial};
        const JournalEntry* entry = journal.find(key);
        const std::size_t slot = index(trial, p, origin);
        if (entry == nullptr) {
          gap = true;
          continue;
        }
        if (quarantined) {
          journal.quarantine(key);
          if (config_.metrics != nullptr) {
            config_.metrics->add(obsv::Counter::kJournalQuarantinedFollowers);
          }
          continue;
        }
        if (gap) {
          throw std::runtime_error(
              "journal for origin " + key.origin_code +
              " is not a chain prefix: cell " +
              std::string(proto::name_of(key.protocol)) + " trial " +
              std::to_string(key.trial) + " follows a missing cell");
        }
        if (entry->status == JournalEntry::Status::kDone) {
          std::string load_error;
          IdsSnapshot snapshot;
          obsv::MetricBlock delta;
          auto result = journal.load_cell(
              *entry, &snapshot, &load_error,
              config_.metrics != nullptr ? &delta : nullptr);
          if (!result.has_value()) {
            // Salvage, not abort: the segment or a sidecar failed CRC /
            // digest / parse checks. Demote the cell to absent — it
            // re-runs from the origin's last good snapshot and its fresh
            // manifest line supersedes the bad one (last-wins replay).
            journal.quarantine(key);
            if (config_.metrics != nullptr) {
              config_.metrics->add(obsv::Counter::kJournalQuarantinedCells);
            }
            if (config_.trace != nullptr) {
              config_.trace->instant(
                  "journal", "journal.quarantine", net::VirtualTime{},
                  {{"cell", key.origin_code + "/" +
                                std::string(proto::name_of(key.protocol)) +
                                "/t" + std::to_string(key.trial)},
                   {"error", load_error}});
            }
            quarantined = true;
            continue;
          }
          // Replaying the cell's persisted delta (instead of its scan)
          // is what makes resumed and uninterrupted runs' snapshots
          // byte-identical.
          if (config_.metrics != nullptr) {
            config_.metrics->merge_block(delta);
          }
          if (config_.trace != nullptr) {
            config_.trace->instant(
                "journal", "journal.replay", net::VirtualTime{},
                {{"cell", key.origin_code + "/" +
                              std::string(proto::name_of(key.protocol)) +
                              "/t" + std::to_string(key.trial)},
                 {"records", std::to_string(result->records.size())}});
          }
          results_[slot] = std::move(*result);
          plan.adopted[slot] = true;
          // The latest done cell's snapshot is cumulative for the origin
          // (serial chain, disjoint source IPs): restoring it puts the
          // IDS exactly where the chain's next un-run cell expects it.
          plan.latest[origin] = std::move(snapshot);
          plan.have_snapshot[origin] = true;
          ++plan.adopted_count;
        } else {
          // A lost cell stays lost on resume: its chain already moved
          // past it, so re-running it now would see later IDS state.
          lost_[slot] = true;
          plan.lost_keys.push_back(key);
        }
      }
    }
  }
  return plan;
}

RunReport Experiment::run_journaled(
    ExperimentJournal* journal, const SupervisorPolicy& policy,
    const std::function<void(std::string_view)>& progress) {
  assert(results_.empty() && "Experiment::run called twice");
  const std::size_t protocol_count = config_.protocols.size();
  const std::size_t origin_count = world_.origins.size();
  const std::size_t total = cell_count();
  results_.resize(total);
  lost_.assign(total, false);

  RunReport report;
  report.cells_total = total;

  // The engine builds the per-trial Internets; construction must precede
  // the snapshot restores below (see CellEngine).
  CellEngine engine(*this);

  const auto cell_key = [&](int trial, std::size_t p,
                            sim::OriginId origin) {
    return CellKey{world_.origins[origin].code, config_.protocols[p], trial};
  };

  std::vector<bool> adopted(total, false);
  if (journal != nullptr) {
    AdoptionPlan plan = adopt_journal(*journal);
    adopted = std::move(plan.adopted);
    report.cells_adopted = plan.adopted_count;
    report.lost = std::move(plan.lost_keys);
    for (sim::OriginId origin = 0; origin < origin_count; ++origin) {
      if (plan.have_snapshot[origin]) {
        engine.restore_origin(origin, plan.latest[origin]);
      }
    }
  }

  CellSupervisor supervisor(policy, config_.faults, config_.scenario.seed);
  std::mutex mutex;  // guards journal appends, report, progress
  std::vector<std::size_t> lost_slots;

  // Chaos hooks: the journal's durable writes consult the injector's
  // enospc / segment_corrupt points; their counts land in `fault_block`
  // (written only under `mutex`, merged into the registry at the end).
  obsv::MetricBlock fault_block;
  if (journal != nullptr) {
    journal->set_fault_injector(
        config_.faults, config_.metrics != nullptr ? &fault_block : nullptr);
  }

  // Runs one cell under the supervisor; false aborts the caller's chain
  // (simulated process death).
  const auto run_cell = [&](int trial, std::size_t p,
                            sim::OriginId origin) -> bool {
    const std::size_t slot = index(trial, p, origin);
    if (adopted[slot]) return true;  // fixed before any lane starts
    const CellKey key = cell_key(trial, p, origin);
    {
      // Other lanes write lost_ and latch the journal's storage_dead
      // under `mutex`, so both are read under it too.
      std::scoped_lock lock(mutex);
      if (lost_[slot]) return true;
      if (journal != nullptr && journal->storage_dead()) {
        // Storage died earlier in this run. Scanning would only burn
        // time on a result that cannot be persisted — fail the cell
        // fast. No manifest line can be written, so a resume on a
        // healthy disk simply re-runs it.
        lost_[slot] = true;
        lost_slots.push_back(slot);
        if (progress) {
          progress("trial " + std::to_string(trial + 1) + " " +
                   std::string(proto::name_of(config_.protocols[p])) + " " +
                   key.origin_code + ": LOST (journal storage dead)");
        }
        return true;
      }
    }
    const std::string track = key.origin_code + "/" +
                              std::string(proto::name_of(key.protocol)) +
                              "/t" + std::to_string(key.trial);
    const auto source_ips =
        std::span<const net::Ipv4Addr>(world_.origins[origin].source_ips);

    // `cell_block` is the cell's durable metric delta: the engine's
    // supervised-scan attribution plus (via record_done) the journal
    // counters. It is persisted with the cell and merged into the
    // registry, so an adopted cell replays exactly what a live run of it
    // would have contributed.
    obsv::MetricBlock cell_block;

    CellOutcome outcome = engine.run_cell(
        slot, supervisor, config_.metrics != nullptr ? &cell_block : nullptr);

    if (outcome.status == CellOutcome::Status::kKilled) {
      // The killed process never writes a snapshot, but its supervisor
      // taps (fault.cell_crash) are still observable in-process.
      if (config_.metrics != nullptr) config_.metrics->merge_block(cell_block);
      return false;
    }

    std::scoped_lock lock(mutex);
    const std::uint64_t retries =
        static_cast<std::uint64_t>(std::max(0, outcome.attempts - 1));
    report.retries += retries;
    if (config_.trace != nullptr) {
      for (std::uint64_t r = 0; r < retries; ++r) {
        config_.trace->instant(track + "/supervisor", "supervisor.retry",
                               net::VirtualTime{},
                               {{"attempt", std::to_string(r + 2)}});
      }
    }
    if (outcome.status == CellOutcome::Status::kDone) {
      if (journal != nullptr && !supervisor.killed()) {
        const IdsSnapshot post = capture_ids(persistent_, source_ips);
        std::string journal_error;
        if (!journal->record_done(
                key, outcome.result, post, outcome.attempts,
                config_.metrics != nullptr ? &cell_block : nullptr,
                &journal_error)) {
          // Storage-exhaustion degradation: the scan completed but its
          // outcome cannot be made durable, so the cell — not the run —
          // fails. It is dropped from the grid (an unpersisted result
          // would silently vanish on resume) and marked lost best-effort;
          // if even that line cannot be appended, the cell is simply
          // absent and a resume on a healthy disk re-runs it.
          fault_block.add(obsv::Counter::kJournalWritesFailed);
          lost_[slot] = true;
          lost_slots.push_back(slot);
          std::string lost_error;
          journal->record_lost(key, outcome.attempts,
                               "journal write failed: " + journal_error,
                               &lost_error);
          if (progress) {
            progress("trial " + std::to_string(trial + 1) + " " +
                     std::string(proto::name_of(config_.protocols[p])) + " " +
                     key.origin_code + ": LOST (journal write failed: " +
                     journal_error + ")");
          }
          return true;
        }
      }
      if (config_.metrics != nullptr) config_.metrics->merge_block(cell_block);
      if (progress) {
        progress("trial " + std::to_string(trial + 1) + " " +
                 std::string(proto::name_of(config_.protocols[p])) + " " +
                 outcome.result.origin_code + ": " +
                 std::to_string(outcome.result.completed_count()) + " hosts");
      }
      results_[slot] = std::move(outcome.result);
      ++report.cells_run;
    } else {  // kLost
      // A lost cell contributes nothing to the registry: on resume it is
      // adopted as lost without re-running, so counting its attempts here
      // would make uninterrupted and resumed snapshots diverge. Its loss
      // is accounted once, deterministically, via experiment.cells_lost
      // at the end of the run.
      lost_[slot] = true;
      lost_slots.push_back(slot);
      if (journal != nullptr && !supervisor.killed()) {
        std::string journal_error;
        if (!journal->record_lost(key, outcome.attempts, outcome.reason,
                                  &journal_error)) {
          // The cell is already lost in-memory; a failed lost-line append
          // just means a resume re-runs it instead of adopting the loss.
          fault_block.add(obsv::Counter::kJournalWritesFailed);
        }
      }
      if (progress) {
        progress("trial " + std::to_string(trial + 1) + " " +
                 std::string(proto::name_of(config_.protocols[p])) + " " +
                 key.origin_code + ": LOST (" + outcome.reason + ")");
      }
    }
    return true;
  };

  const int jobs = std::max(1, config_.jobs);
  if (jobs == 1) {
    bool alive = true;
    for (int trial = 0; alive && trial < config_.trials; ++trial) {
      for (std::size_t p = 0; alive && p < protocol_count; ++p) {
        for (sim::OriginId origin = 0; alive && origin < origin_count;
             ++origin) {
          alive = run_cell(trial, p, origin);
        }
      }
    }
  } else {
    // Parallel fan-out: one serial chain per origin, each running its
    // cells in (trial, protocol) order. An origin's IDS counter keys are
    // its own source IPs, so per-key mutation order — the only thing the
    // simulation's outputs can observe — matches the serial schedule no
    // matter how the chains interleave. Scans inside a chain stay
    // single-threaded (no nested pools).
    std::vector<std::function<void()>> chains;
    chains.reserve(origin_count);
    for (sim::OriginId origin = 0; origin < origin_count; ++origin) {
      chains.push_back([this, &run_cell, &protocol_count, origin] {
        for (int trial = 0; trial < config_.trials; ++trial) {
          for (std::size_t p = 0; p < protocol_count; ++p) {
            if (!run_cell(trial, p, origin)) return;
          }
        }
      });
    }
    run_parallel(jobs, std::move(chains));
  }

  if (supervisor.killed()) {
    // Simulated process death: the in-memory grid is as gone as it would
    // be under a real SIGKILL. Everything recoverable lives in the
    // journal; resume with a fresh Experiment over the same journal dir.
    results_.clear();
    lost_.clear();
    report.status = RunReport::Status::kKilled;
    report.kill_reason = "cell_crash fault";
    if (config_.metrics != nullptr) config_.metrics->merge_block(fault_block);
    return report;
  }

  // Lost cells adopted from the journal are already in report.lost (in
  // chain order); add the freshly lost ones and normalize to grid order.
  for (std::size_t slot : lost_slots) {
    const std::size_t origin = slot % origin_count;
    const std::size_t p = (slot / origin_count) % protocol_count;
    const int trial = static_cast<int>(slot / (origin_count * protocol_count));
    report.lost.push_back(cell_key(trial, p, origin));
  }
  std::sort(report.lost.begin(), report.lost.end(),
            [&](const CellKey& a, const CellKey& b) {
              const auto slot_of = [&](const CellKey& k) {
                std::size_t p = 0;
                for (std::size_t i = 0; i < protocol_count; ++i) {
                  if (config_.protocols[i] == k.protocol) p = i;
                }
                return index(k.trial, p, world_.origin_id(k.origin_code));
              };
              return slot_of(a) < slot_of(b);
            });
  report.cells_lost = report.lost.size();
  report.status = report.lost.empty() ? RunReport::Status::kComplete
                                      : RunReport::Status::kPartial;
  if (config_.metrics != nullptr) {
    // Grid-level figures come from the final report, which is identical
    // for resumed and uninterrupted runs by construction.
    config_.metrics->gauge_max(obsv::Gauge::kExperimentCellsTotal, total);
    config_.metrics->add(obsv::Counter::kExperimentCellsLost,
                         report.cells_lost);
    config_.metrics->merge_block(fault_block);
  }
  return report;
}

bool Experiment::adopt_results(std::vector<scan::ScanResult> results) {
  return adopt_results(std::move(results), nullptr);
}

bool Experiment::adopt_results(std::vector<scan::ScanResult> results,
                               std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  const auto cell_name = [this](int trial, proto::Protocol protocol,
                                std::string_view code) {
    return std::string(code) + " " + std::string(proto::name_of(protocol)) +
           " trial " + std::to_string(trial);
  };

  if (!results_.empty()) return fail("experiment has already run");
  const std::size_t expected = static_cast<std::size_t>(config_.trials) *
                               config_.protocols.size() *
                               world_.origins.size();
  if (results.size() != expected) {
    return fail("expected " + std::to_string(expected) + " results (" +
                std::to_string(config_.trials) + " trials x " +
                std::to_string(config_.protocols.size()) + " protocols x " +
                std::to_string(world_.origins.size()) + " origins), got " +
                std::to_string(results.size()));
  }

  std::vector<scan::ScanResult> arranged(expected);
  std::vector<bool> filled(expected, false);
  for (auto& result : results) {
    const sim::OriginId origin = world_.origin_id(result.origin_code);
    if (origin == ~sim::OriginId{0}) {
      std::string roster;
      for (const auto& spec : world_.origins) {
        if (!roster.empty()) roster += " ";
        roster += spec.code;
      }
      return fail("unknown origin code \"" + result.origin_code +
                  "\" (roster: " + roster + ")");
    }
    std::size_t protocol_index = config_.protocols.size();
    for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
      if (config_.protocols[p] == result.protocol) protocol_index = p;
    }
    if (protocol_index == config_.protocols.size()) {
      return fail("protocol " + std::string(proto::name_of(result.protocol)) +
                  " is not part of this experiment");
    }
    if (result.trial < 0 || result.trial >= config_.trials) {
      return fail("trial " + std::to_string(result.trial) +
                  " outside 0.." + std::to_string(config_.trials - 1) +
                  " for cell " +
                  cell_name(result.trial, result.protocol,
                            result.origin_code));
    }
    const std::size_t slot = index(result.trial, protocol_index, origin);
    if (filled[slot]) {
      return fail("duplicate cell " + cell_name(result.trial, result.protocol,
                                                result.origin_code));
    }
    arranged[slot] = std::move(result);
    filled[slot] = true;
  }
  for (std::size_t slot = 0; slot < filled.size(); ++slot) {
    if (!filled[slot]) {
      const std::size_t origin = slot % world_.origins.size();
      const std::size_t p =
          (slot / world_.origins.size()) % config_.protocols.size();
      const int trial = static_cast<int>(
          slot / (world_.origins.size() * config_.protocols.size()));
      return fail("missing cell " +
                  cell_name(trial, config_.protocols[p],
                            world_.origins[origin].code));
    }
  }
  results_ = std::move(arranged);
  lost_.assign(expected, false);
  return true;
}

bool Experiment::has_cell(int trial, proto::Protocol protocol,
                          sim::OriginId origin) const {
  if (results_.empty()) return false;
  for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
    if (config_.protocols[p] == protocol) {
      const std::size_t slot = index(trial, p, origin);
      return lost_.empty() || !lost_[slot];
    }
  }
  return false;
}

std::vector<CellKey> Experiment::lost_cells() const {
  std::vector<CellKey> lost;
  if (results_.empty() || lost_.empty()) return lost;
  for (int trial = 0; trial < config_.trials; ++trial) {
    for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
      for (sim::OriginId origin = 0; origin < world_.origins.size();
           ++origin) {
        if (lost_[index(trial, p, origin)]) {
          lost.push_back(CellKey{world_.origins[origin].code,
                                 config_.protocols[p], trial});
        }
      }
    }
  }
  return lost;
}

const scan::ScanResult& Experiment::result(int trial,
                                           proto::Protocol protocol,
                                           sim::OriginId origin) const {
  for (std::size_t p = 0; p < config_.protocols.size(); ++p) {
    if (config_.protocols[p] == protocol) {
      return results_.at(index(trial, p, origin));
    }
  }
  throw std::out_of_range("protocol not part of this experiment");
}

scan::ScanResult Experiment::run_extra_scan(int trial,
                                            proto::Protocol protocol,
                                            sim::OriginId origin,
                                            const scan::ScanOptions& options) {
  sim::TrialContext context;
  context.trial = trial;
  context.experiment_seed = config_.scenario.seed;
  // Extra scans are one-origin follow-ups: no synchronized burst.
  context.simultaneous_origins = 1;
  context.scan_duration = options.scan_duration;
  sim::Internet internet(&world_, context, &persistent_);
  internet.set_fault_injector(config_.faults);
  return scan::run_scan(internet, origin, protocol, options);
}

}  // namespace originscan::core
