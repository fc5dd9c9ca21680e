// The policy layer: everything destination networks do *on purpose* to
// scanners. Four mechanisms from the paper:
//
//   * BlockRule      — static blocking of specific origins by an AS
//                      (firewall drop at L4, drop at L7, or a geo page),
//                      optionally only some hosts, optionally phased in
//                      at a later trial (the EGI archetype);
//   * GeoRestriction — only origins in given countries may reach the AS
//                      (Bekkoame/WebCentral "in-country only" archetypes);
//   * RateIdsRule    — an IDS that counts probes per source IP and
//                      permanently blocks IPs that exceed a threshold
//                      (Ruhr-Universität Bochum / SK Broadband archetype;
//                      the mechanism US64 evades by spreading load);
//   * TemporalRstRule— network-wide scan detection that, once tripped,
//                      makes every host RST right after the TCP handshake
//                      (the Alibaba SSH archetype).
//
// RateIds state persists across trials (the paper confirmed Bochum's
// block outlived the triggering scan); it lives in PersistentState owned
// by the experiment, not the per-trial Internet.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "proto/protocol.h"
#include "sim/country.h"
#include "sim/origin.h"
#include "sim/types.h"

namespace originscan::sim {

enum class BlockMode : std::uint8_t {
  kL4Drop,          // SYNs silently dropped (host looks dead)
  kL7Drop,          // TCP completes; connection then hangs (drop)
  kRstAfterAccept,  // TCP completes; immediate RST
  kServeBlockPage,  // HTTP only: serve a "Blocked Site" page instead
};

struct BlockRule {
  OriginMask origins = 0;  // origins the rule applies to
  std::optional<proto::Protocol> protocol;  // nullopt = all protocols
  BlockMode mode = BlockMode::kL4Drop;
  double host_fraction = 1.0;  // fraction of the AS's hosts affected
  int start_trial = 0;         // rule active from this trial onward
};

struct GeoRestriction {
  std::vector<CountryCode> allowed_countries;
  double host_fraction = 1.0;
};

struct RateIdsRule {
  // Probes from one source IP to this AS beyond this count trigger a
  // permanent block of that source IP.
  std::uint32_t probe_threshold = 2000;
  std::optional<proto::Protocol> protocol;  // nullopt = all
};

struct TemporalRstRule {
  proto::Protocol protocol = proto::Protocol::kSsh;
  // Detection time as a fraction of scan duration, drawn uniformly from
  // [min_detect_fraction, max_detect_fraction] per (origin, trial).
  double min_detect_fraction = 0.45;
  double max_detect_fraction = 0.95;
  // Only origins scanning from a single source IP are detected.
  bool single_ip_only = true;
};

// Per-AS policy configuration assembled by the scenario builder.
struct AsPolicies {
  std::vector<BlockRule> blocks;
  std::optional<GeoRestriction> geo;
  std::optional<RateIdsRule> rate_ids;
  std::optional<TemporalRstRule> temporal_rst;
};

class PolicyConfig {
 public:
  void set(AsId as, AsPolicies policies) { per_as_[as] = std::move(policies); }
  [[nodiscard]] const AsPolicies* find(AsId as) const {
    auto it = per_as_.find(as);
    return it == per_as_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] AsPolicies& edit(AsId as) { return per_as_[as]; }
  [[nodiscard]] const std::map<AsId, AsPolicies>& all() const {
    return per_as_;
  }

 private:
  std::map<AsId, AsPolicies> per_as_;
};

// Mutable cross-trial state: IDS probe counters and tripped blocks.
//
// Thread-safety contract: the outer `ids` map is populated once, serially
// (PolicyEngine's constructor pre-inserts an entry per rate-IDS AS), and
// never structurally mutated afterwards. The *inner* counters are guarded
// by a small array of sharded mutexes keyed by AS, so scans from origins
// with disjoint source IPs may feed the IDS concurrently. The locks live
// behind a unique_ptr so the struct stays movable (moving is only done
// while no scan is running).
struct PersistentState {
  struct IdsCounters {
    // probes seen per source IP for one AS
    std::map<std::uint32_t, std::uint32_t> probe_counts;
    // source IPs permanently blocked (value: trial when tripped)
    std::map<std::uint32_t, int> blocked_ips;
  };
  std::map<AsId, IdsCounters> ids;

  [[nodiscard]] std::mutex& ids_lock(AsId as) {
    return (*ids_locks)[as % ids_locks->size()];
  }

 private:
  std::unique_ptr<std::array<std::mutex, 16>> ids_locks =
      std::make_unique<std::array<std::mutex, 16>>();
};

// Per-scan policy evaluator. Consulted by the Internet on every probe and
// connection. Holds const configuration plus a pointer to the persistent
// IDS state it mutates.
class PolicyEngine {
 public:
  PolicyEngine(const PolicyConfig* config,
               const std::vector<OriginSpec>* origins,
               PersistentState* persistent, int trial,
               std::uint64_t trial_seed, net::VirtualTime scan_duration);

  // Decision for a SYN probe. Also feeds the IDS counters.
  enum class L4Decision : std::uint8_t { kAllow, kDrop };
  L4Decision on_probe(OriginId origin, net::Ipv4Addr src_ip, AsId as,
                      net::Ipv4Addr dst, proto::Protocol protocol,
                      net::VirtualTime t);

  // Hot-path variant: the caller already resolved the AS's policies (a
  // ProbeContext caches them per AS), so the per-probe map lookup is
  // skipped. `policies` must be config->find(as) or nullptr.
  L4Decision on_probe(const AsPolicies* policies, OriginId origin,
                      net::Ipv4Addr src_ip, AsId as, net::Ipv4Addr dst,
                      proto::Protocol protocol, net::VirtualTime t);

  // Decision applied once a TCP connection to a host is established.
  enum class L7Decision : std::uint8_t {
    kAllow,
    kDrop,            // hang the connection
    kRstAfterAccept,  // immediate RST
    kServeBlockPage,
  };
  // `policies` must be config->find(as) or nullptr, as for on_probe.
  L7Decision on_connection(const AsPolicies* policies, OriginId origin,
                           AsId as, net::Ipv4Addr dst,
                           proto::Protocol protocol, net::VirtualTime t) const;

  // Alibaba-style detection time for (as, origin) in this trial, if the
  // AS's `policies` (config->find(as) or nullptr) hold a TemporalRstRule
  // that applies to the origin.
  [[nodiscard]] std::optional<net::VirtualTime> temporal_rst_time(
      const AsPolicies* policies, AsId as, OriginId origin,
      proto::Protocol protocol) const;

  // Whether probes to `as` feed a rate-IDS counter for this protocol —
  // i.e. whether on_probe touches order-sensitive shared state. The
  // parallel executor routes such targets to its serial lane.
  [[nodiscard]] bool rate_ids_applies(AsId as,
                                      proto::Protocol protocol) const;

 private:
  // Whether `dst` falls in the rule's affected host fraction
  // (deterministic per (as, dst, rule index)).
  [[nodiscard]] bool host_selected(AsId as, net::Ipv4Addr dst,
                                   double fraction,
                                   std::uint64_t rule_tag) const;

  const PolicyConfig* config_;
  const std::vector<OriginSpec>* origins_;
  PersistentState* persistent_;
  int trial_;
  std::uint64_t trial_seed_;
  net::VirtualTime scan_duration_;
};

}  // namespace originscan::sim
