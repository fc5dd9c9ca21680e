#include "sim/policy.h"

#include <algorithm>

#include "netbase/rng.h"

namespace originscan::sim {

PolicyEngine::PolicyEngine(const PolicyConfig* config,
                           const std::vector<OriginSpec>* origins,
                           PersistentState* persistent, int trial,
                           std::uint64_t trial_seed,
                           net::VirtualTime scan_duration)
    : config_(config),
      origins_(origins),
      persistent_(persistent),
      trial_(trial),
      trial_seed_(trial_seed),
      scan_duration_(scan_duration) {
  // Pre-insert the IDS entry for every rate-IDS AS so the outer map is
  // never structurally mutated while scans run concurrently (see the
  // PersistentState thread-safety contract).
  if (config_ != nullptr && persistent_ != nullptr) {
    for (const auto& [as, policies] : config_->all()) {
      if (policies.rate_ids) persistent_->ids.try_emplace(as);
    }
  }
}

bool PolicyEngine::rate_ids_applies(AsId as, proto::Protocol protocol) const {
  const AsPolicies* policies = config_->find(as);
  if (policies == nullptr || !policies->rate_ids) return false;
  const RateIdsRule& rule = *policies->rate_ids;
  return !rule.protocol || *rule.protocol == protocol;
}

bool PolicyEngine::host_selected(AsId as, net::Ipv4Addr dst, double fraction,
                                 std::uint64_t rule_tag) const {
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  // Host selection is stable across trials and origins: the same hosts
  // are behind the policy every time (it is the network's config, not a
  // coin flip per packet).
  const std::uint64_t h = net::mix_u64(as, dst.value(), rule_tag, 0x5E1Cu);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

PolicyEngine::L4Decision PolicyEngine::on_probe(OriginId origin,
                                                net::Ipv4Addr src_ip, AsId as,
                                                net::Ipv4Addr dst,
                                                proto::Protocol protocol,
                                                net::VirtualTime t) {
  return on_probe(config_->find(as), origin, src_ip, as, dst, protocol, t);
}

PolicyEngine::L4Decision PolicyEngine::on_probe(const AsPolicies* policies,
                                                OriginId origin,
                                                net::Ipv4Addr src_ip, AsId as,
                                                net::Ipv4Addr dst,
                                                proto::Protocol protocol,
                                                net::VirtualTime t) {
  (void)t;
  if (policies == nullptr) return L4Decision::kAllow;

  // Static blocks at L4.
  for (std::size_t i = 0; i < policies->blocks.size(); ++i) {
    const BlockRule& rule = policies->blocks[i];
    if (rule.mode != BlockMode::kL4Drop) continue;
    if (!mask_has(rule.origins, origin)) continue;
    if (rule.protocol && *rule.protocol != protocol) continue;
    if (trial_ < rule.start_trial) continue;
    if (!host_selected(as, dst, rule.host_fraction, i)) continue;
    return L4Decision::kDrop;
  }

  // Geo restriction: only allowed countries get in at all.
  if (policies->geo) {
    const CountryCode origin_country = (*origins_)[origin].country;
    const auto& allowed = policies->geo->allowed_countries;
    const bool permitted =
        std::find(allowed.begin(), allowed.end(), origin_country) !=
        allowed.end();
    if (!permitted &&
        host_selected(as, dst, policies->geo->host_fraction, 0x6E0u)) {
      return L4Decision::kDrop;
    }
  }

  // Rate IDS: count the probe, then check the block list. The inner
  // counters are shared across concurrent scans from *different* source
  // IPs (per-IP trajectories are order-independent); the sharded lock
  // only serializes the map accesses themselves.
  if (policies->rate_ids) {
    const RateIdsRule& rule = *policies->rate_ids;
    if (!rule.protocol || *rule.protocol == protocol) {
      std::scoped_lock lock(persistent_->ids_lock(as));
      auto& counters = persistent_->ids[as];
      if (auto it = counters.blocked_ips.find(src_ip.value());
          it != counters.blocked_ips.end()) {
        return L4Decision::kDrop;
      }
      const std::uint32_t count = ++counters.probe_counts[src_ip.value()];
      if (count > rule.probe_threshold) {
        counters.blocked_ips.emplace(src_ip.value(), trial_);
        return L4Decision::kDrop;
      }
    }
  }

  return L4Decision::kAllow;
}

PolicyEngine::L7Decision PolicyEngine::on_connection(
    const AsPolicies* policies, OriginId origin, AsId as, net::Ipv4Addr dst,
    proto::Protocol protocol, net::VirtualTime t) const {
  if (policies == nullptr) return L7Decision::kAllow;

  for (std::size_t i = 0; i < policies->blocks.size(); ++i) {
    const BlockRule& rule = policies->blocks[i];
    if (rule.mode == BlockMode::kL4Drop) continue;
    if (!mask_has(rule.origins, origin)) continue;
    if (rule.protocol && *rule.protocol != protocol) continue;
    if (trial_ < rule.start_trial) continue;
    if (!host_selected(as, dst, rule.host_fraction, i)) continue;
    switch (rule.mode) {
      case BlockMode::kL7Drop:
        return L7Decision::kDrop;
      case BlockMode::kRstAfterAccept:
        return L7Decision::kRstAfterAccept;
      case BlockMode::kServeBlockPage:
        return protocol == proto::Protocol::kHttp
                   ? L7Decision::kServeBlockPage
                   : L7Decision::kDrop;
      case BlockMode::kL4Drop:
        break;
    }
  }

  // Temporal RST (Alibaba archetype): active once detection has fired.
  if (auto detect = temporal_rst_time(policies, as, origin, protocol);
      detect && t >= *detect) {
    return L7Decision::kRstAfterAccept;
  }

  return L7Decision::kAllow;
}

std::optional<net::VirtualTime> PolicyEngine::temporal_rst_time(
    const AsPolicies* policies, AsId as, OriginId origin,
    proto::Protocol protocol) const {
  if (policies == nullptr || !policies->temporal_rst) return std::nullopt;
  const TemporalRstRule& rule = *policies->temporal_rst;
  if (rule.protocol != protocol) return std::nullopt;
  if (rule.single_ip_only && !(*origins_)[origin].single_ip()) {
    return std::nullopt;
  }
  // Non-deterministic detection: a fresh draw per (as, origin, trial).
  net::Rng rng(net::mix_u64(trial_seed_, as, origin, 0xA11BABAULL));
  const double fraction =
      rng.uniform(rule.min_detect_fraction, rule.max_detect_fraction);
  return net::VirtualTime::from_seconds(scan_duration_.seconds() * fraction);
}

}  // namespace originscan::sim
