#include "sim/internet.h"

#include <cassert>
#include <cmath>
#include <utility>
#include <variant>

#include "netbase/rng.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define OSN_FWD_DRAW_AVX512 1
#include <immintrin.h>
#endif

namespace originscan::sim {
namespace {

// Probability that a TCP connect (SYN + kernel retransmits within the
// ZGrab timeout) fails outright, given the instantaneous path loss p.
// Two effective attempts fit in the timeout window.
double connect_failure_probability(double loss) { return loss * loss; }

double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

#ifdef OSN_FWD_DRAW_AVX512

// Vector replica of net::splitmix64's output mix (the caller advances
// the state by the golden constant itself). Integer ops are exact, so
// the lanes are bit-identical to the scalar kernel.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m256i
splitmix_out4(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = _mm256_mullo_epi64(z, _mm256_set1_epi64x(0xBF58476D1CE4E5B9LL));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = _mm256_mullo_epi64(z, _mm256_set1_epi64x(0x94D049BB133111EBLL));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// Four-lane mix_u64(a, b, c, d) with vector b; c and d enter pre-folded
// with their stage constants (cc = c + 0xC2B2…, dd = d + 0x1656…) so
// the per-call work is adds, xors, and the splitmix output mix.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m256i
mix4(__m256i a, __m256i b, __m256i cc, __m256i dd) {
  const __m256i golden = _mm256_set1_epi64x(
      static_cast<long long>(0x9E3779B97F4A7C15ULL));
  __m256i state = _mm256_add_epi64(a, golden);
  __m256i out = splitmix_out4(state);
  state = _mm256_add_epi64(
      _mm256_xor_si256(state, _mm256_add_epi64(b, golden)), golden);
  out = _mm256_xor_si256(out, splitmix_out4(state));
  state = _mm256_add_epi64(_mm256_xor_si256(state, cc), golden);
  out = _mm256_xor_si256(out, splitmix_out4(state));
  state = _mm256_add_epi64(_mm256_xor_si256(state, dd), golden);
  return _mm256_xor_si256(out, splitmix_out4(state));
}

__attribute__((target("avx512f,avx512dq,avx512vl"))) void fwd_draws_avx512(
    const net::Ipv4Addr* addr, const AsId* as,
    const std::uint64_t* seed_by_as, AsId as_count, std::uint64_t origin,
    int n, int probes, double* fwd_draw) {
  // Stage constants of the two chained mixes, pre-folded: the key mix is
  // mix(addr, p, origin, 0xF0D0), the draw mix is mix(seed, key, 0xD60B).
  const __m256i key_cc = _mm256_set1_epi64x(
      static_cast<long long>(origin + 0xC2B2AE3D27D4EB4FULL));
  const __m256i key_dd = _mm256_set1_epi64x(
      static_cast<long long>(0xF0D0ULL + 0x165667B19E3779F9ULL));
  const __m256i draw_cc = _mm256_set1_epi64x(
      static_cast<long long>(0xD60BULL + 0xC2B2AE3D27D4EB4FULL));
  const __m256i draw_dd = _mm256_set1_epi64x(
      static_cast<long long>(0x165667B19E3779F9ULL));
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t addr4[4];
    alignas(32) std::uint64_t seed4[4];
    for (int lane = 0; lane < 4; ++lane) {
      addr4[lane] = addr[i + lane].value();
      const AsId lane_as = as[i + lane];
      seed4[lane] = lane_as < as_count ? seed_by_as[lane_as] : 0;
    }
    const __m256i addr_v = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(addr4)));
    const __m256i seed_v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(seed4));
    for (int p = 0; p < probes; ++p) {
      const __m256i key =
          mix4(addr_v, _mm256_set1_epi64x(p), key_cc, key_dd);
      const __m256i hash = mix4(seed_v, key, draw_cc, draw_dd);
      // hash01, lane-exact: (double)(h >> 11) is exact below 2^53 and
      // the 2^-53 scale is a power of two, so vector FP == scalar FP.
      const __m256d draw =
          _mm256_mul_pd(_mm256_cvtepu64_pd(_mm256_srli_epi64(hash, 11)),
                        scale);
      _mm256_storeu_pd(fwd_draw + p * ProbeBatch::kCapacity + i, draw);
    }
  }
  for (; i < n; ++i) {
    const AsId lane_as = as[i];
    const std::uint64_t seed = lane_as < as_count ? seed_by_as[lane_as] : 0;
    for (int p = 0; p < probes; ++p) {
      const std::uint64_t key =
          net::mix_u64(addr[i].value(), static_cast<std::uint64_t>(p),
                       origin, 0xF0D0u);
      fwd_draw[p * ProbeBatch::kCapacity + i] =
          hash01(net::mix_u64(seed, key, 0xD60Bu));
    }
  }
}

#endif  // OSN_FWD_DRAW_AVX512

}  // namespace

namespace detail {

bool fwd_draws_vectorized(const net::Ipv4Addr* addr, const AsId* as,
                          const std::uint64_t* seed_by_as, AsId as_count,
                          std::uint64_t origin, int n, int probes,
                          double* fwd_draw) {
#ifdef OSN_FWD_DRAW_AVX512
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl");
  if (!supported) return false;
  fwd_draws_avx512(addr, as, seed_by_as, as_count, origin, n, probes,
                   fwd_draw);
  return true;
#else
  (void)addr;
  (void)as;
  (void)seed_by_as;
  (void)as_count;
  (void)origin;
  (void)n;
  (void)probes;
  (void)fwd_draw;
  return false;
#endif
}

}  // namespace detail

void Connection::clear() {
  server_ = NoServer{};
  in_.clear();
  out_.clear();
  out_drained_ = false;
  peer_closed_ = false;
  peer_reset_ = false;
  hung_ = false;
}

void Connection::open(Server server) {
  clear();
  server_ = server;
  hung_ = std::holds_alternative<NoServer>(server_);
  std::visit([this](auto& peer) { peer_closed_ = peer.on_open(); }, server_);
}

std::vector<std::uint8_t>& Connection::unread() {
  if (out_drained_) {
    out_.clear();
    out_drained_ = false;
  }
  return out_;
}

std::span<const std::uint8_t> Connection::read() {
  std::vector<std::uint8_t>& out = unread();
  std::visit([&out](auto& peer) { peer.write_reply(out); }, server_);
  out_drained_ = true;
  return out_;
}

void Connection::send(std::span<const std::uint8_t> data) {
  if (peer_closed_ || peer_reset_ || hung_) return;
  std::visit(
      [&](auto& peer) {
        // A reply the client has not read yet was sent before anything
        // these bytes provoke.
        peer.write_reply(unread());
        in_.insert(in_.end(), data.begin(), data.end());
        peer_closed_ = peer.on_bytes(in_);
      },
      server_);
}

Internet::Internet(const World* world, const TrialContext& context,
                   PersistentState* persistent)
    : world_(world),
      context_(context),
      policy_engine_(&world->policies, &world->origins, persistent,
                     context.trial,
                     net::mix_u64(context.experiment_seed, context.trial,
                                  0x7121A1ULL),
                     context.scan_duration) {
  assert(world_->topology.frozen());
}

const PathLossModel& Internet::loss_model(OriginId origin, AsId as,
                                          proto::Protocol protocol) {
  const std::uint64_t key =
      (std::uint64_t{origin} << 40) | (std::uint64_t{as} << 8) |
      proto::index_of(protocol);
  {
    cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(cache_mutex_);
    auto it = loss_cache_.find(key);
    if (it != loss_cache_.end()) return *it->second;
  }
  // Build outside the lock: the model is a pure function of the key and
  // the world seed, so a racing builder produces an identical model and
  // try_emplace simply discards the loser.
  PathProfile profile = world_->paths.profile(origin, as);
  if (world_->uniform_random_loss) {
    // Same long-run loss, no burst structure.
    profile.good_loss = profile.stationary_loss();
    profile.bad_fraction = 0;
  }
  // Colocated origins (same first-hop data center) share Good/Bad
  // timelines: seed the renewal process by group, not by origin.
  const int group = world_->origins[origin].colocation_group;
  const std::uint64_t timeline_actor =
      group >= 0 ? 0x9000000ULL + static_cast<std::uint64_t>(group)
                 : std::uint64_t{origin};
  const std::uint64_t timeline_key =
      (timeline_actor << 40) | (std::uint64_t{as} << 8) |
      proto::index_of(protocol);
  const std::uint64_t stream_seed =
      net::mix_u64(world_->seed, timeline_key, context_.trial, 0x105Eu);
  auto model = std::make_unique<PathLossModel>(profile, stream_seed,
                                               context_.scan_duration);
  cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(cache_mutex_);
  auto [it, inserted] = loss_cache_.try_emplace(key, std::move(model));
  return *it->second;
}

const OutageSchedule& Internet::outage_schedule(OriginId origin,
                                                proto::Protocol protocol) {
  const std::uint64_t key =
      (std::uint64_t{origin} << 8) | proto::index_of(protocol);
  {
    cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(cache_mutex_);
    auto it = outage_cache_.find(key);
    if (it != outage_cache_.end()) return *it->second;
  }
  const std::uint64_t stream_seed =
      net::mix_u64(world_->seed, key, context_.trial, 0x07A6Eu);
  auto schedule = std::make_unique<OutageSchedule>(
      world_->outages, origin, world_->topology.as_count(), stream_seed,
      context_.scan_duration);
  cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(cache_mutex_);
  auto [it, inserted] = outage_cache_.try_emplace(key, std::move(schedule));
  return *it->second;
}

void Internet::prewarm(OriginId origin, proto::Protocol protocol) {
  outage_schedule(origin, protocol);
  const auto as_count = static_cast<AsId>(world_->topology.as_count());
  for (AsId as = 0; as < as_count; ++as) {
    loss_model(origin, as, protocol);
  }
}

net::VirtualTime Internet::rtt(OriginId origin, AsId as) const {
  const PathProfile profile = world_->paths.profile(origin, as);
  return net::VirtualTime::from_micros(
      static_cast<std::int64_t>(profile.latency_ms * 1000.0));
}

std::optional<std::vector<std::uint8_t>> Internet::handle_probe(
    OriginId origin, std::span<const std::uint8_t> packet, net::VirtualTime t,
    int probe_index) {
  auto parsed = net::TcpPacket::parse(packet);
  if (!parsed) return std::nullopt;  // malformed: dropped on the floor
  auto response = handle_probe_fast(origin, *parsed, t, probe_index);
  if (!response) return std::nullopt;
  return response->serialize();
}

std::optional<net::TcpPacket> Internet::handle_probe_fast(
    OriginId origin, const net::TcpPacket& syn, net::VirtualTime t,
    int probe_index) {
  const std::optional<proto::Protocol> protocol =
      proto::protocol_for_port(syn.tcp.dst_port);
  if (!protocol) return std::nullopt;  // port outside the study

  const ResolvedTarget target = resolve_target(syn.ip.dst, origin);
  if (!target.as) return std::nullopt;  // unrouted space

  return probe_impl(origin, *protocol, outage_schedule(origin, *protocol),
                    loss_model(origin, *target.as, *protocol),
                    world_->policies.find(*target.as), target, syn, t,
                    probe_index, /*metrics=*/nullptr);
}

ResolvedTarget Internet::resolve_target(net::Ipv4Addr dst,
                                        OriginId origin) const {
  ResolvedTarget target;
  target.addr = dst;
  target.as = world_->as_of(dst);
  if (!target.as) return target;
  const std::optional<Host> host = world_->host_at(dst);
  if (!host ||
      !HostTable::live_in_trial(*host, context_.trial,
                                context_.experiment_seed)) {
    return target;  // nothing listening this trial: silence
  }
  if (host->flaky && flaky_miss(*host, origin)) {
    return target;  // marginal host: dark for this origin this trial
  }
  target.host = *host;
  target.has_host = true;
  return target;
}

std::optional<net::TcpPacket> Internet::probe_impl(
    OriginId origin, proto::Protocol protocol, const OutageSchedule& outages,
    const PathLossModel& loss, const AsPolicies* policies,
    const ResolvedTarget& target, const net::TcpPacket& syn,
    net::VirtualTime t, int probe_index, obsv::MetricBlock* metrics) {
  if (!syn.tcp.flags.syn || syn.tcp.flags.ack) {
    return std::nullopt;  // not a bare SYN: dropped on the floor
  }
  const net::Ipv4Addr dst = target.addr;
  if (metrics != nullptr) metrics->add(obsv::Counter::kSimProbesRouted);

  // Injected faults first: an injected outage or loss spike is a
  // property of the scan run's environment, just like the scheduled
  // ones below.
  if (faults_ != nullptr) {
    const bool fault_outage = faults_->outage_at(t, static_cast<int>(origin));
    if (fault_outage || faults_->drop_at_time(t, dst, probe_index)) {
      if (metrics != nullptr) {
        metrics->add(obsv::Counter::kSimDropsFault);
        metrics->add(fault_outage ? obsv::Counter::kFaultOutage
                                  : obsv::Counter::kFaultProbeDrop);
      }
      return std::nullopt;
    }
  }

  if (outages.in_outage(*target.as, t)) {
    if (metrics != nullptr) metrics->add(obsv::Counter::kSimDropsOutage);
    return std::nullopt;
  }

  // Forward direction.
  if (loss.drop(t, net::mix_u64(dst.value(), probe_index, origin, 0xF0D0u))) {
    if (metrics != nullptr) metrics->add(obsv::Counter::kSimDropsLossModel);
    return std::nullopt;
  }

  const Host* host = target.host_or_null();
  if (host == nullptr) {
    if (metrics != nullptr) metrics->add(obsv::Counter::kSimDropsNoHost);
    return std::nullopt;
  }

  // Only probes that reached a listening host feed the policy layer
  // (IDS counters); everything above is side-effect free.
  if (policies != nullptr &&
      policy_engine_.on_probe(policies, origin, syn.ip.src, *target.as, dst,
                              protocol, t) == PolicyEngine::L4Decision::kDrop) {
    if (metrics != nullptr) metrics->add(obsv::Counter::kSimDropsIds);
    return std::nullopt;
  }

  const bool answers = host->middlebox || host->runs(protocol);

  net::TcpPacket response;
  response.ip.src = dst;
  response.ip.dst = syn.ip.src;
  response.tcp.src_port = syn.tcp.dst_port;
  response.tcp.dst_port = syn.tcp.src_port;
  response.tcp.ack = syn.tcp.seq + 1;
  if (answers) {
    response.tcp.flags.syn = true;
    response.tcp.flags.ack = true;
    response.tcp.seq = static_cast<std::uint32_t>(
        net::mix_u64(host->seed, context_.trial, probe_index, 0x15Bu));
  } else {
    // Live host, closed port: RST.
    response.tcp.flags.rst = true;
    response.tcp.flags.ack = true;
    response.tcp.seq = 0;
  }

  // Reverse direction.
  if (loss.drop(t, net::mix_u64(dst.value(), probe_index, origin, 0x0BACu))) {
    if (metrics != nullptr) metrics->add(obsv::Counter::kSimDropsLossModel);
    return std::nullopt;
  }
  // Counted only when delivered, so every routed probe lands in exactly
  // one bucket: probes_routed == drops.{fault,outage,loss_model,no_host,
  // ids} + responses_synack + responses_rst (unrouted probes are counted
  // separately, before routing).
  if (metrics != nullptr) {
    metrics->add(answers ? obsv::Counter::kSimResponsesSynack
                         : obsv::Counter::kSimResponsesRst);
  }
  return response;
}

ProbeContext Internet::probe_context(OriginId origin,
                                     proto::Protocol protocol) {
  prewarm(origin, protocol);
  ProbeContext context;
  context.internet_ = this;
  context.origin_ = origin;
  context.protocol_ = protocol;
  context.outage_ = &outage_schedule(origin, protocol);
  const auto as_count = static_cast<AsId>(world_->topology.as_count());
  context.loss_by_as_.resize(as_count);
  context.policies_by_as_.resize(as_count);
  context.loss_seed_by_as_.resize(as_count);
  context.loss_cursor_.assign(as_count, {});  // empty windows: refill on use
  context.outage_possible_by_as_.resize(as_count);
  for (AsId as = 0; as < as_count; ++as) {
    context.loss_by_as_[as] = &loss_model(origin, as, protocol);
    context.policies_by_as_[as] = world_->policies.find(as);
    context.loss_seed_by_as_[as] = context.loss_by_as_[as]->stream_seed();
    context.outage_possible_by_as_[as] =
        context.outage_->ever_in_outage(as) ? 1 : 0;
  }
  if (world_->procedural.enabled()) {
    context.block_cache_.assign(ProbeContext::kBlockCacheSlots, {});
  }
  return context;
}

ResolvedTarget ProbeContext::resolve(net::Ipv4Addr dst) const {
  const ProceduralWorld& procedural = internet_->world_->procedural;
  if (!procedural.covers(dst)) return internet_->resolve_target(dst, origin_);

  // Procedural fast path: one /24 derivation serves 256 addresses via
  // the lane-private direct-mapped cache; everything else is a pure
  // per-address derivation. No table, no lock, no shared state.
  const std::uint32_t block = dst.value() >> 8;
  BlockCacheSlot& slot = block_cache_[block & (kBlockCacheSlots - 1)];
  if (slot.block == block) {
    if (metrics_ != nullptr) {
      metrics_->add(obsv::Counter::kUniverseBlockCacheHit);
    }
  } else {
    slot.block = block;
    slot.facts = procedural.block_facts(block);
    if (metrics_ != nullptr) {
      metrics_->add(obsv::Counter::kUniverseBlockCacheMiss);
    }
  }

  ResolvedTarget target;
  target.addr = dst;
  if (slot.facts.as == kNoAs) return target;  // unrouted block
  target.as = slot.facts.as;

  const std::optional<Host> host = procedural.derive_host(dst, slot.facts);
  if (metrics_ != nullptr) {
    metrics_->add(obsv::Counter::kUniverseProceduralDerivations);
  }
  if (!host ||
      !HostTable::live_in_trial(*host, internet_->context_.trial,
                                internet_->context_.experiment_seed)) {
    return target;
  }
  if (host->flaky && internet_->flaky_miss(*host, origin_)) return target;
  target.host = *host;
  target.has_host = true;
  return target;
}

void ProbeContext::resolve_batch(ProbeBatch& batch) const {
  const ProceduralWorld& procedural = internet_->world_->procedural;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t derivations = 0;
  // The /24 grouping invariant: a consecutive run of same-/24 addresses
  // shares one block-cache consult. Permutation batches are sequential
  // inside each next_batch window, so runs span up to 256 addresses; a
  // materialized (non-procedural) address breaks the run.
  std::uint32_t run_block = ~std::uint32_t{0};
  const BlockFacts* run_facts = nullptr;
  for (int i = 0; i < batch.size; ++i) {
    const net::Ipv4Addr dst = batch.addr[i];
    batch.as[i] = kNoAs;
    batch.has_host[i] = 0;
    if (!procedural.covers(dst)) {
      const ResolvedTarget target = internet_->resolve_target(dst, origin_);
      if (target.as) batch.as[i] = *target.as;
      if (target.has_host) {
        batch.has_host[i] = 1;
        batch.host[i] = target.host;
      }
      run_block = ~std::uint32_t{0};
      continue;
    }
    const std::uint32_t block = dst.value() >> 8;
    if (block != run_block) {
      BlockCacheSlot& slot = block_cache_[block & (kBlockCacheSlots - 1)];
      if (slot.block == block) {
        ++hits;
      } else {
        slot.block = block;
        slot.facts = procedural.block_facts(block);
        ++misses;
      }
      run_block = block;
      run_facts = &slot.facts;
    }
    if (run_facts->as == kNoAs) continue;  // unrouted block
    batch.as[i] = run_facts->as;
    const std::optional<Host> host = procedural.derive_host(dst, *run_facts);
    ++derivations;
    if (!host ||
        !HostTable::live_in_trial(*host, internet_->context_.trial,
                                  internet_->context_.experiment_seed)) {
      continue;
    }
    if (host->flaky && internet_->flaky_miss(*host, origin_)) continue;
    batch.host[i] = *host;
    batch.has_host[i] = 1;
  }
  if (metrics_ != nullptr) {
    if (hits != 0) metrics_->add(obsv::Counter::kUniverseBlockCacheHit, hits);
    if (misses != 0) {
      metrics_->add(obsv::Counter::kUniverseBlockCacheMiss, misses);
    }
    if (derivations != 0) {
      metrics_->add(obsv::Counter::kUniverseProceduralDerivations, derivations);
    }
    // Batch bookkeeping lives under the universe.* exception (lane- and
    // partition-dependent, docs/METRICS.md) and, like the cache
    // counters, stays zero outside procedural worlds — materialized
    // worlds keep the full snapshot byte-identical across --jobs.
    if (procedural.enabled()) {
      metrics_->add(obsv::Counter::kUniverseBatchBatches);
      metrics_->add(obsv::Counter::kUniverseBatchTargets,
                    static_cast<std::uint64_t>(batch.size));
    }
  }
}

void Internet::handle_probe_batch(ProbeContext& context, ProbeBatch& batch) {
  const int n = batch.size;
  const int probes = batch.probes;
  assert(probes <= ProbeBatch::kMaxProbes);
  const auto as_count = static_cast<AsId>(context.loss_by_as_.size());

  // Pass 1 (pure): the forward-loss uniform for every (target, probe),
  // four target lanes at a time, all probes of a lane group together so
  // the addr/seed gather is paid once. The two chained mixes match
  // PathLossModel::drop byte-for-byte: key = mix(dst, probe, origin,
  // 0xF0D0), draw = hash01(mix(stream_seed, key, 0xD60B)). Unresolved or
  // unrouted lanes mix a zero seed — their draw is never read.
  if (!detail::fwd_draws_vectorized(batch.addr, batch.as,
                                    context.loss_seed_by_as_.data(), as_count,
                                    context.origin_, n, probes,
                                    batch.fwd_draw)) {
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      std::uint64_t addr4[4];
      std::uint64_t key4[4];
      std::uint64_t seed4[4];
      std::uint64_t hash4[4];
      for (int lane = 0; lane < 4; ++lane) {
        addr4[lane] = batch.addr[i + lane].value();
        const AsId as = batch.as[i + lane];
        seed4[lane] = as < as_count ? context.loss_seed_by_as_[as] : 0;
      }
      for (int p = 0; p < probes; ++p) {
        net::mix_u64_x4(addr4, static_cast<std::uint64_t>(p), context.origin_,
                        0xF0D0u, key4);
        net::mix_u64_x4(seed4, key4, 0xD60Bu, 0, hash4);
        double* draw = batch.fwd_draw + p * ProbeBatch::kCapacity;
        for (int lane = 0; lane < 4; ++lane) {
          draw[i + lane] = hash01(hash4[lane]);
        }
      }
    }
    for (; i < n; ++i) {
      const AsId as = batch.as[i];
      const std::uint64_t seed =
          as < as_count ? context.loss_seed_by_as_[as] : 0;
      for (int p = 0; p < probes; ++p) {
        const std::uint64_t key =
            net::mix_u64(batch.addr[i].value(), static_cast<std::uint64_t>(p),
                         context.origin_, 0xF0D0u);
        batch.fwd_draw[p * ProbeBatch::kCapacity + i] =
            hash01(net::mix_u64(seed, key, 0xD60Bu));
      }
    }
  }

  // Pass 2: the scalar decision ladder per sent probe, in probe_impl's
  // exact order (fault, outage, forward loss, liveness), accumulating
  // drop counts batch-locally. Probes that clear the ladder are marked
  // live; the caller replays them through the scalar path, which makes
  // the same (deterministic) decisions and continues to IDS + response.
  std::uint64_t n_unrouted = 0;
  std::uint64_t n_fault_outage = 0;
  std::uint64_t n_fault_drop = 0;
  std::uint64_t n_outage = 0;
  std::uint64_t n_loss = 0;
  std::uint64_t n_nohost = 0;
  std::uint64_t n_routed_dead = 0;
  for (int i = 0; i < n; ++i) {
    batch.live_mask[i] = 0;
    const std::uint8_t sent = batch.sent_mask[i];
    if (sent == 0) continue;
    const AsId as = batch.as[i];
    if (as >= as_count) {  // kNoAs or garbage: unrouted space
      for (int p = 0; p < probes; ++p) {
        if ((sent >> p) & 1) ++n_unrouted;
      }
      continue;
    }
    std::uint8_t live = 0;
    for (int p = 0; p < probes; ++p) {
      if (!((sent >> p) & 1)) continue;
      const auto t = net::VirtualTime::from_micros(
          batch.time_us[p * ProbeBatch::kCapacity + i]);
      if (faults_ != nullptr) {
        const bool fault_outage =
            faults_->outage_at(t, static_cast<int>(context.origin_));
        if (fault_outage || faults_->drop_at_time(t, batch.addr[i], p)) {
          ++n_routed_dead;
          if (fault_outage) {
            ++n_fault_outage;
          } else {
            ++n_fault_drop;
          }
          continue;
        }
      }
      if (context.outage_possible_by_as_[as] &&
          context.outage_->in_outage(as, t)) {
        ++n_routed_dead;
        ++n_outage;
        continue;
      }
      PathLossModel::LossWindow& window = context.loss_cursor_[as];
      if (!window.contains(t)) window = context.loss_by_as_[as]->loss_window(t);
      if (window.p > 0.0 &&
          batch.fwd_draw[p * ProbeBatch::kCapacity + i] < window.p) {
        ++n_routed_dead;
        ++n_loss;
        continue;
      }
      if (batch.has_host[i] == 0) {
        ++n_routed_dead;
        ++n_nohost;
        continue;
      }
      live |= static_cast<std::uint8_t>(1u << p);
    }
    batch.live_mask[i] = live;
  }

  // One flush per non-zero reason. kSimProbesRouted covers only the
  // routed probes that die here — live probes are counted by probe_impl
  // when the caller replays them, so every routed probe lands in the
  // fate invariant exactly once.
  obsv::MetricBlock* metrics = context.metrics_;
  if (metrics != nullptr) {
    if (n_unrouted != 0) {
      metrics->add(obsv::Counter::kSimDropsUnrouted, n_unrouted);
    }
    if (n_routed_dead != 0) {
      metrics->add(obsv::Counter::kSimProbesRouted, n_routed_dead);
    }
    const std::uint64_t n_fault = n_fault_outage + n_fault_drop;
    if (n_fault != 0) metrics->add(obsv::Counter::kSimDropsFault, n_fault);
    if (n_fault_outage != 0) {
      metrics->add(obsv::Counter::kFaultOutage, n_fault_outage);
    }
    if (n_fault_drop != 0) {
      metrics->add(obsv::Counter::kFaultProbeDrop, n_fault_drop);
    }
    if (n_outage != 0) metrics->add(obsv::Counter::kSimDropsOutage, n_outage);
    if (n_loss != 0) metrics->add(obsv::Counter::kSimDropsLossModel, n_loss);
    if (n_nohost != 0) metrics->add(obsv::Counter::kSimDropsNoHost, n_nohost);
  }
}

std::optional<net::TcpPacket> ProbeContext::probe(const ResolvedTarget& target,
                                                  const net::TcpPacket& syn,
                                                  net::VirtualTime t,
                                                  int probe_index) {
  assert(syn.tcp.dst_port == proto::port_of(protocol_));
  if (!target.as) {
    if (metrics_ != nullptr) metrics_->add(obsv::Counter::kSimDropsUnrouted);
    return std::nullopt;  // unrouted space
  }
  return internet_->probe_impl(origin_, protocol_, *outage_,
                               *loss_by_as_[*target.as],
                               policies_by_as_[*target.as], target, syn, t,
                               probe_index, metrics_);
}

bool Internet::flaky_miss(const Host& host, OriginId origin) const {
  // One coin per (host, origin, trial): the whole scan — both probes and
  // the follow-up connect — sees the same dark host.
  const std::uint64_t h = net::mix_u64(host.seed, origin,
                                       static_cast<std::uint64_t>(
                                           context_.trial),
                                       0xF1A6ULL);
  return hash01(h) < world_->flaky_miss_probability;
}

bool Internet::maxstartups_refuses(const Host& host, OriginId origin,
                                   int attempt) const {
  const MaxStartupsConfig& cfg = world_->maxstartups;
  const double decay = std::pow(cfg.retry_load_decay, attempt);

  // Background unauthenticated connections (other scanners, brute-force
  // bots): Poisson, decaying across retries only mildly — background load
  // is not synchronized with us, so it decays with the same factor used
  // for origins to keep the model simple but monotone in `attempt`.
  net::Rng rng(net::mix_u64(host.seed, context_.experiment_seed,
                            static_cast<std::uint64_t>(context_.trial) << 8 |
                                origin,
                            0xA55ULL + static_cast<std::uint64_t>(attempt)));
  const int background =
      static_cast<int>(rng.poisson(cfg.background_load_mean * decay));

  // Synchronized origins: each other origin's handshake is still open
  // with some probability (all scanners hit this host at ~the same time).
  int concurrent = 0;
  const double p_open = cfg.concurrent_origin_probability * decay;
  for (int i = 0; i + 1 < context_.simultaneous_origins; ++i) {
    if (rng.bernoulli(p_open)) ++concurrent;
  }

  const double refuse =
      host.maxstartups.refusal_probability(1 + background + concurrent);
  return rng.bernoulli(refuse);
}

bool Internet::connect(OriginId origin, net::Ipv4Addr src_ip,
                       net::Ipv4Addr dst, proto::Protocol protocol,
                       net::VirtualTime t, int attempt,
                       Connection& connection) {
  return probe_context(origin, protocol)
      .connect(src_ip, dst, t, attempt, connection);
}

bool ProbeContext::connect(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                           net::VirtualTime t, int attempt,
                           Connection& connection) {
  const World& world = *internet_->world_;
  const TrialContext& trial = internet_->context_;
  connection.clear();
  const auto as = world.as_of(dst);
  if (!as) return false;

  const fault::FaultInjector* faults = internet_->faults_;
  if (faults != nullptr && faults->outage_at(t, static_cast<int>(origin_))) {
    return false;
  }

  if (outage_->in_outage(*as, t)) return false;

  const double p_fail =
      connect_failure_probability(loss(*as).loss_probability(t));
  if (p_fail > 0.0 &&
      hash01(net::mix_u64(world.seed ^ origin_, dst.value(), attempt, 0xC0DEu)) <
          p_fail) {
    return false;
  }

  const std::optional<Host> host = world.host_at(dst);
  if (!host ||
      !HostTable::live_in_trial(*host, trial.trial, trial.experiment_seed)) {
    return false;
  }
  if (host->flaky && internet_->flaky_miss(*host, origin_)) return false;

  // L4 policies also gate the connect's SYN.
  PolicyEngine& policy = internet_->policy_engine_;
  const AsPolicies* policies = policies_by_as_[*as];
  if (policy.on_probe(policies, origin_, src_ip, *as, dst, protocol_, t) ==
      PolicyEngine::L4Decision::kDrop) {
    return false;
  }

  switch (policy.on_connection(policies, origin_, *as, dst, protocol_, t)) {
    case PolicyEngine::L7Decision::kRstAfterAccept:
      connection.peer_reset_ = true;
      return true;
    case PolicyEngine::L7Decision::kDrop:
      connection.hung_ = true;
      return true;
    case PolicyEngine::L7Decision::kServeBlockPage:  // HTTP only
      connection.open(make_server(*host, protocol_,
                                  {.forced_page_title = "Blocked Site"}));
      return true;
    case PolicyEngine::L7Decision::kAllow:
      break;
  }

  if (host->middlebox && !host->runs(protocol_)) {
    connection.hung_ = true;  // DDoS frontend: accepts, says nothing
    return true;
  }

  if (protocol_ == proto::Protocol::kSsh && host->maxstartups_enabled &&
      internet_->maxstartups_refuses(*host, origin_, attempt)) {
    // sshd drops the connection before the identification string; some
    // hosts RST instead of FIN (stable per host).
    if (net::mix_u64(host->seed, 0xF17u) % 4 == 0) {
      connection.peer_reset_ = true;
    } else {
      connection.peer_closed_ = true;
    }
    return true;
  }

  connection.open(make_server(*host, protocol_));
  return true;
}

}  // namespace originscan::sim
