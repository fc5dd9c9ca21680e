// Microbenchmarks for the scanner's hot paths (google-benchmark):
// address permutation, probe-MAC computation, packet serialization and
// parsing, blocklist lookups, the end-to-end probe exchange, the L7
// handshakes and the record sort that ends every scan.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>

#include "netbase/headers.h"
#include "netbase/rng.h"
#include "netbase/siphash.h"
#include "obsv/metrics.h"
#include "scanner/blocklist.h"
#include "scanner/orchestrator.h"
#include "scanner/permutation.h"
#include "scanner/validation.h"
#include "scanner/zgrab.h"
#include "scanner/zmap.h"
#include "sim/internet.h"
#include "sim/scenario.h"

using namespace originscan;

static void BM_PermutationNext(benchmark::State& state) {
  const auto group =
      scan::CyclicGroup::for_size(1u << 20, /*seed=*/0xBEEF);
  auto it = group.all();
  for (auto _ : state) {
    auto value = it.next();
    if (!value) it = group.all();
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_PermutationNext);

static void BM_PermutationNextBatch(benchmark::State& state) {
  // Batched counterpart of BM_PermutationNext: the send loop's actual
  // consumption pattern (scanner/zmap.cc run()). The per-address delta
  // against the scalar bench is what the register-resident recurrence
  // buys.
  const auto group =
      scan::CyclicGroup::for_size(1u << 20, /*seed=*/0xBEEF);
  auto it = group.all();
  std::array<std::uint32_t, 256> batch;
  for (auto _ : state) {
    std::size_t filled = it.next_batch(batch);
    if (filled == 0) {
      it = group.all();
      filled = it.next_batch(batch);
    }
    benchmark::DoNotOptimize(batch.data());
    benchmark::DoNotOptimize(filled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_PermutationNextBatch);

static void BM_GroupConstruction(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto group = scan::CyclicGroup::for_size(
        static_cast<std::uint64_t>(state.range(0)), seed++);
    benchmark::DoNotOptimize(group.generator());
  }
}
BENCHMARK(BM_GroupConstruction)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24);

static void BM_SipHashMac(benchmark::State& state) {
  const net::SipHash hasher(net::SipHash::key_from_seed(7));
  std::uint64_t value = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.hash_u64_pair(value++, 443));
  }
}
BENCHMARK(BM_SipHashMac);

static void BM_ProbeFields(benchmark::State& state) {
  const scan::ProbeValidator validator(net::SipHash::key_from_seed(7), 32768,
                                       28232);
  std::uint32_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(validator.fields_for(
        net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(addr++), 80));
  }
}
BENCHMARK(BM_ProbeFields);

static void BM_PacketSerializeParse(benchmark::State& state) {
  net::TcpPacket packet;
  packet.ip.src = net::Ipv4Addr(10, 0, 0, 1);
  packet.ip.dst = net::Ipv4Addr(1, 2, 3, 4);
  packet.tcp.src_port = 40000;
  packet.tcp.dst_port = 443;
  packet.tcp.flags.syn = true;
  for (auto _ : state) {
    const auto bytes = packet.serialize();
    auto parsed = net::TcpPacket::parse(bytes);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketSerializeParse);

static void BM_PacketSerializeInto(benchmark::State& state) {
  // The scanner's send-loop variant: serialize_into reuses one buffer,
  // so the steady state is allocation-free (compare against
  // BM_PacketSerializeParse, which allocates per probe).
  net::TcpPacket packet;
  packet.ip.src = net::Ipv4Addr(10, 0, 0, 1);
  packet.ip.dst = net::Ipv4Addr(1, 2, 3, 4);
  packet.tcp.src_port = 40000;
  packet.tcp.dst_port = 443;
  packet.tcp.flags.syn = true;
  std::vector<std::uint8_t> buffer;
  for (auto _ : state) {
    packet.serialize_into(buffer);
    auto parsed = net::TcpPacket::parse(buffer);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_PacketSerializeInto);

static void BM_BlocklistLookup(benchmark::State& state) {
  scan::Blocklist blocklist;
  // A realistic exclusion list: a few hundred scattered ranges.
  for (std::uint32_t i = 0; i < 400; ++i) {
    blocklist.block(net::Prefix(net::Ipv4Addr(i * 7919u * 256u), 24));
  }
  std::uint32_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(blocklist.is_blocked(net::Ipv4Addr(addr)));
    addr += 101;
  }
}
BENCHMARK(BM_BlocklistLookup);

static void BM_EndToEndProbe(benchmark::State& state) {
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  const scan::ProbeValidator validator(net::SipHash::key_from_seed(3), 32768,
                                       28232);

  std::uint32_t addr = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(addr++ % world.universe_size);
    const auto fields =
        validator.fields_for(world.origins[0].source_ips[0], dst, 80);
    net::TcpPacket syn;
    syn.ip.src = world.origins[0].source_ips[0];
    syn.ip.dst = dst;
    syn.tcp.src_port = fields.src_port;
    syn.tcp.dst_port = 80;
    syn.tcp.seq = fields.seq;
    syn.tcp.flags.syn = true;
    auto response = internet.handle_probe(0, syn.serialize(),
                                          net::VirtualTime{}, 0);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_EndToEndProbe);

static void BM_HandleProbeFast(benchmark::State& state) {
  // The struct-level twin of BM_EndToEndProbe: same decisions, no wire
  // encode/decode. The gap between the two is the serialize+parse tax the
  // scanner hot path no longer pays.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  internet.prewarm(0, proto::Protocol::kHttp);
  const scan::ProbeValidator validator(net::SipHash::key_from_seed(3), 32768,
                                       28232);

  std::uint32_t addr = 0;
  for (auto _ : state) {
    const net::Ipv4Addr dst(addr++ % world.universe_size);
    const auto fields =
        validator.fields_for(world.origins[0].source_ips[0], dst, 80);
    net::TcpPacket syn;
    syn.ip.src = world.origins[0].source_ips[0];
    syn.ip.dst = dst;
    syn.tcp.src_port = fields.src_port;
    syn.tcp.dst_port = 80;
    syn.tcp.seq = fields.seq;
    syn.tcp.flags.syn = true;
    auto response =
        internet.handle_probe_fast(0, syn, net::VirtualTime{}, 0);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_HandleProbeFast);

static void probe_target_loop(benchmark::State& state,
                              obsv::MetricBlock* metrics) {
  // The full scanner inner loop over a pre-built schedule: MAC fields,
  // once-per-target resolution, ProbeContext probes, and response
  // validation, exactly as run_scheduled drives it in production.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);

  scan::ZMapConfig config;
  config.seed = world.seed;
  config.universe_size = world.universe_size;
  config.protocol = proto::Protocol::kHttp;
  config.source_ips = world.origins[0].source_ips;
  config.metrics = metrics;
  scan::ZMapScanner scanner(config, &internet, 0);

  std::vector<scan::ScheduledTarget> batch;
  batch.reserve(256);
  for (std::uint32_t i = 0; i < 256; ++i) {
    batch.push_back(scan::ScheduledTarget{
        net::Ipv4Addr((i * 9973u) % world.universe_size),
        static_cast<std::uint64_t>(i) * 2});
  }
  std::uint64_t results = 0;
  for (auto _ : state) {
    auto stats = scanner.run_scheduled(
        batch, [&](const scan::L4Result&) { ++results; });
    benchmark::DoNotOptimize(stats);
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

static void BM_ProbeTarget(benchmark::State& state) {
  probe_target_loop(state, nullptr);
}
BENCHMARK(BM_ProbeTarget);

static void BM_ProbeTargetMetricsOn(benchmark::State& state) {
  // Same loop with a live metric block: the delta over BM_ProbeTarget is
  // the whole cost of enabled observability on the hot path. ci.sh bench
  // bounds it at 5% via bench_gate --overhead (DESIGN.md §9).
  obsv::MetricBlock metrics;
  probe_target_loop(state, &metrics);
}
BENCHMARK(BM_ProbeTargetMetricsOn);

static void BM_ProceduralLookup(benchmark::State& state) {
  // Cold-path procedural resolution: per-/24 facts derivation plus the
  // per-address host derivation, no cache (World::host_at — the
  // connect/collector path). Strides by 256 so every lookup derives a
  // fresh block.
  static const sim::World world = [] {
    auto config = sim::ScenarioConfig::full_internet(22);
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  const std::uint32_t first = world.procedural.first_addr();
  std::uint32_t addr = first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.host_at(net::Ipv4Addr(addr)));
    addr += 257;  // new block every lookup, varying offset within it
    if (addr >= world.universe_size) addr = first;
  }
}
BENCHMARK(BM_ProceduralLookup);

static void BM_BlockCacheHit(benchmark::State& state) {
  // Hot-path procedural resolution through ProbeContext's lane-private
  // /24 cache: sequential addresses hit the cached block facts 255
  // times out of 256, so this approximates the per-probe cost the 2^32
  // sweep actually pays.
  static const sim::World world = [] {
    auto config = sim::ScenarioConfig::full_internet(22);
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  const std::uint32_t first = world.procedural.first_addr();
  std::uint32_t addr = first;
  for (auto _ : state) {
    benchmark::DoNotOptimize(probe_context.resolve(net::Ipv4Addr(addr)));
    if (++addr >= world.universe_size) addr = first;
  }
}
BENCHMARK(BM_BlockCacheHit);

static void BM_LossModelLookup(benchmark::State& state) {
  // Steady-state loss decision through the flat ProbeContext table: one
  // indexed load to the model plus the per-packet drop draw. This is the
  // path that replaced a shared_mutex + unordered_map lookup per packet.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  const auto as_count = static_cast<std::uint32_t>(world.topology.as_count());
  std::uint64_t key = 0;
  for (auto _ : state) {
    const sim::AsId as = static_cast<sim::AsId>(key % as_count);
    const auto t = net::VirtualTime::from_seconds(
        static_cast<double>(key % 75600));
    benchmark::DoNotOptimize(probe_context.loss(as).drop(t, key));
    ++key;
  }
}
BENCHMARK(BM_LossModelLookup);

static void BM_MixBatch4(benchmark::State& state) {
  // The 4-wide unrolled splitmix kernel at the bottom of the batch drop
  // pass. Bit-identical to four scalar mix_u64 calls; the win is four
  // independent multiply chains in flight (ILP), not SIMD. Compare
  // ns/item against a quarter of BM_SipHashMac-style scalar mixing.
  std::uint64_t a[4] = {1, 2, 3, 4};
  std::uint64_t b[4] = {5, 6, 7, 8};
  std::uint64_t out[4];
  for (auto _ : state) {
    net::mix_u64_x4(a, b, 0xF0D0u, 0, out);
    for (int lane = 0; lane < 4; ++lane) a[lane] = out[lane];
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_MixBatch4);

static void BM_ResolveBatch(benchmark::State& state) {
  // SoA target resolution over one 256-address batch of sequential
  // procedural addresses: the /24 facts are fetched once per block run
  // instead of consulted per address. The per-item delta against
  // BM_BlockCacheHit is what the run-sharing buys.
  static const sim::World world = [] {
    auto config = sim::ScenarioConfig::full_internet(22);
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  const std::uint32_t first = world.procedural.first_addr();
  std::uint32_t base = first;
  sim::ProbeBatch batch;
  batch.size = sim::ProbeBatch::kCapacity;
  batch.probes = 2;
  for (auto _ : state) {
    for (int i = 0; i < batch.size; ++i) {
      batch.addr[i] = net::Ipv4Addr(base + static_cast<std::uint32_t>(i));
    }
    probe_context.resolve_batch(batch);
    benchmark::DoNotOptimize(batch.live_mask);
    base += static_cast<std::uint32_t>(batch.size);
    if (base + 256 >= world.universe_size) base = first;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ResolveBatch);

static void BM_HandleProbeBatch(benchmark::State& state) {
  // The batch classifier alone (forward-loss draws + decision ladder)
  // over a pre-resolved 256-target batch, the steady-state sim cost per
  // probe window once resolution is paid.
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);

  sim::ProbeBatch batch;
  batch.size = sim::ProbeBatch::kCapacity;
  batch.probes = 2;
  for (int i = 0; i < batch.size; ++i) {
    batch.addr[i] = net::Ipv4Addr((static_cast<std::uint32_t>(i) * 9973u) %
                                  world.universe_size);
    batch.sent_mask[i] = 0x3;
    for (int p = 0; p < batch.probes; ++p) {
      batch.time_us[p * sim::ProbeBatch::kCapacity + i] =
          static_cast<std::int64_t>(i) * 100 + p;
    }
  }
  probe_context.resolve_batch(batch);
  for (auto _ : state) {
    internet.handle_probe_batch(probe_context, batch);
    benchmark::DoNotOptimize(batch.live_mask);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_HandleProbeBatch);

// The 2^15 paper world the L7 and finalize benches share.
static const sim::World& paper_world_2_15() {
  static const sim::World world = [] {
    sim::ScenarioConfig config;
    config.universe_size = 1u << 15;
    return sim::build_world(config, sim::paper_origins(config.universe_size));
  }();
  return world;
}

static void zgrab_loop(benchmark::State& state, proto::Protocol protocol) {
  // One ZGrabEngine::grab per iteration, round-robin over every host of
  // the world that serves `protocol`: connect, the client flight, the
  // server's reply and its classification, as the scan collector drives
  // them. Policies, liveness and MaxStartups stay on, so the mix of
  // completed, refused and silent grabs is the scan's own.
  const sim::World& world = paper_world_2_15();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  context.simultaneous_origins = static_cast<int>(world.origins.size());
  sim::Internet internet(&world, context, &persistent);
  internet.prewarm(0, protocol);
  std::vector<net::Ipv4Addr> targets;
  for (const sim::Host& host : world.hosts.all()) {
    if (host.runs(protocol)) targets.push_back(host.addr);
  }
  scan::ZGrabEngine engine({.protocol = protocol}, &internet, 0);
  const net::Ipv4Addr source = world.origins[0].source_ips[0];
  std::size_t next = 0;
  std::int64_t completed = 0;
  for (auto _ : state) {
    const auto result = engine.grab(
        source, targets[next],
        net::VirtualTime::from_micros(static_cast<std::int64_t>(next) * 1000));
    completed += result.outcome == sim::L7Outcome::kCompleted;
    benchmark::DoNotOptimize(result);
    if (++next == targets.size()) next = 0;
  }
  state.counters["completed_share"] = benchmark::Counter(
      static_cast<double>(completed) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}

static void BM_ZGrabHttp(benchmark::State& state) {
  zgrab_loop(state, proto::Protocol::kHttp);
}
BENCHMARK(BM_ZGrabHttp);

static void BM_ZGrabTls(benchmark::State& state) {
  zgrab_loop(state, proto::Protocol::kHttps);
}
BENCHMARK(BM_ZGrabTls);

static void BM_ZGrabSsh(benchmark::State& state) {
  zgrab_loop(state, proto::Protocol::kSsh);
}
BENCHMARK(BM_ZGrabSsh);

static void BM_RecordFinalize(benchmark::State& state) {
  // The address sort that ends every scan (scan::finalize) over one
  // cell's records — a US1/HTTP scan of the 2^15 paper world — handed
  // over in a fixed shuffled order, as the scan collector produces them
  // in permutation order. The copy back to that order is untimed.
  const sim::World& world = paper_world_2_15();
  sim::PersistentState persistent;
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::Internet internet(&world, context, &persistent);
  scan::ScanResult cell = scan::run_scan(internet, 0, proto::Protocol::kHttp);
  net::Rng rng(0xF1A1);
  for (std::size_t i = cell.records.size(); i > 1; --i) {
    std::swap(cell.records[i - 1], cell.records[rng.below(i)]);
  }
  scan::ScanResult work;
  for (auto _ : state) {
    state.PauseTiming();
    work.records = cell.records;
    state.ResumeTiming();
    scan::finalize(work, false);
    benchmark::DoNotOptimize(work.records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cell.records.size()));
}
BENCHMARK(BM_RecordFinalize);

// The CPU model, stamped into the report's context so tools/bench_gate
// can refuse to compare timings taken on different hardware.
static std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("cpu_model", cpu_model());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
