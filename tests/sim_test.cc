#include <gtest/gtest.h>

#include "netbase/rng.h"
#include "proto/http.h"
#include "sim/internet.h"
#include "sim/outage.h"
#include "sim/path.h"
#include "sim/scenario.h"
#include "sim/topology.h"
#include "tests/test_world.h"

namespace originscan::sim {
namespace {

using originscan::testing::MiniWorldOptions;
using originscan::testing::make_mini_world;

// --------------------------------------------------------------- country --

TEST(Country, PackAndFormat) {
  EXPECT_EQ(country::kUS.to_string(), "US");
  EXPECT_EQ(CountryCode::from("jp").to_string(), "jp");
  EXPECT_FALSE(CountryCode().valid());
  EXPECT_EQ(CountryCode().to_string(), "??");
  EXPECT_EQ(CountryCode::from("USA"), CountryCode());
}

// -------------------------------------------------------------- topology --

TEST(Topology, AsAndCountryLookup) {
  Topology topology;
  const AsId a = topology.add_as("Alpha", country::kUS);
  const AsId b = topology.add_as("Beta", country::kJP);
  topology.add_prefix(a, *net::Prefix::parse("10.0.0.0/24"));
  topology.add_prefix(a, *net::Prefix::parse("10.0.2.0/24"), country::kBD);
  topology.add_prefix(b, *net::Prefix::parse("10.0.1.0/24"));
  topology.freeze();

  EXPECT_EQ(topology.as_of(net::Ipv4Addr(10, 0, 0, 5)), a);
  EXPECT_EQ(topology.as_of(net::Ipv4Addr(10, 0, 1, 5)), b);
  EXPECT_EQ(topology.as_of(net::Ipv4Addr(10, 0, 2, 5)), a);
  EXPECT_FALSE(topology.as_of(net::Ipv4Addr(10, 0, 3, 5)).has_value());

  // Registration country vs prefix geolocation.
  EXPECT_EQ(topology.as_info(a).country, country::kUS);
  EXPECT_EQ(topology.country_of(net::Ipv4Addr(10, 0, 0, 5)), country::kUS);
  EXPECT_EQ(topology.country_of(net::Ipv4Addr(10, 0, 2, 5)), country::kBD);

  EXPECT_EQ(topology.find_as("Beta"), b);
  EXPECT_EQ(topology.find_as("Missing"), kNoAs);
  EXPECT_EQ(topology.as_info(a).address_count(), 512u);
}

// -------------------------------------------------------------- HostTable --

TEST(HostTable, FindAndLiveness) {
  HostTable table;
  Host host;
  host.addr = net::Ipv4Addr(1, 2, 3, 4);
  host.live_percent = 50;
  host.seed = 99;
  table.add(host);
  table.freeze();

  ASSERT_NE(table.find(net::Ipv4Addr(1, 2, 3, 4)), nullptr);
  EXPECT_EQ(table.find(net::Ipv4Addr(1, 2, 3, 5)), nullptr);

  // Liveness is deterministic and varies across trials/seeds.
  int live = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const bool first = HostTable::live_in_trial(host, trial, 7);
    EXPECT_EQ(first, HostTable::live_in_trial(host, trial, 7));
    if (first) ++live;
  }
  EXPECT_GT(live, 25);
  EXPECT_LT(live, 75);
}

// ------------------------------------------------------------------ path --

// Property: the realized loss of the Gilbert-Elliott process approaches
// its configured stationary rate.
class PathLossStationary : public ::testing::TestWithParam<double> {};

TEST_P(PathLossStationary, RealizedLossMatchesStationary) {
  PathProfile profile;
  profile.good_loss = 0.001;
  profile.bad_loss = 0.95;
  profile.bad_fraction = GetParam();
  profile.mean_bad_duration_s = 60;

  const auto horizon = net::VirtualTime::from_hours(21);
  // Average over many independent timelines to tighten the estimate.
  double drops = 0;
  constexpr int kTimelines = 40;
  constexpr int kProbes = 2000;
  for (int timeline = 0; timeline < kTimelines; ++timeline) {
    PathLossModel model(profile, net::mix_u64(5, timeline), horizon);
    for (int i = 0; i < kProbes; ++i) {
      const auto t = net::VirtualTime::from_seconds(
          horizon.seconds() * (i + 0.5) / kProbes);
      if (model.drop(t, net::mix_u64(timeline, i))) drops += 1;
    }
  }
  const double realized = drops / (kTimelines * kProbes);
  EXPECT_NEAR(realized, profile.stationary_loss(),
              0.25 * profile.stationary_loss() + 0.002);
}

INSTANTIATE_TEST_SUITE_P(Fractions, PathLossStationary,
                         ::testing::Values(0.01, 0.05, 0.15, 0.4));

TEST(PathLoss, BackToBackProbesShareFate) {
  // In a lossy-bad-state world, when one of two back-to-back probes is
  // lost the other should nearly always be lost too (paper: > 93%).
  PathProfile profile;
  profile.good_loss = 0.00025;
  profile.bad_loss = 0.995;
  profile.bad_fraction = 0.01;
  profile.mean_bad_duration_s = 120;

  const auto horizon = net::VirtualTime::from_hours(21);
  std::uint64_t one_lost = 0, both_lost = 0;
  for (int timeline = 0; timeline < 30; ++timeline) {
    PathLossModel model(profile, net::mix_u64(17, timeline), horizon);
    for (int i = 0; i < 20000; ++i) {
      const auto t = net::VirtualTime::from_seconds(
          horizon.seconds() * (i + 0.5) / 20000);
      const bool drop0 = model.drop(t, net::mix_u64(i, 0, timeline));
      const bool drop1 = model.drop(t, net::mix_u64(i, 1, timeline));
      if (drop0 || drop1) {
        ++one_lost;
        if (drop0 && drop1) ++both_lost;
      }
    }
  }
  ASSERT_GT(one_lost, 100u);
  EXPECT_GT(static_cast<double>(both_lost) / static_cast<double>(one_lost),
            0.90);
}

TEST(PathLoss, ZeroFractionNeverBad) {
  PathProfile profile;
  profile.bad_fraction = 0;
  PathLossModel model(profile, 3, net::VirtualTime::from_hours(21));
  EXPECT_EQ(model.total_bad_time().micros(), 0);
}

TEST(PathTable, LayeringAndMultipliers) {
  PathTable table;
  PathProfile base;
  base.good_loss = 0.001;
  base.bad_fraction = 0.01;
  table.set_default_profile(base);

  PathProfile china = base;
  china.bad_fraction = 0.05;
  table.set_as_profile(7, china);

  PathProfile override_pair = base;
  override_pair.bad_fraction = 0.70;
  table.set_pair_override(2, 7, override_pair);

  table.set_origin_multiplier(1, 2.0);

  EXPECT_DOUBLE_EQ(table.profile(0, 3).bad_fraction, 0.01);
  EXPECT_DOUBLE_EQ(table.profile(0, 7).bad_fraction, 0.05);
  EXPECT_DOUBLE_EQ(table.profile(1, 3).bad_fraction, 0.02);   // multiplied
  EXPECT_DOUBLE_EQ(table.profile(1, 7).bad_fraction, 0.10);   // multiplied
  EXPECT_DOUBLE_EQ(table.profile(2, 7).bad_fraction, 0.70);   // pair override
  // Overrides are exact: multiplier must not stack on them.
  table.set_origin_multiplier(2, 3.0);
  EXPECT_DOUBLE_EQ(table.profile(2, 7).bad_fraction, 0.70);

  table.set_origin_good_loss_bump(0, 0.004);
  EXPECT_DOUBLE_EQ(table.profile(0, 3).good_loss, 0.005);
}

// ---------------------------------------------------------------- outage --

TEST(Outage, ZeroRateNeverOutages) {
  OutageConfig config;
  config.pair_rate = 0;
  config.wide_event_probability = 0;
  OutageSchedule schedule(config, 0, 10, 42,
                          net::VirtualTime::from_hours(21));
  for (int as = 0; as < 10; ++as) {
    for (int hour = 0; hour < 21; ++hour) {
      EXPECT_FALSE(schedule.in_outage(static_cast<AsId>(as),
                                      net::VirtualTime::from_hours(hour)));
    }
  }
}

TEST(Outage, HighRateProducesWindows) {
  OutageConfig config;
  config.pair_rate = 3.0;
  config.wide_event_probability = 0;
  OutageSchedule schedule(config, 0, 5, 42, net::VirtualTime::from_hours(21));
  bool any = false;
  for (int as = 0; as < 5; ++as) {
    if (!schedule.pair_windows(static_cast<AsId>(as)).empty()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(Outage, WideEventHitsManyAses) {
  OutageConfig config;
  config.pair_rate = 0;
  config.wide_event_probability = 1.0;
  config.wide_event_as_fraction = 0.5;
  OutageSchedule schedule(config, 0, 400, 42,
                          net::VirtualTime::from_hours(21));
  ASSERT_TRUE(schedule.has_wide_event());
  const auto window = schedule.wide_event();
  const auto mid = net::VirtualTime::from_micros(
      (window.start_us + window.end_us) / 2);
  int affected = 0;
  for (int as = 0; as < 400; ++as) {
    if (schedule.in_outage(static_cast<AsId>(as), mid)) ++affected;
  }
  EXPECT_GT(affected, 120);
  EXPECT_LT(affected, 280);
}

// ---------------------------------------------------------------- server --

TEST(Server, NullForMissingService) {
  Host host;
  host.services = 0b001;  // HTTP only
  EXPECT_TRUE(std::holds_alternative<HttpServer>(
      make_server(host, proto::Protocol::kHttp)));
  EXPECT_TRUE(std::holds_alternative<NoServer>(
      make_server(host, proto::Protocol::kSsh)));
}

// -------------------------------------------------------------- internet --

TEST(Internet, ProbeLifecycle) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  // Build a genuine SYN probe by hand.
  net::TcpPacket syn;
  syn.ip.src = world.origins[0].source_ips[0];
  syn.ip.dst = net::Ipv4Addr(5);  // a host in AS Alpha
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.seq = 12345;
  syn.tcp.flags.syn = true;

  auto response_bytes =
      internet.handle_probe(0, syn.serialize(), net::VirtualTime{}, 0);
  ASSERT_TRUE(response_bytes.has_value());
  auto response = net::TcpPacket::parse(*response_bytes);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->tcp.flags.syn);
  EXPECT_TRUE(response->tcp.flags.ack);
  EXPECT_EQ(response->tcp.ack, 12346u);
  EXPECT_EQ(response->ip.src, syn.ip.dst);
  EXPECT_EQ(response->tcp.src_port, 80);
  EXPECT_EQ(response->tcp.dst_port, 40000);
}

TEST(Internet, SilenceForUnroutedAndNonSyn) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  net::TcpPacket probe;
  probe.ip.src = world.origins[0].source_ips[0];
  probe.ip.dst = net::Ipv4Addr(world.universe_size + 5000);  // unrouted
  probe.tcp.dst_port = 80;
  probe.tcp.flags.syn = true;
  EXPECT_FALSE(internet.handle_probe(0, probe.serialize(), {}, 0));

  probe.ip.dst = net::Ipv4Addr(5);
  probe.tcp.flags.syn = false;
  probe.tcp.flags.ack = true;
  EXPECT_FALSE(internet.handle_probe(0, probe.serialize(), {}, 0));

  probe.tcp.flags.syn = true;
  probe.tcp.flags.ack = false;
  probe.tcp.dst_port = 8080;  // port outside the study
  EXPECT_FALSE(internet.handle_probe(0, probe.serialize(), {}, 0));
}

TEST(Internet, ConnectRunsHttpExchange) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection connection;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {}, 0,
                               connection));
  EXPECT_FALSE(connection.peer_reset());

  std::vector<std::uint8_t> request;
  proto::HttpRequest{}.serialize_to(request);
  connection.send(request);
  const auto reply = connection.read();
  ASSERT_FALSE(reply.empty());
  const std::string reply_text(reply.begin(), reply.end());
  EXPECT_NE(reply_text.find("HTTP/1.1"), std::string::npos);
  EXPECT_TRUE(connection.peer_closed());
}

TEST(Internet, SshServerSpeaksFirst) {
  auto world = make_mini_world();
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection connection;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kSsh, {}, 0,
                               connection));
  const auto banner = connection.read();
  ASSERT_FALSE(banner.empty());
  const std::string text(banner.begin(), banner.end());
  EXPECT_EQ(text.rfind("SSH-2.0-", 0), 0u);
}

TEST(Internet, ConnectFailsForAbsentHost) {
  MiniWorldOptions options;
  options.density = 0.5;
  auto world = make_mini_world(options);
  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  // Find an address with no host.
  net::Ipv4Addr missing;
  for (std::uint32_t addr = 0; addr < world.universe_size; ++addr) {
    if (world.hosts.find(net::Ipv4Addr(addr)) == nullptr) {
      missing = net::Ipv4Addr(addr);
      break;
    }
  }
  Connection connection;
  EXPECT_FALSE(internet.connect(0, world.origins[0].source_ips[0], missing,
                                proto::Protocol::kHttp, {}, 0, connection));
}

// ---------------------------------------------------------------- policy --

TEST(Policy, StaticL4BlockDropsProbes) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  BlockRule rule;
  rule.origins = origin_bit(0);
  rule.mode = BlockMode::kL4Drop;
  world.policies.edit(alpha).blocks.push_back(rule);

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  net::TcpPacket syn;
  syn.ip.src = world.origins[0].source_ips[0];
  syn.ip.dst = net::Ipv4Addr(5);  // in Alpha
  syn.tcp.dst_port = 80;
  syn.tcp.flags.syn = true;
  EXPECT_FALSE(internet.handle_probe(0, syn.serialize(), {}, 0).has_value());

  // Origin 1 is unaffected.
  syn.ip.src = world.origins[1].source_ips[0];
  EXPECT_TRUE(internet.handle_probe(1, syn.serialize(), {}, 0).has_value());

  // Another AS is unaffected for origin 0.
  syn.ip.src = world.origins[0].source_ips[0];
  syn.ip.dst = net::Ipv4Addr(256 + 5);  // in Beta
  EXPECT_TRUE(internet.handle_probe(0, syn.serialize(), {}, 0).has_value());
}

TEST(Policy, RstAfterAcceptAndL7Drop) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  const AsId beta = world.topology.find_as("Beta");
  BlockRule rst;
  rst.origins = origin_bit(0);
  rst.mode = BlockMode::kRstAfterAccept;
  world.policies.edit(alpha).blocks.push_back(rst);
  BlockRule hang;
  hang.origins = origin_bit(0);
  hang.mode = BlockMode::kL7Drop;
  world.policies.edit(beta).blocks.push_back(hang);

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  Connection reset_conn;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(5), proto::Protocol::kHttp, {}, 0,
                               reset_conn));
  EXPECT_TRUE(reset_conn.peer_reset());

  Connection hung_conn;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0],
                               net::Ipv4Addr(256 + 5), proto::Protocol::kHttp,
                               {}, 0, hung_conn));
  EXPECT_TRUE(hung_conn.hung());
  EXPECT_TRUE(hung_conn.read().empty());
}

TEST(Policy, GeoRestrictionAllowsOnlyInCountry) {
  auto world = make_mini_world();
  const AsId beta = world.topology.find_as("Beta");  // JP
  world.policies.edit(beta).geo =
      GeoRestriction{.allowed_countries = {country::kJP},
                     .host_fraction = 1.0};

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  Internet internet(&world, context, &persistent);

  net::TcpPacket syn;
  syn.tcp.dst_port = 80;
  syn.tcp.flags.syn = true;
  syn.ip.dst = net::Ipv4Addr(256 + 5);

  // Origin 0 is US: blocked. Origin 1 is JP: allowed.
  syn.ip.src = world.origins[0].source_ips[0];
  EXPECT_FALSE(internet.handle_probe(0, syn.serialize(), {}, 0).has_value());
  syn.ip.src = world.origins[1].source_ips[0];
  EXPECT_TRUE(internet.handle_probe(1, syn.serialize(), {}, 0).has_value());
}

TEST(Policy, RateIdsTripsAndPersists) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  RateIdsRule ids;
  ids.probe_threshold = 10;
  world.policies.edit(alpha).rate_ids = ids;

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;

  {
    Internet internet(&world, context, &persistent);
    net::TcpPacket syn;
    syn.ip.src = world.origins[0].source_ips[0];
    syn.tcp.dst_port = 80;
    syn.tcp.flags.syn = true;
    int answered = 0;
    for (int i = 0; i < 30; ++i) {
      syn.ip.dst = net::Ipv4Addr(static_cast<std::uint32_t>(i % 200));
      if (internet.handle_probe(0, syn.serialize(), {}, 0)) ++answered;
    }
    EXPECT_LE(answered, 10);
    EXPECT_GE(answered, 8);  // first probes must get through
  }

  // Next trial: the block persists from probe one.
  context.trial = 1;
  Internet internet(&world, context, &persistent);
  net::TcpPacket syn;
  syn.ip.src = world.origins[0].source_ips[0];
  syn.ip.dst = net::Ipv4Addr(3);
  syn.tcp.dst_port = 80;
  syn.tcp.flags.syn = true;
  EXPECT_FALSE(internet.handle_probe(0, syn.serialize(), {}, 0).has_value());

  // A different source IP (origin 1) is not blocked.
  syn.ip.src = world.origins[1].source_ips[0];
  EXPECT_TRUE(internet.handle_probe(1, syn.serialize(), {}, 0).has_value());
}

TEST(Policy, TemporalRstKicksInMidScan) {
  auto world = make_mini_world();
  const AsId gamma = world.topology.find_as("Gamma");
  TemporalRstRule rule;
  rule.min_detect_fraction = 0.5;
  rule.max_detect_fraction = 0.5;  // exactly mid-scan
  world.policies.edit(gamma).temporal_rst = rule;

  PersistentState persistent;
  TrialContext context;
  context.experiment_seed = world.seed;
  context.scan_duration = net::VirtualTime::from_hours(20);
  Internet internet(&world, context, &persistent);

  const net::Ipv4Addr dst(512 + 5);  // in Gamma
  const auto early = net::VirtualTime::from_hours(2);
  const auto late = net::VirtualTime::from_hours(18);

  Connection conn_early;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0], dst,
                               proto::Protocol::kSsh, early, 0, conn_early));
  EXPECT_FALSE(conn_early.peer_reset());

  Connection conn_late;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0], dst,
                               proto::Protocol::kSsh, late, 0, conn_late));
  EXPECT_TRUE(conn_late.peer_reset());

  // HTTP is unaffected (the rule is SSH-specific).
  Connection http_late;
  ASSERT_TRUE(internet.connect(0, world.origins[0].source_ips[0], dst,
                               proto::Protocol::kHttp, late, 0, http_late));
  EXPECT_FALSE(http_late.peer_reset());

  // Multi-IP origins are not detected (single_ip_only).
  Connection multi_late;
  ASSERT_TRUE(internet.connect(2, world.origins[2].source_ips[0], dst,
                               proto::Protocol::kSsh, late, 0, multi_late));
  EXPECT_FALSE(multi_late.peer_reset());
}

TEST(Policy, BlockRuleStartTrialPhaseIn) {
  auto world = make_mini_world();
  const AsId alpha = world.topology.find_as("Alpha");
  BlockRule rule;
  rule.origins = origin_bit(0);
  rule.mode = BlockMode::kL4Drop;
  rule.start_trial = 2;
  world.policies.edit(alpha).blocks.push_back(rule);

  PersistentState persistent;
  net::TcpPacket syn;
  syn.ip.src = world.origins[0].source_ips[0];
  syn.ip.dst = net::Ipv4Addr(5);
  syn.tcp.dst_port = 80;
  syn.tcp.flags.syn = true;

  for (int trial = 0; trial < 3; ++trial) {
    TrialContext context;
    context.trial = trial;
    context.experiment_seed = world.seed;
    Internet internet(&world, context, &persistent);
    const bool answered =
        internet.handle_probe(0, syn.serialize(), {}, 0).has_value();
    EXPECT_EQ(answered, trial < 2) << "trial " << trial;
  }
}

// --------------------------------------------------------------- scenario --

TEST(Scenario, PaperWorldBuildsAndIsConsistent) {
  ScenarioConfig config = ScenarioConfig::test_scale();
  auto world = build_world(config, paper_origins(config.universe_size));

  EXPECT_GT(world.topology.as_count(), 30u);
  EXPECT_GT(world.hosts.size(), 1000u);
  EXPECT_EQ(world.origin_id("US64"),
            static_cast<OriginId>(5));
  EXPECT_EQ(world.origins[world.origin_id("US64")].source_ips.size(), 64u);

  // Every host belongs to a routed AS matching its own record.
  for (const Host& host : world.hosts.all()) {
    auto as = world.topology.as_of(host.addr);
    ASSERT_TRUE(as.has_value());
    EXPECT_EQ(*as, host.as);
  }

  // Source IPs are outside the scanned universe.
  for (const auto& origin : world.origins) {
    for (auto ip : origin.source_ips) {
      EXPECT_GE(ip.value(), world.universe_size);
    }
  }

  // Key archetypes exist even at test scale.
  for (const char* name :
       {"DXTL Tseung Kwan O Service", "Telecom Italia", "Alibaba",
        "ABCDE Group Co.", "Ruhr-Universitaet Bochum", "WebCentral"}) {
    EXPECT_NE(world.topology.find_as(name), kNoAs) << name;
  }
}

TEST(Scenario, MaskHelpers) {
  const auto origins = paper_origins(1 << 16);
  EXPECT_EQ(mask_of(origins, {"AU"}), 1u);
  EXPECT_EQ(mask_of(origins, {"AU", "CEN"}), 0b1000001u);
  EXPECT_EQ(mask_of(origins, {"NOPE"}), 0u);
  EXPECT_EQ(mask_all_except(origins, {"AU"}), 0b1111110u);
}

TEST(Scenario, SameSeedSameWorld) {
  ScenarioConfig config = ScenarioConfig::test_scale();
  auto a = build_world(config, paper_origins(config.universe_size));
  auto b = build_world(config, paper_origins(config.universe_size));
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  ASSERT_EQ(a.topology.as_count(), b.topology.as_count());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts.all()[i].addr, b.hosts.all()[i].addr);
    EXPECT_EQ(a.hosts.all()[i].services, b.hosts.all()[i].services);
  }
}

}  // namespace
}  // namespace originscan::sim
