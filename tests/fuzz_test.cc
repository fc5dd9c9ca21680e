// Robustness ("poor man's fuzz") tests: every wire-format parser in the
// library must survive random bytes and random mutations of valid
// messages without crashing, and round-trip anything it accepts.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>

#include "core/dist.h"
#include "core/store.h"
#include "faultinject/faultinject.h"
#include "netbase/frame.h"
#include "netbase/framed_conn.h"
#include "netbase/headers.h"
#include "netbase/rng.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"
#include "scanner/blocklist.h"
#include "scanner/permutation.h"
#include "scanner/zgrab.h"
#include "service/wire.h"
#include "sim/internet.h"
#include "tests/l7_reference.h"
#include "tests/test_world.h"

namespace originscan {
namespace {

std::vector<std::uint8_t> random_bytes(net::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng());
  return out;
}

// Flip a few random bits/bytes of a valid message.
std::vector<std::uint8_t> mutate(net::Rng& rng,
                                 std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return bytes;
  const int mutations = 1 + static_cast<int>(rng.below(4));
  for (int i = 0; i < mutations; ++i) {
    switch (rng.below(3)) {
      case 0:  // flip a bit
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1:  // truncate
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      default:  // append garbage
        bytes.push_back(static_cast<std::uint8_t>(rng()));
        break;
    }
    if (bytes.empty()) break;
  }
  return bytes;
}

std::vector<std::uint8_t> to_bytes(std::string_view text) {
  return {text.begin(), text.end()};
}

// What a simulated server for `protocol` sends on open plus its reply to
// `client` (the scanner's own first flight when empty).
std::vector<std::uint8_t> server_flight(proto::Protocol protocol,
                                        std::uint64_t seed,
                                        std::vector<std::uint8_t> client = {},
                                        const sim::ServerOptions& options = {}) {
  sim::Host host;
  host.addr = net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(seed), 1);
  host.services = 0b111;
  host.seed = seed;
  if (client.empty()) {
    const auto flight = scan::client_flight(protocol);
    client.assign(flight.begin(), flight.end());
  }
  sim::Connection connection;
  connection.open(sim::make_server(host, protocol, options));
  const auto opened = connection.read();
  std::vector<std::uint8_t> bytes(opened.begin(), opened.end());
  if (protocol == proto::Protocol::kSsh) return bytes;  // the banner
  connection.send(client);
  const auto reply = connection.read();
  bytes.insert(bytes.end(), reply.begin(), reply.end());
  return bytes;
}

TEST(Fuzz, TcpPacketParserSurvivesGarbage) {
  net::Rng rng(101);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 120);
    auto parsed = net::TcpPacket::parse(bytes);
    // Random bytes essentially never carry two valid checksums.
    EXPECT_FALSE(parsed.has_value());
  }
}

TEST(Fuzz, TcpPacketParserSurvivesMutations) {
  net::Rng rng(102);
  net::TcpPacket packet;
  packet.ip.src = net::Ipv4Addr(10, 0, 0, 1);
  packet.ip.dst = net::Ipv4Addr(10, 0, 0, 2);
  packet.tcp.flags.syn = true;
  packet.payload = {1, 2, 3};
  const auto valid = packet.serialize();
  for (int i = 0; i < 5000; ++i) {
    const auto mutated = mutate(rng, valid);
    auto parsed = net::TcpPacket::parse(mutated);  // must not crash
    if (parsed && mutated == valid) {
      EXPECT_EQ(parsed->tcp.seq, packet.tcp.seq);
    }
  }
}

TEST(Fuzz, HandleProbeFastSurvivesMalformedStructs) {
  // The struct-level probe entry point skips the wire parser, so it must
  // tolerate arbitrary field garbage directly: absurd TTLs, non-TCP
  // protocol numbers, lying total_length, every flag combination, junk
  // payloads, unrouted destinations. It must never crash, and whatever
  // it decides must match what the byte path decides for the same packet
  // put on the wire.
  auto world = originscan::testing::make_mini_world();
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::PersistentState persistent_fast;
  sim::PersistentState persistent_bytes;
  sim::Internet fast(&world, context, &persistent_fast);
  sim::Internet bytes(&world, context, &persistent_bytes);

  net::Rng rng(113);
  for (int i = 0; i < 5000; ++i) {
    net::TcpPacket packet;
    packet.ip.src = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
    packet.ip.dst = net::Ipv4Addr(static_cast<std::uint32_t>(
        rng.below(2 * world.universe_size)));
    packet.ip.ttl = static_cast<std::uint8_t>(rng());
    packet.ip.protocol = static_cast<std::uint8_t>(rng());
    packet.ip.identification = static_cast<std::uint16_t>(rng());
    packet.ip.total_length = static_cast<std::uint16_t>(rng());
    packet.tcp.src_port = static_cast<std::uint16_t>(rng());
    packet.tcp.dst_port = rng.below(2) == 0
                              ? static_cast<std::uint16_t>(rng())
                              : std::uint16_t{80};
    packet.tcp.seq = static_cast<std::uint32_t>(rng());
    packet.tcp.ack = static_cast<std::uint32_t>(rng());
    packet.tcp.window = static_cast<std::uint16_t>(rng());
    packet.tcp.flags = net::TcpFlags::from_byte(static_cast<std::uint8_t>(rng()));
    packet.payload = random_bytes(rng, 16);

    const auto t = net::VirtualTime::from_seconds(
        static_cast<double>(rng.below(75600)));
    const auto from_fast = fast.handle_probe_fast(0, packet, t, 0);
    const auto from_bytes = bytes.handle_probe(0, packet.serialize(), t, 0);
    ASSERT_EQ(from_fast.has_value(), from_bytes.has_value()) << "i=" << i;
    if (from_fast) EXPECT_EQ(from_fast->serialize(), *from_bytes);
  }
}

TEST(Fuzz, HandleProbeBatchSurvivesGarbageBatches) {
  // The batch classifier consumes whatever the resolver left in the SoA
  // arrays; feed it arbitrary garbage instead — out-of-range AS ids,
  // random sent masks, absurd timestamps, unresolved hosts. It must
  // never crash, and its output can only narrow the sent mask: a live
  // probe implies the lane was sent, routed, and has a host.
  auto world = originscan::testing::make_mini_world();
  sim::TrialContext context;
  context.experiment_seed = world.seed;
  sim::PersistentState persistent;
  sim::Internet internet(&world, context, &persistent);
  auto probe_context = internet.probe_context(0, proto::Protocol::kHttp);
  const std::size_t as_count = world.topology.as_count();

  net::Rng rng(0xBA7CFull);
  sim::ProbeBatch batch;
  for (int iter = 0; iter < 2000; ++iter) {
    batch.size = 1 + static_cast<int>(rng.below(sim::ProbeBatch::kCapacity));
    batch.probes =
        1 + static_cast<int>(rng.below(sim::ProbeBatch::kMaxProbes));
    for (int i = 0; i < batch.size; ++i) {
      batch.addr[i] = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      switch (rng.below(3)) {
        case 0:
          batch.as[i] = sim::kNoAs;
          break;
        case 1:  // arbitrary garbage, usually far out of range
          batch.as[i] = static_cast<sim::AsId>(rng());
          break;
        default:
          batch.as[i] = static_cast<sim::AsId>(rng.below(as_count));
          break;
      }
      batch.has_host[i] = static_cast<std::uint8_t>(rng.below(2));
      batch.sent_mask[i] = static_cast<std::uint8_t>(rng());
      batch.live_mask[i] = static_cast<std::uint8_t>(rng());
      for (int p = 0; p < batch.probes; ++p) {
        batch.time_us[p * sim::ProbeBatch::kCapacity + i] =
            static_cast<std::int64_t>(rng());
      }
    }
    internet.handle_probe_batch(probe_context, batch);
    for (int i = 0; i < batch.size; ++i) {
      const auto sent_bits = static_cast<std::uint8_t>(
          batch.sent_mask[i] & ((1u << batch.probes) - 1));
      EXPECT_EQ(batch.live_mask[i] & ~sent_bits, 0) << iter << " " << i;
      if (batch.live_mask[i] != 0) {
        EXPECT_NE(batch.has_host[i], 0);
        EXPECT_LT(batch.as[i], as_count);
      }
    }
  }
}

// The view parsers must accept exactly what the owning reference
// parsers accept and extract the same fields, on valid messages, their
// mutations and random bytes alike.
TEST(Fuzz, TlsRecordAndHandshakeParsers) {
  net::Rng rng(103);
  const std::vector<std::vector<std::uint8_t>> valid = {
      proto::client_hello_record(proto::chrome_cipher_suites(),
                                 "fuzz.example"),
      server_flight(proto::Protocol::kHttps, 42)};

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 200)
                                  : mutate(rng, valid[rng.below(2)]);
    std::size_t consumed = 0;
    std::size_t ref_consumed = 0;
    const auto record = proto::TlsRecord::parse(bytes, consumed);
    const auto ref = reference::TlsRecord::parse(bytes, ref_consumed);
    ASSERT_EQ(record.has_value(), ref.has_value());
    if (!record) continue;
    EXPECT_LE(consumed, bytes.size());
    EXPECT_EQ(consumed, ref_consumed);
    EXPECT_EQ(static_cast<std::uint8_t>(record->content_type),
              ref->content_type);
    EXPECT_TRUE(std::ranges::equal(record->fragment, ref->fragment));

    std::vector<proto::HandshakeMessage> messages;
    const bool framed = proto::for_each_handshake(
        record->fragment, [&](const proto::HandshakeMessage& message) {
          messages.push_back(message);
        });
    const auto ref_messages = reference::split_handshakes(ref->fragment);
    ASSERT_EQ(framed, ref_messages.has_value());
    if (!framed) {
      EXPECT_TRUE(messages.empty());
      continue;
    }
    ASSERT_EQ(messages.size(), ref_messages->size());
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const auto& body = messages[m].body;
      const auto& ref_body = (*ref_messages)[m].body;
      EXPECT_EQ(static_cast<std::uint8_t>(messages[m].type),
                (*ref_messages)[m].type);
      EXPECT_TRUE(std::ranges::equal(body, ref_body));
      // Sub-parsers must tolerate arbitrary bodies, and agree.
      const auto hello = proto::ClientHello::parse(body);
      const auto ref_hello = reference::ClientHello::parse(ref_body);
      ASSERT_EQ(hello.has_value(), ref_hello.has_value());
      if (hello) {
        ASSERT_EQ(hello->suite_count(), ref_hello->cipher_suites.size());
        for (std::size_t k = 0; k < hello->suite_count(); ++k) {
          EXPECT_EQ(hello->suite(k), ref_hello->cipher_suites[k]);
        }
        EXPECT_EQ(hello->server_name, ref_hello->server_name);
        EXPECT_EQ(hello->random, ref_hello->random);
      }
      const auto server_hello = proto::ServerHello::parse(body);
      const auto ref_server_hello = reference::ServerHello::parse(ref_body);
      ASSERT_EQ(server_hello.has_value(), ref_server_hello.has_value());
      if (server_hello) {
        EXPECT_EQ(server_hello->cipher_suite, ref_server_hello->cipher_suite);
        EXPECT_EQ(server_hello->random, ref_server_hello->random);
      }
      const auto cert = proto::Certificate::parse(body);
      const auto ref_cert = reference::Certificate::parse(ref_body);
      ASSERT_EQ(cert.has_value(), ref_cert.has_value());
      if (cert) {
        EXPECT_EQ(cert->chain_size, ref_cert->chain.size());
        if (!ref_cert->chain.empty()) {
          EXPECT_TRUE(std::ranges::equal(cert->leaf, ref_cert->chain[0]));
        }
      }
    }
  }
}

TEST(Fuzz, SshParsers) {
  net::Rng rng(104);
  const std::vector<std::vector<std::uint8_t>> valid = {
      server_flight(proto::Protocol::kSsh, 42),
      to_bytes("SSH-1.99-OpenSSH_8.0 Ubuntu-6\r\n")};
  std::vector<std::uint8_t> kexinit;
  const std::array<std::uint8_t, 16> cookie{};
  proto::write_kexinit_packet(kexinit, cookie, 9);

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 200)
                                  : mutate(rng, valid[rng.below(2)]);
    const std::string line(bytes.begin(), bytes.end());
    const auto id = proto::SshIdentification::parse(line);
    const auto ref = reference::SshIdentification::parse(line);
    ASSERT_EQ(id.has_value(), ref.has_value()) << line;
    if (id) {
      EXPECT_EQ(id->protocol_version, ref->protocol_version);
      EXPECT_EQ(id->software_version, ref->software_version);
      EXPECT_EQ(id->comment, ref->comment);
    }
    // The KEXINIT writer's output, damaged, must not trip its decoder.
    const auto packet = mutate(rng, kexinit);
    if (auto payload = reference::ssh_packet_payload(packet)) {
      (void)reference::SshKexInit::parse(*payload);
    }
  }
}

TEST(Fuzz, HttpParsers) {
  net::Rng rng(105);
  const std::vector<std::vector<std::uint8_t>> valid = {
      std::vector<std::uint8_t>(
          scan::client_flight(proto::Protocol::kHttp).begin(),
          scan::client_flight(proto::Protocol::kHttp).end()),
      to_bytes("GET /a HTTP/1.0\r\nhOsT: one\r\nHost:two \r\n"
               "USER-agent:\tx\r\n\r\n"),
      server_flight(proto::Protocol::kHttp, 42),
      to_bytes("HTTP/1.1 301 Moved\r\nSERVER: a\r\nServer: b\r\n"
               "location: /x\r\nContent-Length: 9\r\ncontent-length:  "
               "30 \r\n\r\n<title>in</title>x<title>out</title>")};

  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 3 == 0 ? random_bytes(rng, 300)
                                  : mutate(rng, valid[rng.below(4)]);
    const std::string text(bytes.begin(), bytes.end());
    const auto request = proto::HttpRequest::parse(text);
    const auto ref_request = reference::HttpRequest::parse(text);
    ASSERT_EQ(request.has_value(), ref_request.has_value()) << text;
    if (request) {
      EXPECT_EQ(request->method, ref_request->method);
      EXPECT_EQ(request->target, ref_request->target);
      EXPECT_EQ(request->host, ref_request->host);
      EXPECT_EQ(request->user_agent, ref_request->user_agent);
    }
    const auto response = proto::HttpResponse::parse(text);
    const auto ref_response = reference::HttpResponse::parse(text);
    ASSERT_EQ(response.has_value(), ref_response.has_value()) << text;
    if (response) {
      EXPECT_EQ(response->status_code, ref_response->status_code);
      EXPECT_EQ(response->reason, ref_response->reason);
      EXPECT_EQ(response->server, ref_response->server);
      EXPECT_EQ(response->title, ref_response->title);
      const auto location = ref_response->extra_headers.find("location");
      EXPECT_EQ(response->location,
                location == ref_response->extra_headers.end()
                    ? std::string()
                    : location->second);
    }
    EXPECT_EQ(proto::extract_title(text), reference::extract_title(text));
  }
}

TEST(Fuzz, GrabClassificationMatchesReference) {
  // Real server flights — pages, redirects, 400s, block pages, TLS
  // flights and alerts, SSH banners — delivered whole, truncated to half
  // (what banner_trunc does), cut short at a random length, garbled, or
  // replaced by noise, under every way the peer can end the connection.
  // The lean client path must classify each exactly as the owning-parser
  // reference does.
  net::Rng rng(106);
  std::vector<std::pair<proto::Protocol, std::vector<std::uint8_t>>> flights;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (proto::Protocol protocol : proto::kAllProtocols) {
      flights.emplace_back(protocol, server_flight(protocol, seed));
    }
  }
  flights.emplace_back(proto::Protocol::kHttp,
                       server_flight(proto::Protocol::kHttp, 7,
                                     to_bytes("NONSENSE\r\n\r\n")));
  flights.emplace_back(proto::Protocol::kHttp,
                       server_flight(proto::Protocol::kHttp, 7, {},
                                     {.forced_page_title = "Blocked Site"}));
  const std::uint16_t tls13_only[] = {0x1301};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    flights.emplace_back(proto::Protocol::kHttps,
                         server_flight(proto::Protocol::kHttps, seed,
                                       proto::client_hello_record(tls13_only)));
    flights.emplace_back(proto::Protocol::kHttps,
                         server_flight(proto::Protocol::kHttps, seed,
                                       {21, 3, 3, 0, 2, 1, 0}));
  }

  std::map<sim::L7Outcome, int> seen;
  for (int i = 0; i < 20000; ++i) {
    const auto& [protocol, whole] = flights[rng.below(flights.size())];
    std::vector<std::uint8_t> bytes = whole;
    switch (rng.below(6)) {
      case 0:
        break;
      case 1:
        bytes.resize(bytes.size() / 2);
        break;
      case 2:
        bytes.resize(rng.below(bytes.size() + 1));
        break;
      case 3:
        bytes = mutate(rng, std::move(bytes));
        break;
      case 4:
        bytes = random_bytes(rng, 120);
        break;
      default:
        bytes.clear();
        break;
    }
    const bool closed = rng.below(2) == 0;
    const bool reset = rng.below(8) == 0;
    const auto lean = scan::classify_flight(protocol, bytes, closed, reset);
    const auto ref =
        reference::classify_flight(protocol, bytes, closed, reset);
    ASSERT_EQ(lean.outcome, ref.outcome)
        << proto::name_of(protocol) << " case " << i;
    EXPECT_EQ(lean.banner, ref.banner);
    EXPECT_EQ(lean.explicit_close, ref.explicit_close);
    ++seen[lean.outcome];
  }
  // Every outcome a flight can produce was exercised.
  for (sim::L7Outcome outcome :
       {sim::L7Outcome::kCompleted, sim::L7Outcome::kProtocolError,
        sim::L7Outcome::kClosedMidHandshake, sim::L7Outcome::kReadTimeout,
        sim::L7Outcome::kClosedBeforeData,
        sim::L7Outcome::kResetAfterAccept}) {
    EXPECT_GT(seen[outcome], 50) << sim::to_string(outcome);
  }
}

TEST(Fuzz, StoreParserSurvivesMutations) {
  net::Rng rng(106);
  std::vector<scan::ScanResult> results(2);
  results[0].origin_code = "AU";
  results[1].origin_code = "CEN";
  results[1].trial = 1;
  for (int i = 0; i < 20; ++i) {
    scan::ScanRecord record;
    record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(i * 7));
    results[i % 2].records.push_back(record);
  }
  const auto valid = core::serialize_results(results);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = i % 2 == 0 ? random_bytes(rng, 400)
                                  : mutate(rng, valid);
    (void)core::parse_results(bytes);  // must neither crash nor overalloc
  }
}

TEST(Fuzz, StoreV2TruncationsAndBitFlips) {
  // Directed variant of the mutation fuzz for the CRC'd v2 format:
  // every truncation must be rejected, and random bit flips must never
  // crash (single flips are also always *detected* — store_test sweeps
  // that property exhaustively).
  net::Rng rng(112);
  std::vector<scan::ScanResult> results(2);
  results[0].origin_code = "ONE";
  results[1].origin_code = "TWO";
  results[1].trial = 1;
  for (int i = 0; i < 30; ++i) {
    scan::ScanRecord record;
    record.addr = net::Ipv4Addr(static_cast<std::uint32_t>(i * 13));
    record.synack_mask = static_cast<std::uint8_t>(i & 3);
    results[i % 2].records.push_back(record);
  }
  const auto valid = core::serialize_results(results);
  ASSERT_TRUE(core::parse_results(valid).has_value());

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto truncated = valid;
    truncated.resize(cut);
    EXPECT_FALSE(core::parse_results(truncated).has_value()) << "cut=" << cut;
  }
  for (int i = 0; i < 5000; ++i) {
    auto flipped = valid;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      flipped[rng.below(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)core::parse_results(flipped);  // must not crash or overalloc
  }
}

TEST(Fuzz, Ipv4AndPrefixParsers) {
  net::Rng rng(107);
  const char alphabet[] = "0123456789./abcx -";
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const std::size_t length = rng.below(24);
    for (std::size_t j = 0; j < length; ++j) {
      text.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    const auto addr = net::Ipv4Addr::parse(text);
    if (addr) {
      EXPECT_EQ(net::Ipv4Addr::parse(addr->to_string()), addr);
    }
    const auto prefix = net::Prefix::parse(text);
    if (prefix) {
      EXPECT_EQ(net::Prefix::parse(prefix->to_string()), prefix);
    }
  }
}

TEST(Fuzz, FaultSpecParserSurvivesGarbage) {
  net::Rng rng(108);
  // Biased toward the spec grammar's alphabet so mutations stay near the
  // parseable frontier (pure noise rarely reaches the deep code paths).
  const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789:;,=%._ -drop:slot=p&";
  for (int i = 0; i < 20000; ++i) {
    std::string spec;
    const std::size_t length = rng.below(64);
    for (std::size_t j = 0; j < length; ++j) {
      spec.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    std::string error;
    const auto plan = fault::FaultPlan::parse(spec, &error);
    if (plan) {
      // Anything accepted must round-trip through its own rendering.
      const auto reparsed = fault::FaultPlan::parse(plan->to_string());
      ASSERT_TRUE(reparsed.has_value()) << plan->to_string();
      EXPECT_EQ(plan->to_string(), reparsed->to_string());
    } else {
      EXPECT_FALSE(error.empty()) << spec;
    }
  }
}

TEST(Fuzz, FaultSpecParserSurvivesMutations) {
  net::Rng rng(109);
  const std::string valid =
      "drop:slot=1024..2048,p=0.3;outage:sec=0..600,origin=1;"
      "send_fail:slot=0..99,p=1;mac_corrupt:slot=5..6,p=0.5;"
      "rst:host%7==0,attempts=2;banner_trunc:host%3==1;"
      "banner_stall:host%5==4,p=0.25;store_eio:write=3,count=2;"
      "cell_crash:cell=3;cell_hang:cell=1,sec=60,attempts=2";
  const std::vector<std::uint8_t> valid_bytes(valid.begin(), valid.end());
  for (int i = 0; i < 20000; ++i) {
    const auto mutated = mutate(rng, valid_bytes);
    const std::string spec(mutated.begin(), mutated.end());
    const auto plan = fault::FaultPlan::parse(spec);  // must not crash
    if (plan) {
      const auto reparsed = fault::FaultPlan::parse(plan->to_string());
      ASSERT_TRUE(reparsed.has_value()) << plan->to_string();
    }
  }
}

TEST(Fuzz, FaultSpecRejectsOverflowAndEmpty) {
  // The non-negotiable rejections: overflow slots, inverted ranges, and
  // empty input must error (with a reason), never crash or accept.
  const char* bad[] = {
      "",
      "   ",
      ";",
      "drop:slot=18446744073709551615..18446744073709551616,p=1",
      "drop:slot=99999999999999999999999999..5,p=1",
      "drop:slot=7..3,p=1",
      "outage:sec=100..1",
      "store_eio:write=18446744073709551616",
      "rst:host%4294967296==0",
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(fault::FaultPlan::parse(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(Fuzz, BlocklistParserSurvivesGarbage) {
  net::Rng rng(110);
  const char alphabet[] = "0123456789./# \nabcdefx-";
  for (int i = 0; i < 10000; ++i) {
    std::string body;
    const std::size_t length = rng.below(120);
    for (std::size_t j = 0; j < length; ++j) {
      body.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    scan::Blocklist blocklist;
    const auto added = blocklist.load(body);  // must not crash
    if (added.has_value()) {
      // Whatever loaded must answer membership queries sanely.
      (void)blocklist.is_blocked(net::Ipv4Addr(rng.below(1u << 16)));
      EXPECT_LE(*added, 120u);
    }
  }
  // A valid body keeps working after the garbage barrage.
  scan::Blocklist blocklist;
  const auto added = blocklist.load("# comment\n10.0.0.0/8\n\n192.168.1.1\n");
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(*added, 2u);
  EXPECT_TRUE(blocklist.is_blocked(net::Ipv4Addr(10, 1, 2, 3)));
}

TEST(Fuzz, FrameCodecTruncationsBitFlipsOversizeAndDuplicates) {
  // The framing layer under the journal segments and the dist wire
  // protocol: every mangled input must come back as a classified
  // FrameError (or a clean parse when the CRC happens to survive),
  // never a crash, and a lying length field must never over-allocate.
  net::Rng rng(114);
  const auto payload = random_bytes(rng, 64);
  const auto valid = net::encode_frame(payload);

  // Every truncation of a single-frame buffer is kTruncated.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto truncated = valid;
    truncated.resize(cut);
    std::span<const std::uint8_t> out;
    EXPECT_EQ(net::parse_single_frame(truncated, out),
              net::FrameError::kTruncated)
        << "cut=" << cut;
  }

  // A duplicated frame is trailing garbage for the file-shaped parser
  // but two clean frames for the stream decoder.
  auto doubled = valid;
  doubled.insert(doubled.end(), valid.begin(), valid.end());
  std::span<const std::uint8_t> single;
  EXPECT_NE(net::parse_single_frame(doubled, single), net::FrameError::kNone);
  net::FrameDecoder stream;
  stream.feed(doubled);
  for (int i = 0; i < 2; ++i) {
    const auto frame = stream.next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_TRUE(std::equal(frame->begin(), frame->end(), payload.begin(),
                           payload.end()));
  }
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_EQ(stream.buffered(), 0u);

  // An oversized declared length poisons the decoder before any
  // allocation in its size class can happen.
  std::vector<std::uint8_t> oversized = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  net::FrameDecoder capped(/*max_payload=*/1024);
  capped.feed(oversized);
  EXPECT_FALSE(capped.next().has_value());
  EXPECT_EQ(capped.error(), net::FrameError::kOversized);

  // Random mutations: classified or parsed, never a crash; a decoder
  // that survives must either yield frames or report why not.
  for (int i = 0; i < 5000; ++i) {
    const auto mangled = i % 2 == 0 ? random_bytes(rng, 128)
                                    : mutate(rng, valid);
    std::span<const std::uint8_t> out;
    (void)net::parse_single_frame(mangled, out);
    net::FrameDecoder decoder(/*max_payload=*/4096);
    decoder.feed(mangled);
    while (decoder.next().has_value()) {
    }
    if (decoder.error() == net::FrameError::kNone) {
      EXPECT_LE(decoder.buffered(), mangled.size());
    }
  }
}

TEST(Fuzz, DistMessageCodecRoundTripsAndSurvivesMutations) {
  net::Rng rng(115);
  // One representative valid frame per message type.
  std::vector<std::vector<std::uint8_t>> valid;
  {
    core::WireMessage hello;
    hello.type = core::MsgType::kHello;
    hello.worker = 7;
    core::WireMessage claim;
    claim.type = core::MsgType::kClaim;
    core::WireMessage grant;
    grant.type = core::MsgType::kGrant;
    grant.origin = 3;
    grant.chain_pos = 5;
    grant.grant = 1;
    grant.have_snapshot = true;
    grant.snapshot = random_bytes(rng, 48);
    core::WireMessage segment;
    segment.type = core::MsgType::kSegment;
    segment.slot = 42;
    segment.kind = core::SegmentKind::kIds;
    segment.bytes = random_bytes(rng, 96);
    core::WireMessage done;
    done.type = core::MsgType::kDone;
    done.slot = 42;
    done.attempts = 2;
    done.sha256 = "abc123";
    core::WireMessage abort_msg;
    abort_msg.type = core::MsgType::kAbort;
    abort_msg.text = "cell_crash fault";
    for (const auto* message :
         {&hello, &claim, &grant, &segment, &done, &abort_msg}) {
      valid.push_back(core::encode_message(*message));
      // Round trip: the frame decodes back to the same typed fields.
      net::FrameDecoder decoder;
      decoder.feed(valid.back());
      const auto payload = decoder.next();
      ASSERT_TRUE(payload.has_value());
      const auto decoded = core::decode_message(*payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->type, message->type);
      EXPECT_EQ(decoded->worker, message->worker);
      EXPECT_EQ(decoded->origin, message->origin);
      EXPECT_EQ(decoded->chain_pos, message->chain_pos);
      EXPECT_EQ(decoded->grant, message->grant);
      EXPECT_EQ(decoded->have_snapshot, message->have_snapshot);
      EXPECT_EQ(decoded->snapshot, message->snapshot);
      EXPECT_EQ(decoded->slot, message->slot);
      EXPECT_EQ(decoded->kind, message->kind);
      EXPECT_EQ(decoded->bytes, message->bytes);
      EXPECT_EQ(decoded->attempts, message->attempts);
      EXPECT_EQ(decoded->lost, message->lost);
      EXPECT_EQ(decoded->sha256, message->sha256);
      EXPECT_EQ(decoded->text, message->text);
    }
  }

  // The master's exact ingestion path under mutation: frame decode, then
  // message decode of whatever payloads survive the CRC. Both must
  // classify (decoder error / nullopt message), never crash.
  for (int i = 0; i < 5000; ++i) {
    const auto& base = valid[rng.below(valid.size())];
    const auto mangled = i % 3 == 0 ? random_bytes(rng, 160)
                                    : mutate(rng, base);
    net::FrameDecoder decoder;
    decoder.feed(mangled);
    while (auto payload = decoder.next()) {
      (void)core::decode_message(*payload);
    }
  }

  // Raw payload fuzz (bypassing the CRC): decode_message alone must
  // reject garbage without crashing or over-allocating.
  for (int i = 0; i < 5000; ++i) {
    (void)core::decode_message(random_bytes(rng, 96));
  }
}

TEST(Fuzz, SegmentMergerDigestIsInterleavingInvariant) {
  // The merge-commutativity property the distributed master relies on:
  // any arrival order of the same keyed segments — including duplicated
  // deliveries after a worker retry — produces the same digest.
  net::Rng rng(116);
  for (int round = 0; round < 200; ++round) {
    const std::size_t slots = 1 + rng.below(6);
    struct Entry {
      std::uint64_t slot;
      core::SegmentKind kind;
      std::vector<std::uint8_t> bytes;
    };
    std::vector<Entry> entries;
    for (std::uint64_t slot = 0; slot < slots; ++slot) {
      for (auto kind : {core::SegmentKind::kRecords, core::SegmentKind::kIds,
                        core::SegmentKind::kMetrics}) {
        entries.push_back({slot, kind, random_bytes(rng, 32)});
      }
    }

    core::SegmentMerger reference;
    for (const auto& entry : entries) {
      reference.add(entry.slot, entry.kind, entry.bytes);
    }
    const std::string expected = reference.digest();

    // A few random interleavings, each with random duplicate deliveries.
    for (int perm = 0; perm < 4; ++perm) {
      auto shuffled = entries;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
      }
      core::SegmentMerger merger;
      for (const auto& entry : shuffled) {
        merger.add(entry.slot, entry.kind, entry.bytes);
        if (rng.below(4) == 0) {  // duplicated frame: last write wins
          merger.add(entry.slot, entry.kind, entry.bytes);
        }
      }
      EXPECT_EQ(merger.digest(), expected) << "round=" << round;
      for (std::uint64_t slot = 0; slot < slots; ++slot) {
        EXPECT_TRUE(merger.complete(slot));
      }
      // Rollback erases the slot completely; re-adding restores the
      // exact digest (what a chain re-grant does after a worker death).
      merger.drop_slot(0);
      EXPECT_FALSE(merger.complete(0));
      EXPECT_NE(merger.digest(), expected);
      for (const auto& entry : entries) {
        if (entry.slot == 0) merger.add(entry.slot, entry.kind, entry.bytes);
      }
      EXPECT_EQ(merger.digest(), expected);
    }
  }
}

TEST(Fuzz, ServiceMessageCodecRoundTripsAndSurvivesMutations) {
  net::Rng rng(117);
  // One representative valid frame per service message type.
  std::vector<std::vector<std::uint8_t>> valid;
  {
    service::ServiceWire hello;
    hello.type = service::ServiceMsg::kHello;
    service::ServiceWire ack;
    ack.type = service::ServiceMsg::kHelloAck;
    ack.universe_seed = 0x05CA9;
    ack.universe_size = 1u << 12;
    service::ServiceWire submit;
    submit.type = service::ServiceMsg::kSubmit;
    submit.request_id = 7;
    submit.tenant = 3;
    submit.origin_code = "US64";
    submit.protocol = proto::Protocol::kSsh;
    submit.trial = 2;
    submit.probes = 1;
    submit.retries = 1;
    service::ServiceWire status;
    status.type = service::ServiceMsg::kStatus;
    status.request_id = 7;
    status.state = service::SessionState::kQueued;
    status.queue_position = 4;
    service::ServiceWire result;
    result.type = service::ServiceMsg::kResult;
    result.request_id = 7;
    result.records = random_bytes(rng, 128);
    service::ServiceWire cancel;
    cancel.type = service::ServiceMsg::kCancel;
    cancel.request_id = 7;
    service::ServiceWire shutdown;
    shutdown.type = service::ServiceMsg::kShutdown;
    service::ServiceWire error;
    error.type = service::ServiceMsg::kError;
    error.request_id = 7;
    error.error = service::ServiceError::kAdmissionFull;
    error.text = "admission caps reached";
    for (const auto* message : {&hello, &ack, &submit, &status, &result,
                                &cancel, &shutdown, &error}) {
      valid.push_back(service::encode_service_message(*message));
      net::FrameDecoder decoder;
      decoder.feed(valid.back());
      const auto payload = decoder.next();
      ASSERT_TRUE(payload.has_value());
      const auto decoded = service::decode_service_message(*payload);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->type, message->type);
      EXPECT_EQ(decoded->version, message->version);
      EXPECT_EQ(decoded->universe_seed, message->universe_seed);
      EXPECT_EQ(decoded->universe_size, message->universe_size);
      EXPECT_EQ(decoded->request_id, message->request_id);
      EXPECT_EQ(decoded->tenant, message->tenant);
      EXPECT_EQ(decoded->origin_code, message->origin_code);
      EXPECT_EQ(decoded->protocol, message->protocol);
      EXPECT_EQ(decoded->trial, message->trial);
      EXPECT_EQ(decoded->probes, message->probes);
      EXPECT_EQ(decoded->retries, message->retries);
      EXPECT_EQ(decoded->state, message->state);
      EXPECT_EQ(decoded->queue_position, message->queue_position);
      EXPECT_EQ(decoded->records, message->records);
      EXPECT_EQ(decoded->error, message->error);
      EXPECT_EQ(decoded->text, message->text);
    }
  }

  // The daemon's exact ingestion path under mutation: frame decode, then
  // strict message decode. Both must classify, never crash, and trailing
  // bytes must always reject.
  for (int i = 0; i < 5000; ++i) {
    const auto& base = valid[rng.below(valid.size())];
    const auto mangled =
        i % 3 == 0 ? random_bytes(rng, 160) : mutate(rng, base);
    net::FrameDecoder decoder;
    decoder.feed(mangled);
    while (auto payload = decoder.next()) {
      (void)service::decode_service_message(*payload);
    }
  }

  // Payload-level trailing garbage (valid frame, padded message) must
  // reject even though the CRC passes.
  for (const auto& frame : valid) {
    net::FrameDecoder decoder;
    decoder.feed(frame);
    auto payload = decoder.next();
    ASSERT_TRUE(payload.has_value());
    payload->push_back(0);
    EXPECT_FALSE(service::decode_service_message(*payload).has_value());
  }

  // Oversized string caps: an origin code longer than the decoder's cap
  // rejects rather than allocating from a lying length.
  {
    service::ServiceWire submit;
    submit.type = service::ServiceMsg::kSubmit;
    submit.origin_code = std::string(64, 'A');  // > kMaxOriginCodeBytes
    net::FrameDecoder decoder;
    decoder.feed(service::encode_service_message(submit));
    const auto payload = decoder.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_FALSE(service::decode_service_message(*payload).has_value());
  }
}

TEST(Fuzz, FramedConnMatchesBareDecoderOnChunkedStreams) {
  // The transport under both protocols: a stream of dist and service
  // frames — some garbled, some duplicated, the tail sometimes cut —
  // written into a socketpair in random chunks and drained by a
  // FramedConn at random points, then closed. It must yield exactly the
  // payloads a bare FrameDecoder fed the whole stream yields, and end in
  // the matching class: poisoned with the same error, torn when bytes
  // remain at EOF, clean EOF otherwise.
  net::Rng rng(118);
  std::vector<std::vector<std::uint8_t>> frames;
  {
    core::WireMessage message;
    message.type = core::MsgType::kHello;
    message.worker = 3;
    frames.push_back(core::encode_message(message));
    message.type = core::MsgType::kGrant;
    message.have_snapshot = true;
    message.snapshot = random_bytes(rng, 256);
    frames.push_back(core::encode_message(message));
    message.type = core::MsgType::kSegment;
    message.bytes = random_bytes(rng, 512);
    frames.push_back(core::encode_message(message));
    message.type = core::MsgType::kDone;
    message.sha256 = "abc123";
    frames.push_back(core::encode_message(message));
    service::ServiceWire wire;
    wire.type = service::ServiceMsg::kSubmit;
    wire.origin_code = "JP";
    frames.push_back(service::encode_service_message(wire));
    wire.type = service::ServiceMsg::kResult;
    wire.records = random_bytes(rng, 512);
    frames.push_back(service::encode_service_message(wire));
    wire.type = service::ServiceMsg::kError;
    wire.text = "admission caps reached";
    frames.push_back(service::encode_service_message(wire));
  }

  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> stream;
    const std::size_t count = 1 + rng.below(8);
    for (std::size_t i = 0; i < count; ++i) {
      std::vector<std::uint8_t> frame = frames[rng.below(frames.size())];
      switch (rng.below(8)) {
        case 0:  // garbled byte
          frame[rng.below(frame.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
          break;
        case 1:  // duplicated frame
          stream.insert(stream.end(), frame.begin(), frame.end());
          break;
        default:
          break;
      }
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    if (rng.below(4) == 0) stream.resize(rng.below(stream.size() + 1));

    net::FrameDecoder bare;
    bare.feed(stream);
    std::vector<std::vector<std::uint8_t>> want;
    while (auto payload = bare.next()) want.push_back(std::move(*payload));
    const auto want_state =
        bare.error() != net::FrameError::kNone
            ? net::FramedConn::ReadState::kPoisoned
            : (bare.buffered() > 0 ? net::FramedConn::ReadState::kTorn
                                   : net::FramedConn::ReadState::kEof);

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    net::FramedConn conn(sv[0]);
    std::vector<std::vector<std::uint8_t>> got;
    const auto drain = [&] {
      conn.receive();
      while (auto payload = conn.next()) got.push_back(std::move(*payload));
    };
    for (std::size_t off = 0; off < stream.size();) {
      const std::size_t chunk =
          std::min<std::size_t>(stream.size() - off, 1 + rng.below(512));
      ASSERT_EQ(::write(sv[1], stream.data() + off, chunk),
                static_cast<ssize_t>(chunk));
      off += chunk;
      if (rng.below(2) == 0) drain();
    }
    ::close(sv[1]);
    drain();

    EXPECT_EQ(got, want) << "round=" << round;
    EXPECT_EQ(conn.read_state(), want_state) << "round=" << round;
    EXPECT_EQ(conn.frame_error(), bare.error()) << "round=" << round;
  }
}

TEST(Fuzz, CyclicGroupHandlesArbitrarySizes) {
  net::Rng rng(111);
  // The permutation builder must produce a full, duplicate-free cycle
  // for any size, including primes, powers of two, and tiny values.
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t size = 1 + rng.below(2000);
    auto group = scan::CyclicGroup::for_size(size, rng());
    auto iterator = group.all();
    std::vector<bool> seen(size, false);
    std::uint64_t count = 0;
    while (auto value = iterator.next()) {
      ASSERT_LT(*value, size);
      ASSERT_FALSE(seen[*value]) << "duplicate at size " << size;
      seen[*value] = true;
      ++count;
    }
    EXPECT_EQ(count, size);
  }
}

}  // namespace
}  // namespace originscan
