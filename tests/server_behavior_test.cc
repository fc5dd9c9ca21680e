// Direct tests of the simulated servers' protocol behaviour: the byte
// streams they emit must satisfy the same codecs a real peer would use,
// and must stay byte-for-byte what they were (ServerWireBytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "netbase/sha256.h"
#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"
#include "scanner/zgrab.h"
#include "sim/internet.h"
#include "sim/scenario.h"
#include "sim/server.h"
#include "tests/l7_reference.h"

namespace originscan::sim {
namespace {

Host make_host(std::uint64_t seed = 42) {
  Host host;
  host.addr = net::Ipv4Addr(10, 1, 2, 3);
  host.services = 0b111;
  host.seed = seed;
  return host;
}

std::vector<std::uint8_t> to_bytes(std::string_view text) {
  return {text.begin(), text.end()};
}

std::string to_string(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

// A connection straight to the server `host` runs for `protocol`.
Connection connect_to(const Host& host, proto::Protocol protocol,
                      const ServerOptions& options = {}) {
  Connection connection;
  connection.open(make_server(host, protocol, options));
  return connection;
}

// The first flight the scanner's client sends for each protocol.
std::vector<std::uint8_t> standard_client_flight(proto::Protocol protocol) {
  const auto flight = scan::client_flight(protocol);
  return {flight.begin(), flight.end()};
}

// ------------------------------------------------------------------ HTTP --

TEST(HttpServerBehavior, AnswersGetWithParseableResponse) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttp);
  ASSERT_FALSE(connection.hung());
  EXPECT_TRUE(connection.read().empty());  // client speaks first

  connection.send(standard_client_flight(proto::Protocol::kHttp));
  EXPECT_TRUE(connection.peer_closed());  // Connection: close semantics
  const std::string reply = to_string(connection.read());
  ASSERT_FALSE(reply.empty());

  auto response = proto::HttpResponse::parse(reply);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->valid());
  EXPECT_FALSE(response->server.empty());
}

TEST(HttpServerBehavior, StatusVariantsAreDeterministicPerHost) {
  // Different hosts serve 200/301/403 variants; the same host always
  // serves the same one.
  std::map<int, int> statuses;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Host host = make_host(seed);
    auto connection = connect_to(host, proto::Protocol::kHttp);
    connection.send(standard_client_flight(proto::Protocol::kHttp));
    const std::string reply = to_string(connection.read());
    auto response = proto::HttpResponse::parse(reply);
    ASSERT_TRUE(response.has_value());
    ++statuses[response->status_code];
    if (response->status_code == 301) {
      EXPECT_EQ(response->location, "https://10.1.2.3/");
    }

    auto again = connect_to(host, proto::Protocol::kHttp);
    again.send(standard_client_flight(proto::Protocol::kHttp));
    const std::string reply2 = to_string(again.read());
    auto response2 = proto::HttpResponse::parse(reply2);
    ASSERT_TRUE(response2.has_value());
    EXPECT_EQ(response2->status_code, response->status_code);
  }
  EXPECT_GT(statuses[200], 120);  // most hosts serve a plain page
  EXPECT_GT(statuses[301] + statuses[403], 10);
}

TEST(HttpServerBehavior, ForcedBlockPageTitle) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttp,
                               {.forced_page_title = "Blocked Site"});
  connection.send(standard_client_flight(proto::Protocol::kHttp));
  const std::string reply = to_string(connection.read());
  auto response = proto::HttpResponse::parse(reply);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->title, "Blocked Site");
}

TEST(HttpServerBehavior, RejectsGarbageWith400) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttp);
  connection.send(to_bytes("NONSENSE\r\n\r\n"));
  const std::string reply = to_string(connection.read());
  auto response = proto::HttpResponse::parse(reply);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status_code, 400);
}

TEST(HttpServerBehavior, BuffersPartialRequests) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttp);
  connection.send(to_bytes("GET / HT"));
  EXPECT_FALSE(connection.peer_closed());
  EXPECT_TRUE(connection.read().empty());
  connection.send(to_bytes("TP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_FALSE(connection.read().empty());
}

// ------------------------------------------------------------------- TLS --

TEST(TlsServerBehavior, FullServerFlightParses) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttps);
  ASSERT_FALSE(connection.hung());
  connection.send(standard_client_flight(proto::Protocol::kHttps));
  EXPECT_FALSE(connection.peer_closed());
  const auto bytes = connection.read();
  const std::vector<std::uint8_t> reply(bytes.begin(), bytes.end());
  ASSERT_FALSE(reply.empty());

  const auto offered = proto::chrome_cipher_suites();
  bool saw_hello = false, saw_cert = false, saw_done = false;
  std::size_t offset = 0;
  while (offset < reply.size()) {
    std::size_t consumed = 0;
    auto record =
        proto::TlsRecord::parse(std::span(reply).subspan(offset), consumed);
    ASSERT_TRUE(record.has_value());
    offset += consumed;
    const bool framed = proto::for_each_handshake(
        record->fragment, [&](const proto::HandshakeMessage& message) {
          if (message.type == proto::TlsHandshakeType::kServerHello) {
            auto server_hello = proto::ServerHello::parse(message.body);
            ASSERT_TRUE(server_hello.has_value());
            // The chosen suite must be one the client offered.
            EXPECT_NE(std::find(offered.begin(), offered.end(),
                                server_hello->cipher_suite),
                      offered.end());
            saw_hello = true;
          } else if (message.type == proto::TlsHandshakeType::kCertificate) {
            auto cert = proto::Certificate::parse(message.body);
            ASSERT_TRUE(cert.has_value());
            EXPECT_EQ(cert->chain_size, 1u);
            EXPECT_EQ(cert->leaf.size(), 0x44u);
            saw_cert = true;
          } else if (message.type ==
                     proto::TlsHandshakeType::kServerHelloDone) {
            saw_done = true;
          }
        });
    ASSERT_TRUE(framed);
  }
  EXPECT_TRUE(saw_hello && saw_cert && saw_done);
  EXPECT_EQ(offset, reply.size());
}

TEST(TlsServerBehavior, AlertsOnNoCommonSuite) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttps);
  const std::uint16_t tls13_only[] = {0x1301};  // a suite we don't "support"
  connection.send(proto::client_hello_record(tls13_only));
  EXPECT_TRUE(connection.peer_closed());
  const auto reply = connection.read();
  std::size_t consumed = 0;
  auto record = proto::TlsRecord::parse(reply, consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->content_type, proto::TlsContentType::kAlert);
  auto alert = proto::TlsAlert::parse(record->fragment);
  ASSERT_TRUE(alert.has_value());
  EXPECT_EQ(alert->description,
            proto::TlsAlertDescription::kHandshakeFailure);
}

TEST(TlsServerBehavior, AlertsOnNonHandshakeRecord) {
  auto connection = connect_to(make_host(), proto::Protocol::kHttps);
  connection.send(std::vector<std::uint8_t>{21, 3, 3, 0, 2, 1, 0});
  EXPECT_TRUE(connection.peer_closed());
}

// ------------------------------------------------------------------- SSH --

TEST(SshServerBehavior, BannerThenKexInit) {
  const Host host = make_host();
  auto connection = connect_to(host, proto::Protocol::kSsh);
  ASSERT_FALSE(connection.hung());

  const std::string banner = to_string(connection.read());
  auto id = proto::SshIdentification::parse(banner);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->software_version, ssh_server_software(host.seed));

  std::vector<std::uint8_t> client;
  proto::SshIdentification{.software_version = "TestClient_1.0"}.serialize_to(
      client);
  connection.send(client);
  const auto reply = connection.read();
  ASSERT_FALSE(reply.empty());
  auto payload = reference::ssh_packet_payload(reply);
  ASSERT_TRUE(payload.has_value());
  auto kex = reference::SshKexInit::parse(*payload);
  ASSERT_TRUE(kex.has_value());
  EXPECT_EQ(kex->kex_algorithms,
            (std::vector<std::string>{"curve25519-sha256", "ecdh-sha2-nistp256",
                                      "diffie-hellman-group14-sha256"}));
  EXPECT_EQ(kex->host_key_algorithms,
            (std::vector<std::string>{"ssh-ed25519", "rsa-sha2-512",
                                      "rsa-sha2-256"}));
}

TEST(SshServerBehavior, UnreadRepliesKeepTheirOrder) {
  // A reply is written when it is read; one left unread when the client
  // sends again still comes out ahead of what that send provokes.
  const Host host = make_host();
  auto eager = connect_to(host, proto::Protocol::kSsh);
  std::vector<std::uint8_t> expected;
  const auto banner = eager.read();
  expected.assign(banner.begin(), banner.end());
  eager.send(standard_client_flight(proto::Protocol::kSsh));
  const auto kexinit = eager.read();
  expected.insert(expected.end(), kexinit.begin(), kexinit.end());

  auto lazy = connect_to(host, proto::Protocol::kSsh);
  lazy.send(standard_client_flight(proto::Protocol::kSsh));
  EXPECT_EQ(to_string(lazy.read()), to_string(expected));
  EXPECT_TRUE(lazy.read().empty());
}

TEST(SshServerBehavior, ClosesOnProtocolMismatch) {
  auto connection = connect_to(make_host(), proto::Protocol::kSsh);
  (void)connection.read();
  connection.send(to_bytes("GET / HTTP/1.1\r\n"));
  EXPECT_TRUE(connection.peer_closed());
  EXPECT_TRUE(connection.read().empty());
}

TEST(SshServerBehavior, BannerVariesAcrossHosts) {
  std::set<std::string_view> versions;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    versions.insert(ssh_server_software(seed));
  }
  EXPECT_GE(versions.size(), 3u);
}

TEST(ConnectionReuse, OpenStartsAfreshEachTime) {
  // One Connection serves target after target; nothing of one exchange
  // (bytes, end flags, server state) leaks into the next.
  Connection connection;
  connection.open(make_server(make_host(1), proto::Protocol::kHttp));
  connection.send(standard_client_flight(proto::Protocol::kHttp));
  const std::string first = to_string(connection.read());
  ASSERT_TRUE(connection.peer_closed());

  connection.open(make_server(make_host(2), proto::Protocol::kSsh));
  EXPECT_FALSE(connection.peer_closed());
  EXPECT_EQ(to_string(connection.read()).rfind("SSH-2.0-", 0), 0u);

  connection.open(make_server(make_host(1), proto::Protocol::kHttp));
  connection.send(standard_client_flight(proto::Protocol::kHttp));
  EXPECT_EQ(to_string(connection.read()), first);

  Host http_only = make_host(3);
  http_only.services = 0b001;
  connection.open(make_server(http_only, proto::Protocol::kSsh));
  EXPECT_TRUE(connection.hung());
  EXPECT_TRUE(connection.read().empty());
}

// ------------------------------------------------------------ wire bytes --

// Everything a server sends on open plus its reply to `client`, and how
// it ended the connection.
struct Flight {
  std::vector<std::uint8_t> bytes;
  bool close = false;
  bool reset = false;
};

Flight serve(const Host& host, proto::Protocol protocol,
             const std::vector<std::uint8_t>& client,
             const ServerOptions& options = {}) {
  auto connection = connect_to(host, protocol, options);
  Flight flight;
  if (connection.hung()) return flight;
  const auto opened = connection.read();
  flight.bytes.assign(opened.begin(), opened.end());
  connection.send(client);
  const auto reply = connection.read();
  flight.bytes.insert(flight.bytes.end(), reply.begin(), reply.end());
  flight.close = connection.peer_closed();
  flight.reset = connection.peer_reset();
  return flight;
}

std::string digest_of(const std::vector<std::uint8_t>& bytes) {
  return net::Sha256::hex(net::Sha256::of(bytes));
}

// Feeds one flight, its length and its end flags into a running digest.
void absorb(net::Sha256& sha, const Flight& flight) {
  std::uint8_t header[6] = {
      static_cast<std::uint8_t>(flight.bytes.size() >> 24),
      static_cast<std::uint8_t>(flight.bytes.size() >> 16),
      static_cast<std::uint8_t>(flight.bytes.size() >> 8),
      static_cast<std::uint8_t>(flight.bytes.size()),
      static_cast<std::uint8_t>(flight.close),
      static_cast<std::uint8_t>(flight.reset)};
  sha.update(header);
  sha.update(flight.bytes);
}

// The byte streams below were recorded from the earlier server
// implementation (heap-allocated virtual servers building every reply
// eagerly), before servers became values that write their replies on
// read. Any change to a digest is a change to what the simulated
// Internet puts on the wire.
TEST(ServerWireBytes, ClientFlightsArePinned) {
  EXPECT_EQ(digest_of(standard_client_flight(proto::Protocol::kHttp)),
            "2a23a133457d7bbbd7d59185dd49997e02d09b08fb6550a9b856df713581ed46");
  EXPECT_EQ(digest_of(standard_client_flight(proto::Protocol::kHttps)),
            "1c71dc9e51dca1b835c4126f9314b6a857d8eadbc97002217d1eb4ab549f5086");
  EXPECT_EQ(digest_of(standard_client_flight(proto::Protocol::kSsh)),
            "6dac3b392e462460815dae3f6079f07f752838baa887be9d15d0f8f31c583969");
}

TEST(ServerWireBytes, EveryHostOfTestScaleWorldIsPinned) {
  const auto config = ScenarioConfig::test_scale();
  const World world = build_world(config, paper_origins(config.universe_size));
  const char* expected[3] = {
      "5e3f918e952ea47823c08bba7d1bed6adf7b21029a42de1ff6b057dbd5c92099",
      "ddf724eff4e5f78036b7953a55db46b3adb5c359069781d9b07189b8e4c9aa1f",
      "f5099ca2e32ee36e8fefbbb232e8c72f5d1cc39fab7683eced5cf731ae700451"};
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto client = standard_client_flight(protocol);
    net::Sha256 sha;
    std::size_t served = 0;
    for (const Host& host : world.hosts.all()) {
      if (!host.runs(protocol)) continue;
      absorb(sha, serve(host, protocol, client));
      ++served;
    }
    EXPECT_GT(served, 1000u);
    EXPECT_EQ(net::Sha256::hex(sha.finish()),
              expected[proto::index_of(protocol)])
        << proto::name_of(protocol) << " over " << served << " hosts";
  }
}

TEST(ServerWireBytes, BlockPageIsPinned) {
  const auto config = ScenarioConfig::test_scale();
  const World world = build_world(config, paper_origins(config.universe_size));
  ServerOptions options;
  options.forced_page_title = "Blocked Site";
  const auto client = standard_client_flight(proto::Protocol::kHttp);
  net::Sha256 sha;
  for (const Host& host : world.hosts.all()) {
    if (host.runs(proto::Protocol::kHttp)) {
      absorb(sha, serve(host, proto::Protocol::kHttp, client, options));
    }
  }
  EXPECT_EQ(net::Sha256::hex(sha.finish()),
            "c2b297d7eb33c3793c7247957f4580b90763753d7c78e8528a8255426e724e42");
}

TEST(ServerWireBytes, RedirectAndForbiddenVariantsArePinned) {
  // The first seeds whose host answers 301 and 403 (StatusVariants...).
  const auto client = standard_client_flight(proto::Protocol::kHttp);
  std::map<int, std::string> digests;
  for (std::uint64_t seed = 0; digests.size() < 3 && seed < 200; ++seed) {
    const Flight flight = serve(make_host(seed), proto::Protocol::kHttp, client);
    const std::string text = to_string(flight.bytes);
    const int status = std::stoi(text.substr(9, 3));
    if (digests.count(status) == 0) {
      digests[status] = digest_of(flight.bytes);
      EXPECT_TRUE(flight.close);
    }
  }
  EXPECT_EQ(digests[200],
            "b60ba96c78af6d46c3a38c9a656cac18bc025249e061970d27a7be6e21419cd2");
  EXPECT_EQ(digests[301],
            "12fae1e186580a24aa146d3c7472c0431161d1b25a5bbd6f467ef1f38965cda9");
  EXPECT_EQ(digests[403],
            "69552e75f42e5e3bc9ad092b401cdb4bf62fdd5c1d99b7a8e0e7fd938cf4137a");
}

TEST(ServerWireBytes, TlsAlertsArePinned) {
  const Host host = make_host();
  const std::uint16_t tls13_only[] = {0x1301};
  const Flight no_suite = serve(host, proto::Protocol::kHttps,
                                proto::client_hello_record(tls13_only));
  EXPECT_TRUE(no_suite.close);
  EXPECT_EQ(digest_of(no_suite.bytes),
            "c29a73f289598bf8a30a3e10ccfc7b981dd824f11838b3149c9a71cffe4670bd");

  const std::vector<std::uint8_t> alert_record = {21, 3, 3, 0, 2, 1, 0};
  const Flight non_handshake =
      serve(host, proto::Protocol::kHttps, alert_record);
  EXPECT_TRUE(non_handshake.close);
  EXPECT_EQ(digest_of(non_handshake.bytes),
            "e7488a7bc234fd3af5800dfd2f1fdbc866002c14f42d44606aa82341786aca80");
}

TEST(ServerWireBytes, SshMismatchCloseIsPinned) {
  const Flight flight = serve(make_host(), proto::Protocol::kSsh,
                              to_bytes("GET / HTTP/1.1\r\n"));
  EXPECT_TRUE(flight.close);
  EXPECT_FALSE(flight.reset);
  // Only the identification string the server sent on open.
  EXPECT_EQ(digest_of(flight.bytes),
            "cb3d29b0c54a8374a0436c82c4c034b6bd828be2a53138e11d3e0df89a5f19ac");
}

}  // namespace
}  // namespace originscan::sim
