#include <gtest/gtest.h>

#include <array>

#include "netbase/byteio.h"
#include "proto/http.h"
#include "proto/protocol.h"
#include "proto/ssh.h"
#include "proto/tls.h"
#include "tests/l7_reference.h"

namespace originscan::proto {
namespace {

std::string_view text_of(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// -------------------------------------------------------------- protocol --

TEST(Protocol, PortsAndNames) {
  EXPECT_EQ(port_of(Protocol::kHttp), 80);
  EXPECT_EQ(port_of(Protocol::kHttps), 443);
  EXPECT_EQ(port_of(Protocol::kSsh), 22);
  EXPECT_EQ(name_of(Protocol::kSsh), "SSH");
}

// ------------------------------------------------------------------ HTTP --

TEST(Http, RequestRoundTrip) {
  std::vector<std::uint8_t> bytes;
  HttpRequest{.host = "example.org"}.serialize_to(bytes);
  auto parsed = HttpRequest::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/");
  EXPECT_EQ(parsed->host, "example.org");
  EXPECT_EQ(parsed->user_agent, HttpRequest{}.user_agent);
}

TEST(Http, RequestHeadersMatchCaseInsensitivelyLastWins) {
  auto parsed = HttpRequest::parse(
      "GET /x HTTP/1.0\r\nHOST: a\r\nhost:  b \r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->target, "/x");
  EXPECT_EQ(parsed->host, "b");
}

TEST(Http, RequestRejectsGarbage) {
  EXPECT_FALSE(HttpRequest::parse("not http\r\n\r\n").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET /\r\n\r\n").has_value());
  EXPECT_FALSE(HttpRequest::parse("GET / HTTP/1.1").has_value());  // no CRLF
  EXPECT_FALSE(HttpRequest::parse("GET / HTTP/1.1\r\nno colon\r\n\r\n")
                   .has_value());
}

TEST(Http, ResponseRoundTrip) {
  std::vector<std::uint8_t> bytes;
  HttpResponse{.status_code = 301,
               .reason = "Moved Permanently",
               .server = "nginx/1.14.0",
               .location = "https://10.0.0.1/",
               .title = "Blocked Site"}
      .serialize_to(bytes);
  auto parsed = HttpResponse::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status_code, 301);
  EXPECT_EQ(parsed->reason, "Moved Permanently");
  EXPECT_EQ(parsed->server, "nginx/1.14.0");
  EXPECT_EQ(parsed->location, "https://10.0.0.1/");
  EXPECT_EQ(parsed->title, "Blocked Site");
  EXPECT_TRUE(parsed->valid());
}

TEST(Http, ResponseBodyIsContentLengthFramed) {
  // The title past Content-Length is not part of this response.
  const std::string_view text =
      "HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n<b></b><title>x</title>";
  auto parsed = HttpResponse::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->title, "");
  auto unframed =
      HttpResponse::parse("HTTP/1.1 200 OK\r\n\r\n<title>x</title>");
  ASSERT_TRUE(unframed.has_value());
  EXPECT_EQ(unframed->title, "x");
}

TEST(Http, ResponseRejectsBadStatusLine) {
  EXPECT_FALSE(HttpResponse::parse("HTTP/1.1 999 Nope\r\n\r\n").has_value());
  EXPECT_FALSE(HttpResponse::parse("SIP/2.0 200 OK\r\n\r\n").has_value());
}

TEST(Http, ExtractTitle) {
  EXPECT_EQ(extract_title("<html><title>Hi</title></html>"), "Hi");
  EXPECT_EQ(extract_title("<html><body>none</body></html>"), "");
  EXPECT_EQ(extract_title("<title>unterminated"), "");
}

// ------------------------------------------------------------------- TLS --

TEST(Tls, RecordParsesInPlace) {
  const std::vector<std::uint8_t> bytes = {22, 3, 3, 0, 4, 1, 2, 3, 4, 99};
  std::size_t consumed = 0;
  auto parsed = TlsRecord::parse(bytes, consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(consumed, 9u);
  EXPECT_EQ(parsed->content_type, TlsContentType::kHandshake);
  EXPECT_EQ(parsed->fragment.data(), bytes.data() + 5);
  EXPECT_EQ(parsed->fragment.size(), 4u);
}

TEST(Tls, RecordRejectsUnknownContentType) {
  std::vector<std::uint8_t> bytes = {99, 3, 3, 0, 0};
  std::size_t consumed = 0;
  EXPECT_FALSE(TlsRecord::parse(bytes, consumed).has_value());
}

// The one handshake message inside a single-record flight.
HandshakeMessage only_message(const std::vector<std::uint8_t>& record_bytes) {
  std::size_t consumed = 0;
  auto record = TlsRecord::parse(record_bytes, consumed);
  EXPECT_TRUE(record.has_value());
  EXPECT_EQ(consumed, record_bytes.size());
  HandshakeMessage only;
  int count = 0;
  EXPECT_TRUE(for_each_handshake(record->fragment,
                                 [&](const HandshakeMessage& message) {
                                   only = message;
                                   ++count;
                                 }));
  EXPECT_EQ(count, 1);
  return only;
}

TEST(Tls, ClientHelloRecordWithSni) {
  const auto bytes =
      client_hello_record(chrome_cipher_suites(), "scanned.example");
  const auto message = only_message(bytes);
  EXPECT_EQ(message.type, TlsHandshakeType::kClientHello);
  auto parsed = ClientHello::parse(message.body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->suite_count(), chrome_cipher_suites().size());
  for (std::size_t i = 0; i < parsed->suite_count(); ++i) {
    EXPECT_EQ(parsed->suite(i), chrome_cipher_suites()[i]);
  }
  EXPECT_EQ(parsed->server_name, "scanned.example");
  EXPECT_EQ(parsed->random, (std::array<std::uint8_t, 32>{}));
}

TEST(Tls, ClientHelloWithoutSni) {
  const std::uint16_t suites[] = {0xC02F};
  const auto message = only_message(client_hello_record(suites));
  auto parsed = ClientHello::parse(message.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->suite_count(), 1u);
  EXPECT_TRUE(parsed->server_name.empty());
}

TEST(Tls, ServerHelloRoundTrip) {
  ServerHello hello;
  hello.cipher_suite = 0xCCA8;
  hello.random[31] = 7;
  std::vector<std::uint8_t> body;
  net::ByteWriter w(body);
  hello.write(w);
  EXPECT_EQ(body.size(), ServerHello::kBodySize);
  auto parsed = ServerHello::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cipher_suite, 0xCCA8);
  EXPECT_EQ(parsed->random, hello.random);
}

TEST(Tls, CertificateChainFraming) {
  // Chain of two DER blobs: {30 82 01 02 03} and {30 82 09}.
  const std::vector<std::uint8_t> body = {0, 0, 14, 0, 0, 5, 0x30, 0x82, 1,
                                          2, 3, 0, 0, 3, 0x30, 0x82, 9};
  auto parsed = Certificate::parse(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->chain_size, 2u);
  ASSERT_EQ(parsed->leaf.size(), 5u);
  EXPECT_EQ(parsed->leaf[4], 3);
  std::vector<std::uint8_t> short_chain = body;
  short_chain[2] = 15;  // claims one byte more than the blobs hold
  EXPECT_FALSE(Certificate::parse(short_chain).has_value());
}

TEST(Tls, AlertRoundTrip) {
  std::vector<std::uint8_t> bytes;
  TlsAlert{.fatal = true, .description = TlsAlertDescription::kAccessDenied}
      .write_record(bytes);
  std::size_t consumed = 0;
  auto record = TlsRecord::parse(bytes, consumed);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->content_type, TlsContentType::kAlert);
  auto parsed = TlsAlert::parse(record->fragment);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fatal);
  EXPECT_EQ(parsed->description, TlsAlertDescription::kAccessDenied);
}

TEST(Tls, ForEachHandshakeRejectsAPartialFragmentAsAWhole) {
  // Two whole messages followed by three stray bytes: nothing is visited.
  const std::vector<std::uint8_t> fragment = {14, 0, 0, 0, 14, 0, 0, 0,
                                              1,  2, 3};
  int visited = 0;
  EXPECT_FALSE(for_each_handshake(
      fragment, [&](const HandshakeMessage&) { ++visited; }));
  EXPECT_EQ(visited, 0);
  EXPECT_TRUE(for_each_handshake(
      std::span(fragment).first(8),
      [&](const HandshakeMessage& message) {
        EXPECT_EQ(message.type, TlsHandshakeType::kServerHelloDone);
        ++visited;
      }));
  EXPECT_EQ(visited, 2);
}

TEST(Tls, ChromeSuitesIncludeEcdheGcm) {
  bool found = false;
  for (std::uint16_t suite : chrome_cipher_suites()) {
    if (suite == 0xC02F) found = true;
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------- SSH --

TEST(Ssh, IdentificationRoundTrip) {
  std::vector<std::uint8_t> bytes;
  SshIdentification{.software_version = "OpenSSH_7.4"}.serialize_to(bytes);
  EXPECT_EQ(text_of(bytes), "SSH-2.0-OpenSSH_7.4\r\n");
  auto parsed = SshIdentification::parse(text_of(bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->software_version, "OpenSSH_7.4");
  EXPECT_EQ(parsed->protocol_version, "2.0");
}

TEST(Ssh, IdentificationWithComment) {
  auto parsed = SshIdentification::parse("SSH-2.0-OpenSSH_8.0 Ubuntu-6\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->software_version, "OpenSSH_8.0");
  EXPECT_EQ(parsed->comment, "Ubuntu-6");
}

TEST(Ssh, IdentificationRejectsBadVersions) {
  EXPECT_FALSE(SshIdentification::parse("SSH-1.5-old\r\n").has_value());
  EXPECT_FALSE(SshIdentification::parse("HTTP/1.1 200 OK\r\n").has_value());
  EXPECT_FALSE(SshIdentification::parse("SSH-2.0-\r\n").has_value());
}

TEST(Ssh, MaxStartupsParse) {
  auto triple = MaxStartups::parse("10:30:100");
  ASSERT_TRUE(triple.has_value());
  EXPECT_EQ(triple->start, 10);
  EXPECT_EQ(triple->rate, 30);
  EXPECT_EQ(triple->full, 100);
  EXPECT_EQ(triple->to_string(), "10:30:100");

  EXPECT_FALSE(MaxStartups::parse("10:30").has_value());
  EXPECT_FALSE(MaxStartups::parse("10:101:100").has_value());
  EXPECT_FALSE(MaxStartups::parse("100:30:10").has_value());  // full < start
  EXPECT_FALSE(MaxStartups::parse("a:b:c").has_value());
}

TEST(Ssh, MaxStartupsRefusalCurve) {
  const MaxStartups triple{10, 30, 100};
  EXPECT_DOUBLE_EQ(triple.refusal_probability(0), 0.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(9), 0.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(10), 0.30);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(100), 1.0);
  EXPECT_DOUBLE_EQ(triple.refusal_probability(1000), 1.0);
  // Monotone in between.
  double previous = 0;
  for (int n = 0; n <= 120; ++n) {
    const double p = triple.refusal_probability(n);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

TEST(Ssh, KexInitPacketFramingAndPadding) {
  std::array<std::uint8_t, 16> cookie;
  for (std::size_t i = 0; i < cookie.size(); ++i) {
    cookie[i] = static_cast<std::uint8_t>(i * 3);
  }
  std::vector<std::uint8_t> bytes;
  write_kexinit_packet(bytes, cookie, /*padding_seed=*/42);
  EXPECT_EQ(bytes.size() % 8, 0u);
  auto payload = reference::ssh_packet_payload(bytes);
  ASSERT_TRUE(payload.has_value());
  auto kex = reference::SshKexInit::parse(*payload);
  ASSERT_TRUE(kex.has_value());
  EXPECT_EQ(kex->cookie, cookie);
  EXPECT_EQ(kex->kex_algorithms.size(), 3u);
  EXPECT_EQ(kex->host_key_algorithms.front(), "ssh-ed25519");

  bytes.pop_back();
  EXPECT_FALSE(reference::ssh_packet_payload(bytes).has_value());
}

}  // namespace
}  // namespace originscan::proto
