// Reference L7 codecs for tests: owning parsers (std::string, std::vector,
// a std::map of headers) and the grab classification written over them,
// as the library had them before its parsers became views. They are the
// oracle the view parsers and scan::classify_flight are fuzzed against
// (fuzz_test), and they decode server flights the library itself never
// parses (the SSH KEXINIT packet).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "proto/protocol.h"
#include "scanner/zgrab.h"

namespace originscan::reference {

struct HttpRequest {
  std::string method;
  std::string target;
  std::string host;
  std::string user_agent = "Mozilla/5.0 zgrab/0.x (originscan)";

  static std::optional<HttpRequest> parse(std::string_view text);
};

struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  std::string server;
  std::string title;
  std::map<std::string, std::string> extra_headers;

  static std::optional<HttpResponse> parse(std::string_view text);
  [[nodiscard]] bool valid() const { return status_code >= 100; }
};

std::string extract_title(std::string_view html);

struct TlsRecord {
  std::uint8_t content_type = 22;
  std::uint16_t version = 0x0303;
  std::vector<std::uint8_t> fragment;

  static std::optional<TlsRecord> parse(std::span<const std::uint8_t> data,
                                        std::size_t& consumed);
};

struct HandshakeMessage {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> body;
};

std::optional<std::vector<HandshakeMessage>> split_handshakes(
    std::span<const std::uint8_t> fragment);

struct ClientHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::vector<std::uint16_t> cipher_suites;
  std::string server_name;

  static std::optional<ClientHello> parse(std::span<const std::uint8_t> body);
};

struct ServerHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::uint16_t cipher_suite = 0;

  static std::optional<ServerHello> parse(std::span<const std::uint8_t> body);
};

struct Certificate {
  std::vector<std::vector<std::uint8_t>> chain;

  static std::optional<Certificate> parse(std::span<const std::uint8_t> body);
};

struct SshIdentification {
  std::string protocol_version;
  std::string software_version;
  std::string comment;

  static std::optional<SshIdentification> parse(std::string_view line);
};

// Payload of one unencrypted SSH binary packet that spans all of `data`.
std::optional<std::vector<std::uint8_t>> ssh_packet_payload(
    std::span<const std::uint8_t> data);

struct SshKexInit {
  std::array<std::uint8_t, 16> cookie{};
  std::vector<std::string> kex_algorithms;
  std::vector<std::string> host_key_algorithms;

  static std::optional<SshKexInit> parse(std::span<const std::uint8_t> payload);
};

// The grab classification over the owning parsers: the outcome, banner
// and explicit_close a client derives from the server flight it read and
// how the peer had ended the connection.
scan::L7Result classify_flight(proto::Protocol protocol,
                               std::span<const std::uint8_t> flight,
                               bool peer_closed, bool peer_reset);

}  // namespace originscan::reference
