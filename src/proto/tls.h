// TLS 1.2 handshake codec — the subset a ZGrab TLS banner grab exercises:
// ClientHello (with the cipher suites modern Chrome offers, per the
// paper's methodology), ServerHello, Certificate, ServerHelloDone, and
// Alert. Record framing and handshake framing follow RFC 5246; key
// exchange and encryption are intentionally out of scope because the
// study terminates the handshake once the server's flight arrives.
//
// Parsed messages are views: every span points into the bytes that were
// parsed, which must outlive the result. Writers append to a caller-owned
// buffer.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "netbase/byteio.h"

namespace originscan::proto {

enum class TlsContentType : std::uint8_t {
  kAlert = 21,
  kHandshake = 22,
};

enum class TlsHandshakeType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kCertificate = 11,
  kServerHelloDone = 14,
};

enum class TlsAlertDescription : std::uint8_t {
  kCloseNotify = 0,
  kUnexpectedMessage = 10,
  kHandshakeFailure = 40,
  kAccessDenied = 49,
  kInternalError = 80,
};

// The TLS 1.2 cipher suites offered by modern Chrome at the time of the
// study (ECDHE suites with AES-GCM / ChaCha20).
std::span<const std::uint16_t> chrome_cipher_suites();

struct TlsRecord {
  TlsContentType content_type = TlsContentType::kHandshake;
  std::uint16_t version = 0x0303;  // TLS 1.2
  std::span<const std::uint8_t> fragment;

  // Parses one alert or handshake record from the front of `data`;
  // sets `consumed` to its wire size.
  static std::optional<TlsRecord> parse(std::span<const std::uint8_t> data,
                                        std::size_t& consumed);
};

// Writes the header of a handshake record holding exactly one message of
// `type` whose body is `body_length` bytes; the caller then writes the
// body.
void write_handshake_header(net::ByteWriter& w, TlsHandshakeType type,
                            std::size_t body_length);

// One handshake message inside a record fragment.
struct HandshakeMessage {
  TlsHandshakeType type{};
  std::span<const std::uint8_t> body;
};

// Splits a record fragment into its handshake messages and hands each to
// `visit` in order. A fragment that is not a whole number of well-formed
// messages is rejected as a unit: false, and `visit` is never called.
template <typename Visit>
bool for_each_handshake(std::span<const std::uint8_t> fragment,
                        Visit&& visit) {
  const auto walk = [fragment](auto&& on_message) {
    net::ByteReader r(fragment);
    while (r.ok() && r.remaining() >= 4) {
      const auto type = static_cast<TlsHandshakeType>(r.u8());
      std::uint32_t length = std::uint32_t{r.u8()} << 16;
      length |= r.u16();
      const auto body = r.bytes(length);
      if (!r.ok()) return false;
      on_message(HandshakeMessage{type, body});
    }
    return r.ok() && r.remaining() == 0;
  };
  if (!walk([](const HandshakeMessage&) {})) return false;
  walk(visit);
  return true;
}

struct ClientHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::span<const std::uint8_t> cipher_suites;  // big-endian u16 pairs
  std::string_view server_name;                 // SNI; empty = omitted

  [[nodiscard]] std::size_t suite_count() const {
    return cipher_suites.size() / 2;
  }
  [[nodiscard]] std::uint16_t suite(std::size_t i) const {
    return static_cast<std::uint16_t>((cipher_suites[2 * i] << 8) |
                                      cipher_suites[2 * i + 1]);
  }

  // Parses a ClientHello handshake body.
  static std::optional<ClientHello> parse(std::span<const std::uint8_t> body);
};

// The whole record a client sends to open a handshake: a ClientHello
// offering `suites` (SNI only when `server_name` is non-empty), with an
// all-zero random.
std::vector<std::uint8_t> client_hello_record(
    std::span<const std::uint16_t> suites, std::string_view server_name = {});

struct ServerHello {
  std::uint16_t version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::uint16_t cipher_suite = 0;

  // Body size as write() emits it: no session id, no extensions.
  static constexpr std::size_t kBodySize = 40;
  void write(net::ByteWriter& w) const;
  static std::optional<ServerHello> parse(std::span<const std::uint8_t> body);
};

// A Certificate message: the chain is checked for framing, the leaf kept
// as a view.
struct Certificate {
  std::span<const std::uint8_t> leaf;  // first DER blob
  std::size_t chain_size = 0;          // number of DER blobs

  static std::optional<Certificate> parse(std::span<const std::uint8_t> body);
};

struct TlsAlert {
  bool fatal = true;
  TlsAlertDescription description = TlsAlertDescription::kHandshakeFailure;

  // Appends the alert as a whole record.
  void write_record(std::vector<std::uint8_t>& out) const;
  static std::optional<TlsAlert> parse(std::span<const std::uint8_t> body);
};

}  // namespace originscan::proto
