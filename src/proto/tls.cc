#include "proto/tls.h"

#include <algorithm>

namespace originscan::proto {

using net::ByteReader;
using net::ByteWriter;

std::span<const std::uint16_t> chrome_cipher_suites() {
  static constexpr std::array<std::uint16_t, 8> kSuites = {
      0xC02B,  // ECDHE-ECDSA-AES128-GCM-SHA256
      0xC02F,  // ECDHE-RSA-AES128-GCM-SHA256
      0xC02C,  // ECDHE-ECDSA-AES256-GCM-SHA384
      0xC030,  // ECDHE-RSA-AES256-GCM-SHA384
      0xCCA9,  // ECDHE-ECDSA-CHACHA20-POLY1305
      0xCCA8,  // ECDHE-RSA-CHACHA20-POLY1305
      0x009C,  // RSA-AES128-GCM-SHA256
      0x009D,  // RSA-AES256-GCM-SHA384
  };
  return kSuites;
}

std::optional<TlsRecord> TlsRecord::parse(std::span<const std::uint8_t> data,
                                          std::size_t& consumed) {
  if (data.size() < 5) return std::nullopt;
  ByteReader r(data);
  TlsRecord record;
  const std::uint8_t type = r.u8();
  if (type != static_cast<std::uint8_t>(TlsContentType::kAlert) &&
      type != static_cast<std::uint8_t>(TlsContentType::kHandshake)) {
    return std::nullopt;
  }
  record.content_type = static_cast<TlsContentType>(type);
  record.version = r.u16();
  const std::uint16_t length = r.u16();
  record.fragment = r.bytes(length);
  if (!r.ok()) return std::nullopt;
  consumed = 5 + static_cast<std::size_t>(length);
  return record;
}

void write_handshake_header(ByteWriter& w, TlsHandshakeType type,
                            std::size_t body_length) {
  w.u8(static_cast<std::uint8_t>(TlsContentType::kHandshake));
  w.u16(0x0303);
  w.u16(static_cast<std::uint16_t>(4 + body_length));
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(body_length >> 16));
  w.u16(static_cast<std::uint16_t>(body_length));
}

std::optional<ClientHello> ClientHello::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ClientHello hello;
  hello.version = r.u16();
  auto random = r.bytes(32);
  const std::uint8_t session_id_length = r.u8();
  r.skip(session_id_length);
  const std::uint16_t suites_length = r.u16();
  if (suites_length % 2 != 0) return std::nullopt;
  hello.cipher_suites = r.bytes(suites_length);
  const std::uint8_t compression_length = r.u8();
  r.skip(compression_length);
  if (!r.ok()) return std::nullopt;
  std::copy(random.begin(), random.end(), hello.random.begin());
  if (r.remaining() >= 2) {
    std::uint16_t extensions_length = r.u16();
    while (r.ok() && extensions_length >= 4) {
      const std::uint16_t ext_type = r.u16();
      const std::uint16_t ext_length = r.u16();
      auto ext = r.bytes(ext_length);
      if (!r.ok()) return std::nullopt;
      extensions_length =
          static_cast<std::uint16_t>(extensions_length - 4 - ext_length);
      if (ext_type == 0 && ext.size() >= 5) {
        ByteReader sni(ext);
        sni.skip(2);  // list length
        sni.skip(1);  // name type
        const std::uint16_t name_length = sni.u16();
        auto name = sni.bytes(name_length);
        if (sni.ok()) {
          hello.server_name = std::string_view(
              reinterpret_cast<const char*>(name.data()), name.size());
        }
      }
    }
  }
  return hello;
}

std::vector<std::uint8_t> client_hello_record(
    std::span<const std::uint16_t> suites, std::string_view server_name) {
  const std::size_t name_length = server_name.size();
  const std::size_t extensions = name_length == 0 ? 0 : 9 + name_length;
  const std::size_t body_length = 2 + 32 + 1 + 2 + 2 * suites.size() + 2 +
                                  2 + extensions;
  std::vector<std::uint8_t> out;
  out.reserve(9 + body_length);
  ByteWriter w(out);
  write_handshake_header(w, TlsHandshakeType::kClientHello, body_length);
  w.u16(0x0303);
  for (int i = 0; i < 32; ++i) w.u8(0);  // random
  w.u8(0);                               // session id length
  w.u16(static_cast<std::uint16_t>(suites.size() * 2));
  for (std::uint16_t suite : suites) w.u16(suite);
  w.u8(1);  // compression methods length
  w.u8(0);  // null compression
  w.u16(static_cast<std::uint16_t>(extensions));
  if (extensions != 0) {
    w.u16(0);  // extension type: server_name
    w.u16(static_cast<std::uint16_t>(name_length + 5));
    w.u16(static_cast<std::uint16_t>(name_length + 3));  // list length
    w.u8(0);  // name type: host_name
    w.u16(static_cast<std::uint16_t>(name_length));
    w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(server_name.data()),
                      name_length));
  }
  return out;
}

void ServerHello::write(ByteWriter& w) const {
  w.u16(version);
  w.bytes(random);
  w.u8(0);  // session id length
  w.u16(cipher_suite);
  w.u8(0);   // null compression
  w.u16(0);  // no extensions
}

std::optional<ServerHello> ServerHello::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ServerHello hello;
  hello.version = r.u16();
  auto random = r.bytes(32);
  const std::uint8_t session_id_length = r.u8();
  r.skip(session_id_length);
  hello.cipher_suite = r.u16();
  r.skip(1);  // compression
  if (!r.ok()) return std::nullopt;
  std::copy(random.begin(), random.end(), hello.random.begin());
  return hello;
}

std::optional<Certificate> Certificate::parse(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  std::uint32_t chain_length = std::uint32_t{r.u8()} << 16;
  chain_length |= r.u16();
  Certificate cert;
  std::uint32_t remaining = chain_length;
  while (r.ok() && remaining >= 3) {
    std::uint32_t der_length = std::uint32_t{r.u8()} << 16;
    der_length |= r.u16();
    auto der = r.bytes(der_length);
    if (!r.ok()) return std::nullopt;
    if (cert.chain_size++ == 0) cert.leaf = der;
    remaining -= 3 + der_length;
  }
  if (!r.ok() || remaining != 0) return std::nullopt;
  return cert;
}

void TlsAlert::write_record(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(TlsContentType::kAlert));
  w.u16(0x0303);
  w.u16(2);
  w.u8(fatal ? 2 : 1);
  w.u8(static_cast<std::uint8_t>(description));
}

std::optional<TlsAlert> TlsAlert::parse(std::span<const std::uint8_t> body) {
  if (body.size() != 2) return std::nullopt;
  TlsAlert alert;
  if (body[0] != 1 && body[0] != 2) return std::nullopt;
  alert.fatal = body[0] == 2;
  alert.description = static_cast<TlsAlertDescription>(body[1]);
  return alert;
}

}  // namespace originscan::proto
