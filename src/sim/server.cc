#include "sim/server.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "netbase/byteio.h"
#include "netbase/rng.h"
#include "proto/http.h"
#include "proto/ssh.h"

namespace originscan::sim {

// ---------------------------------------------------------------- HTTP --

bool HttpServer::on_bytes(std::vector<std::uint8_t>& in) {
  const std::string_view request(reinterpret_cast<const char*>(in.data()),
                                 in.size());
  if (request.find("\r\n\r\n") == std::string_view::npos) return false;
  reply_ = proto::HttpRequest::parse(request) ? Reply::kPage
                                              : Reply::kBadRequest;
  return true;  // Connection: close
}

void HttpServer::write_reply(std::vector<std::uint8_t>& out) {
  const Reply reply = std::exchange(reply_, Reply::kNone);
  if (reply == Reply::kNone) return;
  proto::HttpResponse response;
  if (reply == Reply::kBadRequest) {
    response.status_code = 400;
    response.reason = "Bad Request";
    response.serialize_to(out);
    return;
  }
  char addr[net::Ipv4Addr::kMaxChars];
  const std::string_view dotted(addr, addr_.to_chars(addr));
  char title[5 + net::Ipv4Addr::kMaxChars] = "host-";
  std::memcpy(title + 5, dotted.data(), dotted.size());
  char location[8 + net::Ipv4Addr::kMaxChars + 1] = "https://";
  std::memcpy(location + 8, dotted.data(), dotted.size());
  location[8 + dotted.size()] = '/';

  response.server = http_server_software(seed_);
  response.title = forced_title_.empty()
                       ? std::string_view(title, 5 + dotted.size())
                       : forced_title_;
  // A small share of real servers answer GET / with a redirect or an
  // error page; either still counts as a completed L7 handshake.
  const std::uint64_t h = net::mix_u64(seed_, 0x477Eu);
  if (h % 100 < 8) {
    response.status_code = 301;
    response.reason = "Moved Permanently";
    response.location = std::string_view(location, 8 + dotted.size() + 1);
  } else if (h % 100 < 12) {
    response.status_code = 403;
    response.reason = "Forbidden";
  }
  response.serialize_to(out);
}

// ----------------------------------------------------------------- TLS --

bool TlsServer::on_bytes(std::vector<std::uint8_t>& in) {
  std::size_t consumed = 0;
  const auto record = proto::TlsRecord::parse(in, consumed);
  if (!record) return false;  // need more bytes

  // Decide while the record still views `in`, then drop it.
  std::optional<proto::ClientHello> hello;
  bool first = true;
  const bool framed = proto::for_each_handshake(
      record->fragment, [&](const proto::HandshakeMessage& message) {
        if (first && message.type == proto::TlsHandshakeType::kClientHello) {
          hello = proto::ClientHello::parse(message.body);
        }
        first = false;
      });
  std::uint16_t chosen = 0;
  if (record->content_type == proto::TlsContentType::kHandshake && framed &&
      hello) {
    // Pick the first offered suite we "support" (all ECDHE-RSA/GCM ones).
    const auto known = proto::chrome_cipher_suites();
    for (std::size_t i = 0; i < hello->suite_count() && chosen == 0; ++i) {
      if (std::find(known.begin(), known.end(), hello->suite(i)) !=
          known.end()) {
        chosen = hello->suite(i);
      }
    }
  }
  const bool bad_hello =
      record->content_type != proto::TlsContentType::kHandshake || !framed ||
      !hello;
  in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(consumed));

  if (chosen != 0) {
    reply_ = Reply::kFlight;
    suite_ = chosen;
    return false;
  }
  reply_ = Reply::kAlert;
  alert_ = bad_hello ? proto::TlsAlertDescription::kUnexpectedMessage
                     : proto::TlsAlertDescription::kHandshakeFailure;
  return true;
}

void TlsServer::write_reply(std::vector<std::uint8_t>& out) {
  const Reply reply = std::exchange(reply_, Reply::kNone);
  if (reply == Reply::kNone) return;
  if (reply == Reply::kAlert) {
    proto::TlsAlert{.fatal = true, .description = alert_}.write_record(out);
    return;
  }
  net::Rng rng(net::mix_u64(seed_, 0x715u));
  proto::ServerHello hello;
  hello.cipher_suite = suite_;
  for (auto& byte : hello.random) byte = static_cast<std::uint8_t>(rng());

  net::ByteWriter w(out);
  proto::write_handshake_header(w, proto::TlsHandshakeType::kServerHello,
                                proto::ServerHello::kBodySize);
  hello.write(w);
  // One opaque stand-in certificate: DER SEQUENCE header + random body.
  std::array<std::uint8_t, 4 + 0x40> der = {0x30, 0x82, 0x00, 0x40};
  for (std::size_t i = 4; i < der.size(); ++i) {
    der[i] = static_cast<std::uint8_t>(rng());
  }
  proto::write_handshake_header(w, proto::TlsHandshakeType::kCertificate,
                                3 + 3 + der.size());
  w.u8(0);  // 24-bit chain length
  w.u16(static_cast<std::uint16_t>(3 + der.size()));
  w.u8(0);  // 24-bit DER length
  w.u16(static_cast<std::uint16_t>(der.size()));
  w.bytes(der);
  proto::write_handshake_header(w, proto::TlsHandshakeType::kServerHelloDone,
                                0);
}

// ----------------------------------------------------------------- SSH --

bool SshServer::on_open() {
  reply_ = Reply::kBanner;
  return false;
}

bool SshServer::on_bytes(std::vector<std::uint8_t>& in) {
  if (client_id_seen_) return false;  // study terminates before key exchange
  const auto newline = std::find(in.begin(), in.end(), '\n');
  if (newline == in.end()) return false;
  const auto line_end = newline + 1;
  const bool valid =
      proto::SshIdentification::parse(
          std::string_view(reinterpret_cast<const char*>(in.data()),
                           static_cast<std::size_t>(line_end - in.begin())))
          .has_value();
  in.erase(in.begin(), line_end);
  if (!valid) return true;  // protocol mismatch: drop the connection
  client_id_seen_ = true;
  // Follow the version exchange with our KEXINIT, as real servers do.
  reply_ = Reply::kKexInit;
  return false;
}

void SshServer::write_reply(std::vector<std::uint8_t>& out) {
  const Reply reply = std::exchange(reply_, Reply::kNone);
  if (reply == Reply::kBanner) {
    proto::SshIdentification id;
    id.software_version = ssh_server_software(seed_);
    id.serialize_to(out);
  } else if (reply == Reply::kKexInit) {
    net::Rng rng(net::mix_u64(seed_, 0x55Bu));
    std::array<std::uint8_t, 16> cookie;
    for (auto& byte : cookie) byte = static_cast<std::uint8_t>(rng());
    proto::write_kexinit_packet(out, cookie, net::mix_u64(seed_, 0x9ADu));
  }
}

// -------------------------------------------------------------------------

std::string_view http_server_software(std::uint64_t host_seed) {
  static constexpr std::array<std::string_view, 5> kServers = {
      "nginx/1.14.0", "Apache/2.4.29", "Microsoft-IIS/10.0", "lighttpd/1.4.45",
      "nginx/1.16.1"};
  return kServers[net::mix_u64(host_seed, 0x5E7Fu) % kServers.size()];
}

std::string_view ssh_server_software(std::uint64_t host_seed) {
  static constexpr std::array<std::string_view, 5> kServers = {
      "OpenSSH_7.4", "OpenSSH_7.6p1", "OpenSSH_8.0", "dropbear_2019.78",
      "OpenSSH_6.6.1"};
  return kServers[net::mix_u64(host_seed, 0x55DFu) % kServers.size()];
}

Server make_server(const Host& host, proto::Protocol protocol,
                   const ServerOptions& options) {
  if (!host.runs(protocol)) return {};
  switch (protocol) {
    case proto::Protocol::kHttp:
      return HttpServer(host, options.forced_page_title);
    case proto::Protocol::kHttps:
      return TlsServer(host);
    case proto::Protocol::kSsh:
      return SshServer(host);
  }
  return {};
}

}  // namespace originscan::sim
