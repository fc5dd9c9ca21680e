#include "tests/l7_reference.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

#include "netbase/byteio.h"

namespace originscan::reference {
namespace {

using net::ByteReader;

constexpr std::string_view kCrlf = "\r\n";

std::optional<std::string_view> next_line(std::string_view& text) {
  const auto pos = text.find(kCrlf);
  if (pos == std::string_view::npos) return std::nullopt;
  auto line = text.substr(0, pos);
  text.remove_prefix(pos + kCrlf.size());
  return line;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool parse_headers(std::string_view& text,
                   std::map<std::string, std::string>& headers) {
  for (;;) {
    auto line = next_line(text);
    if (!line) return false;
    if (line->empty()) return true;
    const auto colon = line->find(':');
    if (colon == std::string_view::npos) return false;
    headers[lower(trim(line->substr(0, colon)))] =
        std::string(trim(line->substr(colon + 1)));
  }
}

}  // namespace

std::optional<HttpRequest> HttpRequest::parse(std::string_view text) {
  auto line = next_line(text);
  if (!line) return std::nullopt;
  const auto first_space = line->find(' ');
  const auto second_space = line->rfind(' ');
  if (first_space == std::string_view::npos || second_space <= first_space) {
    return std::nullopt;
  }
  HttpRequest request;
  request.method = std::string(line->substr(0, first_space));
  request.target = std::string(
      line->substr(first_space + 1, second_space - first_space - 1));
  if (line->substr(second_space + 1) != "HTTP/1.1" &&
      line->substr(second_space + 1) != "HTTP/1.0") {
    return std::nullopt;
  }
  std::map<std::string, std::string> headers;
  if (!parse_headers(text, headers)) return std::nullopt;
  if (auto it = headers.find("host"); it != headers.end()) {
    request.host = it->second;
  }
  if (auto it = headers.find("user-agent"); it != headers.end()) {
    request.user_agent = it->second;
  }
  return request;
}

std::optional<HttpResponse> HttpResponse::parse(std::string_view text) {
  auto line = next_line(text);
  if (!line) return std::nullopt;
  if (!line->starts_with("HTTP/1.")) return std::nullopt;
  const auto first_space = line->find(' ');
  if (first_space == std::string_view::npos) return std::nullopt;
  auto rest = line->substr(first_space + 1);
  int status = 0;
  auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), status);
  if (ec != std::errc{} || status < 100 || status > 599) return std::nullopt;

  HttpResponse response;
  response.status_code = status;
  const auto reason_start = rest.find(' ');
  if (reason_start != std::string_view::npos) {
    response.reason = std::string(rest.substr(reason_start + 1));
  }
  std::map<std::string, std::string> headers;
  if (!parse_headers(text, headers)) return std::nullopt;
  if (auto it = headers.find("server"); it != headers.end()) {
    response.server = it->second;
  }
  std::string_view body = text;
  if (auto it = headers.find("content-length"); it != headers.end()) {
    std::size_t length = 0;
    auto [p, e] = std::from_chars(it->second.data(),
                                  it->second.data() + it->second.size(),
                                  length);
    if (e == std::errc{} && p == it->second.data() + it->second.size() &&
        length <= body.size()) {
      body = body.substr(0, length);
    }
  }
  response.title = extract_title(body);
  for (auto& [name, value] : headers) {
    if (name != "server" && name != "content-length" &&
        name != "content-type" && name != "connection") {
      response.extra_headers.emplace(name, std::move(value));
    }
  }
  return response;
}

std::string extract_title(std::string_view html) {
  const auto open = html.find("<title>");
  if (open == std::string_view::npos) return {};
  const auto start = open + 7;
  const auto close = html.find("</title>", start);
  if (close == std::string_view::npos) return {};
  return std::string(html.substr(start, close - start));
}

std::optional<TlsRecord> TlsRecord::parse(std::span<const std::uint8_t> data,
                                          std::size_t& consumed) {
  if (data.size() < 5) return std::nullopt;
  ByteReader r(data);
  TlsRecord record;
  const std::uint8_t type = r.u8();
  if (type != 21 && type != 22) return std::nullopt;
  record.content_type = type;
  record.version = r.u16();
  const std::uint16_t length = r.u16();
  auto fragment = r.bytes(length);
  if (!r.ok()) return std::nullopt;
  record.fragment.assign(fragment.begin(), fragment.end());
  consumed = 5 + static_cast<std::size_t>(length);
  return record;
}

std::optional<std::vector<HandshakeMessage>> split_handshakes(
    std::span<const std::uint8_t> fragment) {
  std::vector<HandshakeMessage> out;
  ByteReader r(fragment);
  while (r.ok() && r.remaining() >= 4) {
    HandshakeMessage msg;
    msg.type = r.u8();
    std::uint32_t length = std::uint32_t{r.u8()} << 16;
    length |= r.u16();
    auto body = r.bytes(length);
    if (!r.ok()) return std::nullopt;
    msg.body.assign(body.begin(), body.end());
    out.push_back(std::move(msg));
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return out;
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
  for (int i = 0; i < suites_length / 2; ++i) {
    hello.cipher_suites.push_back(r.u16());
  }
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
        sni.skip(2);
        sni.skip(1);
        const std::uint16_t name_length = sni.u16();
        auto name = sni.bytes(name_length);
        if (sni.ok()) hello.server_name.assign(name.begin(), name.end());
      }
    }
  }
  return hello;
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
  r.skip(1);
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
    cert.chain.emplace_back(der.begin(), der.end());
    remaining -= 3 + der_length;
  }
  if (!r.ok() || remaining != 0) return std::nullopt;
  return cert;
}

std::optional<SshIdentification> SshIdentification::parse(
    std::string_view line) {
  if (line.ends_with("\r\n")) {
    line.remove_suffix(2);
  } else if (line.ends_with('\n')) {
    line.remove_suffix(1);
  }
  if (!line.starts_with("SSH-")) return std::nullopt;
  line.remove_prefix(4);
  const auto dash = line.find('-');
  if (dash == std::string_view::npos) return std::nullopt;

  SshIdentification id;
  id.protocol_version = std::string(line.substr(0, dash));
  if (id.protocol_version != "2.0" && id.protocol_version != "1.99") {
    return std::nullopt;
  }
  auto rest = line.substr(dash + 1);
  const auto space = rest.find(' ');
  if (space == std::string_view::npos) {
    id.software_version = std::string(rest);
  } else {
    id.software_version = std::string(rest.substr(0, space));
    id.comment = std::string(rest.substr(space + 1));
  }
  if (id.software_version.empty()) return std::nullopt;
  return id;
}

std::optional<std::vector<std::uint8_t>> ssh_packet_payload(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  const std::uint32_t packet_length = r.u32();
  const std::uint8_t padding_length = r.u8();
  if (!r.ok() || packet_length < 1u + padding_length) return std::nullopt;
  const std::uint32_t payload_length = packet_length - 1 - padding_length;
  auto payload = r.bytes(payload_length);
  r.skip(padding_length);
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  if ((4 + packet_length) % 8 != 0) return std::nullopt;
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

namespace {

std::optional<std::vector<std::string>> read_name_list(ByteReader& r) {
  const std::uint32_t length = r.u32();
  auto raw = r.bytes(length);
  if (!r.ok()) return std::nullopt;
  std::vector<std::string> out;
  std::string current;
  for (std::uint8_t byte : raw) {
    if (byte == ',') {
      out.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(static_cast<char>(byte));
    }
  }
  if (!current.empty() || !raw.empty()) out.push_back(std::move(current));
  return out;
}

}  // namespace

std::optional<SshKexInit> SshKexInit::parse(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  if (r.u8() != 20) return std::nullopt;
  SshKexInit kex;
  auto cookie = r.bytes(16);
  if (!r.ok()) return std::nullopt;
  std::copy(cookie.begin(), cookie.end(), kex.cookie.begin());
  auto kex_algorithms = read_name_list(r);
  auto host_keys = read_name_list(r);
  if (!kex_algorithms || !host_keys) return std::nullopt;
  kex.kex_algorithms = std::move(*kex_algorithms);
  kex.host_key_algorithms = std::move(*host_keys);
  for (int i = 0; i < 6; ++i) {
    if (!read_name_list(r)) return std::nullopt;
  }
  r.skip(1);
  r.skip(4);
  if (!r.ok()) return std::nullopt;
  return kex;
}

scan::L7Result classify_flight(proto::Protocol protocol,
                               std::span<const std::uint8_t> flight,
                               bool peer_closed, bool peer_reset) {
  scan::L7Result result;
  if (peer_reset) {
    result.outcome = sim::L7Outcome::kResetAfterAccept;
    result.explicit_close = true;
    return result;
  }
  if (flight.empty()) {
    result.outcome = peer_closed ? sim::L7Outcome::kClosedBeforeData
                                 : sim::L7Outcome::kReadTimeout;
    result.explicit_close = peer_closed;
    return result;
  }
  const std::string text(flight.begin(), flight.end());
  switch (protocol) {
    case proto::Protocol::kHttp: {
      auto response = HttpResponse::parse(text);
      if (!response || !response->valid()) {
        result.outcome = sim::L7Outcome::kProtocolError;
        result.explicit_close = peer_closed;
        return result;
      }
      result.outcome = sim::L7Outcome::kCompleted;
      result.banner = response->title;
      return result;
    }
    case proto::Protocol::kHttps: {
      const std::vector<std::uint8_t> bytes(flight.begin(), flight.end());
      bool saw_server_hello = false;
      bool saw_certificate = false;
      bool saw_done = false;
      std::uint16_t suite = 0;
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        std::size_t consumed = 0;
        auto record =
            TlsRecord::parse(std::span(bytes).subspan(offset), consumed);
        if (!record) break;
        offset += consumed;
        if (record->content_type == 21) {
          result.outcome = sim::L7Outcome::kClosedMidHandshake;
          result.explicit_close = true;
          return result;
        }
        auto messages = split_handshakes(record->fragment);
        if (!messages) break;
        for (const auto& message : *messages) {
          if (message.type == 2) {
            auto server_hello = ServerHello::parse(message.body);
            if (server_hello) {
              saw_server_hello = true;
              suite = server_hello->cipher_suite;
            }
          } else if (message.type == 11) {
            saw_certificate = Certificate::parse(message.body).has_value();
          } else if (message.type == 14) {
            saw_done = true;
          }
        }
      }
      if (saw_server_hello && saw_certificate && saw_done) {
        result.outcome = sim::L7Outcome::kCompleted;
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "0x%04X", suite);
        result.banner = buffer;
        return result;
      }
      result.outcome = sim::L7Outcome::kProtocolError;
      return result;
    }
    case proto::Protocol::kSsh: {
      if (text.find('\n') == std::string::npos) {
        result.outcome = sim::L7Outcome::kProtocolError;
        return result;
      }
      auto server_id = SshIdentification::parse(text);
      if (!server_id) {
        result.outcome = sim::L7Outcome::kProtocolError;
        return result;
      }
      result.outcome = sim::L7Outcome::kCompleted;
      result.banner = server_id->software_version;
      return result;
    }
  }
  return result;
}

}  // namespace originscan::reference
