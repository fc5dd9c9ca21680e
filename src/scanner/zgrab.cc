#include "scanner/zgrab.h"

#include <array>
#include <string_view>
#include <vector>

#include "proto/http.h"
#include "proto/ssh.h"
#include "proto/tls.h"

namespace originscan::scan {
namespace {

std::string_view as_text(std::span<const std::uint8_t> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

L7Result classify_http(std::span<const std::uint8_t> flight,
                       bool peer_closed) {
  L7Result result;
  const auto response = proto::HttpResponse::parse(as_text(flight));
  if (!response || !response->valid()) {
    result.outcome = sim::L7Outcome::kProtocolError;
    result.explicit_close = peer_closed;
    return result;
  }
  result.outcome = sim::L7Outcome::kCompleted;
  result.banner = response->title;
  return result;
}

L7Result classify_tls(std::span<const std::uint8_t> flight) {
  // Walk the records in the server's flight; we need ServerHello,
  // Certificate, and ServerHelloDone to declare the grab complete.
  L7Result result;
  bool saw_server_hello = false;
  bool saw_certificate = false;
  bool saw_done = false;
  std::uint16_t suite = 0;
  std::size_t offset = 0;
  while (offset < flight.size()) {
    std::size_t consumed = 0;
    const auto record =
        proto::TlsRecord::parse(flight.subspan(offset), consumed);
    if (!record) break;
    offset += consumed;
    if (record->content_type == proto::TlsContentType::kAlert) {
      result.outcome = sim::L7Outcome::kClosedMidHandshake;
      result.explicit_close = true;
      return result;
    }
    const bool framed = proto::for_each_handshake(
        record->fragment, [&](const proto::HandshakeMessage& message) {
          switch (message.type) {
            case proto::TlsHandshakeType::kServerHello:
              if (const auto hello = proto::ServerHello::parse(message.body)) {
                saw_server_hello = true;
                suite = hello->cipher_suite;
              }
              break;
            case proto::TlsHandshakeType::kCertificate:
              saw_certificate =
                  proto::Certificate::parse(message.body).has_value();
              break;
            case proto::TlsHandshakeType::kServerHelloDone:
              saw_done = true;
              break;
            default:
              break;
          }
        });
    if (!framed) break;
  }
  if (saw_server_hello && saw_certificate && saw_done) {
    result.outcome = sim::L7Outcome::kCompleted;
    // The negotiated suite as "0x%04X".
    constexpr char kHex[] = "0123456789ABCDEF";
    result.banner = {'0', 'x', kHex[suite >> 12], kHex[(suite >> 8) & 0xF],
                     kHex[(suite >> 4) & 0xF], kHex[suite & 0xF]};
    return result;
  }
  result.outcome = sim::L7Outcome::kProtocolError;
  return result;
}

L7Result classify_ssh(std::span<const std::uint8_t> flight) {
  L7Result result;
  const std::string_view banner_line = as_text(flight);
  if (banner_line.find('\n') == std::string_view::npos) {
    // RFC 4253 identification is a line; a flight cut short of the
    // newline means the banner never completed (any "SSH-2.0-..."
    // prefix would otherwise parse as a bogus truncated version).
    result.outcome = sim::L7Outcome::kProtocolError;
    return result;
  }
  const auto server_id = proto::SshIdentification::parse(banner_line);
  if (!server_id) {
    result.outcome = sim::L7Outcome::kProtocolError;
    return result;
  }
  result.outcome = sim::L7Outcome::kCompleted;
  result.banner = server_id->software_version;
  return result;
}

}  // namespace

std::span<const std::uint8_t> client_flight(proto::Protocol protocol) {
  static const std::array<std::vector<std::uint8_t>, 3> kFlights = [] {
    std::array<std::vector<std::uint8_t>, 3> flights;
    proto::HttpRequest{}.serialize_to(
        flights[proto::index_of(proto::Protocol::kHttp)]);
    flights[proto::index_of(proto::Protocol::kHttps)] =
        proto::client_hello_record(proto::chrome_cipher_suites());
    proto::SshIdentification{.software_version = "OpenSSH_7.9 originscan"}
        .serialize_to(flights[proto::index_of(proto::Protocol::kSsh)]);
    return flights;
  }();
  return kFlights[proto::index_of(protocol)];
}

L7Result classify_flight(proto::Protocol protocol,
                         std::span<const std::uint8_t> flight,
                         bool peer_closed, bool peer_reset) {
  L7Result result;
  if (peer_reset) {
    result.outcome = sim::L7Outcome::kResetAfterAccept;
    result.explicit_close = true;
    return result;
  }
  if (flight.empty()) {
    // Nothing usable arrived: the peer's FIN or our read timer ended it.
    result.outcome = peer_closed ? sim::L7Outcome::kClosedBeforeData
                                 : sim::L7Outcome::kReadTimeout;
    result.explicit_close = peer_closed;
    return result;
  }
  switch (protocol) {
    case proto::Protocol::kHttp:
      return classify_http(flight, peer_closed);
    case proto::Protocol::kHttps:
      return classify_tls(flight);
    case proto::Protocol::kSsh:
      return classify_ssh(flight);
  }
  return result;
}

bool is_retryable(sim::L7Outcome outcome) {
  switch (outcome) {
    case sim::L7Outcome::kConnectTimeout:
    case sim::L7Outcome::kResetAfterAccept:
    case sim::L7Outcome::kClosedBeforeData:
      return true;
    default:
      return false;
  }
}

net::VirtualTime RetryPolicy::backoff_before(int attempt) const {
  if (attempt <= 0) return {};
  double micros = static_cast<double>(initial_backoff.micros());
  for (int i = 1; i < attempt; ++i) micros *= backoff_multiplier;
  const double cap = static_cast<double>(max_backoff.micros());
  if (micros > cap) micros = cap;
  return net::VirtualTime::from_micros(static_cast<std::int64_t>(micros));
}

bool RetryPolicy::should_retry(sim::L7Outcome outcome) const {
  if (is_retryable(outcome)) return true;
  if (!retry_banner_failures) return false;
  switch (outcome) {
    case sim::L7Outcome::kReadTimeout:
    case sim::L7Outcome::kProtocolError:
    case sim::L7Outcome::kClosedMidHandshake:
      return true;
    default:
      return false;
  }
}

ZGrabEngine::ZGrabEngine(const ZGrabConfig& config, sim::Internet* internet,
                         sim::OriginId origin)
    : config_(config),
      lane_(internet->probe_context(origin, config.protocol)) {}

L7Result ZGrabEngine::grab(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                           net::VirtualTime t) {
  const RetryPolicy& policy = config_.retry;
  L7Result result;
  int attempts_used = 0;
  for (int i = 0; i <= policy.max_retries; ++i) {
    if (i > 0) t += policy.backoff_before(i);
    result = attempt(src_ip, dst, t, i);
    attempts_used = i + 1;
    if (result.outcome == sim::L7Outcome::kCompleted ||
        !policy.should_retry(result.outcome)) {
      break;
    }
  }
  // Attempt accounting happens exactly once, here: a banner received on
  // the final retry reports attempts == max_retries + 1, never more
  // (the Section-6 MaxStartups histogram buckets on this value).
  result.attempts = attempts_used;
  if (config_.metrics != nullptr) {
    config_.metrics->add(obsv::Counter::kZgrabGrabs);
    config_.metrics->add(obsv::Counter::kZgrabRetries,
                         static_cast<std::uint64_t>(attempts_used - 1));
    config_.metrics->observe(obsv::Histogram::kZgrabAttempts,
                             static_cast<std::uint64_t>(attempts_used));
    if (result.outcome == sim::L7Outcome::kCompleted) {
      config_.metrics->add(obsv::Counter::kZgrabCompleted);
    }
  }
  return result;
}

L7Result ZGrabEngine::attempt(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                              net::VirtualTime t, int attempt_index) {
  current_dst_ = dst;
  current_attempt_ = attempt_index;
  L7Result result;
  if (config_.faults != nullptr &&
      config_.faults->l7_fault(dst, attempt_index) ==
          fault::FaultInjector::L7Fault::kRst) {
    // Injected mid-handshake RST: the peer accepts, then tears the
    // connection down before any application bytes. Preempts the
    // simulated connect so the fault leaves no trace in the sim's
    // deterministic draws (a recovered retry replays them untouched).
    result.outcome = sim::L7Outcome::kResetAfterAccept;
    result.explicit_close = true;
    if (config_.metrics != nullptr) {
      config_.metrics->add(obsv::Counter::kFaultConnectRst);
    }
    return result;
  }
  if (!lane_.connect(src_ip, dst, t, attempt_index, connection_)) {
    result.outcome = sim::L7Outcome::kConnectTimeout;
    if (config_.metrics != nullptr) {
      config_.metrics->add(obsv::Counter::kZgrabConnectFailures);
    }
    return result;
  }
  // HTTP and TLS clients speak first; an SSH server sends its banner
  // first and our identification answers it. The study's partial
  // handshakes end there (Section 2).
  const bool server_first = config_.protocol == proto::Protocol::kSsh;
  if (!server_first) connection_.send(client_flight(config_.protocol));
  result = classify_flight(config_.protocol, read_bytes(),
                           connection_.peer_closed(), connection_.peer_reset());
  if (server_first && result.outcome == sim::L7Outcome::kCompleted) {
    connection_.send(client_flight(config_.protocol));
  }
  return result;
}

std::span<const std::uint8_t> ZGrabEngine::read_bytes() {
  auto bytes = connection_.read();
  if (config_.faults == nullptr || bytes.empty()) return bytes;
  switch (config_.faults->l7_fault(current_dst_, current_attempt_)) {
    case fault::FaultInjector::L7Fault::kStall:
      // The server's flight never arrives; the read timer is our only
      // way out.
      bytes = {};
      if (config_.metrics != nullptr) {
        config_.metrics->add(obsv::Counter::kFaultBannerStall);
      }
      break;
    case fault::FaultInjector::L7Fault::kTruncate:
      // Connection damaged mid-flight: only a prefix of the banner gets
      // through, which the protocol parsers must reject (not crash on).
      bytes = bytes.first(bytes.size() / 2);
      if (config_.metrics != nullptr) {
        config_.metrics->add(obsv::Counter::kFaultBannerTrunc);
      }
      break;
    case fault::FaultInjector::L7Fault::kRst:
    case fault::FaultInjector::L7Fault::kNone:
      break;
  }
  return bytes;
}

}  // namespace originscan::scan
