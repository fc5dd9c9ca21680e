// The application-layer handshake engine (ZGrab analog): drives the
// client half of HTTP, TLS, or SSH over a simulated TCP connection and
// classifies the outcome. Supports the retry ladder used by the paper's
// Section-6 experiment (re-trying failed SSH handshakes recovers
// MaxStartups-refused hosts).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "faultinject/faultinject.h"
#include "netbase/ipv4.h"
#include "netbase/vtime.h"
#include "obsv/metrics.h"
#include "proto/protocol.h"
#include "sim/internet.h"
#include "sim/types.h"

namespace originscan::scan {

// When and how the engine re-tries a failed handshake. Backoff runs on
// the virtual clock: retry k (1-based) starts backoff_before(k) after
// attempt k-1 ended, following a capped exponential ladder.
struct RetryPolicy {
  // Total handshake attempts = 1 + max_retries. Only retryable failures
  // consume retries.
  int max_retries = 0;
  net::VirtualTime initial_backoff = net::VirtualTime::from_seconds(1.0);
  double backoff_multiplier = 2.0;
  net::VirtualTime max_backoff = net::VirtualTime::from_seconds(8.0);
  // The base retryable set covers transport-level failures (connect
  // timeout, reset, close before data). With this flag the engine also
  // re-tries banner-level failures — read timeouts, truncated/garbled
  // banners (kProtocolError), and mid-handshake closes — which is what
  // lets it recover from injected banner_trunc/banner_stall faults.
  bool retry_banner_failures = false;

  // Virtual-time gap between attempt `attempt - 1` and attempt `attempt`
  // (attempt >= 1): initial_backoff * multiplier^(attempt-1), capped.
  [[nodiscard]] net::VirtualTime backoff_before(int attempt) const;

  [[nodiscard]] bool should_retry(sim::L7Outcome outcome) const;
};

struct ZGrabConfig {
  proto::Protocol protocol = proto::Protocol::kHttp;
  RetryPolicy retry;
  // Deterministic L7 fault injection (core/faultinject layer):
  // mid-handshake resets, truncated banners, stalled banners. Null = no
  // faults.
  const fault::FaultInjector* faults = nullptr;
  // Single-writer metric block for this engine's lane (zgrab.* counters,
  // the attempts histogram, and the L7 fault-point counters). Null (the
  // default) disables observability at zero cost.
  obsv::MetricBlock* metrics = nullptr;
};

struct L7Result {
  sim::L7Outcome outcome = sim::L7Outcome::kNotAttempted;
  // HTTP: page title; TLS: negotiated suite as hex string; SSH: server
  // software version.
  std::string banner;
  bool explicit_close = false;  // peer RST/FIN rather than silence
  // Number of handshake attempts actually performed (1-based; a banner
  // received on the final retry reports exactly max_retries + 1, counted
  // once — this value feeds the Section-6 attempt histogram).
  int attempts = 0;
};

class ZGrabEngine {
 public:
  ZGrabEngine(const ZGrabConfig& config, sim::Internet* internet,
              sim::OriginId origin);

  // Performs the handshake (with retries) starting at virtual time `t`.
  L7Result grab(net::Ipv4Addr src_ip, net::Ipv4Addr dst, net::VirtualTime t);

 private:
  L7Result attempt(net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                   net::VirtualTime t, int attempt_index);

  // Drains the server's pending flight, applying any injected banner
  // fault for the current (dst, attempt) context: a stall swallows the
  // bytes (read timeout); a truncation keeps only a prefix, which the
  // protocol parsers then reject.
  std::span<const std::uint8_t> read_bytes();

  ZGrabConfig config_;
  // The lock-free lane view of (origin, protocol) every connect goes
  // through.
  sim::ProbeContext lane_;
  // One connection, reset by every connect: its buffers keep their
  // capacity from target to target.
  sim::Connection connection_;
  // Context of the attempt in flight, consulted by the fault hooks.
  net::Ipv4Addr current_dst_;
  int current_attempt_ = 0;
};

// The bytes the client sends for `protocol`: the GET request and the
// ClientHello record open their handshakes; the SSH identification
// answers the server's banner. Serialized once per process.
std::span<const std::uint8_t> client_flight(proto::Protocol protocol);

// Classifies one handshake attempt from the server's flight as the client
// read it (after any injected banner fault) and from how the peer had
// ended the connection by then. A pure function of its inputs; `attempts`
// is left 0 for grab() to fill in.
L7Result classify_flight(proto::Protocol protocol,
                         std::span<const std::uint8_t> flight,
                         bool peer_closed, bool peer_reset);

// Whether a failed attempt is worth retrying under the base policy (the
// connection was refused or reset, as opposed to e.g. a protocol
// mismatch). Equivalent to RetryPolicy{.retry_banner_failures = false}.
bool is_retryable(sim::L7Outcome outcome);

}  // namespace originscan::scan
