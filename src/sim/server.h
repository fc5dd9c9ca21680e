// Server-side protocol behaviour for simulated hosts. Each server is a
// small value-type state machine fed client bytes and producing server
// bytes — the same byte streams a real ZGrab peer would see. A server
// decides how the connection ends as soon as the client's bytes arrive,
// but writes its reply only when the client reads it (Connection::read):
// a reply nobody reads, like the KEXINIT after an SSH banner grab, is
// never built. The bytes are the same either way.
#pragma once

#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "netbase/ipv4.h"
#include "proto/protocol.h"
#include "proto/tls.h"
#include "sim/host.h"

namespace originscan::sim {

// The shape every server below shares:
//   on_open()         connection established; true = the server closes
//   on_bytes(in)      consumes what it can of the buffered client bytes
//                     `in` and decides its reply; true = it closes after
//   write_reply(out)  appends the reply decided so far, once

// Nothing listening behind the connection: it never answers.
struct NoServer {
  bool on_open() { return false; }
  bool on_bytes(std::vector<std::uint8_t>&) { return false; }
  void write_reply(std::vector<std::uint8_t>&) {}
};

class HttpServer {
 public:
  HttpServer(const Host& host, std::string_view forced_title)
      : addr_(host.addr), seed_(host.seed), forced_title_(forced_title) {}

  bool on_open() { return false; }  // the client speaks first
  bool on_bytes(std::vector<std::uint8_t>& in);
  void write_reply(std::vector<std::uint8_t>& out);

 private:
  enum class Reply : std::uint8_t { kNone, kBadRequest, kPage };

  net::Ipv4Addr addr_;
  std::uint64_t seed_;
  std::string_view forced_title_;
  Reply reply_ = Reply::kNone;
};

class TlsServer {
 public:
  explicit TlsServer(const Host& host) : seed_(host.seed) {}

  bool on_open() { return false; }  // the client speaks first
  bool on_bytes(std::vector<std::uint8_t>& in);
  void write_reply(std::vector<std::uint8_t>& out);

 private:
  enum class Reply : std::uint8_t { kNone, kFlight, kAlert };

  std::uint64_t seed_;
  Reply reply_ = Reply::kNone;
  std::uint16_t suite_ = 0;  // kFlight
  proto::TlsAlertDescription alert_{};  // kAlert
};

class SshServer {
 public:
  explicit SshServer(const Host& host) : seed_(host.seed) {}

  bool on_open();  // servers speak first (RFC 4253 §4.2)
  bool on_bytes(std::vector<std::uint8_t>& in);
  void write_reply(std::vector<std::uint8_t>& out);

 private:
  enum class Reply : std::uint8_t { kNone, kBanner, kKexInit };

  std::uint64_t seed_;
  Reply reply_ = Reply::kNone;
  bool client_id_seen_ = false;
};

// The server a host runs for one protocol.
using Server = std::variant<NoServer, HttpServer, TlsServer, SshServer>;

struct ServerOptions {
  // When set, the HTTP server serves this page title regardless of the
  // host's own content (used by the ServeBlockPage policy). The text
  // must outlive the server.
  std::string_view forced_page_title;
};

// The server state machine a given host runs for a protocol, or NoServer
// when the host does not serve the protocol. The host's seed
// makes banners/certificates deterministic per host.
Server make_server(const Host& host, proto::Protocol protocol,
                   const ServerOptions& options = {});

// Banner helpers exposed for tests and the scenario builder.
std::string_view http_server_software(std::uint64_t host_seed);
std::string_view ssh_server_software(std::uint64_t host_seed);

}  // namespace originscan::sim
