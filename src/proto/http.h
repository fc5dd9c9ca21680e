// Minimal HTTP/1.1 request/response codec — exactly what a ZGrab
// `http` module sends (GET / with Host and User-Agent) and what the
// simulated servers answer with. Parsed messages are views into the
// caller's text: parsing copies nothing and builds no header table.
// Parsing is strict about the pieces the scanner relies on (status line,
// Content-Length framing) and tolerant about everything else, mirroring
// real scanner behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace originscan::proto {

// Header lookups match names case-insensitively, ignore surrounding
// blanks, and let the last duplicate win.
struct HttpRequest {
  std::string_view method = "GET";
  std::string_view target = "/";
  std::string_view host;  // Host header
  std::string_view user_agent = "Mozilla/5.0 zgrab/0.x (originscan)";

  // Appends the wire form to `out`.
  void serialize_to(std::vector<std::uint8_t>& out) const;
  // Views into `text`, which must outlive the result.
  static std::optional<HttpRequest> parse(std::string_view text);
};

// The response shape the simulated servers write: status line, optional
// Server and location headers, and the body
// "<html><head><title>{title}</title></head><body>{title}</body></html>".
struct HttpResponse {
  int status_code = 200;
  std::string_view reason = "OK";
  std::string_view server;    // Server header, may be empty
  std::string_view location;  // location header (redirects), may be empty
  std::string_view title;     // the body's <title>

  // Appends the wire form to `out`.
  void serialize_to(std::vector<std::uint8_t>& out) const;
  // Views into `text`, which must outlive the result. The title comes
  // from the Content-Length-framed body (the rest of `text` without a
  // usable Content-Length).
  static std::optional<HttpResponse> parse(std::string_view text);

  // True when the status line parsed and the handshake counts as an
  // L7 success for the study (any syntactically valid response does —
  // the paper counts completed GETs, not 200s).
  [[nodiscard]] bool valid() const { return status_code >= 100; }
};

// The <title> of an HTML body, or empty (used by the geographic-bias
// analysis to recognize "Blocked Site" pages, Section 4.4).
std::string_view extract_title(std::string_view html);

}  // namespace originscan::proto
