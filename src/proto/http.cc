#include "proto/http.h"

#include <charconv>

#include "netbase/byteio.h"

namespace originscan::proto {
namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kBodyOpen = "<html><head><title>";
constexpr std::string_view kBodyMiddle = "</title></head><body>";
constexpr std::string_view kBodyClose = "</body></html>";

// Splits off the next CRLF-terminated line; returns nullopt when no CRLF
// remains.
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

// ASCII case-insensitive match against a lower-case header name.
bool name_is(std::string_view name, std::string_view lower) {
  if (name.size() != lower.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return true;
}

// Walks "Name: value" header lines up to the blank line, handing each
// trimmed pair to `visit`; returns false on malformed input.
template <typename Visit>
bool parse_headers(std::string_view& text, Visit&& visit) {
  for (;;) {
    auto line = next_line(text);
    if (!line) return false;
    if (line->empty()) return true;  // end of headers
    const auto colon = line->find(':');
    if (colon == std::string_view::npos) return false;
    visit(trim(line->substr(0, colon)), trim(line->substr(colon + 1)));
  }
}

// Decimal text of `value` in `digits`.
std::string_view decimal(std::size_t value, char (&digits)[24]) {
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  return {digits, static_cast<std::size_t>(end - digits)};
}

}  // namespace

void HttpRequest::serialize_to(std::vector<std::uint8_t>& out) const {
  net::ByteWriter(out).text({method, " ", target, " HTTP/1.1\r\nHost: ",
                             host.empty() ? "-" : host, "\r\nUser-Agent: ",
                             user_agent,
                             "\r\nAccept: */*\r\nConnection: close\r\n\r\n"});
}

std::optional<HttpRequest> HttpRequest::parse(std::string_view text) {
  auto line = next_line(text);
  if (!line) return std::nullopt;
  const auto first_space = line->find(' ');
  const auto second_space = line->rfind(' ');
  if (first_space == std::string_view::npos || second_space <= first_space) {
    return std::nullopt;
  }
  HttpRequest request;
  request.method = line->substr(0, first_space);
  request.target =
      line->substr(first_space + 1, second_space - first_space - 1);
  const auto version = line->substr(second_space + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return std::nullopt;
  const bool headers_ok =
      parse_headers(text, [&](std::string_view name, std::string_view value) {
        if (name_is(name, "host")) {
          request.host = value;
        } else if (name_is(name, "user-agent")) {
          request.user_agent = value;
        }
      });
  if (!headers_ok) return std::nullopt;
  return request;
}

void HttpResponse::serialize_to(std::vector<std::uint8_t>& out) const {
  char status[24];
  char length[24];
  const std::size_t body_length = kBodyOpen.size() + kBodyMiddle.size() +
                                  kBodyClose.size() + 2 * title.size();
  const bool has_server = !server.empty();
  const bool has_location = !location.empty();
  net::ByteWriter(out).text(
      {"HTTP/1.1 ", decimal(static_cast<std::size_t>(status_code), status),
       " ", reason, kCrlf, has_server ? "Server: " : "", server,
       has_server ? kCrlf : "", has_location ? "location: " : "", location,
       has_location ? kCrlf : "", "Content-Type: text/html\r\nContent-Length: ",
       decimal(body_length, length), "\r\nConnection: close\r\n\r\n",
       kBodyOpen, title, kBodyMiddle, title, kBodyClose});
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
    response.reason = rest.substr(reason_start + 1);
  }
  std::optional<std::string_view> content_length;
  const bool headers_ok =
      parse_headers(text, [&](std::string_view name, std::string_view value) {
        if (name_is(name, "server")) {
          response.server = value;
        } else if (name_is(name, "location")) {
          response.location = value;
        } else if (name_is(name, "content-length")) {
          content_length = value;
        }
      });
  if (!headers_ok) return std::nullopt;
  // Body framing: trust Content-Length when present, else take the rest.
  std::string_view body = text;
  if (content_length) {
    const char* end = content_length->data() + content_length->size();
    std::size_t length = 0;
    auto [p, e] = std::from_chars(content_length->data(), end, length);
    if (e == std::errc{} && p == end && length <= body.size()) {
      body = body.substr(0, length);
    }
  }
  response.title = extract_title(body);
  return response;
}

std::string_view extract_title(std::string_view html) {
  const auto open = html.find("<title>");
  if (open == std::string_view::npos) return {};
  const auto start = open + 7;
  const auto close = html.find("</title>", start);
  if (close == std::string_view::npos) return {};
  return html.substr(start, close - start);
}

}  // namespace originscan::proto
