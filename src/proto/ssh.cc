#include "proto/ssh.h"

#include <charconv>

#include "netbase/byteio.h"
#include "netbase/rng.h"

namespace originscan::proto {

using net::ByteWriter;

void SshIdentification::serialize_to(std::vector<std::uint8_t>& out) const {
  ByteWriter(out).text({"SSH-", protocol_version, "-", software_version,
                        comment.empty() ? "" : " ", comment, "\r\n"});
}

std::optional<SshIdentification> SshIdentification::parse(
    std::string_view line) {
  // Strip one trailing CRLF or LF.
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
  id.protocol_version = line.substr(0, dash);
  if (id.protocol_version != "2.0" && id.protocol_version != "1.99") {
    return std::nullopt;
  }
  auto rest = line.substr(dash + 1);
  const auto space = rest.find(' ');
  id.software_version = rest.substr(0, space);
  if (space != std::string_view::npos) id.comment = rest.substr(space + 1);
  if (id.software_version.empty()) return std::nullopt;
  return id;
}

double MaxStartups::refusal_probability(int unauthenticated) const {
  if (unauthenticated < start) return 0.0;
  if (unauthenticated >= full) return 1.0;
  // OpenSSH ramps linearly from rate% at `start` to 100% at `full`.
  const double span = static_cast<double>(full - start);
  const double progress = static_cast<double>(unauthenticated - start);
  const double base = static_cast<double>(rate) / 100.0;
  return base + (1.0 - base) * (span > 0.0 ? progress / span : 1.0);
}

std::optional<MaxStartups> MaxStartups::parse(std::string_view text) {
  MaxStartups ms;
  int* fields[3] = {&ms.start, &ms.rate, &ms.full};
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      if (text.empty() || text.front() != ':') return std::nullopt;
      text.remove_prefix(1);
    }
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), *fields[i]);
    if (ec != std::errc{} || ptr == text.data() || *fields[i] < 0) {
      return std::nullopt;
    }
    text.remove_prefix(static_cast<std::size_t>(ptr - text.data()));
  }
  if (!text.empty()) return std::nullopt;
  if (ms.rate > 100 || ms.full < ms.start) return std::nullopt;
  return ms;
}

std::string MaxStartups::to_string() const {
  return std::to_string(start) + ":" + std::to_string(rate) + ":" +
         std::to_string(full);
}

namespace {

constexpr std::string_view kKexAlgorithms =
    "curve25519-sha256,ecdh-sha2-nistp256,diffie-hellman-group14-sha256";
constexpr std::string_view kHostKeyAlgorithms =
    "ssh-ed25519,rsa-sha2-512,rsa-sha2-256";

void write_name_list(ByteWriter& w, std::string_view joined) {
  w.u32(static_cast<std::uint32_t>(joined.size()));
  w.bytes(std::span(reinterpret_cast<const std::uint8_t*>(joined.data()),
                    joined.size()));
}

}  // namespace

void write_kexinit_packet(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t, 16> cookie,
                          std::uint64_t padding_seed) {
  constexpr std::size_t kPayload = 1 + 16 + 4 + kKexAlgorithms.size() + 4 +
                                   kHostKeyAlgorithms.size() + 6 * 4 + 1 + 4;
  // packet_length(4) + padding_length(1) + payload + padding; total must
  // be a multiple of 8 and padding >= 4.
  std::size_t padding = 8 - ((kPayload + 5) % 8);
  if (padding < 4) padding += 8;

  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(1 + kPayload + padding));
  w.u8(static_cast<std::uint8_t>(padding));
  w.u8(20);  // SSH_MSG_KEXINIT
  w.bytes(cookie);
  write_name_list(w, kKexAlgorithms);
  write_name_list(w, kHostKeyAlgorithms);
  // The six remaining name-lists (ciphers/MACs/compression/languages both
  // directions) are irrelevant to a banner grab; write them empty.
  for (int i = 0; i < 6; ++i) w.u32(0);
  w.u8(0);   // first_kex_packet_follows
  w.u32(0);  // reserved
  std::uint64_t state = padding_seed;
  for (std::size_t i = 0; i < padding; ++i) {
    w.u8(static_cast<std::uint8_t>(net::splitmix64(state)));
  }
}

}  // namespace originscan::proto
