// SSH-2 transport-layer codec for the pieces a ZGrab SSH banner grab
// touches: the identification string exchange (RFC 4253 §4.2) — the study
// terminates after this — plus the KEXINIT packet real servers send right
// after it. Also models the "ssh_exchange_identification: Connection
// closed by remote host" refusal that OpenSSH's MaxStartups produces
// (Section 6 of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace originscan::proto {

struct SshIdentification {
  std::string_view protocol_version = "2.0";
  std::string_view software_version = "OpenSSH_7.4";
  std::string_view comment;  // optional trailing comment

  // Appends "SSH-2.0-OpenSSH_7.4[ comment]\r\n".
  void serialize_to(std::vector<std::uint8_t>& out) const;
  // Views into `line`, which must outlive the result. One trailing CRLF
  // or LF is ignored.
  static std::optional<SshIdentification> parse(std::string_view line);
};
// OpenSSH MaxStartups start:rate:full triple (sshd_config(5)): once
// `start` unauthenticated connections are open, refuse new ones with
// probability ramping linearly from rate% to 100% at `full`.
struct MaxStartups {
  int start = 10;
  int rate = 30;  // percent
  int full = 100;

  // Refusal probability given the current number of open unauthenticated
  // connections (0 below start, 1 at/above full).
  [[nodiscard]] double refusal_probability(int unauthenticated) const;

  static std::optional<MaxStartups> parse(std::string_view text);  // "10:30:100"
  [[nodiscard]] std::string to_string() const;
};

// Appends an unencrypted binary packet (RFC 4253 §6) carrying a KEXINIT
// with `cookie` and OpenSSH 7.x-like kex and host-key algorithm lists
// (the other six name-lists empty). Padding bytes come from
// `padding_seed`.
void write_kexinit_packet(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t, 16> cookie,
                          std::uint64_t padding_seed);

}  // namespace originscan::proto
