// Length-prefixed, CRC32-framed byte containers — the one framing
// implementation shared by the journal's sidecar segments (core/journal)
// and the master/worker wire protocol (core/dist).
//
// Wire form of one frame:
//
//   u32 length     payload byte count (big-endian, like all of byteio)
//   ...payload...  `length` bytes
//   u32 crc32      CRC-32 over the payload bytes only
//
// Two consumption modes share the parser:
//
//   * Files (journal segments): the frame must account for the whole
//     buffer. A declared length that exceeds the remaining bytes is
//     rejected as kTruncated — the reader never trusts the prefix and
//     over-reads past the end of the file.
//   * Streams (worker sockets): FrameDecoder accumulates bytes and
//     yields complete frames. A short buffer just means "feed more", but
//     a declared length above the decoder's payload cap is a fatal
//     kOversized — a hostile or corrupt peer must not make the decoder
//     buffer gigabytes before the CRC can catch it.
//
// Every failure is classified (FrameError), never a crash: the fuzz
// suite (tests/fuzz_test.cc) drives truncated, bit-flipped, oversized-
// length, and duplicated frames through both modes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace originscan::net {

enum class FrameError {
  kNone = 0,
  kTruncated,   // buffer ends before the declared payload + CRC
  kOversized,   // declared length exceeds the caller's payload cap
  kBadCrc,      // payload present but its CRC footer does not match
};

[[nodiscard]] std::string_view frame_error_name(FrameError error);

// One {doc-name, wire-value} row of a protocol's X-macro symbol table
// (core/dist.h, service/wire.h), for tools/protocol_doc_check.
struct ProtocolSymbol {
  std::string_view name;
  unsigned value;
};

// Default payload cap. Generous for every real segment (a full cell's
// store segment is a few MiB at paper scale) while keeping a corrupt
// length field from turning into a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

// Appends one frame wrapping `payload` to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

// Convenience: a fresh buffer holding exactly one frame.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::span<const std::uint8_t> payload);

struct FrameView {
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;  // total bytes the frame occupied in `data`
};

// Parses the frame at the start of `data`. On kNone, `out` views the
// payload inside `data` (no copy) and `consumed` covers header + payload
// + CRC. kTruncated means `data` ends before the declared frame does —
// for a file that is corruption, for a stream it means "need more
// bytes". kOversized and kBadCrc are fatal in both modes.
[[nodiscard]] FrameError parse_frame(std::span<const std::uint8_t> data,
                                     FrameView& out,
                                     std::size_t max_payload =
                                         kMaxFramePayload);

// Parses a file-shaped buffer that must hold exactly one frame: trailing
// bytes after the frame (e.g. a duplicated frame appended to a segment)
// are rejected as kBadCrc-class corruption via the returned error.
[[nodiscard]] FrameError parse_single_frame(
    std::span<const std::uint8_t> data,
    std::span<const std::uint8_t>& payload,
    std::size_t max_payload = kMaxFramePayload);

// Incremental decoder for stream transports. Feed bytes as they arrive;
// next() yields complete frame payloads in order. Once a fatal error is
// observed (kOversized, kBadCrc) the stream is poisoned: next() returns
// nullopt forever and error() reports the classification — the caller
// must drop the connection, there is no resynchronization.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> bytes);

  // One complete frame payload, or nullopt when more bytes are needed
  // (error() == kNone) or the stream is poisoned (error() != kNone).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  [[nodiscard]] FrameError error() const { return error_; }
  // Bytes buffered but not yet consumed by a complete frame. A nonzero
  // value at EOF means the peer died mid-frame (a torn write).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;  // bytes of buffer_ already yielded as frames
  FrameError error_ = FrameError::kNone;
};

}  // namespace originscan::net
