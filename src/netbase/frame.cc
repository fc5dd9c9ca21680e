#include "netbase/frame.h"

#include "netbase/byteio.h"
#include "netbase/crc32.h"

namespace originscan::net {
namespace {

constexpr std::size_t kHeaderBytes = 4;  // u32 length
constexpr std::size_t kFooterBytes = 4;  // u32 crc32(payload)

}  // namespace

std::string_view frame_error_name(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kTruncated:
      return "truncated";
    case FrameError::kOversized:
      return "oversized_length";
    case FrameError::kBadCrc:
      return "bad_crc";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  ByteWriter writer(out);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.bytes(payload);
  writer.u32(crc32(payload));
}

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kFooterBytes);
  append_frame(out, payload);
  return out;
}

FrameError parse_frame(std::span<const std::uint8_t> data, FrameView& out,
                       std::size_t max_payload) {
  if (data.size() < kHeaderBytes) return FrameError::kTruncated;
  ByteReader reader(data);
  const std::uint32_t length = reader.u32();
  // The length cap is checked before the remaining-bytes check so that a
  // corrupt prefix classifies as oversized even in a stream, where a
  // short buffer would otherwise read as "wait for more bytes" and stall
  // the connection until an allocation-bomb-sized buffer filled up.
  if (length > max_payload) return FrameError::kOversized;
  if (data.size() - kHeaderBytes < length + kFooterBytes) {
    return FrameError::kTruncated;
  }
  const std::span<const std::uint8_t> payload = reader.bytes(length);
  const std::uint32_t want_crc = reader.u32();
  if (!reader.ok()) return FrameError::kTruncated;
  if (crc32(payload) != want_crc) return FrameError::kBadCrc;
  out.payload = payload;
  out.consumed = kHeaderBytes + length + kFooterBytes;
  return FrameError::kNone;
}

FrameError parse_single_frame(std::span<const std::uint8_t> data,
                              std::span<const std::uint8_t>& payload,
                              std::size_t max_payload) {
  FrameView view;
  // File mode: the declared length is bounded by what the file actually
  // holds — parse_frame's remaining-bytes check is exactly the "never
  // over-read a lying prefix" rule, reported as kTruncated.
  const FrameError error = parse_frame(data, view, max_payload);
  if (error != FrameError::kNone) return error;
  if (view.consumed != data.size()) {
    // Trailing bytes (a duplicated or concatenated frame) mean the file
    // is not the single segment its writer produced.
    return FrameError::kBadCrc;
  }
  payload = view.payload;
  return FrameError::kNone;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != FrameError::kNone) return;
  // Compact lazily: erasing per frame is quadratic in a burst of frames.
  if (head_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::uint8_t>> FrameDecoder::next() {
  if (error_ != FrameError::kNone) return std::nullopt;
  FrameView view;
  const FrameError error =
      parse_frame(std::span(buffer_).subspan(head_), view, max_payload_);
  if (error == FrameError::kTruncated) return std::nullopt;  // need bytes
  if (error != FrameError::kNone) {
    error_ = error;
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(view.payload.begin(), view.payload.end());
  head_ += view.consumed;
  return payload;
}

}  // namespace originscan::net
