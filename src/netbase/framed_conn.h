// One framed stream connection: the one transport under the dist
// master/worker protocol (core/dist) and the originscand daemon/client
// protocol (service/). DESIGN.md §11 states its EOF, torn-frame, poison
// and outbound-cap rules. Poll loops stay with the callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "netbase/frame.h"

namespace originscan::net {

// Undelivered outbound bytes above which a connection stops reading its
// peer; nothing is dropped. A client that reads its answers never gets
// near it: the service benchmark's 504-request burst per connection, at
// ~17 KiB per RESULT (2^12), is 8.6 MiB even if none were read yet;
// 32 MiB leaves about four times that.
inline constexpr std::size_t kOutboundCapBytes = 32u << 20;

class FramedConn {
 public:
  // How the inbound stream stands; meaningful once next() returns nullopt.
  enum class ReadState : std::uint8_t {
    kOpen,      // more bytes may come
    kEof,       // peer closed on a frame boundary (or recv failed)
    kTorn,      // peer closed mid-frame
    kPoisoned,  // framing error; frame_error() says which
  };

  FramedConn() = default;
  // Takes ownership of a connected stream socket and makes it nonblocking.
  explicit FramedConn(int fd);
  ~FramedConn() { close(); }
  FramedConn(FramedConn&& other) noexcept;
  FramedConn& operator=(FramedConn&& other) noexcept;

  [[nodiscard]] int fd() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }  // without closing it
  void close();  // idempotent

  // Drains recv into the decoder until EAGAIN, EOF or a 1 MiB budget.
  void receive();
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next() {
    return decoder_.next();
  }
  // next(), receiving and parking in poll() until a frame is complete;
  // nullopt once the stream has ended (see read_state()).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next_blocking();
  [[nodiscard]] ReadState read_state() const;
  [[nodiscard]] FrameError frame_error() const { return decoder_.error(); }
  [[nodiscard]] bool peer_closed() const { return eof_; }

  // Appends already-framed bytes.
  void queue(std::span<const std::uint8_t> bytes);
  // One attempt: sends until EAGAIN or the queue is empty. false = the
  // peer is gone (the queue is discarded).
  bool flush();
  // Flushes, parking in poll() while the peer is not reading; false on
  // failure or when one wait exceeds `timeout_ms` (-1 = never).
  bool flush_blocking(int timeout_ms = -1);
  bool write_blocking(std::span<const std::uint8_t> bytes) {
    queue(bytes);
    return flush_blocking();
  }
  [[nodiscard]] std::size_t pending() const {
    return outbound_.size() - out_off_;
  }
  void drop_outbound() {
    outbound_.clear();
    out_off_ = 0;
  }

  // Stops reading; the owner closes once pending() reaches 0.
  void close_after_flush() { closing_ = true; }
  [[nodiscard]] bool closing() const { return closing_; }

  // POLLIN unless reading has ended (EOF, poison, close_after_flush) or
  // the outbound queue is over the cap; POLLOUT while bytes are pending.
  [[nodiscard]] short poll_events() const;

  // errno of the failure that ended the transport, 0 if none.
  [[nodiscard]] int os_error() const { return os_error_; }

 private:
  bool wait(short events, int timeout_ms);
  auto fields() {
    return std::tie(fd_, decoder_, outbound_, out_off_, eof_, closing_,
                    os_error_);
  }

  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> outbound_;
  std::size_t out_off_ = 0;
  bool eof_ = false;
  bool closing_ = false;
  int os_error_ = 0;
};

}  // namespace originscan::net
