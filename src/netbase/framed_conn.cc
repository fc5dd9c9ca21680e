#include "netbase/framed_conn.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace originscan::net {
namespace {

// Per receive(): a peer writing as fast as we read must not hold a poll
// loop in one drain. POLLIN is level-triggered; the rest comes next pass.
constexpr std::size_t kReceiveBudgetBytes = 1u << 20;

}  // namespace

FramedConn::FramedConn(int fd) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

FramedConn::FramedConn(FramedConn&& other) noexcept {
  *this = std::move(other);
}

// A swap: `other` closes whatever this held when it is destroyed.
FramedConn& FramedConn::operator=(FramedConn&& other) noexcept {
  auto mine = fields();
  auto theirs = other.fields();
  mine.swap(theirs);
  return *this;
}

void FramedConn::close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

void FramedConn::receive() {
  if (fd_ < 0 || eof_ || decoder_.error() != FrameError::kNone) return;
  std::uint8_t buffer[65536];
  for (std::size_t total = 0; total < kReceiveBudgetBytes;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n > 0) {
      decoder_.feed(std::span(buffer, static_cast<std::size_t>(n)));
      total += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // 0 = orderly shutdown, <0 = error: either way the peer is gone. The
    // frames already fed stay decodable.
    if (n < 0) os_error_ = errno;
    eof_ = true;
    return;
  }
}

std::optional<std::vector<std::uint8_t>> FramedConn::next_blocking() {
  for (;;) {
    if (auto payload = next()) return payload;
    if (fd_ < 0 || read_state() != ReadState::kOpen) return std::nullopt;
    if (!wait(POLLIN, -1)) return std::nullopt;
    receive();
  }
}

FramedConn::ReadState FramedConn::read_state() const {
  if (decoder_.error() != FrameError::kNone) return ReadState::kPoisoned;
  if (!eof_) return ReadState::kOpen;
  return decoder_.buffered() > 0 ? ReadState::kTorn : ReadState::kEof;
}

void FramedConn::queue(std::span<const std::uint8_t> bytes) {
  // Drop the sent prefix once it is half the buffer: a peer that reads
  // slowly but never catches up must not grow it past twice pending().
  if (out_off_ >= outbound_.size() / 2) {
    outbound_.erase(outbound_.begin(),
                    outbound_.begin() + static_cast<std::ptrdiff_t>(out_off_));
    out_off_ = 0;
  }
  outbound_.insert(outbound_.end(), bytes.begin(), bytes.end());
}

bool FramedConn::flush() {
  while (pending() > 0) {
    const ssize_t n = ::send(fd_, outbound_.data() + out_off_, pending(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    os_error_ = errno;
    break;
  }
  const bool sent = pending() == 0;
  drop_outbound();  // all sent, or nobody left to send to
  return sent;
}

bool FramedConn::flush_blocking(int timeout_ms) {
  for (;;) {
    if (!flush()) return false;
    if (pending() == 0) return true;
    if (!wait(POLLOUT, timeout_ms)) return false;
  }
}

short FramedConn::poll_events() const {
  short events = 0;
  if (!closing_ && !eof_ && decoder_.error() == FrameError::kNone &&
      pending() <= kOutboundCapBytes) {
    events |= POLLIN;
  }
  if (pending() > 0) events |= POLLOUT;
  return events;
}

bool FramedConn::wait(short events, int timeout_ms) {
  pollfd pfd{fd_, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) {
      os_error_ = errno;
      return false;
    }
  }
}

}  // namespace originscan::net
