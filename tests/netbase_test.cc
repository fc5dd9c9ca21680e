#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <set>
#include <string_view>

#include "netbase/byteio.h"
#include "netbase/framed_conn.h"
#include "netbase/headers.h"
#include "netbase/interval_set.h"
#include "netbase/ipv4.h"
#include "netbase/rng.h"
#include "netbase/siphash.h"
#include "netbase/vtime.h"

namespace originscan::net {
namespace {

// ------------------------------------------------------------- Ipv4Addr --

TEST(Ipv4Addr, ParsesDottedQuad) {
  auto addr = Ipv4Addr::parse("192.168.1.200");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0xC0A801C8u);
  EXPECT_EQ(addr->to_string(), "192.168.1.200");
}

TEST(Ipv4Addr, ParsesBoundaries) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Addr, RejectsMalformed) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x",
                          "1..2.3", "01.2.3.4", " 1.2.3.4", "1.2.3.4 ",
                          "-1.2.3.4"}) {
    EXPECT_FALSE(Ipv4Addr::parse(bad).has_value()) << bad;
  }
}

TEST(Ipv4Addr, RoundTripsRandomAddresses) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Addr addr(static_cast<std::uint32_t>(rng()));
    auto parsed = Ipv4Addr::parse(addr.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, addr);
  }
}

TEST(Ipv4Addr, Slash24) {
  EXPECT_EQ(Ipv4Addr(10, 1, 2, 200).slash24(), Ipv4Addr(10, 1, 2, 0));
}

// --------------------------------------------------------------- Prefix --

TEST(Prefix, CanonicalizesBase) {
  const Prefix p(Ipv4Addr(10, 0, 0, 77), 24);
  EXPECT_EQ(p.base(), Ipv4Addr(10, 0, 0, 0));
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.last(), Ipv4Addr(10, 0, 0, 255));
}

TEST(Prefix, ContainsAddressesAndPrefixes) {
  const Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Addr(10, 1, 200, 3)));
  EXPECT_FALSE(p.contains(Ipv4Addr(10, 2, 0, 0)));
  EXPECT_TRUE(p.contains(*Prefix::parse("10.1.32.0/24")));
  EXPECT_FALSE(p.contains(*Prefix::parse("10.0.0.0/8")));
}

TEST(Prefix, SlashZeroCoversEverything) {
  const Prefix p = *Prefix::parse("0.0.0.0/0");
  EXPECT_EQ(p.size(), 1ULL << 32);
  EXPECT_TRUE(p.contains(Ipv4Addr(255, 255, 255, 255)));
}

TEST(Prefix, ParseRejectsBadLengths) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
}

// ---------------------------------------------------------- IntervalSet --

TEST(IntervalSet, AddCoalescesAdjacentAndOverlapping) {
  IntervalSet set;
  set.add(10, 20);
  set.add(20, 30);  // adjacent: must merge
  set.add(5, 12);   // overlapping
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_EQ(set.cardinality(), 25u);
  EXPECT_TRUE(set.contains(5));
  EXPECT_TRUE(set.contains(29));
  EXPECT_FALSE(set.contains(30));
}

TEST(IntervalSet, RemoveSplits) {
  IntervalSet set;
  set.add(0, 100);
  set.remove(40, 60);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_EQ(set.cardinality(), 80u);
  EXPECT_TRUE(set.contains(39));
  EXPECT_FALSE(set.contains(40));
  EXPECT_FALSE(set.contains(59));
  EXPECT_TRUE(set.contains(60));
}

TEST(IntervalSet, NthEnumeratesInOrder) {
  IntervalSet set;
  set.add(10, 12);
  set.add(100, 103);
  EXPECT_EQ(set.nth(0), 10u);
  EXPECT_EQ(set.nth(1), 11u);
  EXPECT_EQ(set.nth(2), 100u);
  EXPECT_EQ(set.nth(4), 102u);
}

// Property: random add/remove sequence matches a naive std::set model.
TEST(IntervalSet, MatchesNaiveModel) {
  Rng rng(1234);
  IntervalSet set;
  std::set<std::uint64_t> model;
  constexpr std::uint64_t kSpace = 500;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t lo = rng.below(kSpace);
    const std::uint64_t hi = lo + rng.below(40);
    if (rng.bernoulli(0.6)) {
      set.add(lo, hi);
      for (std::uint64_t v = lo; v < hi; ++v) model.insert(v);
    } else {
      set.remove(lo, hi);
      for (std::uint64_t v = lo; v < hi; ++v) model.erase(v);
    }
    ASSERT_EQ(set.cardinality(), model.size()) << "step " << step;
    for (int check = 0; check < 25; ++check) {
      const std::uint64_t v = rng.below(kSpace + 50);
      ASSERT_EQ(set.contains(v), model.count(v) > 0)
          << "step " << step << " value " << v;
    }
  }
}

// ---------------------------------------------------------------- ByteIO --

TEST(ByteIO, WritesNetworkOrder) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], 0x12);
  EXPECT_EQ(out[1], 0x34);
  EXPECT_EQ(out[2], 0xDE);
  EXPECT_EQ(out[5], 0xEF);

  ByteReader r(out);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIO, ReaderLatchesErrorOnOverrun) {
  std::vector<std::uint8_t> data = {1, 2};
  ByteReader r(data);
  r.u32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

// --------------------------------------------------------------- Headers --

TEST(Headers, InternetChecksumKnownVector) {
  // RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header header;
  header.src = Ipv4Addr(10, 0, 0, 1);
  header.dst = Ipv4Addr(192, 168, 3, 4);
  header.ttl = 61;
  header.identification = 0xBEEF;
  header.total_length = 40;
  std::vector<std::uint8_t> bytes;
  header.serialize(bytes);
  auto parsed = Ipv4Header::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, header);
}

TEST(Headers, Ipv4RejectsCorruptChecksum) {
  Ipv4Header header;
  header.src = Ipv4Addr(1, 2, 3, 4);
  header.dst = Ipv4Addr(5, 6, 7, 8);
  std::vector<std::uint8_t> bytes;
  header.serialize(bytes);
  bytes[8] ^= 0xFF;  // corrupt TTL
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
}

TEST(Headers, TcpPacketRoundTrip) {
  TcpPacket packet;
  packet.ip.src = Ipv4Addr(10, 0, 0, 1);
  packet.ip.dst = Ipv4Addr(10, 0, 0, 2);
  packet.tcp.src_port = 44123;
  packet.tcp.dst_port = 443;
  packet.tcp.seq = 0xCAFEBABE;
  packet.tcp.flags.syn = true;
  packet.payload = {1, 2, 3, 4, 5};

  const auto bytes = packet.serialize();
  auto parsed = TcpPacket::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ip.src, packet.ip.src);
  EXPECT_EQ(parsed->tcp.src_port, packet.tcp.src_port);
  EXPECT_EQ(parsed->tcp.seq, packet.tcp.seq);
  EXPECT_TRUE(parsed->tcp.flags.syn);
  EXPECT_EQ(parsed->payload, packet.payload);
}

TEST(Headers, TcpPacketRejectsCorruptPayload) {
  TcpPacket packet;
  packet.ip.src = Ipv4Addr(10, 0, 0, 1);
  packet.ip.dst = Ipv4Addr(10, 0, 0, 2);
  packet.tcp.flags.syn = true;
  auto bytes = packet.serialize();
  bytes[Ipv4Header::kSize + 4] ^= 0x01;  // flip a seq bit
  EXPECT_FALSE(TcpPacket::parse(bytes).has_value());
}

TEST(Headers, FlagsRoundTrip) {
  for (int byte = 0; byte < 32; ++byte) {
    const auto flags = TcpFlags::from_byte(static_cast<std::uint8_t>(byte));
    EXPECT_EQ(flags.to_byte(), byte);
  }
}

// --------------------------------------------------------------- SipHash --

TEST(SipHash, MatchesReferenceVector) {
  // The reference test vector from the SipHash paper: key 000102...0f,
  // message 000102...0e -> 0xa129ca6149be45e5.
  SipHash::Key key;
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::vector<std::uint8_t> message;
  for (int i = 0; i < 15; ++i) message.push_back(static_cast<std::uint8_t>(i));
  SipHash hasher(key);
  EXPECT_EQ(hasher.hash(message), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, DifferentKeysDiffer) {
  SipHash a(SipHash::key_from_seed(1));
  SipHash b(SipHash::key_from_seed(2));
  EXPECT_NE(a.hash_u64(42), b.hash_u64(42));
  EXPECT_EQ(a.hash_u64(42), SipHash(SipHash::key_from_seed(1)).hash_u64(42));
}

// ------------------------------------------------------------------- Rng --

TEST(Rng, DeterministicPerSeed) {
  Rng a(99), b(99), c(100);
  for (int i = 0; i < 10; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  EXPECT_NE(Rng(99)(), Rng(100)());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(5);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(6);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.poisson(3.0);
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(7);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

// ----------------------------------------------------------- VirtualTime --

TEST(VirtualTime, ConversionsAndBuckets) {
  const auto t = VirtualTime::from_hours(2.5);
  EXPECT_DOUBLE_EQ(t.seconds(), 9000.0);
  EXPECT_EQ(t.hour_bucket(), 2);
  EXPECT_EQ((t + VirtualTime::from_seconds(1800)).hour_bucket(), 3);
  EXPECT_EQ(VirtualTime::from_millis(1500).micros(), 1'500'000);
  EXPECT_EQ(t.to_string(), "02:30:00");
}

TEST(VirtualTime, Ordering) {
  EXPECT_LT(VirtualTime::from_seconds(1), VirtualTime::from_seconds(2));
  EXPECT_EQ(VirtualTime::from_seconds(3) - VirtualTime::from_seconds(1),
            VirtualTime::from_seconds(2));
}

// ------------------------------------------------------------ FramedConn --

struct Pair {
  FramedConn conn;  // under test
  int peer = -1;    // raw far end, owned by the test
};

Pair socket_pair() {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return {FramedConn(sv[0]), sv[1]};
}

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

void write_raw(int fd, std::span<const std::uint8_t> bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(FramedConn, YieldsEveryFrameThatArrivedWithTheEof) {
  auto [conn, peer] = socket_pair();
  std::vector<std::uint8_t> wire;
  for (std::string_view text : {"one", "two", "three"}) {
    append_frame(wire, bytes_of(text));
  }
  write_raw(peer, wire);
  ::close(peer);

  conn.receive();
  for (std::string_view text : {"one", "two", "three"}) {
    const auto payload = conn.next();
    ASSERT_TRUE(payload.has_value()) << text;
    EXPECT_EQ(*payload, bytes_of(text));
  }
  EXPECT_FALSE(conn.next().has_value());
  EXPECT_TRUE(conn.peer_closed());
  EXPECT_EQ(conn.read_state(), FramedConn::ReadState::kEof);
  EXPECT_EQ(conn.poll_events() & POLLIN, 0);
}

TEST(FramedConn, EofMidFrameIsTorn) {
  auto [conn, peer] = socket_pair();
  std::vector<std::uint8_t> wire = encode_frame(bytes_of("whole"));
  const std::vector<std::uint8_t> torn = encode_frame(bytes_of("torn frame"));
  wire.insert(wire.end(), torn.begin(), torn.begin() + 6);
  write_raw(peer, wire);
  ::close(peer);

  conn.receive();
  const auto payload = conn.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, bytes_of("whole"));
  EXPECT_FALSE(conn.next().has_value());
  EXPECT_EQ(conn.read_state(), FramedConn::ReadState::kTorn);
  EXPECT_EQ(conn.frame_error(), FrameError::kNone);
}

TEST(FramedConn, BadCrcAndOversizedLengthPoison) {
  std::vector<std::uint8_t> bad_crc = encode_frame(bytes_of("payload"));
  bad_crc.back() ^= 0x01;
  const std::vector<std::uint8_t> oversized = {0xFF, 0xFF, 0xFF, 0xFF, 0x00};
  const std::pair<std::vector<std::uint8_t>, FrameError> cases[] = {
      {bad_crc, FrameError::kBadCrc}, {oversized, FrameError::kOversized}};
  for (const auto& [bytes, error] : cases) {
    auto [conn, peer] = socket_pair();
    write_raw(peer, bytes);
    conn.receive();
    EXPECT_FALSE(conn.next().has_value());
    EXPECT_EQ(conn.read_state(), FramedConn::ReadState::kPoisoned);
    EXPECT_EQ(conn.frame_error(), error);
    EXPECT_EQ(conn.poll_events() & POLLIN, 0);
    // No resynchronization: a valid frame after the poison never decodes.
    write_raw(peer, encode_frame(bytes_of("valid")));
    conn.receive();
    EXPECT_FALSE(conn.next().has_value());
    ::close(peer);
  }
}

TEST(FramedConn, PartialWriteOnEagainResumesByteExact) {
  auto [conn, peer] = socket_pair();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(conn.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small), 0);
  std::vector<std::uint8_t> payload(1u << 20);
  Rng rng(7);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
  const std::vector<std::uint8_t> frame = encode_frame(payload);

  conn.queue(frame);
  ASSERT_TRUE(conn.flush());
  ASSERT_GT(conn.pending(), 0u) << "the first attempt must stop on EAGAIN";
  EXPECT_LT(conn.pending(), frame.size());
  EXPECT_NE(conn.poll_events() & POLLOUT, 0);

  // Alternate reading the far end and resuming the flush; the frame must
  // arrive whole and CRC-clean across many partial sends.
  FramedConn reader(peer);
  std::optional<std::vector<std::uint8_t>> received;
  int resumes = 0;
  while (!received.has_value() && resumes < 100000) {
    reader.receive();
    received = reader.next();
    ASSERT_TRUE(conn.flush());
    ++resumes;
  }
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(reader.frame_error(), FrameError::kNone);
  EXPECT_EQ(*received, payload);
  EXPECT_GT(resumes, 1);
  EXPECT_EQ(conn.pending(), 0u);
  EXPECT_EQ(conn.poll_events() & POLLOUT, 0);
}

TEST(FramedConn, PollinWithheldWhileOutboundIsOverTheCap) {
  auto [conn, peer] = socket_pair();
  EXPECT_EQ(conn.poll_events(), POLLIN);
  conn.queue(std::vector<std::uint8_t>(kOutboundCapBytes + 1));
  EXPECT_EQ(conn.poll_events(), POLLOUT);
  // Once the peer takes any bytes the queue is back under the cap.
  ASSERT_TRUE(conn.flush());
  EXPECT_LE(conn.pending(), kOutboundCapBytes);
  EXPECT_EQ(conn.poll_events(), POLLIN | POLLOUT);
  conn.close_after_flush();
  EXPECT_EQ(conn.poll_events(), POLLOUT);
  ::close(peer);
}

TEST(FramedConn, FailedFlushDiscardsTheQueue) {
  auto [conn, peer] = socket_pair();
  ::close(peer);
  conn.queue(encode_frame(bytes_of("to nobody")));
  EXPECT_FALSE(conn.flush());
  EXPECT_EQ(conn.os_error(), EPIPE);
  EXPECT_EQ(conn.pending(), 0u);
  EXPECT_FALSE(conn.write_blocking(encode_frame(bytes_of("still nobody"))));
  EXPECT_EQ(conn.pending(), 0u);
}

}  // namespace
}  // namespace originscan::net
