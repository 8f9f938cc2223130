// Transport-layer tests: framing edge cases (every split and corruption a
// TCP stream can produce) and Connection/PeerMonitor behaviour over loopback
// socketpairs — no real network, tier-1 safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace idxl::net {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

TEST(FrameTest, EncodePollRoundTrip) {
  const auto payload = bytes_of("hello");
  const auto wire = encode_frame(7, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame f;
  ASSERT_TRUE(reader.poll(f));
  EXPECT_EQ(f.type, 7);
  EXPECT_EQ(f.payload, payload);
  EXPECT_FALSE(reader.poll(f));
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(FrameTest, EmptyPayload) {
  const auto wire = encode_frame(3, nullptr, 0);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame f;
  ASSERT_TRUE(reader.poll(f));
  EXPECT_EQ(f.type, 3);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FrameTest, PartialReadsByteAtATime) {
  // The kernel may hand back any split, down to single bytes across the
  // header/payload boundary.
  const auto payload = bytes_of("partial reads");
  const auto wire = encode_frame(9, payload);
  FrameReader reader;
  Frame f;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    reader.feed(&wire[i], 1);
    ASSERT_FALSE(reader.poll(f)) << "frame completed early at byte " << i;
  }
  reader.feed(&wire[wire.size() - 1], 1);
  ASSERT_TRUE(reader.poll(f));
  EXPECT_EQ(f.type, 9);
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameTest, CoalescedFrames) {
  // ... and conversely may coalesce many messages into one read.
  std::vector<std::byte> wire;
  for (uint8_t t = 1; t <= 4; ++t) {
    const auto one = encode_frame(t, bytes_of("x"));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame f;
  for (uint8_t t = 1; t <= 4; ++t) {
    ASSERT_TRUE(reader.poll(f));
    EXPECT_EQ(f.type, t);
  }
  EXPECT_FALSE(reader.poll(f));
}

TEST(FrameTest, RejectsBadMagic) {
  auto wire = encode_frame(1, bytes_of("p"));
  wire[0] = std::byte{0xFF};
  FrameReader reader;
  EXPECT_THROW(reader.feed(wire.data(), wire.size()), RuntimeError);
}

TEST(FrameTest, RejectsVersionMismatch) {
  auto wire = encode_frame(1, bytes_of("p"));
  wire[4] = std::byte{kNetVersion + 1};
  FrameReader reader;
  EXPECT_THROW(reader.feed(wire.data(), wire.size()), RuntimeError);
}

TEST(FrameTest, RejectsNonzeroReserved) {
  auto wire = encode_frame(1, bytes_of("p"));
  wire[6] = std::byte{1};
  FrameReader reader;
  EXPECT_THROW(reader.feed(wire.data(), wire.size()), RuntimeError);
}

TEST(FrameTest, RejectsOversizedPayload) {
  // A header announcing > kMaxFramePayload is a protocol violation, not an
  // allocation request.
  auto wire = encode_frame(1, nullptr, 0);
  const uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  FrameReader reader;
  EXPECT_THROW(reader.feed(wire.data(), wire.size()), RuntimeError);
}

TEST(FrameTest, AcceptsPayloadAtExactLimit) {
  // kMaxFramePayload itself is legal; only strictly-greater is a violation.
  // Validate from the header alone — materializing 64 MiB proves nothing
  // check_header doesn't.
  auto wire = encode_frame(1, nullptr, 0);
  const uint32_t limit = static_cast<uint32_t>(kMaxFramePayload);
  std::memcpy(&wire[8], &limit, sizeof(limit));
  FrameReader reader;
  EXPECT_NO_THROW(reader.feed(wire.data(), wire.size()));
  Frame f;
  EXPECT_FALSE(reader.poll(f));  // payload not arrived yet, frame incomplete
  EXPECT_EQ(reader.pending_bytes(), kFrameHeaderSize);
}

TEST(FrameTest, OversizedPayloadRejectedAtHeaderBoundary) {
  // Fail-fast contract: the violation surfaces the moment the 12th header
  // byte lands, not after buffering any of the announced 64 MiB + 1.
  auto wire = encode_frame(1, nullptr, 0);
  const uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  FrameReader reader;
  reader.feed(wire.data(), kFrameHeaderSize - 1);
  Frame f;
  EXPECT_FALSE(reader.poll(f));
  EXPECT_THROW(reader.feed(&wire[kFrameHeaderSize - 1], 1), RuntimeError);
}

TEST(ConnectionTest, RoundTripAndCounters) {
  obs::MetricsRegistry metrics;
  auto [a, b] = Socket::pair();
  NetObs obs;
  obs.metrics = &metrics;
  obs.type_name = [](uint8_t) { return "test"; };
  Connection left(std::move(a), "right", obs);
  Connection right(std::move(b), "left", obs);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Frame> got;
  right.start_recv([&](Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(f));
    cv.notify_all();
  });

  const auto payload = bytes_of("ping");
  left.send(5, payload);
  left.send(5, payload);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return got.size() == 2; }));
  }
  EXPECT_EQ(got[0].type, 5);
  EXPECT_EQ(got[0].payload, payload);

  left.drain();
  const auto snap = metrics.snapshot();
  const obs::Labels labels{{"peer", "right"}, {"type", "test"}};
  EXPECT_EQ(snap.value("idxl_net_frames_sent_total", labels), 2u);
  EXPECT_EQ(snap.value("idxl_net_bytes_sent_total", labels),
            2 * (kFrameHeaderSize + payload.size()));
  const obs::Labels rlabels{{"peer", "left"}, {"type", "test"}};
  EXPECT_EQ(snap.value("idxl_net_frames_recv_total", rlabels), 2u);

  left.close();
  right.close();
}

TEST(ConnectionTest, MidMessageDisconnect) {
  // Peer dies after a partial frame: the receive loop must surface an
  // error, not hang or deliver a truncated frame.
  auto [a, b] = Socket::pair();
  const auto wire = encode_frame(2, bytes_of("truncated payload"));
  a.write_all(wire.data(), wire.size() - 5);
  a.close();

  Connection right(std::move(b), "peer", NetObs{});
  std::vector<Frame> got;
  const std::string err = right.recv_loop([&](Frame& f) { got.push_back(f); });
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(got.empty());
  right.close();
}

TEST(ConnectionTest, CleanEofIsNotAnError) {
  auto [a, b] = Socket::pair();
  {
    const auto wire = encode_frame(2, bytes_of("whole"));
    a.write_all(wire.data(), wire.size());
    a.close();  // orderly shutdown on a frame boundary
  }
  Connection right(std::move(b), "peer", NetObs{});
  std::size_t frames = 0;
  const std::string err = right.recv_loop([&](Frame&) { ++frames; });
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(frames, 1u);
  right.close();
}

TEST(ConnectionTest, OversizedFrameIsAConnectionError) {
  // A peer announcing an over-limit payload must tear the connection down
  // with a diagnosable error — not allocate, not hang waiting for payload.
  auto [a, b] = Socket::pair();
  auto wire = encode_frame(2, nullptr, 0);
  const uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  a.write_all(wire.data(), wire.size());

  Connection right(std::move(b), "hostile", NetObs{});
  std::vector<Frame> got;
  const std::string err = right.recv_loop([&](Frame& f) { got.push_back(f); });
  EXPECT_NE(err.find("frame size limit"), std::string::npos) << err;
  EXPECT_TRUE(got.empty());
  right.close();
  a.close();
}

TEST(SocketTest, WriteAllSurvivesShortWrites) {
  // A payload far beyond the kernel's socketpair buffer forces write_all
  // through many partial writes while the reader drains in arbitrary chunks;
  // the reassembled frame must be bit-identical.
  std::vector<std::byte> payload(8u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>((i * 2654435761u) >> 24);
  const auto wire = encode_frame(6, payload);

  auto [a, b] = Socket::pair();
  std::thread writer([&] {
    a.write_all(wire.data(), wire.size());
    a.close();
  });

  FrameReader reader;
  Frame f;
  bool done = false;
  std::byte chunk[4096];
  while (!done) {
    const std::size_t n = b.read_some(chunk, sizeof(chunk));
    ASSERT_GT(n, 0u) << "EOF before the frame completed";
    reader.feed(chunk, n);
    done = reader.poll(f);
  }
  writer.join();
  EXPECT_EQ(f.type, 6);
  EXPECT_EQ(f.payload, payload);
  b.close();
}

TEST(ConnectionTest, SendAfterCloseThrows) {
  auto [a, b] = Socket::pair();
  Connection left(std::move(a), "peer", NetObs{});
  left.close();
  EXPECT_THROW(left.send(1, {}), RuntimeError);
}

TEST(ConnectionTest, DirectWritesHandOffToTheSenderInOrder) {
  // Two threads interleave small frames with 8 MiB ones while nobody reads
  // yet: the first big frame fills the socket buffer, so the calling
  // thread's non-blocking write hands the rest to the sender thread and
  // later frames queue behind it. Every frame must still arrive, whole and
  // in each thread's order.
  constexpr int kThreads = 2, kFrames = 12, kBigEvery = 6;
  constexpr std::size_t kBig = 8u << 20;
  obs::MetricsRegistry metrics;
  NetObs obs;
  obs.metrics = &metrics;
  auto [a, b] = Socket::pair();
  Connection left(std::move(a), "right", obs);
  Connection right(std::move(b), "left", NetObs{});

  // Payload: thread, sequence number, then a fill byte derived from both.
  const auto fill_of = [](int t, int i) { return static_cast<std::byte>(t * 31 + i); };
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t)
    senders.emplace_back([&, t] {
      for (int i = 0; i < kFrames; ++i) {
        std::vector<std::byte> payload(i % kBigEvery == kBigEvery - 1 ? kBig : 64, fill_of(t, i));
        payload[0] = static_cast<std::byte>(t);
        payload[1] = static_cast<std::byte>(i);
        left.send(9, payload);
      }
    });
  for (std::thread& th : senders) th.join();
  EXPECT_GT(metrics.snapshot().value("idxl_net_send_queue_depth", {{"peer", "right"}}), 0u)
      << "nothing was handed to the sender thread";

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> next(kThreads, 0);
  int received = 0;
  bool intact = true;
  right.start_recv([&](Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    const int t = static_cast<int>(f.payload[0]);
    const int i = static_cast<int>(f.payload[1]);
    intact = intact && t < kThreads && i == next[static_cast<std::size_t>(t)]++ &&
             f.payload.size() == (i % kBigEvery == kBigEvery - 1 ? kBig : 64) &&
             std::all_of(f.payload.begin() + 2, f.payload.end(),
                         [&](std::byte v) { return v == fill_of(t, i); });
    ++received;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return received == kThreads * kFrames; }));
    EXPECT_TRUE(intact) << "a frame arrived out of order or damaged";
  }
  left.drain();
  left.close();
  EXPECT_THROW(left.send(9, {}), RuntimeError);
  right.close();
}

TEST(PeerMonitorTest, DetectsSilentPeer) {
  obs::MetricsRegistry metrics;
  auto [a, b] = Socket::pair();
  NetObs obs;
  obs.metrics = &metrics;
  Connection left(std::move(a), "peer", obs);
  // `b` is alive but never sends: after the stall window the monitor must
  // fire exactly once for the episode.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> stalled;
  PeerMonitor monitor({&left}, /*ping_type=*/10, /*period_ms=*/10,
                      /*stall_window_ms=*/50, &metrics,
                      [&](const std::string& peer) {
                        std::lock_guard<std::mutex> lock(mu);
                        stalled.push_back(peer);
                        cv.notify_all();
                      });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return !stalled.empty(); }));
  }
  monitor.stop();
  EXPECT_EQ(stalled[0], "peer");
  EXPECT_GE(metrics.snapshot().value("idxl_net_peer_stalls_total"), 1u);
  left.close();
  b.close();
}

}  // namespace
}  // namespace idxl::net
