#include "transport/udp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/expect.h"
#include "transport/reception.h"
#include "transport/wire.h"

namespace cfds {

struct UdpTransport::PeerAddr {
  sockaddr_in addr;
};

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(NodeId self, std::uint16_t port_base,
                           std::uint32_t n_nodes)
    : self_(self) {
  CFDS_EXPECT(self.is_valid() && self.value() < n_nodes,
              "udp transport: self NID out of range");
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("udp: socket() failed: ") +
                             std::strerror(errno));
  }
  const std::uint16_t my_port =
      static_cast<std::uint16_t>(port_base + self.value());
  sockaddr_in me = loopback_addr(my_port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&me), sizeof(me)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("udp: bind(127.0.0.1:" +
                             std::to_string(my_port) +
                             ") failed: " + std::strerror(err));
  }
  // A 200-process soak multiplies every broadcast by the peer count, and
  // heartbeats arrive as one epoch-aligned burst (~0.5 MB of skb truesize
  // at n=200). Worse, a process starved of CPU for a few epochs must find
  // every one of those bursts still queued when it resumes — RcvbufErrors
  // here silently eat the scheduled updates members need to stay
  // affiliated. Ask for the largest buffer the kernel will grant
  // (clamped to net.core.rmem_max). Best-effort: the default still works.
  const int rcvbuf = 4 << 20;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  peers_.reserve(n_nodes - 1);
  for (std::uint32_t nid = 0; nid < n_nodes; ++nid) {
    if (nid == self.value()) continue;
    peers_.push_back(PeerAddr{
        loopback_addr(static_cast<std::uint16_t>(port_base + nid))});
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::send(PayloadPtr payload, NodeId intended) {
  if (!powered_) return;
  scratch_.clear();
  if (!wire::encode_frame(self_, intended, *payload, &scratch_)) return;
  // One batched syscall per chunk instead of one sendto per peer: every
  // round tick, every endpoint broadcasts at once, so the per-peer syscall
  // storm (n sends x n processes) is what blows the one-hop latency bound
  // on a loaded machine. A failed slot means that one datagram is gone —
  // transiently (ENOBUFS) or because the peer's port is unbound (peer
  // crashed) — exactly a lost radio frame; skip it and batch the rest.
  constexpr std::size_t kBatch = 128;
  iovec iov{scratch_.data(), scratch_.size()};
  std::array<mmsghdr, kBatch> batch;
  std::size_t at = 0;
  while (at < peers_.size()) {
    const std::size_t n = std::min(kBatch, peers_.size() - at);
    for (std::size_t i = 0; i < n; ++i) {
      std::memset(&batch[i], 0, sizeof(mmsghdr));
      batch[i].msg_hdr.msg_iov = &iov;
      batch[i].msg_hdr.msg_iovlen = 1;
      batch[i].msg_hdr.msg_name =
          const_cast<sockaddr_in*>(&peers_[at + i].addr);
      batch[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    const int sent = ::sendmmsg(fd_, batch.data(), static_cast<unsigned>(n), 0);
    if (sent < 0) {
      ++at;  // the head slot failed: drop that one frame, batch the rest
    } else if (static_cast<std::size_t>(sent) < n) {
      at += static_cast<std::size_t>(sent) + 1;  // slot `sent` failed
    } else {
      at += n;
    }
  }
}

void UdpTransport::add_frame_handler(RawFrameHandler handler, void* ctx) {
  CFDS_EXPECT(handler_count_ < kMaxHandlers, "udp handler table full");
  handlers_[handler_count_++] = Handler{handler, ctx};
}

void UdpTransport::set_powered(bool on) { powered_ = on; }

bool UdpTransport::wait(SimTime max_wait) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const std::int64_t us = max_wait.as_micros();
  const int timeout_ms =
      us <= 0 ? 0 : static_cast<int>((us + 999) / 1000);  // round up
  const int rc = ::poll(&pfd, 1, timeout_ms);
  return rc > 0 && (pfd.revents & POLLIN) != 0;
}

std::size_t UdpTransport::drain(SimTime now) {
  // Batched receive, for the same reason send() batches: the epoch-aligned
  // heartbeat burst is hundreds of tiny datagrams, and draining them one
  // recvfrom at a time costs a kernel entry each. 4 KiB per slot fits the
  // largest wire frame (a full-roster health update) with headroom.
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kBufSize = 4096;
  std::array<std::array<std::uint8_t, kBufSize>, kBatch> bufs;
  std::array<iovec, kBatch> iovs;
  std::array<mmsghdr, kBatch> batch;
  std::size_t dispatched = 0;
  for (;;) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      iovs[i] = iovec{bufs[i].data(), kBufSize};
      std::memset(&batch[i], 0, sizeof(mmsghdr));
      batch[i].msg_hdr.msg_iov = &iovs[i];
      batch[i].msg_hdr.msg_iovlen = 1;
    }
    const int got =
        ::recvmmsg(fd_, batch.data(), kBatch, 0, nullptr);
    if (got <= 0) break;  // EAGAIN/EWOULDBLOCK: drained
    for (int slot = 0; slot < got; ++slot) {
      if (!powered_) continue;  // read-and-discard keeps the buffer fresh
      wire::DecodedFrame frame;
      if (!wire::decode_frame(bufs[static_cast<std::size_t>(slot)].data(),
                              batch[static_cast<std::size_t>(slot)].msg_len,
                              &frame)) {
        continue;
      }
      if (frame.sender == self_) continue;  // defensive: no self-delivery
      Reception reception;
      reception.sender = frame.sender;
      reception.intended = frame.intended;
      reception.payload = std::move(frame.payload);
      reception.sent_at = now;
      for (std::size_t i = 0; i < handler_count_; ++i) {
        handlers_[i].fn(handlers_[i].ctx, reception);
      }
      ++dispatched;
    }
    if (static_cast<std::size_t>(got) < kBatch) break;  // socket drained
  }
  return dispatched;
}

}  // namespace cfds
