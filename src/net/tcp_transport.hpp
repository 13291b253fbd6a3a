// Real TCP transport (POSIX sockets) with 4-byte little-endian length
// framing — the prototype's actual substrate ("a reliable transport
// protocol (TCP/IP) for interprocess communication", §7).
//
// Poll-driven and non-blocking on the receive side: poll() reads whatever
// the kernel has, reassembles frames and dispatches complete messages.
//
// Two send disciplines, selected by the queue limit:
//   - limit == 0 (default; client tools, tests): a blocking write loop —
//     the frame is on the wire (or the peer declared dead) when send()
//     returns.
//   - limit > 0 (overload-aware servers): fully non-blocking — whatever
//     the kernel refuses is parked in a byte-capped tx buffer, flushed by
//     poll() / the event loop when the socket turns writable; a frame
//     that would overflow the cap fails with kResourceExhausted so a
//     stalled consumer can never block the shard loop or grow server
//     memory without bound (docs/OPERATIONS.md).
#pragma once

#include <memory>
#include <string>

#include "net/transport.hpp"

namespace shadow::net {

class TcpTransport final : public Transport {
 public:
  /// Takes ownership of a connected socket fd.
  TcpTransport(int fd, std::string peer_name);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status send(Bytes message) override;
  void set_receiver(ReceiveFn fn) override { receiver_ = std::move(fn); }
  std::size_t poll() override;
  u64 bytes_sent() const override { return bytes_sent_; }
  u64 messages_sent() const override { return messages_sent_; }
  std::string peer_name() const override { return peer_name_; }

  std::size_t queued_bytes() const override {
    return tx_buffer_.size() - tx_offset_;
  }
  void set_queue_limit(std::size_t limit) override { queue_limit_ = limit; }
  std::size_t queue_limit() const override { return queue_limit_; }
  void request_close() override { close(); }

  /// Push parked tx bytes to the kernel (non-blocking); returns the bytes
  /// still queued afterwards. poll() and the event loop call this.
  std::size_t flush_writes();

  bool closed() const { return fd_ < 0 || peer_closed_; }
  void close();

  /// Underlying socket (for poll sets and socket-option tests); -1 once
  /// closed.
  int fd() const { return fd_; }

  /// Push an already-dispatched message back to the FRONT of the receive
  /// buffer so the next poll() delivers it first, before anything that
  /// arrived later. Used by the accept→shard handoff: the lobby consumes
  /// the Hello to pick a shard, then unreads it (and anything buffered
  /// behind it) for the shard's ShadowServer to handle. Must not be
  /// called from inside a receiver callback.
  void unread_message(const Bytes& message);

 private:
  /// Drain the socket into rx_buffer_ without dispatching. Safe to call
  /// from anywhere (including inside send()'s write-stall loop).
  void read_available();

  int fd_;
  std::string peer_name_;
  ReceiveFn receiver_;
  Bytes rx_buffer_;
  /// Framed bytes the kernel refused, awaiting a writable socket. Flushed
  /// from tx_offset_ (compacted once drained past the halfway mark) so
  /// repeated partial writes stay linear.
  Bytes tx_buffer_;
  std::size_t tx_offset_ = 0;
  std::size_t queue_limit_ = 0;  // 0 = unlimited, blocking send discipline
  u64 bytes_sent_ = 0;
  u64 messages_sent_ = 0;
  bool peer_closed_ = false;
  /// Re-entrancy guard: a receiver callback that calls poll() again must
  /// not re-dispatch frames the outer poll() is still iterating over.
  bool in_poll_ = false;
};

/// Listening socket for the server side ("a server process listens at a
/// well-known port for connections from clients", §7).
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Bind and listen on 127.0.0.1:`port` (0 picks an ephemeral port).
  Status listen(u16 port);
  u16 port() const { return port_; }

  /// Accept one connection if pending (non-blocking); nullptr if none.
  Result<std::unique_ptr<TcpTransport>> accept();
  /// Accept, blocking up to `timeout_ms`.
  Result<std::unique_ptr<TcpTransport>> accept_blocking(int timeout_ms);

  /// Listening socket (for poll sets); -1 before listen().
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  u16 port_ = 0;
};

/// Connect to 127.0.0.1:`port`.
Result<std::unique_ptr<TcpTransport>> tcp_connect(u16 port,
                                                  const std::string& peer);

struct TcpPair {
  std::unique_ptr<TcpTransport> a;
  std::unique_ptr<TcpTransport> b;
};

/// Connected localhost socket pair (for integration tests).
Result<TcpPair> make_tcp_pair();

}  // namespace shadow::net
