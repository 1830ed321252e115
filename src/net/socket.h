// RAII TCP sockets (IPv4). The original Falkon used GT4 web services plus a
// custom TCP notification protocol; this layer provides the raw transport
// for both roles in our implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "wire/framing.h"

namespace falkon::net {

/// Owning file descriptor.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { reset(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
  FdHandle& operator=(FdHandle&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_{-1};
};

/// Connected TCP stream; implements the framing layer's ByteStream.
///
/// Reads are buffered: a read smaller than the buffer refills it with one
/// recv() and serves later reads from it, so read_frame's header and small
/// payload cost one syscall per frame, or less when frames arrive back to
/// back. Reads of at least the buffer size go straight into the caller's
/// memory. One thread reads at a time; writes are unbuffered.
class TcpStream final : public wire::ByteStream {
 public:
  TcpStream() = default;
  explicit TcpStream(FdHandle fd) : fd_(std::move(fd)) {}

  static Result<TcpStream> connect(const std::string& host, std::uint16_t port);

  Status write_all(const void* data, std::size_t size) override;
  Status write_gather(const ConstBuf* bufs, std::size_t count) override;
  Status read_exact(void* data, std::size_t size) override;

  /// Abort in-flight reads/writes from another thread (shutdown(2)).
  void shutdown();

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  /// Raw descriptor, for poll()-style readiness checks (still owned here).
  /// poll() cannot see bytes already buffered — check buffered() first.
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// Bytes received from the socket but not yet handed to read_exact().
  [[nodiscard]] std::size_t buffered() const { return read_end_ - read_pos_; }

 private:
  static constexpr std::size_t kReadBufferBytes = 4096;

  FdHandle fd_;
  std::unique_ptr<std::uint8_t[]> read_buf_;  // allocated on first small read
  std::size_t read_pos_{0};
  std::size_t read_end_{0};
};

/// Listening socket. Port 0 picks an ephemeral port, readable via port().
class TcpListener {
 public:
  /// `reuseport` additionally sets SO_REUSEPORT before binding, letting
  /// several sibling listeners share one port (the reactor's reuseport
  /// accept mode: one listener per event loop, kernel-balanced). Strictly
  /// opt-in — HA standby takeover relies on the default exclusive bind.
  static Result<TcpListener> bind(std::uint16_t port, bool reuseport = false);

  Result<TcpStream> accept();

  /// Unblock accept() from another thread; further accepts fail kClosed.
  void close();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return fd_.valid(); }
  /// Raw descriptor, for registering with an event loop (still owned here).
  [[nodiscard]] int fd() const { return fd_.get(); }

  TcpListener() = default;

 private:
  FdHandle fd_;
  std::uint16_t port_{0};
};

/// Put a descriptor into non-blocking mode (reactor-managed sockets).
Status set_nonblocking(int fd);

/// Set SO_SNDBUF. Tests shrink it to force partial writes and EAGAIN on the
/// reactor's write path; the kernel may round the value up.
Status set_send_buffer(int fd, int bytes);

}  // namespace falkon::net
