// LineServer: newline-framed request/reply transport for the daemon.
//
// Listens on a Unix-domain stream socket (preferred: filesystem-scoped,
// no port allocation) or a loopback TCP port (fallback for filesystems
// without AF_UNIX support). One connection is served at a time — the
// coordinator is a single logical client surface; concurrent clients
// queue at accept(). Each request line is pushed onto the daemon's
// IngestQueue and the reply future is written back before the next line
// is read, so the wire preserves dispatch order.
//
// Framing violations are handled at the transport: a line longer than
// codec::kMaxLineBytes gets an err reply and the connection is dropped
// without the bytes ever reaching the daemon loop.
//
// Shutdown delivers what was already answered: stop() half-closes only the
// read side of the live connection, so a reply the daemon loop produced
// before stopping (the `ok drained ...` of a drain, say) is still written
// before the connection is closed. A client that hangs up before reading
// its reply costs only that reply — the write fails quietly (no SIGPIPE)
// and the server goes back to accept().
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "service/ingest.h"

namespace venn::service {

class LineServer {
 public:
  struct Options {
    std::string socket_path;  // AF_UNIX path; empty = use tcp_port
    int tcp_port = -1;        // loopback TCP; -1 = use socket_path
  };

  // Binds and starts the accept thread. Throws std::runtime_error when the
  // endpoint cannot be bound.
  LineServer(Options opts, IngestQueue& queue);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  // Wakes the accept thread with shutdown() — the listener fully, the live
  // connection on its read side only, so an in-flight reply is still
  // delivered — joins it, then closes the listener. Idempotent; the
  // destructor calls it.
  void stop();

  // Human-readable endpoint ("unix:<path>" or "tcp:<port>"). For TCP with
  // port 0 the kernel-assigned port is reported.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

 private:
  // Runs on the accept thread over a listener descriptor fixed before the
  // thread started.
  void serve(int listen_fd);
  void serve_connection(int fd);

  Options opts_;
  IngestQueue& queue_;
  std::string endpoint_;
  int listen_fd_ = -1;  // owning thread only
  // The connection being served (-1 = none). Guarded so stop() never
  // shuts down a descriptor the accept thread has already closed.
  std::mutex conn_mu_;
  int conn_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace venn::service
