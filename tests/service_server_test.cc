// LineServer shutdown tests: stop() must wake the accept thread wherever it
// is blocked — in accept() with no client, or in read() on a live
// connection — join it, and only then release the descriptors. A reply
// produced just before stop() (the daemon loop answers drain/shutdown, then
// stops the server) must still reach the client, followed by EOF; that is
// checked over both socket families, since half-close semantics are per
// family. A client that hangs up before reading its reply must cost only
// that reply: the server keeps serving, and SocketClient reports a dead
// peer by exception rather than by SIGPIPE. The sanitizer CI matrix runs
// these under TSan, which flags any unsynchronized descriptor hand-off
// between stop() and the accept thread.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "service/client.h"
#include "service/ingest.h"
#include "service/server.h"

namespace venn::service {
namespace {

std::string socket_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("venn_server_test_" + std::to_string(::getpid()) + "_" + tag +
           ".sock"))
      .string();
}

// Calls stop() and fails loudly instead of hanging the suite when the
// accept thread never wakes up.
void stop_within(LineServer& server, std::chrono::seconds limit) {
  std::atomic<bool> done{false};
  std::thread stopper([&] {
    server.stop();
    done = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!done) {
    std::fprintf(stderr, "LineServer::stop() did not return within %llds\n",
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  stopper.join();
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_line(int fd, const std::string& line) {
  const std::string out = line + "\n";
  return ::write(fd, out.data(), out.size()) ==
         static_cast<ssize_t>(out.size());
}

// Reads up to and including the first newline; "" on EOF or error.
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    line.push_back(c);
    if (c == '\n') break;
  }
  return line;
}

TEST(LineServer, StopWakesAcceptWithNoClient) {
  IngestQueue queue;
  const std::string path = socket_path("accept");
  LineServer server({path, -1}, queue);
  // Give the accept thread time to block in accept().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop_within(server, std::chrono::seconds(10));
  stop_within(server, std::chrono::seconds(10));  // idempotent
  queue.close();
}

TEST(LineServer, StopDuringLiveConnection) {
  IngestQueue queue;
  const std::string path = socket_path("live");
  LineServer server({path, -1}, queue);
  std::thread responder([&] {
    while (auto item = queue.pop()) item->reply.set_value("ok " + item->line);
  });

  const int client = connect_unix(path);
  ASSERT_GE(client, 0);
  const std::string request = "ping\n";
  ASSERT_EQ(::write(client, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  EXPECT_EQ(read_line(client), "ok ping\n");

  // The accept thread is now blocked reading the idle connection.
  stop_within(server, std::chrono::seconds(10));
  EXPECT_EQ(read_line(client), "");  // the server side hung up
  ::close(client);

  queue.close();
  responder.join();
}

// The daemon loop's shutdown order, repeated: the responder answers one
// request, closes the queue and stops the server at once (directly, as the
// loop does; a stop_within() thread would give the writer a head start),
// racing the accept thread that is waking up to write that answer. Every
// round the client must read the whole reply and then EOF. `connect` opens
// a client to the server it is given.
void expect_reply_survives_stop(
    const LineServer::Options& opts,
    const std::function<int(const LineServer&)>& connect) {
  constexpr int kRounds = 200;
  int lost = 0;
  std::string first_bad;
  for (int round = 0; round < kRounds; ++round) {
    IngestQueue queue;
    LineServer server(opts, queue);
    std::thread responder([&] {
      if (auto item = queue.pop()) {
        item->reply.set_value("ok drained " + item->line);
        queue.close();
        server.stop();
      }
    });
    const int client = connect(server);
    std::string reply = "(no connection)";
    std::string after;
    if (client >= 0) {
      if (write_line(client, "drain")) {
        reply = read_line(client);
        after = read_line(client);
      }
      ::close(client);
    }
    queue.close();  // no request arrived: let the responder return
    responder.join();
    if ((reply != "ok drained drain\n" || !after.empty()) && lost++ == 0) {
      first_bad = "reply '" + reply + "', then '" + after + "'";
    }
  }
  EXPECT_EQ(lost, 0) << "replies lost to stop() in " << lost << "/" << kRounds
                     << " rounds; first: " << first_bad;
}

TEST(LineServer, ReplyBeforeStopIsDeliveredUnix) {
  const std::string path = socket_path("reply_stop");
  expect_reply_survives_stop(
      {path, -1}, [&](const LineServer&) { return connect_unix(path); });
}

TEST(LineServer, ReplyBeforeStopIsDeliveredTcp) {
  expect_reply_survives_stop({"", 0}, [](const LineServer& server) {
    // endpoint() is "tcp:<port>" with the kernel-assigned port.
    return connect_tcp(std::stoi(server.endpoint().substr(4)));
  });
}

TEST(LineServer, ClientHangUpBeforeReplyLeavesServerServing) {
  IngestQueue queue;
  const std::string path = socket_path("hangup");
  LineServer server({path, -1}, queue);
  std::promise<void> hung_up;
  std::thread responder([&, gate = hung_up.get_future()] {
    // Hold the first reply until its client is gone, so the server's
    // write meets a dead peer.
    if (auto first = queue.pop()) {
      gate.wait();
      first->reply.set_value("ok " + first->line);
    }
    while (auto item = queue.pop()) item->reply.set_value("ok " + item->line);
  });

  const int quitter = connect_unix(path);
  ASSERT_GE(quitter, 0);
  ASSERT_TRUE(write_line(quitter, "advance 86000"));
  ::close(quitter);
  hung_up.set_value();

  const int next = connect_unix(path);
  ASSERT_GE(next, 0);
  ASSERT_TRUE(write_line(next, "ping"));
  EXPECT_EQ(read_line(next), "ok ping\n");
  ::close(next);

  stop_within(server, std::chrono::seconds(10));
  queue.close();
  responder.join();
}

TEST(SocketClient, DeadServerThrowsInsteadOfSigpipe) {
  const std::string path = socket_path("dead_server");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  std::filesystem::remove(path);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  SocketClient client = SocketClient::connect_unix(path);
  // The server accepts and hangs up at once: writing to the dead
  // connection fails with EPIPE.
  const int conn = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(conn, 0);
  ::close(conn);
  EXPECT_THROW((void)client.request("ping"), std::runtime_error);

  ::close(listener);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace venn::service
