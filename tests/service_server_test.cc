// LineServer shutdown tests: stop() must wake the accept thread wherever it
// is blocked — in accept() with no client, or in read() on a live
// connection — join it, and only then release the descriptors. The
// sanitizer CI matrix runs these under TSan, which flags any unsynchronized
// descriptor hand-off between stop() and the accept thread.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

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

}  // namespace
}  // namespace venn::service
