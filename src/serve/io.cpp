#include "serve/io.hpp"

#include "common/mutex.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

namespace dbn::serve {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kPollMillis = 200;

}  // namespace

int serve_stdio(RouteServer& server, std::istream& in, std::ostream& out) {
  // The sink fires from this (reader) thread and the dispatcher thread;
  // the stream itself needs the serialization the Connection's per-send
  // mutex already provides, but the flush must stay inside the same
  // critical section, so wrap both here anyway.
  Mutex out_mutex;  // dbn-lint: allow(mutex-needs-annotation) function-local; it guards the captured ostream, not class state the analysis could see
  const std::shared_ptr<Connection> conn =
      server.connect([&out, &out_mutex](std::string_view frames) {
        const MutexLock lock(out_mutex);
        out.write(frames.data(),
                  static_cast<std::streamsize>(frames.size()));
        // Closed-loop clients wait on their responses: flush every write
        // (the dispatcher writes once per connection per batch).
        out.flush();
      });
  std::vector<char> buffer(kReadChunk);
  bool sound = true;
  for (;;) {
    // Block for one byte, then take whatever else the stream already
    // buffered — std::istream::read would stall waiting to fill the
    // whole chunk on an interactive pipe.
    const int first = in.rdbuf()->sbumpc();
    if (first == std::char_traits<char>::eof()) {
      break;
    }
    buffer[0] = static_cast<char>(first);
    const std::streamsize more = in.rdbuf()->in_avail();
    std::streamsize got = 1;
    if (more > 0) {
      const std::streamsize want = std::min(
          more, static_cast<std::streamsize>(buffer.size() - 1));
      got += in.rdbuf()->sgetn(buffer.data() + 1, want);
    }
    if (!conn->feed(std::string_view(buffer.data(),
                                     static_cast<std::size_t>(got)))) {
      sound = false;
      break;
    }
  }
  server.begin_drain();
  server.wait_drained();
  {
    const MutexLock lock(out_mutex);
    out.flush();
  }
  const bool clean = sound && conn->clean();
  conn->close();
  return clean ? 0 : 1;
}

namespace {

// One accepted TCP connection: its fd, reader thread, and server handle.
struct TcpClient {
  int fd = -1;
  std::shared_ptr<Connection> conn;
  std::thread reader;
  // Written only by the reader thread, read by the acceptor strictly
  // after reader.join() — the join is the happens-before edge, so no
  // mutex (and no annotation) is needed.
  bool clean = true;
  // Set by the reader as it exits, so the acceptor can join it without
  // blocking.
  std::atomic<bool> finished{false};
};

void tcp_reader_main(TcpClient& client) {
  std::vector<char> buffer(kReadChunk);
  for (;;) {
    pollfd pfd{client.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0) {
      continue;  // timeout (or EINTR): shutdown() unblocks us via POLLHUP
    }
    const ssize_t n = ::recv(client.fd, buffer.data(), buffer.size(), 0);
    if (n == 0) {
      break;  // orderly peer close (or our own shutdown at drain time)
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      client.clean = false;
      break;
    }
    if (!client.conn->feed(
            std::string_view(buffer.data(), static_cast<std::size_t>(n)))) {
      client.clean = false;
      ::shutdown(client.fd, SHUT_RDWR);
      break;
    }
  }
  if (!client.conn->clean()) {
    client.clean = false;
  }
  client.finished.store(true, std::memory_order_release);
}

// Joins the client's reader and releases its Connection and fd; returns
// whether its stream ended frame-aligned. The sink is detached before the
// fd is closed, so a late dispatcher send can never reach a recycled fd.
bool release_client(TcpClient& client) {
  client.reader.join();
  client.conn->close();
  ::close(client.fd);
  return client.clean;
}

bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  // rename() is atomic: a watcher polling for the file never sees a
  // half-written port.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int serve_tcp(RouteServer& server, const TcpOptions& options,
              const std::atomic<bool>& stop, std::uint16_t* bound_port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    ::close(listen_fd);
    return 1;
  }
  const std::uint16_t port = ntohs(addr.sin_port);
  if (bound_port != nullptr) {
    *bound_port = port;
  }
  if (!options.port_file.empty() &&
      !write_port_file(options.port_file, port)) {
    ::close(listen_fd);
    return 1;
  }
  std::vector<std::unique_ptr<TcpClient>> clients;
  bool clean = true;
  while (!stop.load(std::memory_order_acquire)) {
    // Reap clients whose reader has exited once no queued request still
    // holds their Connection: churn leaves no fd, thread or Connection
    // behind, and a half-closed peer still gets every answer.
    std::erase_if(clients, [&clean](const std::unique_ptr<TcpClient>& c) {
      if (!c->finished.load(std::memory_order_acquire) ||
          c->conn.use_count() > 1) {
        return false;
      }
      clean = release_client(*c) && clean;
      return true;
    });
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // poll keeps reporting the listener ready while accept fails (fd
      // exhaustion): back off instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
      continue;
    }
    auto client = std::make_unique<TcpClient>();
    client->fd = fd;
    client->conn = server.connect([fd](std::string_view frames) {
      // MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the daemon;
      // the write error is simply dropped (the reader will see the close).
      std::size_t sent = 0;
      while (sent < frames.size()) {
        const ssize_t n = ::send(fd, frames.data() + sent,
                                 frames.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) {
            continue;
          }
          return;
        }
        sent += static_cast<std::size_t>(n);
      }
    });
    TcpClient& ref = *client;
    client->reader = std::thread([&ref] { tcp_reader_main(ref); });
    clients.push_back(std::move(client));
  }
  // Graceful drain: stop admission, answer everything already queued,
  // then close the sockets (SHUT_RDWR unblocks readers still in recv).
  ::close(listen_fd);
  server.begin_drain();
  server.wait_drained();
  for (const auto& client : clients) {
    ::shutdown(client->fd, SHUT_RDWR);
  }
  for (const auto& client : clients) {
    clean = release_client(*client) && clean;
  }
  return clean ? 0 : 1;
}

}  // namespace dbn::serve
