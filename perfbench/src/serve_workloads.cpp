// serve_inproc, serve_bulk and serve_open: a client in this process drives
// 4 connections of a RouteServer for DG(2,16) behind `dbn serve`'s
// defaults, with a 75% Route / 25% Distance mix over uniform pairs.
//
//   serve_inproc  closed loop, 255 requests in flight per connection,
//                 through RouteServer::connect and Connection::feed with
//                 in-memory reply sinks: the protocol, the server (admit,
//                 queue, dispatcher) and the packed k=16 engine, without
//                 sockets. A client thread per connection feeds it, as the
//                 daemon's reader threads would.
//   serve_bulk    closed loop, 128 in flight per connection, over TCP to
//                 the daemon's own transport (serve::serve_tcp on
//                 127.0.0.1, the code `dbn serve` runs): adds the io layer
//                 and one send per reply.
//   serve_open    serve_tcp again, open loop: Poisson arrivals at 5,000
//                 req/s per connection (about a tenth of serve_bulk),
//                 latency timed from each request's due time, so replies
//                 the daemon holds in its sockets show here.
//
// Over TCP one client thread drives all 4 connections: the daemon runs a
// reader thread per connection and one dispatcher on the same 4 CPUs, so
// every extra client thread is one more for it to share a CPU with.
//
// The traced run alternates untraced and traced half-second slices on a
// daemon with trace_sample=16, whose spans land in an in-memory sink, and
// times the serve-layer calls (decode, encode, engine, kernel) offline on
// the run's own frames.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "strings/packed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dbn;
using namespace dbn::serve;

// DG(2,16) behind `dbn serve`'s defaults (ServeConfig: bidi backend, one
// engine thread, queue 1024, batch 256, no cache).
constexpr std::uint32_t kD = 2;
constexpr std::size_t kK = 16;
constexpr std::size_t kConnections = 4;
// 4 x 128 = 512 in flight stays under the 1024 queue cap: nothing is shed.
constexpr std::size_t kInflight = 128;
// serve_inproc keeps 4 x 255 = 1020 in flight, still under the cap, with a
// client thread per connection. With 512 in flight and one client thread,
// the dispatcher found the queue empty a quarter to a third of the time,
// and its throughput moved by a third between runs.
constexpr std::size_t kInProcessInflight = 255;
constexpr std::size_t kInProcessClients = 4;
constexpr double kOpenRate = 5000.0;     // serve_open, per connection
constexpr double kDistanceShare = 0.25;  // the dbn_loadgen / CI mix
// Distinct requests per connection; the stream cycles through them (the
// daemon runs without a cache, so a repeat costs what a new pair costs).
constexpr std::size_t kPool = 16384;
constexpr double kDrainUs = 3e6;  // wait for owed replies after the window
constexpr std::uint64_t kSeqBits = 40;  // wire id = conn << 40 | sequence
constexpr std::size_t kFrameBytes = 4 + 1 + 8 + 2 + 2 * kK;
constexpr std::size_t kIdOffset = 5;  // u32 length | u8 type | u64 id
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr double kSliceS = 0.5;  // throughput is a median over slices
// A traced daemon spans one request in kTraceSample. On a 4-CPU host,
// spanning every one made traced serve_bulk slices about twice as slow as
// untraced ones, almost all of it in the respond phase.
constexpr std::uint64_t kTraceSample = 16;

double now_us() { return obs::wall_ts_micros(); }

ServeConfig daemon_config(bool traced) {
  ServeConfig config;
  config.d = kD;
  config.k = kK;
  config.trace_sample = traced ? kTraceSample : 0;
  return config;
}

// One connection's generated inputs.
struct Inputs {
  std::vector<RequestType> type;
  std::vector<Word> x;
  std::vector<Word> y;
  std::string frames;       // kPool request frames, id field left 0
  std::vector<int> oracle;  // D(x, y), computed after the timed window
};

Inputs make_inputs(Rng rng) {
  Inputs in;
  const std::uint64_t n = Word::vertex_count(kD, kK);
  for (std::size_t i = 0; i < kPool; ++i) {
    const RequestType type = rng.uniform01() < kDistanceShare
                                 ? RequestType::Distance
                                 : RequestType::Route;
    Word x = Word::from_rank(kD, kK, rng.below(n));
    Word y = Word::from_rank(kD, kK, rng.below(n));
    if (type == RequestType::Distance) {
      encode_distance_request(0, x, y, in.frames);
    } else {
      encode_route_request(0, x, y, in.frames);
    }
    in.type.push_back(type);
    in.x.push_back(std::move(x));
    in.y.push_back(std::move(y));
  }
  return in;
}

void put_u64(char* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

std::uint64_t get_u64(const char* at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(at[i]))
         << (8 * i);
  }
  return v;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int tcp_socket_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
          0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// How the client reaches the daemon: 4 connections, each with a
/// descriptor to poll for replies. One thread uses a connection at a time.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual RouteServer& server() = 0;
  /// Polls readable while replies may be waiting on connection `c`.
  virtual int wait_fd(std::size_t c) const = 0;
  virtual bool send(std::size_t c, std::string_view bytes) = 0;
  /// The reply bytes that arrived on `c` since the last call (empty: none
  /// yet), valid until the next call; nullopt once the connection broke.
  virtual std::optional<std::string_view> receive(std::size_t c) = 0;
  /// Closes the clients, drains the daemon and joins its threads. Returns
  /// false when the daemon reported an unclean shutdown.
  virtual bool stop() = 0;
};

/// serve_tcp on 127.0.0.1 on its own thread, with 4 client sockets.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(const ServeConfig& config)
      : server_(config), port_(free_port()) {
    thread_ = std::thread([this] {
      TcpOptions options;
      options.port = port_;
      exit_code_ = serve_tcp(server_, options, stop_);
    });
  }
  ~TcpTransport() override { stop(); }
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Connects every client (retrying while the listener comes up) with
  /// TCP_NODELAY set, so the client's own requests are never held back by
  /// Nagle.
  bool connect_clients() {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (port_ != 0 && fds_.size() < kConnections) {
      const int fd = tcp_socket_to(port_);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        fds_.push_back(fd);
        buffers_.emplace_back(kReadChunk);
      } else if (Clock::now() > deadline) {
        return false;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return fds_.size() == kConnections;
  }

  RouteServer& server() override { return server_; }
  int wait_fd(std::size_t c) const override { return fds_[c]; }
  bool send(std::size_t c, std::string_view bytes) override {
    return send_all(fds_[c], bytes.data(), bytes.size());
  }
  std::optional<std::string_view> receive(std::size_t c) override {
    std::vector<char>& buf = buffers_[c];
    const ssize_t n = ::recv(fds_[c], buf.data(), buf.size(), MSG_DONTWAIT);
    if (n > 0) {
      return std::string_view(buf.data(), static_cast<std::size_t>(n));
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return std::string_view();
    }
    return std::nullopt;
  }
  bool stop() override {
    for (const int fd : fds_) {
      ::close(fd);
    }
    fds_.clear();
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      // serve_tcp polls its listening socket every 200 ms; a connection
      // attempt wakes it at once, and it then sees the stop flag.
      const int wake = tcp_socket_to(port_);
      thread_.join();
      if (wake >= 0) {
        ::close(wake);
      }
    }
    return exit_code_ == 0;
  }

 private:
  RouteServer server_;
  std::uint16_t port_;
  std::atomic<bool> stop_{false};
  int exit_code_ = 0;
  std::vector<int> fds_;
  std::vector<std::vector<char>> buffers_;
  std::thread thread_;  // last: joins before the members it uses die
};

/// RouteServer::connect with in-memory sinks; requests go in through
/// Connection::feed on the client's thread. A sink appends reply frames to
/// its connection's inbox and signals an eventfd when the inbox was empty.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(const ServeConfig& config) : server_(config) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      inboxes_.push_back(std::make_unique<Inbox>());
      Inbox& box = *inboxes_.back();
      conns_.push_back(
          server_.connect([&box](std::string_view frames) { box.put(frames); }));
    }
  }
  ~InProcTransport() override { stop(); }
  InProcTransport(const InProcTransport&) = delete;
  InProcTransport& operator=(const InProcTransport&) = delete;

  RouteServer& server() override { return server_; }
  int wait_fd(std::size_t c) const override { return inboxes_[c]->event; }
  bool send(std::size_t c, std::string_view bytes) override {
    return conns_[c]->feed(bytes);
  }
  std::optional<std::string_view> receive(std::size_t c) override {
    Inbox& box = *inboxes_[c];
    std::uint64_t wakes = 0;
    // Reset before taking the bytes: a put() after the swap signals again.
    [[maybe_unused]] const ssize_t n = ::read(box.event, &wakes, sizeof(wakes));
    box.taken.clear();
    {
      const MutexLock lock(box.mutex);
      box.bytes.swap(box.taken);
    }
    return std::string_view(box.taken);
  }
  bool stop() override {
    if (stopped_) {
      return clean_;
    }
    stopped_ = true;
    server_.wait_drained();
    for (const std::shared_ptr<Connection>& conn : conns_) {
      clean_ = clean_ && conn->clean();
      conn->close();
    }
    return clean_;
  }

 private:
  struct Inbox {
    Inbox() : event(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
    ~Inbox() { ::close(event); }
    Inbox(const Inbox&) = delete;
    Inbox& operator=(const Inbox&) = delete;

    void put(std::string_view frames) {
      bool wake = false;
      {
        const MutexLock lock(mutex);
        wake = bytes.empty();
        bytes.append(frames);
      }
      if (wake) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(event, &one, sizeof(one));
      }
    }

    const int event;
    Mutex mutex;
    std::string bytes DBN_GUARDED_BY(mutex);
    std::string taken;  // the client's side, between receive() calls
  };

  // Inboxes outlive the server, whose dispatcher calls into them.
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  RouteServer server_;
  std::vector<std::shared_ptr<Connection>> conns_;
  bool stopped_ = false;
  bool clean_ = true;
};

/// One Ping round trip: proves the daemon serves connection `c`.
bool ping(Transport& transport, std::size_t c) {
  std::string frame;
  encode_control_request(RequestType::Ping, 1, frame);
  if (!transport.send(c, frame)) {
    return false;
  }
  FrameReader reader;
  std::string payload;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    pollfd pfd{transport.wait_fd(c), POLLIN, 0};
    if (::poll(&pfd, 1, 100) < 0) {
      return false;
    }
    const std::optional<std::string_view> bytes = transport.receive(c);
    if (!bytes) {
      return false;
    }
    reader.feed(*bytes);
    if (reader.next(payload) == FrameReader::Result::Frame) {
      const DecodedResponse r = decode_response(payload);
      return r.error == DecodeError::None &&
             r.response.status == Status::Ok &&
             r.response.type == RequestType::Ping;
    }
  }
  return false;
}

/// A daemon with every client connected and answering a Ping; nullptr on
/// failure.
std::unique_ptr<Transport> open_transport(bool in_process,
                                          const ServeConfig& config) {
  std::unique_ptr<Transport> transport;
  if (in_process) {
    transport = std::make_unique<InProcTransport>(config);
  } else {
    auto tcp = std::make_unique<TcpTransport>(config);
    if (!tcp->connect_clients()) {
      return nullptr;
    }
    transport = std::move(tcp);
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    if (!ping(*transport, c)) {
      return nullptr;
    }
  }
  return transport;
}

// Requests a connection may have outstanding before the oldest one's
// send time is forgotten (and its late reply counted as a protocol error).
constexpr std::size_t kRing = 1u << 16;
constexpr std::uint64_t kFree = ~0ull;

// What one client connection saw during one timed window. Everything but
// the traced window's per-request latencies is fixed-size, so the client's
// memory does not grow with the daemon's throughput.
struct ClientRun {
  ClientRun(std::size_t slices, bool keep_latencies)
      : slices(slices), keep_latencies(keep_latencies), answers(kPool) {}
  struct Slot {
    std::uint64_t seq = kFree;
    double start_us = 0.0;  // send time (closed loop) or due time (open)
  };
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t reads = 0;  // receive calls that returned bytes
  std::uint64_t protocol_errors = 0;
  bool transport_error = false;
  double codec_us = 0.0;  // building frames + handling replies
  std::vector<Slot> outstanding = std::vector<Slot>(kRing);
  std::vector<LogHistogram> slices;  // latency by reply-time slice
  LogHistogram lateness;             // send time - due time
  bool keep_latencies;
  std::vector<float> latency_us;     // per sequence, when keep_latencies
  AnswerStore<std::string> answers;  // replies, id field zeroed
};

/// One connection as the client sees it.
struct Link {
  std::size_t conn = 0;
  const Inputs* in = nullptr;
  ClientRun* out = nullptr;
  FrameReader reader;
  std::string batch;        // requests built for the next send
  std::vector<double> due;  // open loop: this connection's due times
  std::size_t next = 0;     // first due time not yet sent
  double read_at = 0.0;     // when the last receive returned bytes
};

/// How the client loads the daemon.
struct Load {
  bool open_loop = false;
  std::size_t inflight = kInflight;  // closed loop, per connection
  std::size_t threads = 1;           // client thread t drives c % threads == t
};

/// One client thread: drives connections `conns` through the window.
void drive(Transport& transport, const std::vector<std::size_t>& conns,
           const std::vector<Inputs>& inputs, const Load& load, double t_start,
           double t_end, double slice_us, const Rng& schedule,
           std::vector<ClientRun>& runs) {
  const bool open_loop = load.open_loop;
  // Timer slack of 1 ns: ppoll wake-ups for due times land within a few
  // microseconds instead of the default 50 us slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<Link> links(conns.size());
  std::vector<pollfd> pfds;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    const std::size_t c = conns[i];
    Link& l = links[i];
    l.conn = c;
    l.in = &inputs[c];
    l.out = &runs[c];
    l.read_at = t_start;
    pfds.push_back(pollfd{transport.wait_fd(c), POLLIN, 0});
    if (open_loop) {
      Rng rng = schedule.fork(c);
      for (double t = t_start + rng.exponential(kOpenRate) * 1e6; t < t_end;
           t += rng.exponential(kOpenRate) * 1e6) {
        l.due.push_back(t);
      }
    }
  }
  std::string payload;
  bool broken = false;  // a transport error on any connection ends the run

  const auto append = [&](Link& l, double due_at, double now) {
    ClientRun& out = *l.out;
    const std::uint64_t seq = out.sent++;
    const std::size_t at = l.batch.size();
    l.batch.append(l.in->frames, (seq % kPool) * kFrameBytes, kFrameBytes);
    put_u64(l.batch.data() + at + kIdOffset, (l.conn << kSeqBits) | seq);
    out.outstanding[seq % kRing] = {seq, open_loop ? due_at : now};
    out.lateness.add(now - due_at);
    if (out.keep_latencies) {
      out.latency_us.push_back(std::numeric_limits<float>::quiet_NaN());
    }
  };
  const auto flush = [&](Link& l) {
    if (!l.batch.empty() && !transport.send(l.conn, l.batch)) {
      l.out->transport_error = true;
      broken = true;
    }
    l.batch.clear();
  };
  // One receive on `l`; handles every complete frame and returns how many
  // replies arrived.
  const auto receive = [&](Link& l) -> std::uint64_t {
    ClientRun& out = *l.out;
    const std::optional<std::string_view> bytes = transport.receive(l.conn);
    if (!bytes) {
      out.transport_error = true;
      broken = true;
      return 0;
    }
    if (bytes->empty()) {
      return 0;
    }
    const double now = now_us();
    l.read_at = now;
    const Clock::time_point codec_start = Clock::now();
    ++out.reads;
    l.reader.feed(*bytes);
    std::uint64_t got = 0;
    for (;;) {
      const FrameReader::Result r = l.reader.next(payload);
      if (r == FrameReader::Result::Error) {
        out.transport_error = true;
        broken = true;
        break;
      }
      if (r == FrameReader::Result::NeedMore) {
        break;
      }
      if (payload.size() < 10) {
        ++out.protocol_errors;
        continue;
      }
      const std::uint64_t id = get_u64(payload.data() + 2);
      const std::uint64_t seq = id & ((1ull << kSeqBits) - 1);
      ClientRun::Slot& slot = out.outstanding[seq % kRing];
      if ((id >> kSeqBits) != l.conn || slot.seq != seq) {
        ++out.protocol_errors;  // an answer to a question never asked
        continue;
      }
      slot.seq = kFree;
      const double latency = now - slot.start_us;
      const double into = now - t_start;
      if (into >= 0.0 && into < slice_us * static_cast<double>(out.slices.size())) {
        out.slices[static_cast<std::size_t>(into / slice_us)].add(latency);
      }
      if (out.keep_latencies) {
        out.latency_us[seq] = static_cast<float>(latency);
      }
      ++out.received;
      ++got;
      std::memset(payload.data() + 2, 0, 8);
      out.answers.record(seq % kPool, std::move(payload));
    }
    out.codec_us += micros_between(codec_start, Clock::now());
    return got;
  };
  // Waits up to timeout_us for replies on any connection and handles them.
  // With `refill` (closed loop, inside the window) each reply frees a slot
  // that is refilled at once, due when the reply was read: lateness is
  // then the client's own reaction time.
  const auto pump = [&](double timeout_us, bool refill) {
    const double wait = std::max(0.0, timeout_us);
    timespec ts{static_cast<time_t>(wait / 1e6),
                static_cast<long>(std::fmod(wait, 1e6) * 1e3)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) {
      return;
    }
    for (std::size_t c = 0; c < links.size(); ++c) {
      if (pfds[c].revents == 0) {
        continue;
      }
      Link& l = links[c];
      const std::uint64_t freed = receive(l);
      const double send_at = now_us();
      if (!refill || freed == 0 || send_at >= t_end) {
        continue;
      }
      const Clock::time_point c0 = Clock::now();
      for (std::uint64_t i = 0; i < freed; ++i) {
        append(l, l.read_at, send_at);
      }
      l.out->codec_us += micros_between(c0, Clock::now());
      flush(l);
    }
  };

  if (!open_loop) {
    for (Link& l : links) {
      const Clock::time_point c0 = Clock::now();
      const double now = now_us();
      for (std::size_t i = 0; i < load.inflight; ++i) {
        append(l, now, now);
      }
      l.out->codec_us += micros_between(c0, Clock::now());
      flush(l);
    }
    for (double now = now_us(); !broken && now < t_end; now = now_us()) {
      pump(std::min(t_end - now, 1e5), /*refill=*/true);
    }
  } else {
    while (!broken) {
      double next_due = std::numeric_limits<double>::infinity();
      for (Link& l : links) {
        const Clock::time_point c0 = Clock::now();
        const double now = now_us();
        while (l.next < l.due.size() && l.due[l.next] <= now) {
          append(l, l.due[l.next], now_us());
          ++l.next;
        }
        l.out->codec_us += micros_between(c0, Clock::now());
        flush(l);
        if (l.next < l.due.size()) {
          next_due = std::min(next_due, l.due[l.next]);
        }
      }
      if (next_due == std::numeric_limits<double>::infinity()) {
        break;
      }
      pump(next_due - now_us(), /*refill=*/false);
    }
  }
  const auto owed = [&] {
    for (const Link& l : links) {
      if (l.out->received < l.out->sent) {
        return true;
      }
    }
    return false;
  };
  const double give_up = t_end + kDrainUs;
  while (!broken && owed() && now_us() < give_up) {
    pump(1e5, /*refill=*/false);
  }
}

struct Window {
  std::vector<ClientRun> clients;
  double slice_s = 0.0;
};

// Latency is filed per half-second slice of the window (by reply time);
// the slices are the units the throughput is taken over.
//
// With a `sink` the window alternates: even slices run untraced, odd ones
// with the sink installed, and every request's latency is kept. The traced
// and untraced figures then come from one daemon, interleaved, so drift in
// the host moves both alike.
Window run_window(Transport& transport, const std::vector<Inputs>& inputs,
                  const Load& load, double seconds, std::uint64_t seed,
                  obs::TraceSink* sink = nullptr) {
  Window w;
  const std::size_t slices = std::max<std::size_t>(
      2, static_cast<std::size_t>(seconds / kSliceS));
  w.slice_s = seconds / static_cast<double>(slices);
  for (std::size_t c = 0; c < kConnections; ++c) {
    w.clients.emplace_back(slices, /*keep_latencies=*/sink != nullptr);
  }
  const double t_start = now_us();
  const double slice_us = w.slice_s * 1e6;
  std::jthread toggler;
  if (sink != nullptr) {
    toggler = std::jthread([sink, slices, t_start, slice_us] {
      for (std::size_t i = 0; i <= slices; ++i) {
        const double at = t_start + static_cast<double>(i) * slice_us;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(std::max(0.0, at - now_us())));
        obs::set_trace_sink(i < slices && i % 2 == 1 ? sink : nullptr);
      }
    });
  }
  std::vector<std::jthread> clients;
  for (std::size_t t = 0; t < load.threads; ++t) {
    std::vector<std::size_t> conns;
    for (std::size_t c = t; c < kConnections; c += load.threads) {
      conns.push_back(c);
    }
    clients.emplace_back([&, conns] {
      drive(transport, conns, inputs, load, t_start, t_start + seconds * 1e6,
            slice_us, Rng(seed ^ 0x5eedull), w.clients);
    });
  }
  clients.clear();  // joins every client thread
  return w;
}

// In-memory sink for the daemon's own spans: serve_request (admit,
// dispatch, route, respond instants) and serve_batch. emit() appends a
// compact record to a buffer owned by the emitting thread — no shared lock
// on the daemon's hot path — and the records are joined per span once the
// daemon has stopped. At each serve_batch begin and end it also reads the
// emitting (dispatcher) thread's CPU clock, so the time the dispatcher
// spends on the CPU between batches is measured too.
class ServeSpanSink : public obs::TraceSink {
 public:
  struct Request {
    std::uint64_t wire_id = 0;
    std::uint64_t batch = 0;
    double admit = 0.0, dispatch = 0.0, route = 0.0, respond = 0.0;
  };
  struct Batch {
    std::uint64_t span = 0;
    double begin = 0.0, end = 0.0;          // wall clock, us
    double begin_cpu = 0.0, end_cpu = 0.0;  // dispatcher CPU clock, us
    std::uint64_t size = 0;
  };

  ServeSpanSink() : generation_(next_generation().fetch_add(1) + 1) {}

  void emit(const obs::TraceEvent& e) override {
    if (e.category != "serve" || e.span == 0) {
      return;
    }
    Kind kind;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double cpu = 0.0;
    if (e.name == "serve_batch") {
      kind = e.phase == obs::TracePhase::Begin ? Kind::BatchBegin : Kind::BatchEnd;
      a = kind == Kind::BatchEnd ? arg_u64(e, "size") : 0;
      cpu = thread_cpu_seconds() * 1e6;
    } else if (e.phase == obs::TracePhase::End) {
      kind = Kind::RequestEnd;
      a = arg_u64(e, "id");
      b = arg_u64(e, "batch");
    } else if (e.name == "admit") {
      kind = Kind::Admit;
    } else if (e.name == "dispatch") {
      kind = Kind::Dispatch;
    } else if (e.name == "route") {
      kind = Kind::Route;
    } else if (e.name == "respond") {
      kind = Kind::Respond;
    } else {
      return;
    }
    local().push_back(Record{e.span, e.ts, cpu, a, b, kind});
  }

  /// Joins the records; call only after every emitting thread is gone.
  /// Batches come out in the order the dispatcher ran them.
  void collect(std::vector<Request>& requests, std::vector<Batch>& batches) {
    std::unordered_map<std::uint64_t, Request> open;
    const MutexLock lock(mutex_);
    for (const std::unique_ptr<std::vector<Record>>& buffer : buffers_) {
      for (const Record& r : *buffer) {
        switch (r.kind) {
          case Kind::BatchBegin:
            batches.push_back(Batch{r.span, r.ts, 0.0, r.cpu, 0.0, 0});
            break;
          case Kind::BatchEnd:
            if (!batches.empty() && batches.back().span == r.span) {
              batches.back().end = r.ts;
              batches.back().end_cpu = r.cpu;
              batches.back().size = r.a;
            }
            break;
          case Kind::Admit: open[r.span].admit = r.ts; break;
          case Kind::Dispatch: open[r.span].dispatch = r.ts; break;
          case Kind::Route: open[r.span].route = r.ts; break;
          case Kind::Respond: open[r.span].respond = r.ts; break;
          case Kind::RequestEnd:
            open[r.span].wire_id = r.a;
            open[r.span].batch = r.b;
            break;
        }
      }
    }
    std::erase_if(batches, [](const Batch& b) { return b.size == 0; });
    for (const auto& [span, r] : open) {
      if (r.admit > 0.0 && r.dispatch > 0.0 && r.respond > 0.0 && r.batch > 0) {
        requests.push_back(r);
      }
    }
  }

 private:
  enum class Kind : std::uint8_t {
    BatchBegin, BatchEnd, Admit, Dispatch, Route, Respond, RequestEnd
  };
  struct Record {
    std::uint64_t span;
    double ts;
    double cpu;
    std::uint64_t a, b;
    Kind kind;
  };

  static std::atomic<std::uint64_t>& next_generation() {
    static std::atomic<std::uint64_t> generation{0};
    return generation;
  }

  // The calling thread's buffer for this sink (registered on first use;
  // the generation tells a later sink at the same address apart).
  std::vector<Record>& local() {
    thread_local std::uint64_t owner = 0;
    thread_local std::vector<Record>* buffer = nullptr;
    if (owner != generation_) {
      const MutexLock lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Record>>());
      buffers_.back()->reserve(1u << 16);
      buffer = buffers_.back().get();
      owner = generation_;
    }
    return *buffer;
  }

  static std::uint64_t arg_u64(const obs::TraceEvent& e, std::string_view key) {
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key == key) {
        return std::strtoull(arg.value.c_str(), nullptr, 10);
      }
    }
    return 0;
  }

  const std::uint64_t generation_;
  Mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Record>>> buffers_
      DBN_GUARDED_BY(mutex_);
};

struct WindowSummary {
  double throughput = 0.0;
  double mean_throughput = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t samples = 0;
  double lateness_p99 = 0.0;
  double frames_per_read = 0.0;
  double codec_ns = 0.0;  // client's own time per request
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t protocol_errors = 0;
  bool transport_error = false;
};

/// Throughput and latency over every slice of `w`, or with `parity` 0 or
/// 1 over every untraced or traced slice of an alternating window. The
/// throughput is the median over those slices; `mean_throughput` counts
/// every reply in them. The latency percentiles are over every request in
/// them. The client-side totals cover the whole window.
WindowSummary summarize(const Window& w, int parity = -1) {
  WindowSummary s;
  LogHistogram latency;
  std::vector<double> rates;
  for (std::size_t i = 0; i < w.clients.front().slices.size(); ++i) {
    if (parity >= 0 && static_cast<int>(i % 2) != parity) {
      continue;
    }
    LogHistogram slice;
    for (const ClientRun& c : w.clients) {
      slice.merge(c.slices[i]);
    }
    rates.push_back(static_cast<double>(slice.count()) / w.slice_s);
    latency.merge(slice);
  }
  s.samples = latency.count();
  s.throughput = median(rates);
  s.mean_throughput = static_cast<double>(s.samples) /
                      (static_cast<double>(rates.size()) * w.slice_s);
  s.p50 = latency.percentile(50.0);
  s.p99 = latency.percentile(99.0);
  LogHistogram lateness;
  std::uint64_t reads = 0;
  double codec_us = 0.0;
  for (const ClientRun& c : w.clients) {
    lateness.merge(c.lateness);
    reads += c.reads;
    codec_us += c.codec_us;
    s.sent += c.sent;
    s.received += c.received;
    s.protocol_errors += c.protocol_errors;
    s.transport_error = s.transport_error || c.transport_error;
  }
  s.lateness_p99 = lateness.percentile(99.0);
  s.frames_per_read =
      reads == 0 ? 0.0 : static_cast<double>(s.received) / static_cast<double>(reads);
  s.codec_ns = s.received == 0 ? 0.0 : codec_us * 1e3 / static_cast<double>(s.received);
  return s;
}

/// Checks every reply of a window against the oracle; returns failures
/// (wrong or non-Ok answers, unanswered requests, protocol errors).
std::uint64_t check_window(const Window& w, const std::vector<Inputs>& inputs,
                           std::map<std::string, std::uint64_t>& tally) {
  std::uint64_t failed = 0;
  for (std::size_t c = 0; c < w.clients.size(); ++c) {
    const ClientRun& run = w.clients[c];
    const Inputs& in = inputs[c];
    failed += run.answers.failures(
        [&](std::size_t i, const std::string& payload) {
          return check_response(payload, in.type[i], in.x[i], in.y[i],
                                in.oracle[i]);
        },
        [&](Verdict v, std::uint64_t n) { tally[verdict_name(v)] += n; });
    const std::uint64_t unanswered = run.sent - run.received;
    failed += unanswered + run.protocol_errors;
    tally["unanswered"] += unanswered;
    tally["protocol_error"] += run.protocol_errors;
  }
  return failed;
}

/// serve.decode_ns / serve.encode_ns / serve.engine_ns on the run's own
/// frames and answers, each timed for about `budget_s`.
struct ServeLayerTimes {
  double decode_ns = 0.0;
  double wire_ns = 0.0;  // the word_from_wire part (dispatcher thread)
  double encode_ns = 0.0;
  double engine_ns = 0.0;
};

ServeLayerTimes time_serve_layers(const std::vector<Inputs>& inputs,
                                  const Window& w, std::size_t batch,
                                  double budget_s) {
  ServeLayerTimes t;
  // Decode: every pool frame's payload, as the reader thread and the
  // dispatcher see it.
  std::vector<std::string_view> payloads;
  for (const Inputs& in : inputs) {
    for (std::size_t i = 0; i < kPool; ++i) {
      payloads.emplace_back(in.frames.data() + i * kFrameBytes + 4,
                            kFrameBytes - 4);
    }
  }
  {
    // decode_request runs where feed() runs, word_from_wire on the
    // dispatcher; timed apart so the dispatcher's share is known.
    SpanLog::Scope span(spans(), "offline.serve.decode");
    std::vector<Request> requests;
    for (const std::string_view p : payloads) {
      requests.push_back(decode_request(p).request);
    }
    std::uint64_t n = 0;
    std::uint64_t sink = 0;
    Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < budget_s / 2) {
      for (const std::string_view p : payloads) {
        sink += decode_request(p).request.x.size();
      }
      n += payloads.size();
    }
    const double frame_ns =
        micros_between(start, Clock::now()) * 1e3 / static_cast<double>(n);
    n = 0;
    start = Clock::now();
    while (seconds_between(start, Clock::now()) < budget_s / 2) {
      for (const Request& r : requests) {
        sink += word_from_wire(kD, r.x).has_value() +
                word_from_wire(kD, r.y).has_value();
      }
      n += requests.size();
    }
    t.wire_ns =
        micros_between(start, Clock::now()) * 1e3 / static_cast<double>(n);
    t.decode_ns = frame_ns + t.wire_ns;
    span.set_ops(sink == 0 ? 0 : payloads.size());
  }
  // Encode: the run's own answers, re-encoded.
  std::vector<Response> answers;
  for (const ClientRun& c : w.clients) {
    c.answers.for_each(
        [&](std::size_t, const std::string& payload, std::uint64_t) {
          DecodedResponse d = decode_response(payload);
          if (d.error == DecodeError::None && d.response.status == Status::Ok) {
            answers.push_back(std::move(d.response));
          }
        });
  }
  std::vector<RoutingPath> paths;
  for (const Response& r : answers) {
    paths.emplace_back(r.hops);
  }
  if (!answers.empty()) {
    SpanLog::Scope span(spans(), "offline.serve.encode");
    std::string frame;
    std::uint64_t n = 0;
    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < budget_s) {
      for (std::size_t i = 0; i < answers.size(); ++i) {
        frame.clear();
        if (answers[i].type == RequestType::Route) {
          encode_route_response(answers[i].id, paths[i], frame);
        } else {
          encode_distance_response(answers[i].id, answers[i].distance, frame);
        }
      }
      n += answers.size();
    }
    t.encode_ns = micros_between(start, Clock::now()) * 1e3 /
                  static_cast<double>(n);
    span.set_ops(n);
  }
  // Engine: route_batch_into / distance_batch at the run's batch size,
  // on the same backend and thread count as the daemon.
  {
    SpanLog::Scope span(spans(), "offline.serve.engine");
    BatchRouteEngine engine(kD, kK,
                            BatchRouteOptions{.backend = BatchBackend::BidiEngine,
                                              .threads = 1,
                                              .chunk = 64,
                                              .trace_routes = false});
    std::vector<std::vector<RouteQuery>> routes;
    std::vector<std::vector<RouteQuery>> distances;
    const Inputs& in = inputs[0];
    const std::size_t b = std::max<std::size_t>(batch, 1);
    for (std::size_t start = 0; start + b <= kPool; start += b) {
      routes.emplace_back();
      distances.emplace_back();
      for (std::size_t i = start; i < start + b; ++i) {
        (in.type[i] == RequestType::Route ? routes : distances)
            .back()
            .push_back(RouteQuery{in.x[i], in.y[i]});
      }
    }
    std::vector<RoutingPath> out;
    std::uint64_t n = 0;
    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < budget_s) {
      for (std::size_t i = 0; i < routes.size(); ++i) {
        // Like the dispatcher: an empty half of a batch is not run.
        if (!routes[i].empty()) {
          engine.route_batch_into(routes[i], out);
        }
        if (!distances[i].empty()) {
          n += engine.distance_batch(distances[i]).size();
        }
        n += routes[i].size();
      }
    }
    t.engine_ns = micros_between(start, Clock::now()) * 1e3 /
                  static_cast<double>(std::max<std::uint64_t>(n, 1));
    span.set_ops(n);
  }
  return t;
}

}  // namespace

Result run_serve(const RunOptions& options, ServeMode mode) {
  const bool in_process = mode == ServeMode::InProcess;
  const bool open_loop = mode == ServeMode::Open;
  const Load load{open_loop, in_process ? kInProcessInflight : kInflight,
                  in_process ? kInProcessClients : 1};
  Result result;
  const Rng root(options.seed);
  std::vector<Inputs> inputs;
  for (std::size_t c = 0; c < kConnections; ++c) {
    inputs.push_back(make_inputs(root.fork(c)));
  }
  std::size_t routes = 0;
  for (const Inputs& in : inputs) {
    routes += static_cast<std::size_t>(
        std::count(in.type.begin(), in.type.end(), RequestType::Route));
  }
  result.note("network", "DG(2,16) undirected, bidi backend, 1 engine thread, "
                         "queue 1024, batch 256, no cache");
  result.note("transport", in_process ? "in process: Connection::feed, "
                                        "in-memory reply sinks"
                                      : "serve_tcp on 127.0.0.1");
  result.note("load", open_loop ? std::string("open loop, 4 connections x "
                                              "Poisson 5000 req/s, one client "
                                              "thread")
                                : "closed loop, 4 connections x " +
                                      std::to_string(load.inflight) +
                                      " in flight, " +
                                      std::to_string(load.threads) +
                                      " client thread(s)");
  result.note("input.route_share",
              static_cast<double>(routes) /
                  static_cast<double>(kConnections * kPool));
  result.note("input.distinct_requests",
              static_cast<double>(kConnections * kPool));
  result.note("input.fits_packed_lane",
              strings::packable(kD, kK) ? "yes" : "no");

  // Set-up: daemon up and every client connected and answered, several
  // times; the last one carries the window. The sink outlives it.
  ServeSpanSink sink;
  std::vector<double> setups;
  std::unique_ptr<Transport> transport;
  for (const Clock::time_point first = Clock::now(); setup_due(setups, first);) {
    transport.reset();
    const Clock::time_point t0 = Clock::now();
    transport = open_transport(in_process, daemon_config(options.trace));
    setups.push_back(seconds_between(t0, Clock::now()));
    if (transport == nullptr) {
      result.problem("daemon set-up failed");
      return result;
    }
  }

  // A traced run spends 0.7 of its time in one alternating window and the
  // rest timing the layers offline.
  Window w;
  {
    SpanLog::Scope span(spans(), "window");
    w = run_window(*transport, inputs, load,
                   options.trace ? options.seconds * 0.7 : options.seconds,
                   options.seed, options.trace ? &sink : nullptr);
  }
  if (!transport->stop()) {  // every daemon thread joined
    result.problem("daemon reported an unclean shutdown");
  }
  const ServeStats stats = transport->server().stats();
  transport.reset();
  std::vector<ServeSpanSink::Request> server_requests;
  std::vector<ServeSpanSink::Batch> server_batches;
  sink.collect(server_requests, server_batches);

  const WindowSummary u = summarize(w, options.trace ? 0 : -1);
  result.set("throughput", u.throughput, "1/s");
  result.set("p50_us", u.p50, "us");
  result.note("p99_us", full_digits(u.p99) + " us");
  result.note("mean_throughput", full_digits(u.mean_throughput) + " 1/s");
  result.set("setup_s", median(setups), "s");
  result.note("latency", open_loop ? "client-observed, from each due time"
                                   : "client-observed, from each send");
  result.note("latency_samples", static_cast<double>(u.samples));

  // Checks, after the timed windows: the oracle for every distinct input.
  {
    SpanLog::Scope span(spans(), "check.oracle");
    const Clock::time_point t0 = Clock::now();
    double distance_sum = 0.0;
    for (Inputs& in : inputs) {
      in.oracle.resize(kPool);
      for (std::size_t i = 0; i < kPool; ++i) {
        in.oracle[i] = undirected_distance(in.x[i], in.y[i]);
        distance_sum += in.oracle[i];
      }
    }
    const double n = static_cast<double>(kConnections * kPool);
    result.set("distance.undirected_ns",
               micros_between(t0, Clock::now()) * 1e3 / n, "ns");
    result.note("input.mean_distance", distance_sum / n);
    span.set_ops(kConnections * kPool);
  }
  std::map<std::string, std::uint64_t> tally;
  result.failed = check_window(w, inputs, tally);
  result.attempted = u.sent;
  for (const auto& [what, n] : tally) {
    if (n != 0) {
      result.note("failures." + what, static_cast<double>(n));
    }
  }
  if (u.transport_error) {
    result.problem("client transport error");
  }
  if (tally["misses_target"] + tally["not_shortest"] + tally["wrong_distance"] +
          tally["wrong_type"] + tally["undecodable"] + tally["protocol_error"] !=
      0) {
    result.problem("wrong answers");
  }

  if (!options.trace) {
    return result;
  }

  // --- per-layer metrics ----------------------------------------------
  const WindowSummary t = summarize(w, 1);
  result.set("serve.frames_per_read", u.frames_per_read, "ratio");
  result.set("serve.rejected",
             static_cast<double>(stats.rejected_overload +
                                 stats.rejected_draining +
                                 stats.rejected_bad_request),
             "count");
  result.set("serve.lateness_us", u.lateness_p99, "us");

  // Per spanned request: queue / route / respond from the daemon's spans,
  // and the transport remainder against the client's latency for its id.
  const auto client_latency = [&w](std::uint64_t wire_id) {
    const std::uint64_t conn = wire_id >> kSeqBits;
    const std::uint64_t seq = wire_id & ((1ull << kSeqBits) - 1);
    if (conn >= w.clients.size() || seq >= w.clients[conn].latency_us.size()) {
      return std::numeric_limits<float>::quiet_NaN();
    }
    return w.clients[conn].latency_us[seq];
  };
  std::vector<double> queue, route, respond, transport_us;
  // Stages of each matched request: latency, queue, route, respond.
  std::vector<std::array<double, 4>> stages;
  double route_phase_us = 0.0;  // dispatcher time from dispatch to route
  for (const ServeSpanSink::Request& r : server_requests) {
    queue.push_back(r.dispatch - r.admit);
    route.push_back(r.route - r.dispatch);
    respond.push_back(r.respond - r.route);
    // Each batch's route phase once: a batch of b requests holds b/N
    // spanned ones on average.
    route_phase_us += (r.route - r.dispatch) * static_cast<double>(kTraceSample) /
                      static_cast<double>(r.batch);
    const float latency = client_latency(r.wire_id);
    if (!std::isnan(latency)) {
      transport_us.push_back(latency - (r.respond - r.admit) - t.codec_ns / 1e3);
      stages.push_back({latency, queue.back(), route.back(), respond.back()});
    }
  }
  // Dispatcher time per traced slice: inside serve_batch spans, and on the
  // CPU between consecutive spans (taking the next batch off the queue,
  // releasing the last one). A gap across an untraced slice is skipped.
  double busy_us = 0.0;
  double turnover_cpu_us = 0.0;
  std::uint64_t batched = 0;
  std::vector<double> sizes;
  for (std::size_t i = 0; i < server_batches.size(); ++i) {
    const ServeSpanSink::Batch& b = server_batches[i];
    busy_us += b.end - b.begin;
    batched += b.size;
    sizes.push_back(static_cast<double>(b.size));
    if (i > 0 && b.begin - server_batches[i - 1].end < kSliceS * 1e6 / 2) {
      turnover_cpu_us += b.begin_cpu - server_batches[i - 1].end_cpu;
    }
  }
  const double batch_median = median(sizes);
  result.set("serve.batch_size", batch_median, "count");
  const std::size_t traced_slices = w.clients.front().slices.size() / 2;
  const double traced_wall_us =
      static_cast<double>(traced_slices) * w.slice_s * 1e6;
  result.set("serve.queue_us", median(queue), "us");
  result.set("serve.route_us", median(route), "us");
  result.set("serve.respond_us", median(respond), "us");
  result.set("serve.transport_us", median(transport_us), "us");
  result.set("serve.dispatcher_busy", busy_us / traced_wall_us, "ratio");
  result.note("trace.requests_spanned", static_cast<double>(server_requests.size()));
  result.note("trace.requests_matched", static_cast<double>(transport_us.size()));

  const ServeLayerTimes layers = time_serve_layers(
      inputs, w, static_cast<std::size_t>(std::lround(batch_median)), 0.25);
  result.set("serve.decode_ns", layers.decode_ns, "ns");
  result.set("serve.encode_ns", layers.encode_ns, "ns");
  result.set("serve.engine_ns", layers.engine_ns, "ns");
  {
    std::vector<RouteQuery> pairs;
    for (std::size_t i = 0; i < kPool; ++i) {
      pairs.push_back(RouteQuery{inputs[0].x[i], inputs[0].y[i]});
    }
    time_kernels(pairs, kK, 0.2, result);
  }

  Attribution& a = result.attribution;
  if (!open_loop) {
    // Throughput side: the dispatcher's timeline per answered request.
    a.figure = "wall ns per answered request (1e9 / throughput)";
    a.untraced = 1e9 / u.throughput;
    a.traced = 1e9 / t.throughput;
    const double n = static_cast<double>(std::max<std::uint64_t>(batched, 1));
    const double route_ns = route_phase_us * 1e3 / n;
    const double respond_ns = (busy_us - route_phase_us) * 1e3 / n;
    a.rows = {
        {"serve.engine", layers.engine_ns, "route_batch_into/distance_batch, offline at the run's batch size"},
        {"serve.route self", route_ns - layers.engine_ns - layers.wire_ns,
         "dispatch->route span less engine and word_from_wire"},
        {"serve.wire_decode", layers.wire_ns, "word_from_wire x2, offline"},
        {"serve.encode", layers.encode_ns, "encode_*_response, offline"},
        {"serve.respond self", respond_ns - layers.encode_ns,
         in_process ? "route->batch end span less encode: sink per reply, metrics"
                    : "route->batch end span less encode: send() per reply, metrics"},
        {"serve.batch turnover", turnover_cpu_us * 1e3 / n,
         "dispatcher CPU clock between serve_batch spans: queue pop, batch release"},
    };
    a.leftover = "dispatcher off the CPU between batches: waiting for requests or a CPU";
  } else {
    // Latency side: the median request, stage by stage. Medians of the
    // stages do not add up, so each row is the stage's mean over the
    // spanned requests between the 40th and 60th latency percentile.
    a.figure = "p50 client latency, us";
    a.untraced = u.p50;
    a.traced = t.p50;
    std::sort(stages.begin(), stages.end());
    std::array<double, 4> band{};
    const std::size_t lo = stages.size() * 2 / 5;
    const std::size_t hi = std::max(lo + 1, stages.size() * 3 / 5);
    for (std::size_t i = lo; i < hi && i < stages.size(); ++i) {
      for (std::size_t s = 0; s < band.size(); ++s) {
        band[s] += stages[i][s] / static_cast<double>(hi - lo);
      }
    }
    a.rows = {
        {"client codec", t.codec_ns / 1e3, "client frame build + reply handling per request"},
        {"serve.queue", band[1], "admit->dispatch, daemon span"},
        {"serve.route", band[2], "dispatch->route, daemon span"},
        {"serve.respond", band[3], "route->respond, daemon span"},
    };
    a.leftover = "serve.transport: sockets, wake-ups, replies held in the socket";
    result.note("trace.median_band_latency_us", band[0]);
  }
  return result;
}

int serve_selftest() {
  const Rng root(99);
  std::vector<Inputs> inputs;
  for (std::size_t c = 0; c < kConnections; ++c) {
    inputs.push_back(make_inputs(root.fork(c)));
  }
  Window w;
  {
    std::unique_ptr<Transport> transport =
        open_transport(/*in_process=*/true, daemon_config(false));
    if (transport == nullptr) {
      std::cout << "FAIL serve self-test: daemon set-up\n";
      return 1;
    }
    w = run_window(*transport, inputs, Load{}, 0.3, 99);
  }
  for (Inputs& in : inputs) {
    for (std::size_t i = 0; i < kPool; ++i) {
      in.oracle.push_back(undirected_distance(in.x[i], in.y[i]));
    }
  }
  std::map<std::string, std::uint64_t> tally;
  const std::uint64_t baseline = check_window(w, inputs, tally);
  int missed = baseline == 0 ? 0 : 1;
  std::cout << (baseline == 0 ? "ok   " : "FAIL ")
            << "serve: real replies all pass (" << w.clients[0].received
            << " on connection 0)\n";

  // Plant one wrong reply of each kind as an extra answered request; each
  // must raise the failure count by exactly one.
  ClientRun& run = w.clients[0];
  const Inputs& in = inputs[0];
  std::uint64_t expected = baseline;
  const auto plant = [&](RequestType type, const char* what,
                         const std::function<void(Response&)>& corrupt) {
    ++expected;
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::string* stored = run.answers.first(i);
      if (stored == nullptr || in.type[i] != type) {
        continue;
      }
      DecodedResponse d = decode_response(*stored);
      corrupt(d.response);
      std::string frame;
      if (type == RequestType::Route) {
        encode_route_response(0, RoutingPath(d.response.hops), frame);
      } else {
        encode_distance_response(0, d.response.distance, frame);
      }
      run.answers.record(i, frame.substr(4));
      ++run.sent;
      ++run.received;
      std::map<std::string, std::uint64_t> t;
      const std::uint64_t failed = check_window(w, inputs, t);
      const bool caught = failed == expected;
      std::cout << (caught ? "ok   " : "FAIL ") << "serve: " << what
                << " raises failures to " << failed << "\n";
      missed += caught ? 0 : 1;
      return;
    }
    std::cout << "FAIL serve: no " << what << " candidate\n";
    ++missed;
  };
  plant(RequestType::Route, "one extra hop",
        [](Response& r) { r.hops.push_back(Hop{ShiftType::Left, 0}); });
  plant(RequestType::Distance, "a distance off by one",
        [](Response& r) { r.distance += 1; });
  --run.received;  // a reply that never came back
  std::map<std::string, std::uint64_t> t;
  const std::uint64_t failed = check_window(w, inputs, t);
  const bool caught = failed == expected + 1 && t["unanswered"] == 1;
  std::cout << (caught ? "ok   " : "FAIL ") << "serve: a dropped reply raises "
            << "failures to " << failed << "\n";
  return missed + (caught ? 0 : 1);
}

}  // namespace perfbench
