// dbn_loadgen — deterministic load generator for `dbn serve`.
//
//   dbn_loadgen <d> <k> (--spawn=CMD | --port=N | --port-file=PATH)
//               [--requests=N] [--connections=C] [--inflight=W]
//               [--mode=closed|open] [--rate=R] [--seed=S]
//               [--distance-frac=F] [--stats] [--out=FILE]
//
// The workload is a pure function of (d, k, seed, requests, connections,
// distance-frac): connection c replays the query stream Rng(seed).fork(c),
// so two runs against any server answer the same questions in the same
// order. Responses are verified client-side — a Route response's hops are
// replayed from X (wildcards resolved to 0) and must land exactly on Y, a
// Distance response must equal the replayed route length's lower bound of
// 0 and never exceed the 2k undirected diameter bound.
//
// closed mode keeps at most --inflight requests outstanding per
// connection (steady-state benchmark shape); open mode fires at --rate
// requests/second per connection regardless of completions (backpressure
// probe — Overloaded responses are counted, not retried).
//
// --spawn runs the server as a child process speaking the protocol on its
// stdin/stdout (forces --connections=1), closes the child's stdin when the
// budget is spent, and requires the child to drain and exit 0.
//
// Results are NDJSON (schema "loadgen/1" via schema.hpp): one config line,
// one line per connection, with --stats one "server" line embedding the
// server's final metrics/1 snapshot verbatim, then one summary line with
// latency percentiles.
// Exit status is 0 only when every request was answered, every answer
// verified, and (with --spawn) the child exited cleanly.
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "args.hpp"
#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/schema.hpp"
#include "core/path.hpp"
#include "debruijn/word.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace dbn;
using namespace dbn::serve;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

// A bidirectional byte stream to the server: TCP socket or child pipes.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Blocking all-or-nothing write. False on a broken stream.
  virtual bool send_all(std::string_view bytes) = 0;

  /// Waits up to timeout_ms, then reads what is available.
  /// Returns bytes read (> 0), 0 on timeout, -1 on EOF, -2 on error.
  virtual int recv_some(char* buf, std::size_t cap, int timeout_ms) = 0;

  /// Half-close: signals end-of-requests (EOF drain for --spawn / --stdio
  /// servers, orderly shutdown for TCP).
  virtual void close_write() = 0;
};

int poll_then_read(int fd, char* buf, std::size_t cap, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    return errno == EINTR ? 0 : -2;
  }
  if (ready == 0) {
    return 0;
  }
  const ssize_t n = ::read(fd, buf, cap);
  if (n > 0) {
    return static_cast<int>(n);
  }
  if (n == 0) {
    return -1;
  }
  return errno == EINTR ? 0 : -2;
}

bool write_all(int fd, std::string_view bytes, bool nosignal) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        nosignal ? ::send(fd, bytes.data() + sent, bytes.size() - sent,
                          MSG_NOSIGNAL)
                 : ::write(fd, bytes.data() + sent, bytes.size() - sent);
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

class TcpEndpoint : public Endpoint {
 public:
  explicit TcpEndpoint(int fd) : fd_(fd) {}
  ~TcpEndpoint() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool send_all(std::string_view bytes) override {
    return write_all(fd_, bytes, /*nosignal=*/true);
  }
  int recv_some(char* buf, std::size_t cap, int timeout_ms) override {
    return poll_then_read(fd_, buf, cap, timeout_ms);
  }
  void close_write() override { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_;
};

/// The server as a child process: we hold its stdin (write) and stdout
/// (read); its stderr passes through for the smoke logs.
class SpawnEndpoint : public Endpoint {
 public:
  static std::unique_ptr<SpawnEndpoint> start(const std::string& command) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0) {
      return nullptr;
    }
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return nullptr;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      return nullptr;
    }
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      ::execl("/bin/sh", "sh", "-c", command.c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    auto endpoint = std::make_unique<SpawnEndpoint>();
    endpoint->pid_ = pid;
    endpoint->write_fd_ = to_child[1];
    endpoint->read_fd_ = from_child[0];
    ::close(to_child[0]);
    ::close(from_child[1]);
    return endpoint;
  }

  ~SpawnEndpoint() override {
    close_write();
    if (read_fd_ >= 0) {
      ::close(read_fd_);
    }
    (void)wait_child();
  }

  bool send_all(std::string_view bytes) override {
    return write_fd_ >= 0 && write_all(write_fd_, bytes, /*nosignal=*/false);
  }
  int recv_some(char* buf, std::size_t cap, int timeout_ms) override {
    return poll_then_read(read_fd_, buf, cap, timeout_ms);
  }
  void close_write() override {
    if (write_fd_ >= 0) {
      ::close(write_fd_);
      write_fd_ = -1;
    }
  }

  /// Reaps the child (once) and returns its exit status, or -1 when it
  /// died abnormally.
  int wait_child() {
    if (pid_ < 0) {
      return exit_status_;
    }
    int status = 0;
    if (::waitpid(pid_, &status, 0) == pid_) {
      exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    pid_ = -1;
    return exit_status_;
  }

 private:
  pid_t pid_ = -1;
  int write_fd_ = -1;
  int read_fd_ = -1;
  int exit_status_ = -1;
};

std::unique_ptr<Endpoint> connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<TcpEndpoint>(fd);
}

/// Polls for the server's --port-file (written atomically via rename).
std::optional<std::uint16_t> wait_for_port_file(const std::string& path,
                                                int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in && (in >> port) && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    if (Clock::now() >= deadline) {
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

struct Options {
  std::uint32_t d = 2;
  std::size_t k = 10;
  std::string spawn;
  std::uint16_t port = 0;
  std::string port_file;
  std::uint64_t requests = 1000;
  std::size_t connections = 1;
  std::size_t inflight = 32;
  bool open_loop = false;
  double rate = 1000.0;  // per connection, open mode
  std::uint64_t seed = 42;
  double distance_frac = 0.25;
  bool stats_probe = false;
  std::string out;
};

struct Outstanding {
  RequestType type = RequestType::Route;
  Word x{1, {0}};  // Word has no default ctor; overwritten before use
  Word y{1, {0}};
  Clock::time_point sent_at;
};

struct ConnResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t draining = 0;
  std::uint64_t bad = 0;
  std::uint64_t verify_failures = 0;
  bool transport_error = false;
  bool protocol_error = false;
  std::vector<std::uint64_t> latencies_us;
};

/// Replays a Route response from X; Ok iff the walk lands on Y. Wildcard
/// hops resolve to digit 0 — by construction a wildcard digit is shifted
/// out before the path ends, so any resolution must still reach Y.
bool verify_route(const Word& x, const Word& y, const std::vector<Hop>& hops,
                  std::size_t k) {
  if (hops.size() > 2 * k) {
    return false;
  }
  Word at = x;
  for (const Hop& h : hops) {
    const Digit digit = h.is_wildcard() ? 0 : h.digit;
    at = h.type == ShiftType::Left ? at.left_shift(digit)
                                   : at.right_shift(digit);
  }
  return at == y;
}

class Workload {
 public:
  Workload(const Options& options, std::size_t conn)
      : options_(options),
        rng_(Rng(options.seed).fork(conn)),
        vertices_(Word::vertex_count(options.d, options.k)) {}

  Outstanding next() {
    Outstanding q;
    q.type = rng_.uniform01() < options_.distance_frac ? RequestType::Distance
                                                       : RequestType::Route;
    q.x = Word::from_rank(options_.d, options_.k, rng_.below(vertices_));
    q.y = Word::from_rank(options_.d, options_.k, rng_.below(vertices_));
    return q;
  }

 private:
  const Options& options_;
  Rng rng_;
  std::uint64_t vertices_;
};

/// Drives one connection to completion (closed or open loop).
void run_connection(const Options& options, std::size_t conn,
                    Endpoint& endpoint, std::uint64_t budget,
                    ConnResult& result) {
  Workload workload(options, conn);
  FrameReader reader;
  std::unordered_map<std::uint64_t, Outstanding> outstanding;
  outstanding.reserve(options.inflight * 2);
  std::string frame;
  std::string payload;
  std::vector<char> buf(kReadChunk);
  std::uint64_t seq = 0;

  const auto send_next = [&]() -> bool {
    Outstanding q = workload.next();
    q.sent_at = Clock::now();
    const std::uint64_t id =
        (static_cast<std::uint64_t>(conn) << 48) | seq++;
    frame.clear();
    if (q.type == RequestType::Distance) {
      encode_distance_request(id, q.x, q.y, frame);
    } else {
      encode_route_request(id, q.x, q.y, frame);
    }
    if (!endpoint.send_all(frame)) {
      result.transport_error = true;
      return false;
    }
    outstanding.emplace(id, std::move(q));
    ++result.sent;
    return true;
  };

  const auto handle_payload = [&](std::string_view bytes) {
    const DecodedResponse decoded = decode_response(bytes);
    if (decoded.error != DecodeError::None) {
      result.protocol_error = true;
      return;
    }
    const Response& r = decoded.response;
    const auto it = outstanding.find(r.id);
    if (it == outstanding.end()) {
      result.protocol_error = true;  // answer for a question never asked
      return;
    }
    const Outstanding q = it->second;
    outstanding.erase(it);
    ++result.answered;
    result.latencies_us.push_back(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - q.sent_at)
                .count()));
    switch (r.status) {
      case Status::Ok:
        ++result.ok;
        if (r.type == RequestType::Route &&
            !verify_route(q.x, q.y, r.hops, options.k)) {
          ++result.verify_failures;
        }
        if (r.type == RequestType::Distance &&
            r.distance > 2 * options.k) {
          ++result.verify_failures;
        }
        break;
      case Status::Overloaded:
        ++result.overloaded;
        break;
      case Status::Draining:
        ++result.draining;
        break;
      default:
        ++result.bad;
        break;
    }
  };

  const auto pump_reads = [&](int timeout_ms) -> bool {
    const int n = endpoint.recv_some(buf.data(), buf.size(), timeout_ms);
    if (n == -1 || n == -2) {
      // EOF with answers still owed (or a hard error) is a failed run.
      if (!outstanding.empty() || result.sent < budget) {
        result.transport_error = true;
      }
      return false;
    }
    if (n > 0) {
      reader.feed(std::string_view(buf.data(), static_cast<std::size_t>(n)));
      for (;;) {
        const FrameReader::Result fr = reader.next(payload);
        if (fr == FrameReader::Result::Frame) {
          handle_payload(payload);
          continue;
        }
        if (fr == FrameReader::Result::Error) {
          result.protocol_error = true;
          return false;
        }
        break;
      }
    }
    return true;
  };

  if (!options.open_loop) {
    // Closed loop: keep the window full, block on responses.
    while (result.answered < budget && !result.transport_error &&
           !result.protocol_error) {
      while (result.sent < budget && outstanding.size() < options.inflight) {
        if (!send_next()) {
          break;
        }
      }
      if (result.transport_error || !pump_reads(1000)) {
        break;
      }
    }
  } else {
    // Open loop: fire on schedule; completions do not gate sends.
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / std::max(options.rate, 1e-6)));
    const Clock::time_point start = Clock::now();
    Clock::time_point next_send = start;
    while (result.sent < budget && !result.transport_error &&
           !result.protocol_error) {
      const Clock::time_point now = Clock::now();
      if (now >= next_send) {
        if (!send_next()) {
          break;
        }
        next_send += period;
        continue;
      }
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_send -
                                                                now)
              .count());
      if (!pump_reads(std::max(wait_ms, 1))) {
        break;
      }
    }
    while (!outstanding.empty() && !result.transport_error &&
           !result.protocol_error) {
      if (!pump_reads(1000)) {
        break;
      }
    }
  }
}

std::uint64_t percentile(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(rank + 0.5)];
}

void usage(std::ostream& out) {
  out << "usage: dbn_loadgen <d> <k> (--spawn=CMD | --port=N | "
         "--port-file=PATH)\n"
         "         [--requests=N] [--connections=C] [--inflight=W]\n"
         "         [--mode=closed|open] [--rate=R] [--seed=S]\n"
         "         [--distance-frac=F] [--stats] [--out=FILE]\n";
}

std::optional<bool> parse_open_loop(std::string_view mode) {
  if (mode == "open" || mode == "closed") {
    return mode == "open";
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  Options options;
  tools::ArgParser parser("dbn_loadgen", 1, usage);
  parser.positional("<d>", options.d)
      .positional("<k>", options.k)
      .flag("--spawn", options.spawn)
      .flag("--port", options.port)
      .flag("--port-file", options.port_file)
      .flag("--requests", options.requests)
      .flag("--connections", options.connections)
      .flag("--inflight", options.inflight)
      .flag("--mode", options.open_loop, parse_open_loop)
      .flag("--rate", options.rate, tools::parse_positive<double>)
      .flag("--seed", options.seed)
      .flag("--distance-frac", options.distance_frac)
      .flag("--stats", options.stats_probe)
      .flag("--out", options.out);
  if (const auto status = parser.parse(args)) {
    return *status;
  }
  options.inflight = std::max<std::size_t>(1, options.inflight);
  if (options.d < 2 || options.d > kMaxWireRadix || options.k == 0) {
    return parser.fail("<d> must be in [2, " + std::to_string(kMaxWireRadix) +
                       "] and <k> at least 1");
  }
  const bool spawn_mode = !options.spawn.empty();
  if (spawn_mode) {
    options.connections = 1;
  }
  if (options.connections == 0) {
    return parser.fail("--connections must be at least 1");
  }
  if (!spawn_mode && options.port == 0 && options.port_file.empty()) {
    return parser.fail("need --spawn, --port or --port-file");
  }

  std::ofstream out_file;
  if (!options.out.empty()) {
    out_file.open(options.out);
    if (!out_file) {
      std::cerr << "cannot open --out file: " << options.out << "\n";
      return 1;
    }
  }
  std::ostream& out = options.out.empty() ? std::cout : out_file;

  // Resolve the target and open one endpoint per connection.
  std::unique_ptr<SpawnEndpoint> spawned;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::uint16_t port = options.port;
  if (spawn_mode) {
    spawned = SpawnEndpoint::start(options.spawn);
    if (spawned == nullptr) {
      std::cerr << "failed to spawn: " << options.spawn << "\n";
      return 1;
    }
  } else {
    if (port == 0) {
      const auto resolved = wait_for_port_file(options.port_file, 10000);
      if (!resolved) {
        std::cerr << "timed out waiting for port file: " << options.port_file
                  << "\n";
        return 1;
      }
      port = *resolved;
    }
    for (std::size_t c = 0; c < options.connections; ++c) {
      auto endpoint = connect_tcp(port);
      if (endpoint == nullptr) {
        std::cerr << "cannot connect to 127.0.0.1:" << port << "\n";
        return 1;
      }
      endpoints.push_back(std::move(endpoint));
    }
  }

  out << "{\"schema\":\"" << schema::kLoadgen << "\",\"event\":\"config\""
      << ",\"d\":" << options.d << ",\"k\":" << options.k
      << ",\"requests\":" << options.requests
      << ",\"connections\":" << options.connections
      << ",\"inflight\":" << options.inflight << ",\"mode\":\""
      << (options.open_loop ? "open" : "closed") << "\",\"rate\":"
      << obs::json_number(options.rate) << ",\"seed\":" << options.seed
      << ",\"distance_frac\":" << obs::json_number(options.distance_frac)
      << "}\n";

  // Split the budget evenly; the first connections take the remainder.
  std::vector<std::uint64_t> budgets(options.connections,
                                     options.requests / options.connections);
  for (std::uint64_t i = 0; i < options.requests % options.connections; ++i) {
    budgets[static_cast<std::size_t>(i)] += 1;
  }

  std::vector<ConnResult> results(options.connections);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(options.connections);
    for (std::size_t c = 0; c < options.connections; ++c) {
      Endpoint& endpoint = spawn_mode ? *spawned : *endpoints[c];
      workers.emplace_back([&options, c, &endpoint, &budgets, &results] {
        run_connection(options, c, endpoint, budgets[c], results[c]);
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Optional stats probe: one Stats request on connection 0's endpoint,
  // checked to carry a metrics/1 snapshot. The body is kept and recorded
  // verbatim as an "event":"server" line, so a loadgen run's output holds
  // the server-side accounting next to the client-side view of the same
  // load (and check_metrics.py can validate it straight from this file).
  bool stats_ok = true;
  std::string server_metrics;
  if (options.stats_probe) {
    stats_ok = false;
    Endpoint& endpoint = spawn_mode ? *spawned : *endpoints[0];
    std::string frame;
    encode_control_request(RequestType::Stats, 0xFFFF'FFFF'FFFFull, frame);
    if (endpoint.send_all(frame)) {
      FrameReader reader;
      std::string payload;
      std::vector<char> buf(kReadChunk);
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(10);
      while (Clock::now() < deadline) {
        const int n = endpoint.recv_some(buf.data(), buf.size(), 200);
        if (n == -1 || n == -2) {
          break;
        }
        if (n > 0) {
          reader.feed(
              std::string_view(buf.data(), static_cast<std::size_t>(n)));
        }
        if (reader.next(payload) == FrameReader::Result::Frame) {
          const DecodedResponse decoded = decode_response(payload);
          stats_ok = decoded.error == DecodeError::None &&
                     decoded.response.status == Status::Ok &&
                     decoded.response.body.find(schema::kMetrics) !=
                         std::string::npos;
          if (stats_ok) {
            server_metrics = decoded.response.body;
            while (!server_metrics.empty() && server_metrics.back() == '\n') {
              server_metrics.pop_back();
            }
          }
          break;
        }
      }
    }
  }

  // Orderly half-close; --spawn additionally requires a clean child exit.
  for (const auto& endpoint : endpoints) {
    endpoint->close_write();
  }
  int child_exit = 0;
  if (spawn_mode) {
    spawned->close_write();
    child_exit = spawned->wait_child();
  }

  ConnResult total;
  std::vector<std::uint64_t> latencies;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const ConnResult& r = results[c];
    out << "{\"schema\":\"" << schema::kLoadgen << "\",\"event\":\"conn\""
        << ",\"conn\":" << c << ",\"sent\":" << r.sent
        << ",\"answered\":" << r.answered << ",\"ok\":" << r.ok
        << ",\"overloaded\":" << r.overloaded
        << ",\"draining\":" << r.draining << ",\"bad\":" << r.bad
        << ",\"verify_failures\":" << r.verify_failures
        << ",\"transport_error\":" << (r.transport_error ? "true" : "false")
        << ",\"protocol_error\":" << (r.protocol_error ? "true" : "false")
        << "}\n";
    total.sent += r.sent;
    total.answered += r.answered;
    total.ok += r.ok;
    total.overloaded += r.overloaded;
    total.draining += r.draining;
    total.bad += r.bad;
    total.verify_failures += r.verify_failures;
    total.transport_error = total.transport_error || r.transport_error;
    total.protocol_error = total.protocol_error || r.protocol_error;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps =
      elapsed_s > 0 ? static_cast<double>(total.answered) / elapsed_s : 0;
  const bool complete =
      total.sent == options.requests && total.answered == total.sent;
  const bool success = complete && total.verify_failures == 0 &&
                       total.bad == 0 && !total.transport_error &&
                       !total.protocol_error && child_exit == 0 && stats_ok;
  if (!server_metrics.empty()) {
    out << "{\"schema\":\"" << schema::kLoadgen << "\",\"event\":\"server\""
        << ",\"metrics\":" << server_metrics << "}\n";
  }
  out << "{\"schema\":\"" << schema::kLoadgen << "\",\"event\":\"summary\""
      << ",\"sent\":" << total.sent << ",\"answered\":" << total.answered
      << ",\"ok\":" << total.ok << ",\"overloaded\":" << total.overloaded
      << ",\"draining\":" << total.draining << ",\"bad\":" << total.bad
      << ",\"verify_failures\":" << total.verify_failures
      << ",\"elapsed_s\":" << obs::json_number(elapsed_s)
      << ",\"qps\":" << obs::json_number(qps)
      << ",\"latency_us\":{\"p50\":" << percentile(latencies, 50)
      << ",\"p90\":" << percentile(latencies, 90)
      << ",\"p99\":" << percentile(latencies, 99) << ",\"max\":"
      << (latencies.empty() ? 0 : latencies.back()) << "}"
      << ",\"stats_ok\":" << (stats_ok ? "true" : "false")
      << ",\"child_exit\":" << child_exit
      << ",\"success\":" << (success ? "true" : "false") << "}\n";
  out.flush();
  return success ? 0 : 1;
}
