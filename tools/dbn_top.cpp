// dbn_top — live terminal dashboard for a running `dbn serve`.
//
//   dbn_top (--port=N | --port-file=PATH) [--interval=MS] [--samples=N]
//           [--once] [--metrics-out=FILE] [--no-clear]
//
// Polls the server's Introspect probe (serve/1 RequestType::Introspect —
// answered inline on a reader thread, so the dashboard works even when the
// dispatcher is saturated) and renders what changed between probes: QPS,
// shed/error rates, p50/p99 latency over the *window* (differenced from
// the serve.latency_us histogram embedded in each probe), queue depth,
// inflight count, per-connection request shares with their Jain fairness
// index, and the slow-request log.
//
//   --interval=MS     poll period (default 1000)
//   --samples=N       exit after N probes (0 = run until the server goes
//                     away or SIGINT)
//   --once            one probe, plain print, exit (= --samples=1
//                     --no-clear); the CI smoke's mid-load scrape
//   --metrics-out=F   also issue a Stats request each probe and write the
//                     server's metrics/1 document to F verbatim (so
//                     scripts/check_metrics.py can validate a *live*
//                     snapshot, not a post-drain one)
//   --no-clear        append frames instead of redrawing (logs, CI)
//
// Exit status: 0 after the requested samples, 1 on connection or probe
// failure.
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "args.hpp"
#include "common/schema.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace dbn;
using namespace dbn::serve;
using Clock = std::chrono::steady_clock;

int connect_tcp(std::uint16_t port) {
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

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
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

/// One synchronous request/response round trip (the probe connection has
/// nothing else in flight, so the next frame is always our answer).
std::optional<Response> round_trip(int fd, FrameReader& reader,
                                   RequestType type, std::uint64_t id,
                                   int timeout_ms) {
  std::string frame;
  encode_control_request(type, id, frame);
  if (!send_all(fd, frame)) {
    return std::nullopt;
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string payload;
  char buf[64 * 1024];
  for (;;) {
    switch (reader.next(payload)) {
      case FrameReader::Result::Frame: {
        DecodedResponse decoded = decode_response(payload);
        if (decoded.error != DecodeError::None) {
          return std::nullopt;
        }
        return std::move(decoded.response);
      }
      case FrameReader::Result::Error:
        return std::nullopt;
      case FrameReader::Result::NeedMore:
        break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      return std::nullopt;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) {
      return std::nullopt;
    }
    if (ready <= 0) {
      continue;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return std::nullopt;
    }
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

/// A histogram as the probe's embedded metrics doc carries it.
struct HistogramState {
  std::vector<double> bounds;
  std::vector<double> buckets;  // bounds.size() + 1 (overflow last)
  double count = 0;
};

std::optional<HistogramState> find_histogram(const obs::JsonValue& metrics,
                                             std::string_view name) {
  const obs::JsonValue* entries = metrics.find("metrics");
  if (entries == nullptr || !entries->is_array()) {
    return std::nullopt;
  }
  for (const obs::JsonValue& entry : entries->items) {
    if (entry.string_at("name") != name) {
      continue;
    }
    const obs::JsonValue* bounds = entry.find("bounds");
    const obs::JsonValue* buckets = entry.find("buckets");
    if (bounds == nullptr || buckets == nullptr) {
      return std::nullopt;
    }
    HistogramState state;
    for (const obs::JsonValue& b : bounds->items) {
      state.bounds.push_back(b.number);
    }
    for (const obs::JsonValue& b : buckets->items) {
      state.buckets.push_back(b.number);
      state.count += b.number;
    }
    if (state.buckets.size() != state.bounds.size() + 1) {
      return std::nullopt;
    }
    return state;
  }
  return std::nullopt;
}

/// Percentile over bucketed counts, linear interpolation inside the
/// winning bucket; the open overflow bucket reports the top bound.
double histogram_percentile(const HistogramState& h, double q) {
  if (h.count <= 0) {
    return 0.0;
  }
  const double target = q * h.count;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double next = cumulative + h.buckets[i];
    if (next >= target && h.buckets[i] > 0) {
      if (i >= h.bounds.size()) {
        return h.bounds.back();
      }
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = h.bounds[i];
      const double frac = (target - cumulative) / h.buckets[i];
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

HistogramState histogram_delta(const HistogramState& now,
                               const HistogramState& before) {
  if (before.buckets.size() != now.buckets.size()) {
    return now;
  }
  HistogramState delta = now;
  delta.count = 0;
  for (std::size_t i = 0; i < now.buckets.size(); ++i) {
    delta.buckets[i] = now.buckets[i] - before.buckets[i];
    if (delta.buckets[i] < 0) {
      delta.buckets[i] = 0;  // registry reset between probes
    }
    delta.count += delta.buckets[i];
  }
  return delta;
}

double counter_value(const obs::JsonValue& metrics, std::string_view name) {
  const obs::JsonValue* entries = metrics.find("metrics");
  if (entries == nullptr || !entries->is_array()) {
    return 0.0;
  }
  for (const obs::JsonValue& entry : entries->items) {
    if (entry.string_at("name") == name) {
      return entry.number_at("count");
    }
  }
  return 0.0;
}

// One probe's parsed state, kept so the next frame can be differenced.
struct ProbeState {
  obs::JsonValue doc;
  Clock::time_point taken;
  std::optional<HistogramState> latency;
};

std::string ascii_spark(const std::deque<double>& values) {
  static constexpr std::string_view glyphs = " .:-=+*#%@";
  double peak = 0.0;
  for (const double v : values) {
    peak = std::max(peak, v);
  }
  std::string out;
  for (const double v : values) {
    const std::size_t level =
        peak <= 0.0 ? 0
                    : std::min(glyphs.size() - 1,
                               static_cast<std::size_t>(
                                   v / peak * static_cast<double>(
                                                  glyphs.size() - 1) +
                                   0.5));
    out.push_back(glyphs[level]);
  }
  return out;
}

double rate_per_s(double delta, double dt_s) {
  return dt_s > 0.0 ? delta / dt_s : 0.0;
}

void render(std::ostream& out, const ProbeState& now,
            const ProbeState* before, const std::deque<double>& qps_history,
            bool clear) {
  if (clear) {
    out << "\x1b[2J\x1b[H";
  }
  const obs::JsonValue& doc = now.doc;
  const obs::JsonValue* config = doc.find("config");
  const obs::JsonValue* stats = doc.find("stats");
  if (config == nullptr || stats == nullptr) {
    out << "dbn top: malformed probe\n";
    return;
  }
  const double uptime_s = doc.number_at("uptime_us") / 1e6;
  out << "dbn top — DN(" << config->number_at("d") << ","
      << config->number_at("k") << ") backend="
      << config->string_at("backend", "?")
      << " queue_capacity=" << config->number_at("queue_capacity")
      << " max_batch=" << config->number_at("max_batch") << " uptime="
      << static_cast<std::uint64_t>(uptime_s) << "s\n";

  double dt_s = 0.0;
  double qps = 0.0;
  double shed_rate = 0.0;
  double deflect_rate = 0.0;
  if (before != nullptr) {
    dt_s = std::chrono::duration<double>(now.taken - before->taken).count();
    const auto delta = [&](const char* field) {
      return stats->number_at(field) -
             before->doc.find("stats")->number_at(field);
    };
    qps = rate_per_s(delta("requests"), dt_s);
    shed_rate = rate_per_s(delta("rejected_overload"), dt_s);
    deflect_rate = rate_per_s(counter_value(*doc.find("metrics"),
                                            schema::metric::kSimDeflections) -
                                  counter_value(*before->doc.find("metrics"),
                                                schema::metric::kSimDeflections),
                              dt_s);
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "qps %.1f  shed/s %.1f  deflect/s %.1f  [%s]\n", qps,
                shed_rate, deflect_rate, ascii_spark(qps_history).c_str());
  out << line;
  out << "requests " << stats->number_at("requests") << "  ok "
      << stats->number_at("responses_ok") << "  shed "
      << stats->number_at("rejected_overload") << "  bad "
      << stats->number_at("rejected_bad_request") << "  draining "
      << stats->number_at("rejected_draining") << "  proto_err "
      << stats->number_at("protocol_errors") << "\n";

  // Latency over the window when we can difference, lifetime otherwise.
  if (now.latency) {
    HistogramState window = *now.latency;
    const char* scope = "lifetime";
    if (before != nullptr && before->latency) {
      window = histogram_delta(*now.latency, *before->latency);
      scope = "window";
    }
    std::snprintf(line, sizeof(line),
                  "latency (%s) p50 %.0fus  p99 %.0fus  samples %.0f\n",
                  scope, histogram_percentile(window, 0.50),
                  histogram_percentile(window, 0.99), window.count);
    out << line;
  }
  out << "queue " << doc.number_at("queue_depth") << "/"
      << config->number_at("queue_capacity") << "  inflight "
      << doc.number_at("inflight") << "  batches "
      << stats->number_at("batches") << "  slow "
      << stats->number_at("slow_requests") << "\n";

  const obs::JsonValue* conns = doc.find("connections");
  if (conns != nullptr && conns->is_array()) {
    std::snprintf(line, sizeof(line), "connections %zu  fairness %.3f\n",
                  conns->items.size(), doc.number_at("fairness", 1.0));
    out << line;
    for (const obs::JsonValue& conn : conns->items) {
      out << "  conn " << conn.number_at("id") << ": requests "
          << conn.number_at("requests") << "  responses "
          << conn.number_at("responses") << "\n";
    }
  }
  const obs::JsonValue* slow = doc.find("slow");
  if (slow != nullptr && slow->is_array() && !slow->items.empty()) {
    constexpr std::size_t kShown = 8;
    const std::size_t first =
        slow->items.size() > kShown ? slow->items.size() - kShown : 0;
    out << "slow log (" << slow->items.size() - first << " of "
        << slow->items.size() << " captured):\n";
    for (std::size_t i = first; i < slow->items.size(); ++i) {
      const obs::JsonValue& record = slow->items[i];
      std::snprintf(line, sizeof(line),
                    "  id %llu conn %.0f %s total %.0fus queue %.0fus "
                    "route %.0fus batch %.0f\n",
                    static_cast<unsigned long long>(
                        record.number_at("id")),
                    record.number_at("conn"),
                    std::string(record.string_at("type", "?")).c_str(),
                    record.number_at("total_us"),
                    record.number_at("queue_us"),
                    record.number_at("route_us"),
                    record.number_at("batch_size"));
      out << line;
    }
  }
  out.flush();
}

void usage(std::ostream& out) {
  out << "usage: dbn_top (--port=N | --port-file=PATH) "
         "[--interval=MS] [--samples=N] [--once] "
         "[--metrics-out=FILE] [--no-clear]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  std::uint16_t port = 0;
  std::string port_file;
  int interval_ms = 1000;
  std::uint64_t samples = 0;
  bool once = false;
  std::string metrics_out;
  bool no_clear = false;
  tools::ArgParser parser("dbn_top", 1, usage);
  parser.flag("--port", port)
      .flag("--port-file", port_file)
      .flag("--interval", interval_ms, tools::parse_positive<int>)
      .flag("--samples", samples)
      .flag("--once", once)
      .flag("--metrics-out", metrics_out)
      .flag("--no-clear", no_clear);
  if (const auto status = parser.parse(args)) {
    return *status;
  }
  if (port == 0 && port_file.empty()) {
    return parser.fail("need --port or --port-file");
  }
  if (port == 0) {
    const auto resolved = wait_for_port_file(port_file, 10000);
    if (!resolved) {
      std::cerr << "dbn top: no port file at " << port_file << "\n";
      return 1;
    }
    port = *resolved;
  }
  if (once) {
    samples = 1;
  }
  const bool clear = !once && !no_clear && ::isatty(STDOUT_FILENO) != 0;

  const int fd = connect_tcp(port);
  if (fd < 0) {
    std::cerr << "dbn top: cannot connect to 127.0.0.1:" << port << "\n";
    return 1;
  }

  FrameReader reader;
  std::optional<ProbeState> previous;
  std::deque<double> qps_history;
  std::uint64_t id = 1;
  int rc = 0;
  for (std::uint64_t taken = 0; samples == 0 || taken < samples; ++taken) {
    const auto response =
        round_trip(fd, reader, RequestType::Introspect, id++, 5000);
    if (!response || response->status != Status::Ok) {
      std::cerr << "dbn top: probe failed ("
                << (response ? status_name(response->status)
                             : std::string_view("no response"))
                << ")\n";
      rc = 1;
      break;
    }
    auto doc = obs::json_parse(response->body);
    if (!doc || doc->string_at("schema") != schema::kIntrospect) {
      std::cerr << "dbn top: probe body is not " << schema::kIntrospect
                << "\n";
      rc = 1;
      break;
    }
    ProbeState state;
    state.doc = std::move(*doc);
    state.taken = Clock::now();
    if (const obs::JsonValue* metrics = state.doc.find("metrics")) {
      state.latency = find_histogram(*metrics, "serve.latency_us");
    }
    if (previous) {
      const double dt_s =
          std::chrono::duration<double>(state.taken - previous->taken)
              .count();
      const double delta =
          state.doc.find("stats")->number_at("requests") -
          previous->doc.find("stats")->number_at("requests");
      qps_history.push_back(rate_per_s(delta, dt_s));
      while (qps_history.size() > 48) {
        qps_history.pop_front();
      }
    }
    render(std::cout, state, previous ? &*previous : nullptr, qps_history,
           clear);
    if (!metrics_out.empty()) {
      const auto stats_response =
          round_trip(fd, reader, RequestType::Stats, id++, 5000);
      if (stats_response && stats_response->status == Status::Ok) {
        std::ofstream out(metrics_out, std::ios::binary);
        out << stats_response->body;
      } else {
        std::cerr << "dbn top: stats probe failed\n";
        rc = 1;
        break;
      }
    }
    previous = std::move(state);
    if (samples == 0 || taken + 1 < samples) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  ::close(fd);
  return rc;
}
