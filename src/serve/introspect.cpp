#include "serve/introspect.hpp"

#include <sstream>

#include "common/schema.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace dbn::serve {

namespace {

// splitmix64 finalizer: the sampling decision is a stateless hash, so it
// is identical on every thread and every run with the same seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string_view request_type_name(RequestType type) {
  switch (type) {
    case RequestType::Route:
      return "route";
    case RequestType::Distance:
      return "distance";
    case RequestType::Ping:
      return "ping";
    case RequestType::Stats:
      return "stats";
    case RequestType::Introspect:
      return "introspect";
  }
  return "unknown";
}

}  // namespace

bool TraceSampler::sampled(std::uint64_t id) const {
  if (every_ == 0) {
    return false;
  }
  if (every_ == 1) {
    return true;
  }
  return mix64(seed_ ^ mix64(id)) % every_ == 0;
}

bool SlowLog::note(const SlowRecord& record) {
  if (threshold_us_ <= 0.0 || record.total_us < threshold_us_) {
    return false;
  }
  const MutexLock lock(mutex_);
  ++total_;
  ring_.push_back(record);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
  }
  return true;
}

std::uint64_t SlowLog::total() const {
  const MutexLock lock(mutex_);
  return total_;
}

std::vector<SlowRecord> SlowLog::records() const {
  const MutexLock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

double jain_fairness_index(const std::vector<std::uint64_t>& counts) {
  double total = 0.0;
  double total_squares = 0.0;
  for (const std::uint64_t count : counts) {
    const auto v = static_cast<double>(count);
    total += v;
    total_squares += v * v;
  }
  if (counts.empty() || total_squares <= 0.0) {
    return 1.0;
  }
  return (total * total) /
         (static_cast<double>(counts.size()) * total_squares);
}

std::string introspect_json(const RouteServer& server) {
  using obs::json_number;
  const ServeConfig& config = server.config();
  const IntrospectSnapshot snap = server.introspect();

  std::ostringstream out;
  out << "{\"schema\":\"" << schema::kIntrospect << "\"";
  out << ",\"config\":{\"d\":" << config.d << ",\"k\":" << config.k
      << ",\"backend\":\"" << batch_backend_name(config.backend)
      << "\",\"threads\":" << config.threads
      << ",\"queue_capacity\":" << config.queue_capacity
      << ",\"max_batch\":" << config.max_batch
      << ",\"cache_entries\":" << config.cache_entries << ",\"wildcards\":"
      << (config.wildcard_mode == WildcardMode::Wildcards ? "true" : "false")
      << ",\"trace_sample\":" << config.trace_sample
      << ",\"trace_seed\":" << config.trace_seed
      << ",\"slow_us\":" << json_number(config.slow_us) << "}";
  out << ",\"uptime_us\":" << json_number(snap.uptime_us);
  const ServeStats& stats = snap.stats;
  out << ",\"stats\":{\"requests\":" << stats.requests
      << ",\"responses_ok\":" << stats.responses_ok
      << ",\"rejected_overload\":" << stats.rejected_overload
      << ",\"rejected_bad_request\":" << stats.rejected_bad_request
      << ",\"rejected_undecodable\":" << stats.rejected_undecodable
      << ",\"rejected_draining\":" << stats.rejected_draining
      << ",\"protocol_errors\":" << stats.protocol_errors
      << ",\"batches\":" << stats.batches
      << ",\"slow_requests\":" << stats.slow_requests << "}";
  out << ",\"queue_depth\":" << snap.queue_depth
      << ",\"inflight\":" << snap.inflight;

  std::vector<std::uint64_t> shares;
  shares.reserve(snap.connections.size());
  out << ",\"connections\":[";
  for (std::size_t i = 0; i < snap.connections.size(); ++i) {
    const ConnectionInfo& conn = snap.connections[i];
    shares.push_back(conn.requests);
    if (i != 0) {
      out << ",";
    }
    out << "{\"id\":" << conn.id << ",\"requests\":" << conn.requests
        << ",\"responses\":" << conn.responses << "}";
  }
  out << "],\"fairness\":" << json_number(jain_fairness_index(shares));

  out << ",\"slow\":[";
  for (std::size_t i = 0; i < snap.slow.size(); ++i) {
    const SlowRecord& slow = snap.slow[i];
    if (i != 0) {
      out << ",";
    }
    out << "{\"id\":" << slow.id << ",\"conn\":" << slow.conn
        << ",\"type\":\"" << request_type_name(slow.type)
        << "\",\"total_us\":" << json_number(slow.total_us)
        << ",\"queue_us\":" << json_number(slow.queue_us)
        << ",\"route_us\":" << json_number(slow.route_us)
        << ",\"batch_size\":" << slow.batch_size << "}";
  }
  out << "]";

  // Embedded verbatim, so a probe client can hand this member to anything
  // that already reads metrics/1 documents (to_json ends in \n; strip it).
  std::string metrics = obs::MetricsRegistry::global().snapshot().to_json();
  while (!metrics.empty() && metrics.back() == '\n') {
    metrics.pop_back();
  }
  out << ",\"metrics\":" << metrics << "}\n";
  return out.str();
}

}  // namespace dbn::serve
