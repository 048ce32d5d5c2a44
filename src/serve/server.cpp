#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "common/contract.hpp"
#include "common/schema.hpp"
#include "obs/trace.hpp"

namespace dbn::serve {

namespace {

// Upper-inclusive microsecond buckets for the serving latency histogram:
// p50/p99 are read off these offline (scripts/check_metrics.py, the CI
// serve-smoke job) and live (dbn_top differences successive probes).
std::vector<double> latency_bounds_us() {
  return {10,    20,    50,     100,    200,    500,    1000,   2000,
          5000,  10000, 20000,  50000,  100000, 200000, 500000, 1000000};
}

std::vector<double> batch_size_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

// Per-connection lifetime request counts (observed once, at close).
std::vector<double> conn_request_bounds() {
  return {1,    10,    100,    1000,    10000,    100000,
          1000000, 10000000, 100000000};
}

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

bool Connection::feed(std::string_view bytes) {
  if (failed_) {
    return false;
  }
  reader_.feed(bytes);
  std::string payload;
  for (;;) {
    switch (reader_.next(payload)) {
      case FrameReader::Result::NeedMore:
        return true;
      case FrameReader::Result::Error:
        failed_ = true;
        server_->note_protocol_error();
        return false;
      case FrameReader::Result::Frame:
        break;
    }
    const DecodedRequest decoded = decode_request(payload);
    const std::shared_ptr<Connection> self = shared_from_this();
    if (decoded.error != DecodeError::None) {
      // Frame-aligned but undecodable: the stream itself is still sound,
      // so answer BadRequest and keep the connection. The id is only
      // trustworthy when the header parsed.
      const std::uint64_t id =
          decoded.error == DecodeError::TruncatedHeader ? 0
                                                        : decoded.request.id;
      server_->reject_undecodable(self, id, decode_error_name(decoded.error));
      continue;
    }
    server_->admit(self, decoded.request);
  }
}

void Connection::close() {
  const MutexLock lock(write_mutex_);
  sink_ = nullptr;
  if (!closed_) {
    closed_ = true;
    server_->note_connection_closed(*this);
  }
}

bool Connection::clean() const {
  return !failed_ && reader_.pending_bytes() == 0;
}

void Connection::send(std::string_view frames) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  const MutexLock lock(write_mutex_);
  if (sink_) {
    sink_(frames);
  }
}

RouteServer::RouteServer(const ServeConfig& config)
    : config_(config),
      engine_(config.d, config.k,
              BatchRouteOptions{.backend = config.backend,
                                .threads = config.threads,
                                .chunk = 64,
                                .cache_entries = config.cache_entries,
                                .wildcard_mode = config.wildcard_mode,
                                // Serving traces at request granularity
                                // (sampled spans); the per-hop route tracer
                                // would fire for every query in every batch
                                // the moment a sink is installed.
                                .trace_routes = false}),
      sampler_(config.trace_sample, config.trace_seed),
      slow_log_(config.slow_us, config.slow_log_capacity),
      started_(std::chrono::steady_clock::now()) {
  DBN_REQUIRE(config_.d >= 1 && config_.d <= kMaxWireRadix,
              "serve wire digits are one byte; d must be in [1, 255]");
  DBN_REQUIRE(config_.k >= 1 && config_.k <= 0xFFFF,
              "serve wire k is 16-bit");
  DBN_REQUIRE(config_.queue_capacity >= 1, "queue capacity must be >= 1");
  DBN_REQUIRE(config_.max_batch >= 1, "max batch must be >= 1");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  metrics_requests_ = registry.counter("serve.requests");
  metrics_ok_ = registry.counter("serve.responses_ok");
  metrics_overload_ = registry.counter("serve.rejected_overload");
  metrics_bad_request_ = registry.counter("serve.rejected_bad_request");
  metrics_draining_ = registry.counter("serve.rejected_draining");
  metrics_protocol_errors_ = registry.counter("serve.protocol_errors");
  metrics_batches_ = registry.counter("serve.batches");
  metrics_connections_ = registry.counter("serve.connections");
  metrics_slow_ = registry.counter(schema::metric::kServeSlowRequests);
  metrics_batch_size_ =
      registry.histogram("serve.batch_size", batch_size_bounds());
  metrics_latency_us_ =
      registry.histogram("serve.latency_us", latency_bounds_us());
  metrics_conn_requests_ = registry.histogram(
      schema::metric::kServeConnRequests, conn_request_bounds());
  metrics_queue_depth_ = registry.gauge("serve.queue_depth");
  metrics_conn_active_ = registry.gauge(schema::metric::kServeConnActive);
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

RouteServer::~RouteServer() { wait_drained(); }

std::shared_ptr<Connection> RouteServer::connect(
    Connection::ResponseSink sink) {
  std::uint64_t id = 0;
  {
    const MutexLock lock(conns_mutex_);
    id = next_conn_id_++;
  }
  // make_shared needs a public constructor; Connection's is private so
  // every connection goes through this registration point.
  std::shared_ptr<Connection> conn(
      new Connection(this, id, std::move(sink)));  // dbn-lint: allow(raw-new) private ctor, immediately owned
  {
    const MutexLock lock(conns_mutex_);
    std::erase_if(conns_, [](const std::weak_ptr<Connection>& weak) {
      return weak.expired();
    });
    conns_.push_back(conn);
  }
  metrics_connections_.inc();
  metrics_conn_active_.add(1);
  return conn;
}

void RouteServer::note_connection_closed(const Connection& conn) {
  metrics_conn_active_.add(-1);
  metrics_conn_requests_.observe(static_cast<double>(conn.request_count()));
}

void RouteServer::begin_drain() {
  {
    const MutexLock lock(mutex_);
    draining_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
}

void RouteServer::wait_drained() {
  begin_drain();
  std::call_once(join_once_, [this] { dispatcher_.join(); });
}

ServeStats RouteServer::stats() const {
  const MutexLock lock(mutex_);
  return stats_;
}

std::size_t RouteServer::queue_depth() const {
  const MutexLock lock(mutex_);
  return queue_.size();
}

IntrospectSnapshot RouteServer::introspect() const {
  IntrospectSnapshot snap;
  {
    const MutexLock lock(mutex_);
    snap.stats = stats_;
    snap.queue_depth = queue_.size();
    snap.inflight = inflight_;
  }
  snap.uptime_us = elapsed_us(started_, std::chrono::steady_clock::now());
  {
    const MutexLock lock(conns_mutex_);
    snap.connections.reserve(conns_.size());
    for (const std::weak_ptr<Connection>& weak : conns_) {
      if (const std::shared_ptr<Connection> conn = weak.lock()) {
        snap.connections.push_back(ConnectionInfo{
            conn->id(), conn->request_count(), conn->response_count()});
      }
    }
  }
  snap.slow = slow_log_.records();
  return snap;
}

void RouteServer::note_protocol_error() {
  {
    const MutexLock lock(mutex_);
    ++stats_.protocol_errors;
  }
  metrics_protocol_errors_.inc();
}

void RouteServer::respond_error(const std::shared_ptr<Connection>& conn,
                                RequestType type, std::uint64_t id,
                                Status status, std::string_view message) {
  if (obs::tracing_enabled()) {
    obs::instant("serve_reject", "serve", obs::TraceClock::Wall,
                 obs::wall_ts_micros(),
                 {obs::targ("status", status_name(status)),
                  obs::targ("id", id)});
  }
  std::string frame;
  encode_error_response(type, status, id, message, frame);
  conn->send(frame);
}

void RouteServer::reject_undecodable(const std::shared_ptr<Connection>& conn,
                                     std::uint64_t id,
                                     std::string_view message) {
  {
    const MutexLock lock(mutex_);
    ++stats_.rejected_bad_request;
    ++stats_.rejected_undecodable;
  }
  metrics_bad_request_.inc();
  respond_error(conn, RequestType::Ping, id, Status::BadRequest, message);
}

void RouteServer::admit(const std::shared_ptr<Connection>& conn,
                        Request request) {
  conn->requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_requests_.inc();
  switch (request.type) {
    case RequestType::Ping:
    case RequestType::Stats:
    case RequestType::Introspect: {
      // Control requests answer inline on the reader thread — the probe
      // path stays responsive no matter how deep the routed queue is. The
      // request/response pair is counted in one lock hold *after* the
      // answer is built, so a concurrent probe never sees a half-counted
      // control request (and a probe's own snapshot excludes itself).
      std::string body;
      if (request.type == RequestType::Stats) {
        body = obs::MetricsRegistry::global().snapshot().to_json();
      } else if (request.type == RequestType::Introspect) {
        body = introspect_json(*this);
      }
      std::string frame;
      encode_ok_response(request.type, request.id, body, frame);
      conn->send(frame);
      {
        const MutexLock lock(mutex_);
        ++stats_.requests;
        ++stats_.responses_ok;
      }
      metrics_ok_.inc();
      return;
    }
    case RequestType::Route:
    case RequestType::Distance:
      break;
  }
  obs::Span span;
  if (obs::tracing_enabled() && sampler_.sampled(request.id)) {
    span = obs::Span::begin("serve_request", "serve", obs::TraceClock::Wall,
                            obs::wall_ts_micros());
    span.arg(obs::targ("id", request.id));
    span.arg(obs::targ("conn", conn->id()));
    span.arg(obs::targ("type", request.type == RequestType::Route
                                   ? "route"
                                   : "distance"));
    span.instant("admit", obs::wall_ts_micros());
  }
  // Admission for routed work happens under the queue mutex so the
  // draining check, the push, and the counter movement are one atomic
  // transition — an admitted request is always answered, and any locked
  // reader sees requests == answered + queued + inflight balance.
  enum class Verdict { Accepted, Overloaded, Draining };
  Verdict verdict = Verdict::Accepted;
  const RequestType type = request.type;
  const std::uint64_t id = request.id;
  {
    const MutexLock lock(mutex_);
    ++stats_.requests;
    if (draining_.load(std::memory_order_relaxed)) {
      verdict = Verdict::Draining;
      ++stats_.rejected_draining;
    } else if (queue_.size() >= config_.queue_capacity) {
      verdict = Verdict::Overloaded;
      ++stats_.rejected_overload;
    } else {
      queue_.push_back(Pending{conn, std::move(request),
                               std::chrono::steady_clock::now(),
                               std::move(span)});
      metrics_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  switch (verdict) {
    case Verdict::Accepted:
      queue_cv_.notify_one();
      return;
    case Verdict::Overloaded:
      metrics_overload_.inc();
      if (span) {
        span.arg(obs::targ("status", status_name(Status::Overloaded)));
        span.end(obs::wall_ts_micros());
      }
      respond_error(conn, type, id, Status::Overloaded,
                    "request queue full");
      return;
    case Verdict::Draining:
      metrics_draining_.inc();
      if (span) {
        span.arg(obs::targ("status", status_name(Status::Draining)));
        span.end(obs::wall_ts_micros());
      }
      respond_error(conn, type, id, Status::Draining, "server is draining");
      return;
  }
}

void RouteServer::dispatcher_main() {
  std::vector<Pending> batch;
  BatchScratch scratch;
  for (;;) {
    batch.clear();
    {
      RelockableLock lock(mutex_);
      // Explicit wait loop (not the predicate overload): the analysis
      // checks this function's body with mutex_ held, which a predicate
      // lambda would need its own REQUIRES annotation to express.
      while (queue_.empty() && !draining_.load(std::memory_order_relaxed)) {
        queue_cv_.wait(lock);
      }
      if (queue_.empty()) {
        return;  // draining and nothing left: exit
      }
      while (!queue_.empty() && batch.size() < config_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += batch.size();
      metrics_queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    }
    process_batch(batch, scratch);
  }
}

void RouteServer::process_batch(std::vector<Pending>& batch,
                                BatchScratch& scratch) {
  const bool traced = obs::tracing_enabled();
  const auto dispatched = std::chrono::steady_clock::now();
  obs::Span span;
  if (traced) {
    const double now_us = obs::wall_ts_micros();
    span = obs::Span::begin("serve_batch", "serve", obs::TraceClock::Wall,
                            now_us);
    span.arg(obs::targ("size", static_cast<std::uint64_t>(batch.size())));
    for (Pending& pending : batch) {
      if (pending.span) {
        pending.span.instant("dispatch", now_us);
      }
    }
  }
  // Wire-validate and partition into the engine's two batch shapes. A slot
  // of -1 marks a request answered as BadRequest below.
  scratch.route_queries.clear();
  scratch.route_slots.clear();
  scratch.distance_queries.clear();
  scratch.distance_slots.clear();
  scratch.slot_of.assign(batch.size(), -1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i].request;
    if (request.x.size() != config_.k || request.y.size() != config_.k) {
      continue;
    }
    const std::optional<Word> x = word_from_wire(config_.d, request.x);
    const std::optional<Word> y = word_from_wire(config_.d, request.y);
    if (!x || !y) {
      continue;
    }
    if (request.type == RequestType::Route) {
      scratch.slot_of[i] = static_cast<int>(scratch.route_queries.size());
      scratch.route_queries.push_back(RouteQuery{*x, *y});
      scratch.route_slots.push_back(i);
    } else {
      scratch.slot_of[i] = static_cast<int>(scratch.distance_queries.size());
      scratch.distance_queries.push_back(RouteQuery{*x, *y});
      scratch.distance_slots.push_back(i);
    }
  }
  if (!scratch.route_queries.empty()) {
    engine_.route_batch_into(scratch.route_queries, scratch.paths);
  }
  if (!scratch.distance_queries.empty()) {
    scratch.distances = engine_.distance_batch(scratch.distance_queries);
  }
  const auto routed = std::chrono::steady_clock::now();
  const double route_us = elapsed_us(dispatched, routed);
  if (traced) {
    const double now_us = obs::wall_ts_micros();
    for (Pending& pending : batch) {
      if (pending.span) {
        pending.span.instant("route", now_us);
      }
    }
  }
  // Answer in admission order; per-connection responses therefore arrive
  // in the order the requests were accepted.
  std::uint64_t n_ok = 0;
  std::uint64_t n_bad = 0;
  std::uint64_t n_slow = 0;
  std::string frame;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& pending = batch[i];
    const Request& request = pending.request;
    const bool bad = scratch.slot_of[i] < 0;
    if (bad) {
      ++n_bad;
      respond_error(pending.conn, request.type, request.id,
                    Status::BadRequest, "word does not name a vertex");
    } else {
      frame.clear();
      const auto slot = static_cast<std::size_t>(scratch.slot_of[i]);
      if (request.type == RequestType::Route) {
        encode_route_response(request.id, scratch.paths[slot], frame);
      } else {
        encode_distance_response(
            request.id, static_cast<std::uint32_t>(scratch.distances[slot]),
            frame);
      }
      pending.conn->send(frame);
      ++n_ok;
    }
    // Stamped after the frame went to the sink, so the latency covers
    // encoding and the write (a client that stalls its socket shows here).
    const double waited_us =
        elapsed_us(pending.enqueued, std::chrono::steady_clock::now());
    metrics_latency_us_.observe(waited_us);
    if (slow_log_.note(SlowRecord{request.id, pending.conn->id(),
                                  request.type, waited_us,
                                  elapsed_us(pending.enqueued, dispatched),
                                  route_us, batch.size()})) {
      ++n_slow;
      metrics_slow_.inc();
      if (pending.span) {
        pending.span.instant("slow", obs::wall_ts_micros());
      }
    }
    if (pending.span) {
      const double now_us = obs::wall_ts_micros();
      pending.span.instant("respond", now_us);
      pending.span.arg(obs::targ(
          "status", status_name(bad ? Status::BadRequest : Status::Ok)));
      pending.span.arg(obs::targ("latency_us", waited_us));
      pending.span.arg(
          obs::targ("batch", static_cast<std::uint64_t>(batch.size())));
      pending.span.end(now_us);
    }
  }
  {
    const MutexLock lock(mutex_);
    stats_.responses_ok += n_ok;
    stats_.rejected_bad_request += n_bad;
    stats_.slow_requests += n_slow;
    ++stats_.batches;
    inflight_ -= batch.size();
  }
  metrics_ok_.inc(n_ok);
  metrics_bad_request_.inc(n_bad);
  metrics_batches_.inc();
  metrics_batch_size_.observe(static_cast<double>(batch.size()));
  if (span) {
    span.end(obs::wall_ts_micros());
  }
}

}  // namespace dbn::serve
