#include "serve/server.hpp"

#include <algorithm>
#include <span>
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
  const std::shared_ptr<Connection> self = shared_from_this();
  for (;;) {
    const FrameReader::Result next = reader_.next(payload_);
    if (next != FrameReader::Result::Frame) {
      server_->admit(self);
      if (next == FrameReader::Result::NeedMore) {
        return true;
      }
      failed_ = true;
      server_->note_protocol_error();
      return false;
    }
    if (admitting_count_ == admitting_.size()) {
      admitting_.emplace_back();
    }
    Decoded& decoded = admitting_[admitting_count_];
    Request& request = decoded.request;
    const DecodeError error =
        decode_request(payload_, request, server_->config_.k);
    if (error != DecodeError::None) {
      // Frame-aligned but undecodable: the stream itself is still sound,
      // so answer BadRequest and keep the connection. The id is only
      // trustworthy when the header parsed.
      const std::uint64_t id =
          error == DecodeError::TruncatedHeader ? 0 : request.id;
      server_->reject_undecodable(*this, id, decode_error_name(error));
      continue;
    }
    if (request.type != RequestType::Route &&
        request.type != RequestType::Distance) {
      // The routed requests decoded before a control request are admitted
      // first, so an Introspect probe counts them.
      server_->admit(self);
      server_->answer_control(*this, request);
      continue;
    }
    server_->begin_request_span(*this, request, decoded.span);
    if (++admitting_count_ == server_->config_.max_batch) {
      server_->admit(self);
    }
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

void Connection::send(std::string_view frames, std::uint64_t count) {
  responses_.fetch_add(count, std::memory_order_relaxed);
  const MutexLock lock(write_mutex_);
  if (sink_) {
    sink_(frames);
    server_->metrics_writes_.inc();
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
      started_(std::chrono::steady_clock::now()),
      ring_size_(config.queue_capacity + config.max_batch) {
  DBN_REQUIRE(config_.d >= 1 && config_.d <= kMaxWireRadix,
              "serve wire digits are one byte; d must be in [1, 255]");
  DBN_REQUIRE(config_.k >= 1 && config_.k <= 0xFFFF,
              "serve wire k is 16-bit");
  DBN_REQUIRE(config_.queue_capacity >= 1, "queue capacity must be >= 1");
  DBN_REQUIRE(config_.max_batch >= 1, "max batch must be >= 1");
  DBN_REQUIRE(ring_size_ > config_.queue_capacity,
              "queue capacity + max batch must fit in size_t");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  metrics_requests_ = registry.counter("serve.requests");
  metrics_ok_ = registry.counter("serve.responses_ok");
  metrics_overload_ = registry.counter("serve.rejected_overload");
  metrics_bad_request_ = registry.counter("serve.rejected_bad_request");
  metrics_draining_ = registry.counter("serve.rejected_draining");
  metrics_protocol_errors_ = registry.counter("serve.protocol_errors");
  metrics_batches_ = registry.counter("serve.batches");
  metrics_writes_ = registry.counter("serve.writes");
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
  return queued_;
}

IntrospectSnapshot RouteServer::introspect() const {
  IntrospectSnapshot snap;
  {
    const MutexLock lock(mutex_);
    snap.stats = stats_;
    snap.queue_depth = queued_;
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

void RouteServer::encode_error(RequestType type, std::uint64_t id,
                               Status status, std::string_view message,
                               std::string& out) {
  if (obs::tracing_enabled()) {
    obs::instant("serve_reject", "serve", obs::TraceClock::Wall,
                 obs::wall_ts_micros(),
                 {obs::targ("status", status_name(status)),
                  obs::targ("id", id)});
  }
  encode_error_response(type, status, id, message, out);
}

void RouteServer::reject_undecodable(Connection& conn, std::uint64_t id,
                                     std::string_view message) {
  {
    const MutexLock lock(mutex_);
    ++stats_.rejected_bad_request;
    ++stats_.rejected_undecodable;
  }
  metrics_bad_request_.inc();
  conn.replies_.clear();
  encode_error(RequestType::Ping, id, Status::BadRequest, message,
               conn.replies_);
  conn.send(conn.replies_, 1);
}

void RouteServer::answer_control(Connection& conn, const Request& request) {
  conn.requests_.fetch_add(1, std::memory_order_relaxed);
  metrics_requests_.inc();
  // Control requests answer inline on the reader thread — the probe path
  // stays responsive no matter how deep the routed queue is. The
  // request/response pair is counted in one lock hold *after* the answer
  // is built, so a concurrent probe never sees a half-counted control
  // request (and a probe's own snapshot excludes itself).
  std::string body;
  if (request.type == RequestType::Stats) {
    body = obs::MetricsRegistry::global().snapshot().to_json();
  } else if (request.type == RequestType::Introspect) {
    body = introspect_json(*this);
  }
  conn.replies_.clear();
  encode_ok_response(request.type, request.id, body, conn.replies_);
  conn.send(conn.replies_, 1);
  {
    const MutexLock lock(mutex_);
    ++stats_.requests;
    ++stats_.responses_ok;
  }
  metrics_ok_.inc();
}

void RouteServer::begin_request_span(const Connection& conn,
                                     const Request& request,
                                     obs::Span& span) const {
  if (obs::tracing_enabled() && sampler_.sampled(request.id)) {
    span = obs::Span::begin("serve_request", "serve", obs::TraceClock::Wall,
                            obs::wall_ts_micros());
    span.arg(obs::targ("id", request.id));
    span.arg(obs::targ("conn", conn.id()));
    span.arg(obs::targ("type", request.type == RequestType::Route
                                   ? "route"
                                   : "distance"));
    span.instant("admit", obs::wall_ts_micros());
  }
}

void RouteServer::admit(const std::shared_ptr<Connection>& conn_ref) {
  Connection& conn = *conn_ref;
  const std::size_t count = std::exchange(conn.admitting_count_, 0);
  if (count == 0) {
    return;
  }
  const std::span<Connection::Decoded> admitting(conn.admitting_.data(),
                                                 count);
  conn.requests_.fetch_add(count, std::memory_order_relaxed);
  metrics_requests_.inc(count);
  // Admission happens under the queue mutex so each request's draining
  // check, its copy into a slot and the counter movement are one atomic
  // transition — an admitted request is always answered, and any locked
  // reader sees requests == answered + queued + inflight balance. The
  // checks run per request, in order; the draining flag cannot change and
  // the queue cannot shrink during the hold, so the first refusal refuses
  // the rest.
  std::size_t accepted = 0;
  bool draining = false;
  {
    const MutexLock lock(mutex_);
    draining = draining_.load(std::memory_order_relaxed);
    const auto enqueued = std::chrono::steady_clock::now();
    for (Connection::Decoded& decoded : admitting) {
      if (draining || queued_ >= config_.queue_capacity) {
        break;
      }
      std::size_t at = head_ + queued_;
      at -= at >= ring_size_ ? ring_size_ : 0;
      if (at == slots_.size()) {
        slots_.emplace_back();  // first use of this ring position
      }
      Slot& slot = slots_[at];
      slot.conn = conn_ref;
      slot.request = decoded.request;  // copies into the slot's storage
      slot.enqueued = enqueued;
      if (decoded.span) {
        slot.span = std::move(decoded.span);
      }
      ++queued_;
      ++accepted;
    }
    stats_.requests += count;
    (draining ? stats_.rejected_draining : stats_.rejected_overload) +=
        count - accepted;
    metrics_queue_depth_.set(static_cast<std::int64_t>(queued_));
  }
  if (accepted > 0) {
    queue_cv_.notify_one();
  }
  const std::size_t refused = count - accepted;
  if (refused > 0) {
    const Status status = draining ? Status::Draining : Status::Overloaded;
    const std::string_view message =
        draining ? "server is draining" : "request queue full";
    (draining ? metrics_draining_ : metrics_overload_).inc(refused);
    conn.replies_.clear();
    for (Connection::Decoded& decoded : admitting.subspan(accepted)) {
      if (decoded.span) {
        decoded.span.arg(obs::targ("status", status_name(status)));
        decoded.span.end(obs::wall_ts_micros());
      }
      encode_error(decoded.request.type, decoded.request.id, status, message,
                   conn.replies_);
    }
    conn.send(conn.replies_, refused);
  }
}

void RouteServer::dispatcher_main() {
  BatchScratch scratch;
  scratch.latency_counts.assign(latency_bounds_us().size() + 1, 0);
  for (;;) {
    scratch.batch.clear();
    {
      RelockableLock lock(mutex_);
      // Explicit wait loop (not the predicate overload): the analysis
      // checks this function's body with mutex_ held, which a predicate
      // lambda would need its own REQUIRES annotation to express.
      while (queued_ == 0 && !draining_.load(std::memory_order_relaxed)) {
        queue_cv_.wait(lock);
      }
      if (queued_ == 0) {
        return;  // draining and nothing left: exit
      }
      const std::size_t n = std::min(queued_, config_.max_batch);
      for (std::size_t i = 0; i < n; ++i) {
        scratch.batch.push_back(&slots_[head_]);
        head_ = head_ + 1 == ring_size_ ? 0 : head_ + 1;
      }
      queued_ -= n;
      inflight_ += n;
      metrics_queue_depth_.set(static_cast<std::int64_t>(queued_));
    }
    process_batch(scratch);
  }
}

void RouteServer::process_batch(BatchScratch& scratch) {
  const std::vector<Slot*>& batch = scratch.batch;
  const bool traced = obs::tracing_enabled();
  const auto dispatched = std::chrono::steady_clock::now();
  obs::Span span;
  if (traced) {
    const double now_us = obs::wall_ts_micros();
    span = obs::Span::begin("serve_batch", "serve", obs::TraceClock::Wall,
                            now_us);
    span.arg(obs::targ("size", static_cast<std::uint64_t>(batch.size())));
    for (Slot* slot : batch) {
      if (slot->span) {
        slot->span.instant("dispatch", now_us);
      }
    }
  }
  // Wire-validate each request's digits in the pass that loads them into
  // the words of the engine's two batch shapes. slot_of[i] is request i's
  // index in its shape; -1 marks a request answered as BadRequest below.
  std::size_t routes = 0;
  std::size_t distances = 0;
  scratch.slot_of.assign(batch.size(), -1);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i]->request;
    if (request.x.size() != config_.k || request.y.size() != config_.k) {
      continue;
    }
    const bool route = request.type == RequestType::Route;
    std::vector<RouteQuery>& shape =
        route ? scratch.route_queries : scratch.distance_queries;
    std::size_t& used = route ? routes : distances;
    if (used == shape.size()) {
      shape.push_back(RouteQuery{Word::zero(config_.d, config_.k),
                                 Word::zero(config_.d, config_.k)});
    }
    RouteQuery& query = shape[used];
    if (query.x.try_assign(request.x) && query.y.try_assign(request.y)) {
      scratch.slot_of[i] = static_cast<int>(used++);
    }
  }
  if (routes > 0) {
    if (scratch.paths.size() < routes) {
      scratch.paths.resize(routes);
    }
    engine_.route_batch_into(
        std::span<const RouteQuery>(scratch.route_queries).first(routes),
        std::span<RoutingPath>(scratch.paths).first(routes));
  }
  if (distances > 0) {
    engine_.distance_batch_into(
        std::span<const RouteQuery>(scratch.distance_queries).first(distances),
        scratch.distances);
  }
  const auto routed = std::chrono::steady_clock::now();
  const double route_us = elapsed_us(dispatched, routed);
  if (traced) {
    const double now_us = obs::wall_ts_micros();
    for (Slot* slot : batch) {
      if (slot->span) {
        slot->span.instant("route", now_us);
      }
    }
  }
  // Encode every answer in admission order into its connection's outbound
  // buffer, so each connection's answers arrive in the order its requests
  // were accepted.
  std::uint64_t n_bad = 0;
  scratch.writers.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i]->request;
    Connection& conn = *batch[i]->conn;
    if (conn.outbound_frames_++ == 0) {
      scratch.writers.push_back(&conn);
    }
    if (scratch.slot_of[i] < 0) {
      ++n_bad;
      encode_error(request.type, request.id, Status::BadRequest,
                   "word does not name a vertex", conn.outbound_);
      continue;
    }
    const auto at = static_cast<std::size_t>(scratch.slot_of[i]);
    if (request.type == RequestType::Route) {
      encode_route_response(request.id, scratch.paths[at], conn.outbound_);
    } else {
      encode_distance_response(
          request.id, static_cast<std::uint32_t>(scratch.distances[at]),
          conn.outbound_);
    }
  }
  for (Connection* conn : scratch.writers) {
    conn->send(conn->outbound_, conn->outbound_frames_);
    conn->written_ = std::chrono::steady_clock::now();
    conn->written_us_ = traced ? obs::wall_ts_micros() : 0.0;
    conn->outbound_.clear();
    conn->outbound_frames_ = 0;
  }
  // Each latency stops when its connection's write returned, so it covers
  // encoding and the write (a client that stalls its socket shows here).
  // The histogram takes the whole batch at once; each slot is released
  // here, its connection reference dropped before the closing lock hold.
  std::uint64_t n_slow = 0;
  double latency_sum_us = 0.0;
  const bool slow_log = slow_log_.threshold_us() > 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& slot = *batch[i];
    const Connection& conn = *slot.conn;
    const Request& request = slot.request;
    const double waited_us = elapsed_us(slot.enqueued, conn.written_);
    ++scratch.latency_counts[metrics_latency_us_.bucket(waited_us)];
    latency_sum_us += waited_us;
    if (slow_log &&
        slow_log_.note(SlowRecord{request.id, conn.id(), request.type,
                                  waited_us,
                                  elapsed_us(slot.enqueued, dispatched),
                                  route_us, batch.size()})) {
      ++n_slow;
      metrics_slow_.inc();
      if (slot.span) {
        slot.span.instant("slow", conn.written_us_);
      }
    }
    if (slot.span) {
      const bool bad = scratch.slot_of[i] < 0;
      slot.span.instant("respond", conn.written_us_);
      slot.span.arg(obs::targ(
          "status", status_name(bad ? Status::BadRequest : Status::Ok)));
      slot.span.arg(obs::targ("latency_us", waited_us));
      slot.span.arg(
          obs::targ("batch", static_cast<std::uint64_t>(batch.size())));
      slot.span.end(conn.written_us_);
    }
    slot.conn.reset();
  }
  metrics_latency_us_.merge(scratch.latency_counts, latency_sum_us);
  std::fill(scratch.latency_counts.begin(), scratch.latency_counts.end(), 0);
  const std::uint64_t n_ok = batch.size() - n_bad;
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
