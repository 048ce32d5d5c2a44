// RouteServer — the long-running serving core behind `dbn serve`.
//
// The server owns one BatchRouteEngine (chunked ThreadPool, per-worker
// BidirectionalRouteEngine arenas and memos) and turns it from a batch
// API into a daemon:
//
//   reader threads ──feed()──> bounded request queue ──> dispatcher thread
//                                                           │ micro-batches
//                                                           ▼
//                                                   BatchRouteEngine
//                                                           │ responses
//                                                           ▼
//                                              per-connection sinks
//
// Transport is someone else's job: a Connection is created per client with
// a ResponseSink callback, raw bytes are pushed in with feed(), and
// complete response frames come back out through the sink (from the reader
// thread for rejects/control requests, from the dispatcher thread for
// routed work — the sink is serialized per connection).
//
// Backpressure is explicit and bounded: the request queue holds at most
// `queue_capacity` entries; when it is full, feed() answers Overloaded
// immediately instead of queueing — memory use is bounded no matter how
// fast clients push. Graceful drain (SIGTERM, stdin EOF): begin_drain()
// stops admission (new work answers Draining), the dispatcher finishes
// everything already queued, then wait_drained() returns. Every admitted
// request is answered exactly once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "core/batch_route_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/introspect.hpp"
#include "serve/protocol.hpp"

namespace dbn::serve {

struct ServeConfig {
  std::uint32_t d = 2;
  std::size_t k = 10;
  /// Alg1Directed (`--backend=uni`) or BidiEngine (`--backend=bidi`).
  BatchBackend backend = BatchBackend::BidiEngine;
  /// Worker threads of the routing engine (0 = hardware concurrency).
  std::size_t threads = 1;
  /// Bounded request-queue capacity; a full queue answers Overloaded.
  std::size_t queue_capacity = 1024;
  /// Largest micro-batch the dispatcher hands the engine at once.
  std::size_t max_batch = 256;
  /// Hot-route memo entries in total, split evenly across the engine's
  /// workers (0 = off).
  std::size_t cache_entries = 0;
  WildcardMode wildcard_mode = WildcardMode::Concrete;
  /// Trace 1-in-N requests end to end (admit->dispatch->route->respond
  /// spans on the global TraceSink); 0 = off, 1 = every request. The
  /// choice is a deterministic hash of (trace_seed, wire id).
  std::uint64_t trace_sample = 0;
  std::uint64_t trace_seed = 0;
  /// Capture requests slower than this (admit->respond, microseconds) in
  /// the slow-request log; 0 = off. Boundary inclusive.
  double slow_us = 0.0;
  /// Slow-log ring capacity (older records evicted, capture count kept).
  std::size_t slow_log_capacity = 64;
};

/// Admission/answer counters. Every cut returned by stats()/introspect()
/// is exact: all transitions commit under the server's queue lock, so
///
///   requests == responses_ok + rejected_overload + rejected_draining
///             + (rejected_bad_request - rejected_undecodable)
///             + queue_depth + inflight
///
/// holds at the instant of any snapshot (queue_depth/inflight via
/// introspect(); both are zero after wait_drained()). rejected_undecodable
/// answers sit outside `requests` because an undecodable frame never
/// yields a countable request — only a BadRequest answer.
struct ServeStats {
  std::uint64_t requests = 0;          // decoded requests of any type
  std::uint64_t responses_ok = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_undecodable = 0;  // subset of rejected_bad_request
  std::uint64_t rejected_draining = 0;
  std::uint64_t protocol_errors = 0;   // connection-fatal framing errors
  std::uint64_t batches = 0;           // dispatcher micro-batches
  std::uint64_t slow_requests = 0;     // latency >= ServeConfig::slow_us
};

class RouteServer;

/// One client of the server. feed() must be called from a single thread
/// per connection (the transport's reader); the sink may fire from that
/// thread or the dispatcher thread, never concurrently with itself.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Receives one or more complete, encoded response frames.
  using ResponseSink = std::function<void(std::string_view frames)>;

  /// Parses `bytes` (any fragmentation) and admits complete requests.
  /// Returns false once the connection hit a fatal framing error — the
  /// transport should close it (no resync is possible).
  bool feed(std::string_view bytes);

  /// Detaches the sink: responses for still-queued requests are computed
  /// (drain accounting stays exact) but discarded. Call when the peer hangs
  /// up with requests in flight.
  void close();

  /// True at EOF time iff the peer never truncated a frame mid-stream.
  bool clean() const;

  /// Small sequential id, unique within this server (probe/trace key).
  std::uint64_t id() const { return id_; }
  /// Per-connection counters (relaxed; the quota substrate the probe
  /// reports): decoded requests admitted from this peer, and response
  /// frames sent back to it.
  std::uint64_t request_count() const {
    return requests_.load(std::memory_order_relaxed);
  }
  std::uint64_t response_count() const {
    return responses_.load(std::memory_order_relaxed);
  }

 private:
  friend class RouteServer;
  Connection(RouteServer* server, std::uint64_t id, ResponseSink sink)
      : server_(server), id_(id), sink_(std::move(sink)) {}

  void send(std::string_view frames);

  RouteServer* server_;
  const std::uint64_t id_;
  FrameReader reader_;
  bool failed_ = false;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  Mutex write_mutex_;  // serializes reader-thread and dispatcher sends
  ResponseSink sink_ DBN_GUARDED_BY(write_mutex_);  // close() nulls it
  bool closed_ DBN_GUARDED_BY(write_mutex_) = false;  // close-once metrics
};

/// One exact cut of the server's accounting, every field read under the
/// same lock acquisition, so the ServeStats identity holds field-for-field
/// at the instant of the snapshot. The probe (introspect_json) serializes
/// this; the reconcile tests assert the identity directly.
struct IntrospectSnapshot {
  ServeStats stats;
  std::size_t queue_depth = 0;
  std::size_t inflight = 0;  // popped by the dispatcher, not yet answered
  double uptime_us = 0.0;
  std::vector<ConnectionInfo> connections;
  std::vector<SlowRecord> slow;
};

class RouteServer {
 public:
  explicit RouteServer(const ServeConfig& config);
  ~RouteServer();  // begin_drain() + wait_drained()

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// Registers a client. The Connection stays valid until the server is
  /// destroyed (shared_ptr keeps queued requests' back-references alive).
  std::shared_ptr<Connection> connect(Connection::ResponseSink sink);

  /// Stops admission: subsequent Route/Distance requests answer Draining;
  /// the dispatcher finishes the queue. Idempotent, callable from a signal
  /// watcher thread.
  void begin_drain();

  /// Blocks until the queue is empty and the dispatcher has exited.
  /// Implies begin_drain().
  void wait_drained();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServeStats stats() const;
  std::size_t queue_depth() const;
  /// The exact accounting cut the introspect probe serves: stats, queue
  /// depth, inflight count, uptime, per-connection counters, slow log —
  /// the counter fields under one lock acquisition. Never blocks on the
  /// dispatcher beyond that lock.
  IntrospectSnapshot introspect() const;
  const ServeConfig& config() const { return config_; }
  const SlowLog& slow_log() const { return slow_log_; }
  const TraceSampler& sampler() const { return sampler_; }

 private:
  friend class Connection;

  struct Pending {
    std::shared_ptr<Connection> conn;
    Request request;
    std::chrono::steady_clock::time_point enqueued;
    obs::Span span;  // live only for sampled requests under tracing
  };

  // Dispatcher-thread scratch, reused across micro-batches so the warmed
  // steady state allocates only inside response frame encoding.
  struct BatchScratch {
    std::vector<RouteQuery> route_queries;
    std::vector<std::size_t> route_slots;
    std::vector<RouteQuery> distance_queries;
    std::vector<std::size_t> distance_slots;
    std::vector<int> slot_of;
    std::vector<RoutingPath> paths;
    std::vector<int> distances;
  };

  /// One decoded request from a connection's reader thread. Responds
  /// inline (control/reject) or enqueues (route/distance).
  void admit(const std::shared_ptr<Connection>& conn, Request request);
  /// Encodes and sends one error frame (no counting: every counter commits
  /// at its decision site under mutex_, keeping snapshots exact).
  void respond_error(const std::shared_ptr<Connection>& conn,
                     RequestType type, std::uint64_t id, Status status,
                     std::string_view message);
  /// The undecodable-frame path out of Connection::feed (counts the
  /// BadRequest answer without counting a request).
  void reject_undecodable(const std::shared_ptr<Connection>& conn,
                          std::uint64_t id, std::string_view message);
  /// First close() of a connection: folds its lifetime request count into
  /// the serve.conn.* metrics.
  void note_connection_closed(const Connection& conn);
  void dispatcher_main();
  void process_batch(std::vector<Pending>& batch, BatchScratch& scratch);
  void note_protocol_error();

  ServeConfig config_;
  BatchRouteEngine engine_;
  TraceSampler sampler_;
  SlowLog slow_log_;
  const std::chrono::steady_clock::time_point started_;

  mutable Mutex mutex_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ DBN_GUARDED_BY(mutex_);
  std::atomic<bool> draining_{false};
  std::once_flag join_once_;

  // Exact accounting, guarded by mutex_ (compiler-checked): every
  // transition (admit, reject, batch pop, batch answer) commits its
  // counter movement and its queue/inflight movement under the same lock
  // hold, so any locked reader sees the ServeStats identity balance.
  ServeStats stats_ DBN_GUARDED_BY(mutex_);
  std::size_t inflight_ DBN_GUARDED_BY(mutex_) = 0;

  // Connection registry for the probe (weak: connections are owned by
  // their transports and by queued requests).
  mutable Mutex conns_mutex_;
  std::vector<std::weak_ptr<Connection>> conns_ DBN_GUARDED_BY(conns_mutex_);
  std::uint64_t next_conn_id_ DBN_GUARDED_BY(conns_mutex_) = 1;

  obs::Counter metrics_requests_;
  obs::Counter metrics_ok_;
  obs::Counter metrics_overload_;
  obs::Counter metrics_bad_request_;
  obs::Counter metrics_draining_;
  obs::Counter metrics_protocol_errors_;
  obs::Counter metrics_batches_;
  obs::Counter metrics_connections_;
  obs::Counter metrics_slow_;
  obs::Histogram metrics_batch_size_;
  obs::Histogram metrics_latency_us_;
  obs::Histogram metrics_conn_requests_;
  obs::Gauge metrics_queue_depth_;
  obs::Gauge metrics_conn_active_;

  std::thread dispatcher_;  // last member: joins before the rest dies
};

}  // namespace dbn::serve
