// Serving observability primitives: the deterministic request sampler, the
// slow-request log, and the introspect/1 probe document builder.
//
// These are the pieces the live plane stands on:
//
//   TraceSampler    picks 1-in-N wire request ids for full span tracing.
//                   The decision is a pure hash of (seed, id) — no state,
//                   no RNG stream — so two runs with the same seed sample
//                   the same ids, and a request keeps (or loses) its spans
//                   no matter which thread handles it.
//   SlowLog         bounded ring of requests whose admit->respond latency
//                   crossed a threshold, with the per-stage breakdown the
//                   span chain would have carried (queue/route split), so
//                   outliers are diagnosable even when they were not in
//                   the trace sample.
//   introspect_json renders the introspect/1 document a live probe
//                   (RequestType::Introspect) answers with: server config,
//                   the *exact* request accounting (taken under the queue
//                   lock, so admitted == answered + queued + inflight at
//                   the instant of the probe), per-connection counters
//                   with a Jain fairness index, the slow log, and an
//                   embedded metrics/1 snapshot. Built entirely on the
//                   reader thread — the dispatcher never sees a probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "serve/protocol.hpp"

namespace dbn::serve {

class RouteServer;

/// Deterministic 1-in-N sampler over wire request ids. every == 0 disables
/// (nothing sampled); every == 1 samples everything.
class TraceSampler {
 public:
  TraceSampler() = default;
  TraceSampler(std::uint64_t every, std::uint64_t seed)
      : every_(every), seed_(seed) {}

  bool sampled(std::uint64_t id) const;
  std::uint64_t every() const { return every_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t every_ = 0;
  std::uint64_t seed_ = 0;
};

/// One slow request, stage breakdown in microseconds: total is
/// admit->respond (up to the write of its response frame), queue_us the
/// wait before the dispatcher popped it, route_us the engine's share of
/// its micro-batch.
struct SlowRecord {
  std::uint64_t id = 0;
  std::uint64_t conn = 0;
  RequestType type = RequestType::Route;
  double total_us = 0.0;
  double queue_us = 0.0;
  double route_us = 0.0;
  std::size_t batch_size = 0;
};

/// Bounded ring of slow requests. note() keeps a record iff the threshold
/// is enabled (> 0) and total_us >= threshold (boundary inclusive: a
/// request exactly at --slow-us is an outlier by definition). total()
/// counts every capture, including records later evicted by the ring.
class SlowLog {
 public:
  SlowLog(double threshold_us, std::size_t capacity)
      : threshold_us_(threshold_us), capacity_(capacity) {}

  bool note(const SlowRecord& record);

  double threshold_us() const { return threshold_us_; }
  std::uint64_t total() const;
  std::vector<SlowRecord> records() const;

 private:
  const double threshold_us_;
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::deque<SlowRecord> ring_ DBN_GUARDED_BY(mutex_);
  std::uint64_t total_ DBN_GUARDED_BY(mutex_) = 0;
};

/// Per-connection counters as the probe reports them.
struct ConnectionInfo {
  std::uint64_t id = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
};

/// Jain's fairness index (sum x)^2 / (n * sum x^2) over per-connection
/// request counts: 1 when every share is equal, -> 1/n when one connection
/// takes everything (the "is one client hogging the queue" signal). 1 for
/// empty or all-zero input, where no one is being starved.
double jain_fairness_index(const std::vector<std::uint64_t>& counts);

/// The introspect/1 JSON document (embeds a fresh global metrics/1
/// snapshot). Safe to call from any thread; never touches the dispatcher.
/// The exact accounting cut it carries is RouteServer::introspect()
/// (IntrospectSnapshot, declared with the server).
std::string introspect_json(const RouteServer& server);

}  // namespace dbn::serve
