// Introspection-plane tests: the Introspect wire extension, the
// introspect/1 probe document, the exact accounting identity under a
// concurrent flood (the reconcile guarantee the probe exists to give),
// deterministic trace sampling, and the slow-request log's boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "debruijn/word.hpp"
#include "obs/json.hpp"
#include "serve/introspect.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace dbn;
using namespace dbn::serve;

Word random_word(Rng& rng, std::uint32_t d, std::size_t k) {
  std::vector<Digit> digits(k);
  for (auto& digit : digits) {
    digit = static_cast<Digit>(rng.below(d));
  }
  return Word(d, std::move(digits));
}

std::vector<Response> decode_stream(std::string_view bytes) {
  FrameReader reader;
  reader.feed(bytes);
  std::vector<Response> out;
  std::string payload;
  while (reader.next(payload) == FrameReader::Result::Frame) {
    const DecodedResponse decoded = decode_response(payload);
    EXPECT_EQ(decoded.error, DecodeError::None);
    out.push_back(decoded.response);
  }
  return out;
}

struct Client {
  explicit Client(RouteServer& server) {
    conn = server.connect([this](std::string_view frames) {
      const std::lock_guard<std::mutex> lock(mutex);
      bytes.append(frames);
    });
  }
  std::string snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return bytes;
  }
  std::vector<Response> responses() { return decode_stream(snapshot()); }

  std::mutex mutex;
  std::string bytes;
  std::shared_ptr<Connection> conn;
};

/// The ServeStats identity every snapshot must satisfy (see server.hpp).
void expect_identity(const IntrospectSnapshot& snap, const char* when) {
  const ServeStats& s = snap.stats;
  EXPECT_EQ(s.requests,
            s.responses_ok + s.rejected_overload + s.rejected_draining +
                (s.rejected_bad_request - s.rejected_undecodable) +
                snap.queue_depth + snap.inflight)
      << when << ": requests=" << s.requests << " ok=" << s.responses_ok
      << " overload=" << s.rejected_overload
      << " draining=" << s.rejected_draining
      << " bad=" << s.rejected_bad_request
      << " undecodable=" << s.rejected_undecodable
      << " queue=" << snap.queue_depth << " inflight=" << snap.inflight;
}

// --- wire extension ---------------------------------------------------------

TEST(ServeIntrospect, IntrospectRequestRoundTripsOnTheWire) {
  std::string frame;
  encode_control_request(RequestType::Introspect, 77, frame);
  FrameReader reader;
  reader.feed(frame);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Result::Frame);
  const DecodedRequest decoded = decode_request(payload);
  ASSERT_EQ(decoded.error, DecodeError::None);
  EXPECT_EQ(decoded.request.type, RequestType::Introspect);
  EXPECT_EQ(decoded.request.id, 77u);
}

TEST(ServeIntrospect, ProbeAnswersInlineWithIntrospectDocument) {
  ServeConfig config;
  config.d = 2;
  config.k = 8;
  config.trace_sample = 16;
  config.trace_seed = 7;
  config.slow_us = 250.0;
  RouteServer server(config);
  Client client(server);

  Rng rng(42);
  std::string stream;
  for (std::uint64_t i = 0; i < 20; ++i) {
    encode_route_request(i, random_word(rng, config.d, config.k),
                         random_word(rng, config.d, config.k), stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();

  std::string probe;
  encode_control_request(RequestType::Introspect, 999, probe);
  ASSERT_TRUE(client.conn->feed(probe));
  const std::vector<Response> responses = client.responses();
  ASSERT_FALSE(responses.empty());
  const Response& answer = responses.back();
  EXPECT_EQ(answer.type, RequestType::Introspect);
  EXPECT_EQ(answer.id, 999u);
  EXPECT_EQ(answer.status, Status::Ok);

  const auto doc = obs::json_parse(answer.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_at("schema"), schema::kIntrospect);
  const obs::JsonValue* cfg = doc->find("config");
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->number_at("d"), 2.0);
  EXPECT_EQ(cfg->number_at("k"), 8.0);
  EXPECT_EQ(cfg->number_at("trace_sample"), 16.0);
  EXPECT_EQ(cfg->number_at("trace_seed"), 7.0);
  EXPECT_EQ(cfg->number_at("slow_us"), 250.0);
  const obs::JsonValue* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_at("responses_ok"), 20.0);
  EXPECT_GE(doc->number_at("uptime_us"), 0.0);
  // The probed snapshot excludes the probe itself: with everything routed
  // and drained, the embedded counters balance with zero in flight.
  EXPECT_EQ(stats->number_at("requests"),
            stats->number_at("responses_ok") +
                stats->number_at("rejected_overload") +
                stats->number_at("rejected_draining"));
  EXPECT_EQ(doc->number_at("queue_depth"), 0.0);
  EXPECT_EQ(doc->number_at("inflight"), 0.0);
  const obs::JsonValue* conns = doc->find("connections");
  ASSERT_NE(conns, nullptr);
  ASSERT_EQ(conns->items.size(), 1u);
  EXPECT_EQ(conns->items[0].number_at("requests"), 21.0);  // 20 + probe
  EXPECT_GT(doc->number_at("fairness"), 0.0);
  // The embedded metrics document is a verbatim metrics/1 snapshot.
  const obs::JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->string_at("schema"), schema::kMetrics);
  server.wait_drained();
}

// A probe in the same read as routed requests counts them: feed() admits
// the requests it decoded before a control request first.
TEST(ServeIntrospect, ProbeInMidReadCountsTheRequestsBeforeIt) {
  ServeConfig config;
  config.d = 2;
  config.k = 8;
  RouteServer server(config);
  Client client(server);
  Rng rng(43);
  std::string stream;
  for (std::uint64_t i = 0; i < 20; ++i) {
    encode_route_request(i, random_word(rng, config.d, config.k),
                         random_word(rng, config.d, config.k), stream);
  }
  encode_control_request(RequestType::Introspect, 999, stream);
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();

  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), 21u);
  const auto probe =
      std::find_if(responses.begin(), responses.end(),
                   [](const Response& r) { return r.id == 999; });
  ASSERT_NE(probe, responses.end());
  const auto doc = obs::json_parse(probe->body);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* stats = doc->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->number_at("requests"), 20.0);
  const obs::JsonValue* conns = doc->find("connections");
  ASSERT_NE(conns, nullptr);
  ASSERT_EQ(conns->items.size(), 1u);
  EXPECT_EQ(conns->items[0].number_at("requests"), 21.0);
}

// --- the reconcile guarantee ------------------------------------------------

TEST(ServeIntrospect, SnapshotIdentityHoldsMidFloodAndPostDrain) {
  // Two clients flood routed work through a deliberately tight queue while
  // a prober thread snapshots as fast as it can. EVERY snapshot — not just
  // the final one — must satisfy the accounting identity exactly; that is
  // the acceptance bar for serving a live probe without stopping the
  // dispatcher. After the drain, the same identity must close with empty
  // queue and nothing in flight. Each feed carries several frames, one of
  // them a word the dispatcher answers BadRequest (a wrong k or a digit out
  // of range), so admission takes several requests per lock hold and the
  // dispatcher answers bad words inside its batches.
  ServeConfig config;
  config.d = 2;
  config.k = 12;
  config.queue_capacity = 64;  // tight: the flood must shed
  config.max_batch = 16;
  RouteServer server(config);

  constexpr std::uint64_t kPerClient = 4000;
  constexpr std::uint64_t kPerFeed = 8;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> probes{0};
  std::thread prober([&] {
    while (!done.load(std::memory_order_acquire)) {
      const IntrospectSnapshot snap = server.introspect();
      expect_identity(snap, "mid-flood");
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::unique_ptr<Client>> handles;
  for (int c = 0; c < 2; ++c) {
    handles.push_back(std::make_unique<Client>(server));
  }
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      Client& client = *handles[static_cast<std::size_t>(c)];
      Rng rng(1000 + c);
      std::string frames;
      for (std::uint64_t feed = 0; feed < kPerClient / kPerFeed; ++feed) {
        frames.clear();
        for (std::uint64_t j = 0; j < kPerFeed; ++j) {
          Word x = random_word(rng, config.d, config.k);
          Word y = random_word(rng, config.d, config.k);
          if (j == feed % kPerFeed && feed % 2 == 0) {
            x = random_word(rng, config.d, config.k + 1);
            y = random_word(rng, config.d, config.k + 1);
          } else if (j == feed % kPerFeed) {
            std::vector<Digit> digits(config.k, 0);
            digits[feed % config.k] = config.d;
            x = Word(config.d + 1, std::move(digits));
            y = Word(config.d + 1, std::vector<Digit>(config.k, 0));
          }
          encode_route_request(feed * kPerFeed + j, x, y, frames);
        }
        ASSERT_TRUE(client.conn->feed(frames));
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  server.wait_drained();
  done.store(true, std::memory_order_release);
  prober.join();
  EXPECT_GT(probes.load(), 0u);

  const IntrospectSnapshot final_snap = server.introspect();
  expect_identity(final_snap, "post-drain");
  EXPECT_EQ(final_snap.queue_depth, 0u);
  EXPECT_EQ(final_snap.inflight, 0u);
  EXPECT_EQ(final_snap.stats.requests, 2 * kPerClient);
  EXPECT_EQ(final_snap.stats.responses_ok +
                final_snap.stats.rejected_overload +
                final_snap.stats.rejected_bad_request,
            2 * kPerClient);
  // The first feed admitted finds the queue empty, so at least its bad
  // word reaches the dispatcher.
  EXPECT_GT(final_snap.stats.rejected_bad_request, 0u);
  // Both clients got every answer (served, refused or shed), exactly once.
  for (const auto& client : handles) {
    std::vector<int> answers(kPerClient, 0);
    for (const Response& r : client->responses()) {
      ASSERT_LT(r.id, kPerClient);
      ++answers[r.id];
    }
    EXPECT_EQ(std::count(answers.begin(), answers.end(), 1),
              static_cast<std::ptrdiff_t>(kPerClient));
  }
}

TEST(ServeIntrospect, UndecodableFramesStayOutsideTheRequestCount) {
  ServeConfig config;
  config.d = 2;
  config.k = 6;
  RouteServer server(config);
  Client client(server);
  // A decodable frame with an unknown type is a *request* answered
  // BadRequest; a frame too short to decode is only an *answer*.
  std::string stream;
  stream.push_back('\x02');
  stream.push_back('\0');
  stream.push_back('\0');
  stream.push_back('\0');
  stream.push_back('\x09');  // unknown request type...
  stream.push_back('\x01');  // ...but an id byte short of decodable
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();
  const IntrospectSnapshot snap = server.introspect();
  expect_identity(snap, "undecodable");
  EXPECT_EQ(snap.stats.requests, 0u);
  EXPECT_EQ(snap.stats.rejected_bad_request, 1u);
  EXPECT_EQ(snap.stats.rejected_undecodable, 1u);
  ASSERT_EQ(client.responses().size(), 1u);
  EXPECT_EQ(client.responses()[0].status, Status::BadRequest);
}

// --- deterministic sampling -------------------------------------------------

TEST(ServeIntrospect, TraceSamplerIsDeterministicPerSeed) {
  const TraceSampler a(8, 2026);
  const TraceSampler b(8, 2026);
  const TraceSampler c(8, 9999);
  std::set<std::uint64_t> sampled_a;
  std::set<std::uint64_t> sampled_c;
  for (std::uint64_t id = 0; id < 4096; ++id) {
    if (a.sampled(id)) {
      sampled_a.insert(id);
    }
    EXPECT_EQ(a.sampled(id), b.sampled(id)) << id;
    if (c.sampled(id)) {
      sampled_c.insert(id);
    }
  }
  // Roughly 1-in-8 of 4096 ids; the hash should not collapse or saturate.
  EXPECT_GT(sampled_a.size(), 256u);
  EXPECT_LT(sampled_a.size(), 1024u);
  // A different seed picks a different subset.
  EXPECT_NE(sampled_a, sampled_c);
}

TEST(ServeIntrospect, TraceSamplerEdgeRates) {
  const TraceSampler off(0, 1);
  const TraceSampler all(1, 1);
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_FALSE(off.sampled(id));
    EXPECT_TRUE(all.sampled(id));
  }
}

// --- slow log ---------------------------------------------------------------

SlowRecord record_with_total(double total_us) {
  return SlowRecord{1, 1, RequestType::Route, total_us, 0.0, 0.0, 1};
}

TEST(ServeIntrospect, SlowLogThresholdIsBoundaryInclusive) {
  SlowLog log(100.0, 4);
  EXPECT_FALSE(log.note(record_with_total(99.999)));
  EXPECT_TRUE(log.note(record_with_total(100.0)));  // exactly at threshold
  EXPECT_TRUE(log.note(record_with_total(100.001)));
  EXPECT_EQ(log.total(), 2u);
  EXPECT_EQ(log.records().size(), 2u);
}

TEST(ServeIntrospect, SlowLogDisabledWhenThresholdIsZero) {
  SlowLog log(0.0, 4);
  EXPECT_FALSE(log.note(record_with_total(1e9)));
  EXPECT_EQ(log.total(), 0u);
  EXPECT_TRUE(log.records().empty());
}

TEST(ServeIntrospect, SlowLogRingEvictsOldestButCountsAll) {
  SlowLog log(10.0, 3);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(log.note(
        SlowRecord{static_cast<std::uint64_t>(i), 1, RequestType::Route,
                   20.0, 0.0, 0.0, 1}));
  }
  EXPECT_EQ(log.total(), 7u);
  const std::vector<SlowRecord> kept = log.records();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].id, 4u);  // oldest surviving
  EXPECT_EQ(kept[2].id, 6u);  // newest
}

TEST(ServeIntrospect, ServerCapturesSlowRequestsAboveThreshold) {
  ServeConfig config;
  config.d = 2;
  config.k = 10;
  config.slow_us = 0.001;  // everything real is slower than a nanosecond
  RouteServer server(config);
  Client client(server);
  Rng rng(3);
  std::string stream;
  for (std::uint64_t i = 0; i < 10; ++i) {
    encode_route_request(i, random_word(rng, config.d, config.k),
                         random_word(rng, config.d, config.k), stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();
  const IntrospectSnapshot snap = server.introspect();
  EXPECT_EQ(snap.stats.slow_requests, 10u);
  EXPECT_EQ(snap.slow.size(), 10u);
  for (const SlowRecord& r : snap.slow) {
    EXPECT_GE(r.total_us, r.queue_us);
    EXPECT_GT(r.batch_size, 0u);
  }
}

// The latency clock stops after the response frame went to the sink, so a
// client whose socket stalls the write shows up in the slow log.
TEST(ServeIntrospect, SlowLogLatencyCoversTheResponseWrite) {
  ServeConfig config;
  config.d = 2;
  config.k = 10;
  config.slow_us = 1000;
  RouteServer server(config);
  const std::shared_ptr<Connection> conn =
      server.connect([](std::string_view) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      });
  Rng rng(5);
  std::string frame;
  encode_route_request(1, random_word(rng, config.d, config.k),
                       random_word(rng, config.d, config.k), frame);
  ASSERT_TRUE(conn->feed(frame));
  server.wait_drained();
  const IntrospectSnapshot snap = server.introspect();
  ASSERT_EQ(snap.slow.size(), 1u);
  EXPECT_EQ(snap.slow[0].type, RequestType::Route);
  EXPECT_GE(snap.slow[0].total_us, 3000.0);
  conn->close();
}

// --- fairness index ---------------------------------------------------------
//
// Jain's index over per-connection request counts, the probe's `fairness`
// member. It is a load statistic of the connections, hence the suite name.

TEST(LoadStats, JainFairnessOfUniformIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<std::uint64_t>{7, 7, 7}),
                   1.0);
  // Degenerate inputs read as perfectly fair, matching gini's convention.
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<std::uint64_t>{}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index(std::vector<std::uint64_t>{0, 0}), 1.0);
}

TEST(LoadStats, JainFairnessOfConcentratedLoadIsOneOverN) {
  // One active source among n: J = (Σx)² / (n·Σx²) = 1/n.
  std::vector<std::uint64_t> values(10, 0);
  values[3] = 42;
  EXPECT_NEAR(jain_fairness_index(values), 0.1, 1e-12);
}

TEST(LoadStats, JainFairnessIsScaleInvariantAndMatchesClosedForm) {
  const std::vector<std::uint64_t> a = {1, 2, 3, 4};
  std::vector<std::uint64_t> scaled;
  for (const std::uint64_t v : a) {
    scaled.push_back(1000 * v);
  }
  EXPECT_NEAR(jain_fairness_index(a), jain_fairness_index(scaled), 1e-12);
  // (1+2+3+4)² / (4 · (1+4+9+16)) = 100/120.
  EXPECT_NEAR(jain_fairness_index(a), 100.0 / 120.0, 1e-12);
}

}  // namespace
