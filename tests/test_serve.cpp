// Serving stack tests: wire protocol framing/decoding (round trips and
// every malformed-frame class), RouteServer request handling against the
// reference routers, bounded-queue backpressure, drain semantics, and a
// seeded concurrent-client determinism check (same seed, same per-client
// response bytes, run twice), one write per connection per batch, seeded
// schedules of mixed frames, probes, overload, drain and disconnects, and
// the TCP transport's reaping of clients that disconnect or break framing.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/path.hpp"
#include "core/route_engine.hpp"
#include "core/routers.hpp"
#include "debruijn/word.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/io.hpp"
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

Word make_word(std::uint32_t d, std::string_view text) {
  std::vector<Digit> digits;
  for (const char c : text) {
    digits.push_back(static_cast<Digit>(c - '0'));
  }
  return Word(d, std::move(digits));
}

/// Splits a byte stream of response frames back into decoded responses.
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
  EXPECT_FALSE(reader.poisoned());
  EXPECT_EQ(reader.pending_bytes(), 0u);
  return out;
}

/// A test client: captures every response frame the server sends it, and
/// counts the sink calls that delivered them.
struct Client {
  explicit Client(RouteServer& server) {
    conn = server.connect([this](std::string_view frames) {
      const std::lock_guard<std::mutex> lock(mutex);
      bytes.append(frames);
      ++writes;
    });
  }
  std::string snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return bytes;
  }
  std::size_t write_count() {
    const std::lock_guard<std::mutex> lock(mutex);
    return writes;
  }
  std::vector<Response> responses() { return decode_stream(snapshot()); }

  std::mutex mutex;
  std::string bytes;
  std::size_t writes = 0;
  std::shared_ptr<Connection> conn;
};

/// The global registry's serve.writes counter (one per sink call).
std::uint64_t serve_writes() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricSnapshot* writes = snap.find("serve.writes");
  return writes == nullptr ? 0 : writes->count;
}

bool replay_lands_on(const Word& x, const Word& y,
                     const std::vector<Hop>& hops) {
  Word at = x;
  for (const Hop& h : hops) {
    const Digit digit = h.is_wildcard() ? 0 : h.digit;
    at = h.type == ShiftType::Left ? at.left_shift(digit)
                                   : at.right_shift(digit);
  }
  return at == y;
}

// --- protocol: round trips --------------------------------------------------

TEST(ServeProtocol, RouteRequestRoundTrip) {
  const Word x = make_word(3, "0120");
  const Word y = make_word(3, "2101");
  std::string frame;
  encode_route_request(77, x, y, frame);

  FrameReader reader;
  reader.feed(frame);
  std::string payload;
  ASSERT_EQ(reader.next(payload), FrameReader::Result::Frame);
  const DecodedRequest decoded = decode_request(payload);
  ASSERT_EQ(decoded.error, DecodeError::None);
  EXPECT_EQ(decoded.request.type, RequestType::Route);
  EXPECT_EQ(decoded.request.id, 77u);
  EXPECT_EQ(decoded.request.x, (std::vector<std::uint8_t>{0, 1, 2, 0}));
  EXPECT_EQ(decoded.request.y, (std::vector<std::uint8_t>{2, 1, 0, 1}));
  EXPECT_EQ(reader.next(payload), FrameReader::Result::NeedMore);
}

TEST(ServeProtocol, ControlRequestsRoundTrip) {
  for (const RequestType type : {RequestType::Ping, RequestType::Stats}) {
    std::string frame;
    encode_control_request(type, 5, frame);
    FrameReader reader;
    reader.feed(frame);
    std::string payload;
    ASSERT_EQ(reader.next(payload), FrameReader::Result::Frame);
    const DecodedRequest decoded = decode_request(payload);
    ASSERT_EQ(decoded.error, DecodeError::None);
    EXPECT_EQ(decoded.request.type, type);
    EXPECT_EQ(decoded.request.id, 5u);
  }
}

TEST(ServeProtocol, RouteResponseRoundTripPreservesWildcards) {
  RoutingPath path;
  path.push(Hop{ShiftType::Left, 2});
  path.push(Hop{ShiftType::Left, kWildcard});
  path.push(Hop{ShiftType::Right, 0});
  std::string frame;
  encode_route_response(9, path, frame);

  const std::vector<Response> responses = decode_stream(frame);
  ASSERT_EQ(responses.size(), 1u);
  const Response& r = responses[0];
  EXPECT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.type, RequestType::Route);
  EXPECT_EQ(r.id, 9u);
  ASSERT_EQ(r.hops.size(), 3u);
  EXPECT_EQ(r.hops[0].type, ShiftType::Left);
  EXPECT_EQ(r.hops[0].digit, 2u);
  EXPECT_TRUE(r.hops[1].is_wildcard());
  EXPECT_EQ(r.hops[2].type, ShiftType::Right);
}

TEST(ServeProtocol, DistanceAndErrorResponsesRoundTrip) {
  std::string frame;
  encode_distance_response(3, 11, frame);
  encode_error_response(RequestType::Route, Status::Overloaded, 4,
                        "queue full", frame);
  const std::vector<Response> responses = decode_stream(frame);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].distance, 11u);
  EXPECT_EQ(responses[1].status, Status::Overloaded);
  EXPECT_EQ(responses[1].id, 4u);
  EXPECT_EQ(responses[1].body, "queue full");
}

TEST(ServeProtocol, FrameReaderReassemblesBytewiseFeeds) {
  const Word x = make_word(2, "0110");
  const Word y = make_word(2, "1001");
  std::string stream;
  encode_route_request(1, x, y, stream);
  encode_distance_request(2, x, y, stream);
  encode_control_request(RequestType::Ping, 3, stream);

  FrameReader reader;
  std::string payload;
  std::vector<std::uint64_t> ids;
  for (const char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    while (reader.next(payload) == FrameReader::Result::Frame) {
      const DecodedRequest decoded = decode_request(payload);
      ASSERT_EQ(decoded.error, DecodeError::None);
      ids.push_back(decoded.request.id);
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

// --- protocol: malformed input ----------------------------------------------

TEST(ServeProtocol, OversizedFramePoisonsReaderPermanently) {
  std::string bytes;
  const std::uint32_t huge = kMaxPayload + 1;
  bytes.push_back(static_cast<char>(huge & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 8) & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 16) & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 24) & 0xFF));
  FrameReader reader;
  reader.feed(bytes);
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::Result::Error);
  EXPECT_TRUE(reader.poisoned());
  // Feeding a perfectly valid frame afterwards cannot un-poison it: the
  // stream position is unrecoverable.
  std::string valid;
  encode_control_request(RequestType::Ping, 1, valid);
  reader.feed(valid);
  EXPECT_EQ(reader.next(payload), FrameReader::Result::Error);
}

TEST(ServeProtocol, ZeroLengthFramePoisonsReaderPermanently) {
  // A zero-length frame cannot be a real request (every valid payload
  // starts with a 9-byte header), so the reader treats it exactly like an
  // oversized length: connection-fatal, no resync. Found by the serve_frame
  // fuzz battery; the shrunk input is pinned in tests/corpus/wire too.
  FrameReader reader;
  reader.feed(std::string(4, '\0'));
  std::string payload;
  EXPECT_EQ(reader.next(payload), FrameReader::Result::Error);
  EXPECT_TRUE(reader.poisoned());
  // A valid frame after the zero-length header must not revive the stream.
  std::string valid;
  encode_control_request(RequestType::Ping, 1, valid);
  reader.feed(valid);
  EXPECT_EQ(reader.next(payload), FrameReader::Result::Error);
}

TEST(ServeProtocol, TruncatedHeaderAndBodyAreRejected) {
  EXPECT_EQ(decode_request("").error, DecodeError::TruncatedHeader);
  EXPECT_EQ(decode_request("\x01").error, DecodeError::TruncatedHeader);

  // A route request whose body promises k=4 but carries fewer digits.
  const Word x = make_word(2, "0110");
  const Word y = make_word(2, "1001");
  std::string frame;
  encode_route_request(1, x, y, frame);
  const std::string_view payload(frame.data() + 4, frame.size() - 4);
  for (std::size_t cut = 10; cut < payload.size(); ++cut) {
    EXPECT_EQ(decode_request(payload.substr(0, cut)).error,
              DecodeError::TruncatedBody);
  }
  std::string trailing(payload);
  trailing.push_back('\0');
  EXPECT_EQ(decode_request(trailing).error, DecodeError::TrailingBytes);
}

TEST(ServeProtocol, UnknownTypeIsRejectedWithIdIntact) {
  std::string payload;
  payload.push_back('\x63');  // type 99
  for (int i = 0; i < 8; ++i) {
    payload.push_back(i == 0 ? '\x2a' : '\0');  // id 42, LE
  }
  const DecodedRequest decoded = decode_request(payload);
  EXPECT_EQ(decoded.error, DecodeError::UnknownType);
  EXPECT_EQ(decoded.request.id, 42u);
}

TEST(ServeProtocol, WordFromWireValidatesDigits) {
  EXPECT_TRUE(word_from_wire(2, {0, 1, 1, 0}).has_value());
  EXPECT_FALSE(word_from_wire(2, {0, 2, 1, 0}).has_value());
  EXPECT_FALSE(word_from_wire(2, {0, kWireWildcard, 1, 0}).has_value());
}

// --- server: request handling -----------------------------------------------

TEST(ServeServer, RoutesAndDistancesMatchReferenceRouters) {
  ServeConfig config;
  config.d = 2;
  config.k = 8;
  config.threads = 2;
  config.cache_entries = 256;
  RouteServer server(config);
  Client client(server);

  Rng rng(7);
  std::vector<std::pair<Word, Word>> pairs;
  std::string stream;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Word x = random_word(rng, config.d, config.k);
    const Word y = random_word(rng, config.d, config.k);
    pairs.emplace_back(x, y);
    encode_route_request(2 * i, x, y, stream);
    encode_distance_request(2 * i + 1, x, y, stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();

  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), 2 * pairs.size());
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, Status::Ok) << r.body;
    const auto& [x, y] = pairs[static_cast<std::size_t>(r.id / 2)];
    const int expected = undirected_distance(x, y);
    if (r.type == RequestType::Route) {
      EXPECT_TRUE(replay_lands_on(x, y, r.hops));
      EXPECT_EQ(static_cast<int>(r.hops.size()), expected);
    } else {
      EXPECT_EQ(static_cast<int>(r.distance), expected);
    }
  }
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2 * pairs.size());
  EXPECT_EQ(stats.responses_ok, 2 * pairs.size());
  EXPECT_EQ(stats.rejected_overload + stats.rejected_bad_request +
                stats.rejected_draining + stats.protocol_errors,
            0u);
}

// The dispatcher answers a batch with one write per connection. One feed
// of 600 requests is admitted in whole chunks of max_batch (256), and each
// pop takes min(256, queue depth), so whatever the timing the batches hold
// 256, 256 and 88 requests and the sink fires exactly three times.
TEST(ServeServer, AnswersEachBatchWithOneWritePerConnection) {
  ServeConfig config;
  config.d = 2;
  config.k = 10;
  ASSERT_EQ(config.max_batch, 256u);
  ASSERT_EQ(config.queue_capacity, 1024u);
  RouteServer server(config);
  Client client(server);

  constexpr std::uint64_t kRequests = 600;
  Rng rng(19);
  std::vector<std::pair<Word, Word>> pairs;
  std::string stream;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const Word x = random_word(rng, config.d, config.k);
    const Word y = random_word(rng, config.d, config.k);
    if (i % 4 == 0) {
      encode_distance_request(i, x, y, stream);
    } else {
      encode_route_request(i, x, y, stream);
    }
    pairs.emplace_back(x, y);
  }
  const std::uint64_t writes_before = serve_writes();
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();

  EXPECT_EQ(client.write_count(), 3u);
  EXPECT_EQ(serve_writes() - writes_before, 3u);
  EXPECT_EQ(client.conn->response_count(), kRequests);
  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), kRequests);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const Response& r = responses[i];
    ASSERT_EQ(r.id, i);
    ASSERT_EQ(r.status, Status::Ok) << r.body;
    const auto& [x, y] = pairs[i];
    const int expected = undirected_distance(x, y);
    if (i % 4 == 0) {
      EXPECT_EQ(r.type, RequestType::Distance);
      EXPECT_EQ(static_cast<int>(r.distance), expected);
    } else {
      EXPECT_EQ(r.type, RequestType::Route);
      EXPECT_TRUE(replay_lands_on(x, y, r.hops));
      EXPECT_EQ(static_cast<int>(r.hops.size()), expected);
    }
  }
}

TEST(ServeServer, DirectedBackendServesOptimalPaths) {
  ServeConfig config;
  config.d = 2;
  config.k = 5;
  config.backend = BatchBackend::Alg1Directed;
  RouteServer server(config);
  Client client(server);

  std::string stream;
  Rng rng(3);
  std::vector<std::pair<Word, Word>> pairs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Word x = random_word(rng, config.d, config.k);
    const Word y = random_word(rng, config.d, config.k);
    pairs.emplace_back(x, y);
    encode_route_request(i, x, y, stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();
  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), pairs.size());
  for (const Response& r : responses) {
    ASSERT_EQ(r.status, Status::Ok);
    const auto& [x, y] = pairs[static_cast<std::size_t>(r.id)];
    EXPECT_TRUE(replay_lands_on(x, y, r.hops));
    EXPECT_EQ(static_cast<int>(r.hops.size()), directed_distance(x, y));
    for (const Hop& h : r.hops) {
      EXPECT_EQ(h.type, ShiftType::Left);  // DG(d,k) directed edges only
    }
  }
}

TEST(ServeServer, MalformedRequestsAnswerBadRequestAndKeepConnection) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  Client client(server);

  // Wrong k for the network.
  std::string stream;
  encode_route_request(1, make_word(2, "01101"), make_word(2, "10010"),
                       stream);
  // Digit out of range for d=2 (valid frame, invalid word).
  encode_route_request(2, make_word(3, "0120"), make_word(3, "1001"), stream);
  // Unknown request type, id readable.
  std::string bogus;
  bogus.push_back('\x09');
  bogus.push_back('\0');
  bogus.push_back('\0');
  bogus.push_back('\0');
  bogus.push_back('\x63');
  bogus.push_back('\x03');
  for (int i = 0; i < 7; ++i) {
    bogus.push_back('\0');
  }
  stream += bogus;
  // A healthy request after the malformed ones must still be served.
  encode_route_request(4, make_word(2, "0110"), make_word(2, "1001"), stream);

  ASSERT_TRUE(client.conn->feed(stream));
  server.wait_drained();
  // Rejects answered inline by the reader interleave with the
  // dispatcher's answers, so assert per id rather than by position.
  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), 4u);
  std::map<std::uint64_t, Status> by_id;
  for (const Response& r : responses) {
    by_id[r.id] = r.status;
  }
  EXPECT_EQ(by_id.at(1), Status::BadRequest);  // wrong k
  EXPECT_EQ(by_id.at(2), Status::BadRequest);  // digit out of range
  EXPECT_EQ(by_id.at(3), Status::BadRequest);  // unknown type
  EXPECT_EQ(by_id.at(4), Status::Ok);
  EXPECT_TRUE(client.conn->clean());
  EXPECT_EQ(server.stats().rejected_bad_request, 3u);
}

TEST(ServeServer, FramingErrorIsConnectionFatal) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  Client client(server);

  std::string bytes;
  const std::uint32_t huge = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  EXPECT_FALSE(client.conn->feed(bytes));
  EXPECT_FALSE(client.conn->clean());
  server.wait_drained();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(ServeServer, TruncatedTailMakesConnectionUnclean) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  Client client(server);
  std::string stream;
  encode_control_request(RequestType::Ping, 1, stream);
  // Half a header left dangling: still a live connection, but not clean.
  ASSERT_TRUE(client.conn->feed(stream + std::string("\x05\x00", 2)));
  EXPECT_FALSE(client.conn->clean());
  server.wait_drained();
}

TEST(ServeServer, PingAndStatsAnswerInline) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  Client client(server);
  std::string stream;
  encode_control_request(RequestType::Ping, 10, stream);
  encode_control_request(RequestType::Stats, 11, stream);
  ASSERT_TRUE(client.conn->feed(stream));
  // No drain needed: control requests never touch the dispatcher queue.
  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].type, RequestType::Ping);
  EXPECT_EQ(responses[0].id, 10u);
  EXPECT_EQ(responses[1].type, RequestType::Stats);
  EXPECT_NE(responses[1].body.find("\"serve.requests\""), std::string::npos);
  server.wait_drained();
}

// --- server: backpressure and drain -----------------------------------------

TEST(ServeServer, BoundedQueueShedsLoadButAnswersEveryRequest) {
  // A queue of 1 with a flood of requests must shed load (Overloaded) at
  // least once across attempts, and every request — served or shed — must
  // be answered exactly once. The exact shed count is timing-dependent;
  // the exactly-once accounting is not.
  bool saw_overload = false;
  for (int attempt = 0; attempt < 20 && !saw_overload; ++attempt) {
    ServeConfig config;
    config.d = 2;
    config.k = 16;
    config.queue_capacity = 1;
    config.max_batch = 1;
    RouteServer server(config);
    Client client(server);
    Rng rng(100 + attempt);
    constexpr std::uint64_t kRequests = 2000;
    std::string stream;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      encode_route_request(i, random_word(rng, config.d, config.k),
                           random_word(rng, config.d, config.k), stream);
    }
    ASSERT_TRUE(client.conn->feed(stream));
    server.wait_drained();
    const std::vector<Response> responses = client.responses();
    ASSERT_EQ(responses.size(), kRequests);
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.responses_ok + stats.rejected_overload, kRequests);
    saw_overload = stats.rejected_overload > 0;
  }
  EXPECT_TRUE(saw_overload);
}

TEST(ServeServer, DrainRejectsNewWorkAndAnswersAdmitted) {
  ServeConfig config;
  config.d = 2;
  config.k = 10;
  RouteServer server(config);
  Client client(server);

  Rng rng(5);
  std::string stream;
  constexpr std::uint64_t kBefore = 50;
  for (std::uint64_t i = 0; i < kBefore; ++i) {
    encode_route_request(i, random_word(rng, config.d, config.k),
                         random_word(rng, config.d, config.k), stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  server.begin_drain();
  EXPECT_TRUE(server.draining());
  std::string late;
  encode_route_request(999, random_word(rng, config.d, config.k),
                       random_word(rng, config.d, config.k), late);
  ASSERT_TRUE(client.conn->feed(late));
  server.wait_drained();

  const std::vector<Response> responses = client.responses();
  ASSERT_EQ(responses.size(), kBefore + 1);
  std::uint64_t ok = 0;
  std::uint64_t draining = 0;
  for (const Response& r : responses) {
    if (r.status == Status::Ok) {
      ++ok;
    } else if (r.status == Status::Draining) {
      ++draining;
      EXPECT_EQ(r.id, 999u);
    }
  }
  // Everything admitted before begin_drain() is answered Ok; the late
  // request is refused. (The 50 may legally include some Ok answers sent
  // before the drain flag was set — but never the reverse.)
  EXPECT_EQ(ok, kBefore);
  EXPECT_EQ(draining, 1u);
}

TEST(ServeServer, CloseDiscardsResponsesButKeepsAccountingExact) {
  ServeConfig config;
  config.d = 2;
  config.k = 10;
  RouteServer server(config);
  Client client(server);
  Rng rng(11);
  std::string stream;
  for (std::uint64_t i = 0; i < 100; ++i) {
    encode_route_request(i, random_word(rng, config.d, config.k),
                         random_word(rng, config.d, config.k), stream);
  }
  ASSERT_TRUE(client.conn->feed(stream));
  client.conn->close();  // peer hangs up with requests in flight
  server.wait_drained();
  EXPECT_EQ(server.stats().responses_ok, 100u);
}

// --- seeded schedules -------------------------------------------------------

/// The ServeStats identity (see server.hpp) over one accounting cut.
void expect_identity(const ServeStats& s, std::uint64_t queue_depth,
                     std::uint64_t inflight, const char* when) {
  EXPECT_EQ(s.requests, s.responses_ok + s.rejected_overload +
                            s.rejected_draining +
                            (s.rejected_bad_request - s.rejected_undecodable) +
                            queue_depth + inflight)
      << when;
}

/// Appends a frame around a raw payload of type byte, u64 id and `body`.
void append_raw_frame(std::uint8_t type, std::uint64_t id,
                      std::string_view body, std::string& out) {
  const auto length = static_cast<std::uint32_t>(9 + body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  out.push_back(static_cast<char>(type));
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((id >> shift) & 0xFF));
  }
  out.append(body);
}

/// A Route/Distance body carrying the given digit bytes (any length, any
/// values: the wire only bounds k by 16 bits).
std::string pair_body(const std::vector<std::uint8_t>& x,
                      const std::vector<std::uint8_t>& y) {
  std::string body;
  body.push_back(static_cast<char>(x.size() & 0xFF));
  body.push_back(static_cast<char>(x.size() >> 8));
  body.append(x.begin(), x.end());
  body.append(y.begin(), y.end());
  return body;
}

enum class FrameKind { Route, Distance, BadWord, Undecodable, Introspect };

/// One frame of a scheduled stream, and what its answer must show.
struct ScheduledFrame {
  FrameKind kind = FrameKind::Route;
  std::uint64_t id = 0;  // its index in the stream, plus one
  Word x{1, {0}};
  Word y{1, {0}};
  std::size_t end = 0;                 // offset one past its last byte
  std::uint64_t decodable_before = 0;  // decodable requests ahead of it
  bool after_drain = false;            // its feed came after begin_drain
};

/// One connection's byte stream: valid Route and Distance frames, words
/// the dispatcher must refuse (wrong k, a digit out of range), undecodable
/// frames (unknown type, truncated body) and Introspect probes, cut into
/// random-length slices; a poisoned one ends in a framing error.
struct ScheduledStream {
  std::string bytes;
  std::vector<ScheduledFrame> frames;
  std::vector<std::size_t> cuts;  // slice ends, increasing
  std::size_t poison_end = 0;     // end of the bad length prefix, or 0
};

ScheduledStream make_scheduled_stream(Rng& rng, std::uint32_t d,
                                      std::size_t k, bool poisoned) {
  ScheduledStream stream;
  const std::size_t count = 12 + rng.below(24);
  std::uint64_t decodable = 0;
  const auto digits = [&](std::size_t length, bool in_range) {
    std::vector<std::uint8_t> out(length);
    for (std::uint8_t& digit : out) {
      digit = static_cast<std::uint8_t>(rng.below(d));
    }
    if (!in_range) {
      out[rng.below(length)] =
          static_cast<std::uint8_t>(d + rng.below(256 - d));
    }
    return out;
  };
  for (std::size_t i = 0; i < count; ++i) {
    ScheduledFrame frame;
    frame.id = i + 1;
    frame.decodable_before = decodable;
    const std::uint64_t pick = rng.below(20);
    const RequestType pair_type =
        rng.below(2) == 0 ? RequestType::Route : RequestType::Distance;
    if (pick < 13) {
      frame.kind = pick < 9 ? FrameKind::Route : FrameKind::Distance;
      frame.x = random_word(rng, d, k);
      frame.y = random_word(rng, d, k);
      if (frame.kind == FrameKind::Route) {
        encode_route_request(frame.id, frame.x, frame.y, stream.bytes);
      } else {
        encode_distance_request(frame.id, frame.x, frame.y, stream.bytes);
      }
    } else if (pick < 16) {
      frame.kind = FrameKind::BadWord;
      const bool wrong_k = rng.below(2) == 0;
      std::size_t length = k;
      if (wrong_k) {
        length = rng.below(2) == 0 ? k - 1 : k + 1;
      }
      const bool x_bad = rng.below(2) == 0;
      append_raw_frame(static_cast<std::uint8_t>(pair_type), frame.id,
                       pair_body(digits(length, wrong_k || !x_bad),
                                 digits(length, wrong_k || x_bad)),
                       stream.bytes);
    } else if (pick < 18) {
      frame.kind = FrameKind::Undecodable;
      if (rng.below(2) == 0) {
        // Type 0, or one past the last known type (5).
        const std::uint64_t type = rng.below(4) == 0 ? 0 : 6 + rng.below(250);
        append_raw_frame(static_cast<std::uint8_t>(type), frame.id, "",
                         stream.bytes);
      } else {
        std::string body = pair_body(digits(k, true), digits(k, true));
        body.resize(body.size() - 1 - rng.below(body.size()));
        append_raw_frame(static_cast<std::uint8_t>(pair_type), frame.id, body,
                         stream.bytes);
      }
    } else {
      frame.kind = FrameKind::Introspect;
      encode_control_request(RequestType::Introspect, frame.id, stream.bytes);
    }
    if (frame.kind != FrameKind::Undecodable) {
      ++decodable;
    }
    frame.end = stream.bytes.size();
    stream.frames.push_back(std::move(frame));
  }
  if (poisoned) {
    const std::uint32_t length = rng.below(2) == 0 ? 0 : kMaxPayload + 1;
    for (int shift = 0; shift < 32; shift += 8) {
      stream.bytes.push_back(static_cast<char>((length >> shift) & 0xFF));
    }
    stream.poison_end = stream.bytes.size();
  }
  // Mostly short slices (a frame here is 13 to 29 bytes), some long ones,
  // which admit more than a queue's worth at once.
  for (std::size_t at = 0; at < stream.bytes.size();) {
    at = std::min(stream.bytes.size(),
                  at + 1 + (rng.below(4) == 0 ? rng.below(400)
                                              : rng.below(48)));
    stream.cuts.push_back(at);
  }
  return stream;
}

// Random interleavings of three connections' streams through a small
// queue (8) and batch (4), so that overload and partial batches happen,
// with identity probes between slices, one connection closed with
// requests in flight, one that may end in a framing error, and
// begin_drain() at a random step. Each frame that passed framing is
// answered exactly once on its id (on the closed connection, counted
// instead of delivered); the dispatcher answers each connection in
// admission order; answers are right; an Introspect answer counts every
// decodable request its connection sent before it, so requests decoded
// ahead of a probe in the same read are admitted before it is answered,
// and requests decoded ahead of a framing error are admitted too.
TEST(ServeServer, SeededSchedulesAnswerEveryRequestOnceInOrder) {
  constexpr std::uint32_t kD = 3;
  constexpr std::size_t kK = 6;
  constexpr std::size_t kConnections = 3;
  BidirectionalRouteEngine engine(kK);
  std::uint64_t overloaded = 0;
  std::uint64_t draining = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ServeConfig config;
    config.d = kD;
    config.k = kK;
    config.queue_capacity = 8;
    config.max_batch = 4;
    RouteServer server(config);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<ScheduledStream> streams;
    const std::size_t poisoned =
        rng.below(2) == 0 ? rng.below(kConnections) : kConnections;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<Client>(server));
      streams.push_back(make_scheduled_stream(rng, kD, kK, c == poisoned));
    }
    const std::size_t closing =
        (poisoned + 1 + rng.below(kConnections - 1)) % kConnections;
    const std::size_t close_after =
        1 + rng.below(streams[closing].cuts.size());
    std::size_t total_slices = 0;
    for (const ScheduledStream& stream : streams) {
      total_slices += stream.cuts.size();
    }
    const std::size_t drain_step = rng.below(total_slices + 1);

    std::vector<std::size_t> fed(kConnections, 0);     // slices fed
    std::vector<std::size_t> framed(kConnections, 0);  // frames passed
    std::vector<std::size_t> active;
    for (std::size_t c = 0; c < kConnections; ++c) {
      active.push_back(c);
    }
    bool drained = false;
    for (std::size_t step = 0; !active.empty(); ++step) {
      if (step == drain_step) {
        server.begin_drain();
        drained = true;
      }
      const std::size_t pick = rng.below(active.size());
      const std::size_t c = active[pick];
      ScheduledStream& stream = streams[c];
      const std::size_t from = fed[c] == 0 ? 0 : stream.cuts[fed[c] - 1];
      const std::size_t to = stream.cuts[fed[c]++];
      while (framed[c] < stream.frames.size() &&
             stream.frames[framed[c]].end <= to) {
        stream.frames[framed[c]++].after_drain = drained;
      }
      const bool poison_here =
          stream.poison_end > from && stream.poison_end <= to;
      const bool ok = clients[c]->conn->feed(
          std::string_view(stream.bytes).substr(from, to - from));
      EXPECT_EQ(ok, !poison_here);
      bool done = !ok || fed[c] == stream.cuts.size();
      if (c == closing && fed[c] == close_after) {
        clients[c]->conn->close();
        done = true;
      }
      if (done) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (rng.below(4) == 0) {
        const IntrospectSnapshot snap = server.introspect();
        expect_identity(snap.stats, snap.queue_depth, snap.inflight, "probe");
      }
    }
    server.wait_drained();
    const IntrospectSnapshot final_snap = server.introspect();
    expect_identity(final_snap.stats, final_snap.queue_depth,
                    final_snap.inflight, "drained");
    EXPECT_EQ(final_snap.queue_depth, 0u);
    EXPECT_EQ(final_snap.inflight, 0u);
    EXPECT_EQ(final_snap.stats.protocol_errors,
              poisoned < kConnections ? 1u : 0u);

    std::uint64_t decodable = 0;
    std::uint64_t undecodable = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
      SCOPED_TRACE("connection " + std::to_string(c));
      const ScheduledStream& stream = streams[c];
      const Connection& conn = *clients[c]->conn;
      for (std::size_t i = 0; i < framed[c]; ++i) {
        if (stream.frames[i].kind == FrameKind::Undecodable) {
          ++undecodable;
        } else {
          ++decodable;
        }
      }
      // Every frame that passed framing was answered once (sent, or
      // counted on the closed connection).
      EXPECT_EQ(conn.response_count(), framed[c]);
      std::vector<int> answers(framed[c], 0);
      std::uint64_t last_dispatched = 0;
      for (const Response& r : clients[c]->responses()) {
        ASSERT_GE(r.id, 1u);
        ASSERT_LE(r.id, framed[c]) << "an answer to a frame never framed";
        ++answers[r.id - 1];
        const ScheduledFrame& frame = stream.frames[r.id - 1];
        switch (frame.kind) {
          case FrameKind::Route:
          case FrameKind::Distance:
          case FrameKind::BadWord:
            if (frame.after_drain) {
              EXPECT_EQ(r.status, Status::Draining) << "id " << r.id;
              ++draining;
              break;
            }
            if (r.status == Status::Overloaded) {
              ++overloaded;
              break;
            }
            // The dispatcher's answers come in admission order.
            EXPECT_GT(r.id, last_dispatched) << "answered out of order";
            last_dispatched = r.id;
            if (frame.kind == FrameKind::BadWord) {
              EXPECT_EQ(r.status, Status::BadRequest) << "id " << r.id;
              break;
            }
            ASSERT_EQ(r.status, Status::Ok) << "id " << r.id << ": " << r.body;
            if (frame.kind == FrameKind::Distance) {
              ASSERT_EQ(r.type, RequestType::Distance);
              EXPECT_EQ(static_cast<int>(r.distance),
                        engine.distance(frame.x, frame.y));
            } else {
              ASSERT_EQ(r.type, RequestType::Route);
              EXPECT_EQ(static_cast<int>(r.hops.size()),
                        engine.distance(frame.x, frame.y));
              EXPECT_TRUE(replay_lands_on(frame.x, frame.y, r.hops));
            }
            break;
          case FrameKind::Undecodable:
            EXPECT_EQ(r.status, Status::BadRequest) << "id " << r.id;
            break;
          case FrameKind::Introspect: {
            ASSERT_EQ(r.status, Status::Ok);
            ASSERT_EQ(r.type, RequestType::Introspect);
            const std::optional<obs::JsonValue> doc = obs::json_parse(r.body);
            ASSERT_TRUE(doc.has_value());
            const obs::JsonValue* stats = doc->find("stats");
            const obs::JsonValue* conns = doc->find("connections");
            ASSERT_NE(stats, nullptr);
            ASSERT_NE(conns, nullptr);
            const auto field = [&](std::string_view name) {
              return static_cast<std::uint64_t>(stats->number_at(name));
            };
            expect_identity(
                ServeStats{.requests = field("requests"),
                           .responses_ok = field("responses_ok"),
                           .rejected_overload = field("rejected_overload"),
                           .rejected_bad_request =
                               field("rejected_bad_request"),
                           .rejected_undecodable =
                               field("rejected_undecodable"),
                           .rejected_draining = field("rejected_draining")},
                static_cast<std::uint64_t>(doc->number_at("queue_depth")),
                static_cast<std::uint64_t>(doc->number_at("inflight")),
                "introspect answer");
            double counted = -1.0;
            for (const obs::JsonValue& entry : conns->items) {
              if (entry.number_at("id") == static_cast<double>(conn.id())) {
                counted = entry.number_at("requests");
              }
            }
            // Itself and every decodable request ahead of it.
            EXPECT_EQ(counted, static_cast<double>(frame.decodable_before + 1))
                << "probe id " << r.id;
            break;
          }
        }
      }
      for (std::size_t i = 0; i < framed[c]; ++i) {
        if (c == closing) {
          EXPECT_LE(answers[i], 1) << "id " << i + 1;
        } else {
          EXPECT_EQ(answers[i], 1) << "id " << i + 1;
        }
      }
    }
    EXPECT_EQ(final_snap.stats.requests, decodable);
    EXPECT_EQ(final_snap.stats.rejected_undecodable, undecodable);
  }
  // The schedules reach both refusals.
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(draining, 0u);
}

// --- determinism ------------------------------------------------------------

// One seeded multi-client run: returns each client's response bytes.
std::vector<std::string> concurrent_run(std::uint64_t seed) {
  ServeConfig config;
  config.d = 2;
  config.k = 12;
  config.threads = 4;
  config.cache_entries = 1024;
  config.queue_capacity = 1u << 16;  // no shedding: keep the runs comparable
  RouteServer server(config);

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kPerClient = 300;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(server));
  }
  std::vector<std::thread> feeders;
  feeders.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    feeders.emplace_back([&, c] {
      Rng rng = Rng(seed).fork(c);
      std::string stream;
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        const std::uint64_t id = (static_cast<std::uint64_t>(c) << 48) | i;
        if (i % 4 == 0) {
          encode_distance_request(id, random_word(rng, config.d, config.k),
                                  random_word(rng, config.d, config.k),
                                  stream);
        } else {
          encode_route_request(id, random_word(rng, config.d, config.k),
                               random_word(rng, config.d, config.k), stream);
        }
        // Fragmented feeds keep the reassembly path honest under
        // concurrency too.
        const std::size_t half = stream.size() / 2;
        EXPECT_TRUE(clients[c]->conn->feed(
            std::string_view(stream).substr(0, half)));
        EXPECT_TRUE(
            clients[c]->conn->feed(std::string_view(stream).substr(half)));
        stream.clear();
      }
    });
  }
  for (std::thread& t : feeders) {
    t.join();
  }
  server.wait_drained();
  std::vector<std::string> out;
  for (const auto& client : clients) {
    out.push_back(client->snapshot());
  }
  return out;
}

TEST(ServeServer, SeededConcurrentClientsAreDeterministic) {
  const std::vector<std::string> first = concurrent_run(42);
  const std::vector<std::string> second = concurrent_run(42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t c = 0; c < first.size(); ++c) {
    // Per-connection responses arrive in admission order, and every
    // backend is deterministic — the raw bytes must match run to run.
    EXPECT_EQ(first[c], second[c]) << "client " << c;
    EXPECT_FALSE(first[c].empty());
  }
}

// --- TCP transport ------------------------------------------------------------

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    static_cast<void>(entry);
    ++count;
  }
  return count;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads from `fd` until one whole response frame arrives; nullopt on EOF,
/// a bad frame or a 5 s timeout.
std::optional<Response> read_response(int fd) {
  FrameReader reader;
  std::string payload;
  char buffer[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      return std::nullopt;
    }
    reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    if (reader.next(payload) == FrameReader::Result::Frame) {
      const DecodedResponse decoded = decode_response(payload);
      if (decoded.error != DecodeError::None) {
        return std::nullopt;
      }
      return decoded.response;
    }
  }
  return std::nullopt;
}

/// Reads from `fd` until the peer closes it; false on a 5 s timeout.
bool wait_for_close(int fd) {
  char buffer[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    if (::recv(fd, buffer, sizeof(buffer), 0) <= 0) {
      return true;
    }
  }
  return false;
}

/// serve_tcp on its own thread; the destructor stops and joins it, so a
/// failed assertion never leaves it running.
struct TcpDaemon {
  TcpDaemon(RouteServer& server, const TcpOptions& options)
      : thread([this, &server, options] {
          exit_code = serve_tcp(server, options, stop);
        }) {}
  ~TcpDaemon() { shutdown(); }
  TcpDaemon(const TcpDaemon&) = delete;
  TcpDaemon& operator=(const TcpDaemon&) = delete;

  /// Stops the daemon and returns serve_tcp's exit status.
  int shutdown() {
    if (thread.joinable()) {
      stop.store(true, std::memory_order_release);
      thread.join();
    }
    return exit_code;
  }

  std::atomic<bool> stop{false};
  int exit_code = -1;
  std::thread thread;  // last: starts after the fields it writes exist
};

/// Polls the port file serve_tcp writes once it listens; 0 after 5 s.
std::uint16_t wait_for_port(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::ifstream in(path);
    unsigned port = 0;
    if (in >> port) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

// Connect/close churn must not accumulate fds, reader threads or
// Connections: serve_tcp reaps each client once its reader has exited.
TEST(ServeTcp, ReapsClientsThatDisconnect) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  TcpOptions options;
  options.port_file = ::testing::TempDir() + "serve_tcp_reap_" +
                      std::to_string(::getpid()) + ".port";
  std::remove(options.port_file.c_str());
  const std::size_t baseline = open_fd_count();
  TcpDaemon daemon(server, options);
  const std::uint16_t port = wait_for_port(options.port_file);
  std::remove(options.port_file.c_str());
  ASSERT_NE(port, 0);

  std::string ping;
  encode_control_request(RequestType::Ping, 1, ping);
  for (int i = 0; i < 200; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0) << "client " << i;
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    const std::optional<Response> pong = read_response(fd);
    ::close(fd);
    ASSERT_TRUE(pong.has_value()) << "client " << i;
    ASSERT_EQ(pong->type, RequestType::Ping);
  }

  // A peer that half-closes still gets the answer to what it sent first.
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  std::string route;
  encode_route_request(7, make_word(2, "0110"), make_word(2, "1001"), route);
  ASSERT_EQ(::send(fd, route.data(), route.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(route.size()));
  ::shutdown(fd, SHUT_WR);
  const std::optional<Response> answer = read_response(fd);
  ::close(fd);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->id, 7u);
  EXPECT_EQ(answer->status, Status::Ok);

  // Only the listener stays open once every client is reaped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline &&
         (open_fd_count() > baseline + 4 ||
          !server.introspect().connections.empty())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(open_fd_count(), baseline + 4);
  EXPECT_TRUE(server.introspect().connections.empty());
  EXPECT_EQ(daemon.shutdown(), 0);
}

// Routed requests and a framing error in one read: feed() admits the
// requests it decoded before it reports the error, so once they are
// answered nothing but the transport holds the Connection, and the client
// is reaped like any other.
TEST(ServeTcp, ReapsClientsThatBreakFramingAfterRoutedRequests) {
  ServeConfig config;
  config.d = 2;
  config.k = 4;
  RouteServer server(config);
  TcpOptions options;
  options.port_file = ::testing::TempDir() + "serve_tcp_framing_" +
                      std::to_string(::getpid()) + ".port";
  std::remove(options.port_file.c_str());
  const std::size_t baseline = open_fd_count();
  TcpDaemon daemon(server, options);
  const std::uint16_t port = wait_for_port(options.port_file);
  std::remove(options.port_file.c_str());
  ASSERT_NE(port, 0);

  std::string bytes;
  for (std::uint64_t i = 0; i < 8; ++i) {
    encode_route_request(i, make_word(2, "0110"), make_word(2, "1001"),
                         bytes);
  }
  const std::uint32_t huge = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 50; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0) << "client " << i;
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // The daemon shuts the connection down at the framing error.
    const bool closed = wait_for_close(fd);
    ::close(fd);
    ASSERT_TRUE(closed) << "client " << i;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline &&
         (open_fd_count() > baseline + 4 ||
          !server.introspect().connections.empty())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(open_fd_count(), baseline + 4);
  EXPECT_TRUE(server.introspect().connections.empty());
  EXPECT_EQ(server.stats().protocol_errors, 50u);
  EXPECT_EQ(daemon.shutdown(), 1);  // every one of them parted uncleanly
}

}  // namespace
