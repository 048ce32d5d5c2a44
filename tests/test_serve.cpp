// Serving stack tests: wire protocol framing/decoding (round trips and
// every malformed-frame class), RouteServer request handling against the
// reference routers, bounded-queue backpressure, drain semantics, and a
// seeded concurrent-client determinism check (same seed, same per-client
// response bytes, run twice).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/path.hpp"
#include "core/routers.hpp"
#include "debruijn/word.hpp"
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

/// A test client: captures every response frame the server sends it.
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

}  // namespace
