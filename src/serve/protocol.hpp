// The `dbn serve` wire protocol (schema "serve/1", spec in
// docs/serving.md): length-prefixed binary frames over any ordered byte
// stream (a TCP connection or a stdin/stdout pipe pair).
//
//   frame    := u32-LE payload_length | payload
//   request  := u8 type | u64-LE id | body
//   response := u8 status | u8 type | u64-LE id | body
//
// Request bodies:
//   Route / Distance          u16-LE k | k bytes X digits | k bytes Y digits
//   Ping / Stats / Introspect empty
//
// Response bodies (status == Ok):
//   Route      u16-LE hop_count | hop_count x (u8 shift, u8 digit)
//              shift: 0 = left, 1 = right; digit 0xFF encodes the paper's
//              "*" wildcard (any forwarding site may pick the digit)
//   Distance   u32-LE distance
//   Ping       empty
//   Stats      UTF-8 metrics/1 JSON snapshot
//   Introspect UTF-8 introspect/1 JSON document (config + exact accounting
//              + embedded metrics snapshot; see docs/serving.md)
// Response bodies (status != Ok): UTF-8 error message.
//
// Introspect is a compatible extension of serve/1: servers predating it
// answer BadRequest(unknown-type) on the request's own id, which probes
// (dbn_top, dbn_loadgen) treat as "no probe support", not as a failure.
//
// Digits ride in one byte each, which is why the server requires d <= 255
// (0xFF stays free for the wildcard). The frame length prefix is bounded
// by kMaxPayload; a peer declaring more is lying or corrupt, and since a
// length-prefixed stream cannot resynchronize after a bad prefix, framing
// errors are connection-fatal by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/path.hpp"
#include "debruijn/word.hpp"

namespace dbn::serve {

/// Hard ceiling on one frame's payload. Requests are tens of bytes; the
/// one large frame is a Stats response carrying a metrics snapshot.
inline constexpr std::size_t kMaxPayload = 1u << 20;

/// Wire encoding of the wildcard digit (Digit itself is 32-bit).
inline constexpr std::uint8_t kWireWildcard = 0xFF;

/// Largest radix the wire format can carry (one byte per digit, 0xFF
/// reserved for the wildcard).
inline constexpr std::uint32_t kMaxWireRadix = 255;

enum class RequestType : std::uint8_t {
  Route = 1,     // full routing path for (X, Y)
  Distance = 2,  // undirected/directed distance per the server's backend
  Ping = 3,        // liveness; echoes the id
  Stats = 4,       // metrics/1 snapshot of the server's registry
  Introspect = 5,  // introspect/1 probe: config + exact accounting
};

enum class Status : std::uint8_t {
  Ok = 0,
  BadRequest = 1,   // malformed body, wrong k, digit out of range, bad type
  Overloaded = 2,   // bounded request queue is full — retry later
  Draining = 3,     // server is shutting down; no new work accepted
  InternalError = 4,
};

std::string_view status_name(Status status);

/// A decoded request. For Route/Distance, `x`/`y` hold the raw wire digits
/// (validated against (d, k) by the server, which knows the network).
struct Request {
  RequestType type = RequestType::Ping;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> x;
  std::vector<std::uint8_t> y;
};

/// A decoded response, body already interpreted per type/status.
struct Response {
  Status status = Status::Ok;
  RequestType type = RequestType::Ping;
  std::uint64_t id = 0;
  std::vector<Hop> hops;      // Route + Ok
  std::uint32_t distance = 0; // Distance + Ok
  std::string body;           // Stats JSON, or the error message
};

// --- encoding (appends one complete frame to `out`) ---

void encode_route_request(std::uint64_t id, const Word& x, const Word& y,
                          std::string& out);
void encode_distance_request(std::uint64_t id, const Word& x, const Word& y,
                             std::string& out);
void encode_control_request(RequestType type, std::uint64_t id,
                            std::string& out);

void encode_route_response(std::uint64_t id, const RoutingPath& path,
                           std::string& out);
void encode_distance_response(std::uint64_t id, std::uint32_t distance,
                              std::string& out);
void encode_ok_response(RequestType type, std::uint64_t id,
                        std::string_view body, std::string& out);
void encode_error_response(RequestType type, Status status, std::uint64_t id,
                           std::string_view message, std::string& out);

// --- decoding (one frame payload -> structure) ---

/// Why a payload failed to decode. Header errors (the payload is too short
/// to even carry type + id) leave no id to respond to; body errors do.
enum class DecodeError {
  None,
  TruncatedHeader,   // shorter than the fixed request/response header
  UnknownType,
  TruncatedBody,     // body shorter than its own length fields promise
  TrailingBytes,     // body longer than the type's encoding
};

std::string_view decode_error_name(DecodeError error);

struct DecodedRequest {
  DecodeError error = DecodeError::None;
  Request request;  // id is populated whenever the header parsed
};

struct DecodedResponse {
  DecodeError error = DecodeError::None;
  Response response;
};

DecodedRequest decode_request(std::string_view payload);
DecodedResponse decode_response(std::string_view payload);

// --- framing ---

/// Incremental frame extractor over an ordered byte stream. Feed bytes in
/// any fragmentation; next() yields complete payloads in order. A declared
/// length of zero (no valid payload is empty — the request header alone is
/// 9 bytes) or above kMaxPayload poisons the reader permanently (the
/// stream cannot be resynchronized).
class FrameReader {
 public:
  enum class Result { NeedMore, Frame, Error };

  /// Appends `bytes`, first dropping the frames next() already returned,
  /// so draining a feed of n frames moves each byte once, not n times.
  void feed(std::string_view bytes);

  /// Extracts the next complete payload into `payload`.
  Result next(std::string& payload);

  bool poisoned() const { return poisoned_; }
  /// Bytes buffered but not yet consumed (a non-empty value at EOF means
  /// the peer truncated a frame mid-stream).
  std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ next() already returned
  bool poisoned_ = false;
};

/// Converts wire digits into a Word of radix d, or nullopt when any digit
/// is out of range (wire validation, not a contract: the bytes came from
/// the network).
std::optional<Word> word_from_wire(std::uint32_t d,
                                   const std::vector<std::uint8_t>& digits);

}  // namespace dbn::serve
