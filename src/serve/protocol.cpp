#include "serve/protocol.hpp"

#include <cstring>

#include "common/contract.hpp"

namespace dbn::serve {

namespace {

// All multi-byte wire integers are little-endian, written explicitly so
// the format does not depend on host byte order.
void put_u16(std::uint16_t v, std::string& out) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::uint32_t v, std::string& out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void put_u64(std::uint64_t v, std::string& out) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

// Finishes a frame started by begin_frame: patches the u32 length prefix
// now that the payload size is known.
std::size_t begin_frame(std::string& out) {
  const std::size_t at = out.size();
  put_u32(0, out);
  return at;
}

void end_frame(std::string& out, std::size_t at) {
  const std::size_t payload = out.size() - at - 4;
  DBN_ASSERT(payload <= kMaxPayload, "encoder produced an oversized frame");
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<char>((payload >> (8 * i)) & 0xFF);
  }
}

void put_word_pair(const Word& x, const Word& y, std::string& out) {
  DBN_REQUIRE(x.radix() == y.radix() && x.length() == y.length(),
              "wire words must share radix and length");
  DBN_REQUIRE(x.radix() <= kMaxWireRadix,
              "wire digits are one byte; radix must be <= 255");
  DBN_REQUIRE(x.length() <= 0xFFFF, "wire k is 16-bit");
  put_u16(static_cast<std::uint16_t>(x.length()), out);
  for (std::size_t i = 0; i < x.length(); ++i) {
    out.push_back(static_cast<char>(x.digit(i)));
  }
  for (std::size_t i = 0; i < y.length(); ++i) {
    out.push_back(static_cast<char>(y.digit(i)));
  }
}

void encode_pair_request(RequestType type, std::uint64_t id, const Word& x,
                         const Word& y, std::string& out) {
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(type));
  put_u64(id, out);
  put_word_pair(x, y, out);
  end_frame(out, frame);
}

bool known_request_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(RequestType::Route) &&
         type <= static_cast<std::uint8_t>(RequestType::Introspect);
}

}  // namespace

std::string_view status_name(Status status) {
  switch (status) {
    case Status::Ok:
      return "ok";
    case Status::BadRequest:
      return "bad-request";
    case Status::Overloaded:
      return "overloaded";
    case Status::Draining:
      return "draining";
    case Status::InternalError:
      return "internal-error";
  }
  return "unknown";
}

std::string_view decode_error_name(DecodeError error) {
  switch (error) {
    case DecodeError::None:
      return "none";
    case DecodeError::TruncatedHeader:
      return "truncated-header";
    case DecodeError::UnknownType:
      return "unknown-type";
    case DecodeError::TruncatedBody:
      return "truncated-body";
    case DecodeError::TrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

void encode_route_request(std::uint64_t id, const Word& x, const Word& y,
                          std::string& out) {
  encode_pair_request(RequestType::Route, id, x, y, out);
}

void encode_distance_request(std::uint64_t id, const Word& x, const Word& y,
                             std::string& out) {
  encode_pair_request(RequestType::Distance, id, x, y, out);
}

void encode_control_request(RequestType type, std::uint64_t id,
                            std::string& out) {
  DBN_REQUIRE(type == RequestType::Ping || type == RequestType::Stats ||
                  type == RequestType::Introspect,
              "control requests are Ping, Stats, or Introspect");
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(type));
  put_u64(id, out);
  end_frame(out, frame);
}

void encode_route_response(std::uint64_t id, const RoutingPath& path,
                           std::string& out) {
  DBN_REQUIRE(path.length() <= 0xFFFF, "wire hop count is 16-bit");
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(Status::Ok));
  out.push_back(static_cast<char>(RequestType::Route));
  put_u64(id, out);
  put_u16(static_cast<std::uint16_t>(path.length()), out);
  for (const Hop& hop : path.hops()) {
    out.push_back(static_cast<char>(hop.type));
    out.push_back(hop.is_wildcard()
                      ? static_cast<char>(kWireWildcard)
                      : static_cast<char>(hop.digit));
  }
  end_frame(out, frame);
}

void encode_distance_response(std::uint64_t id, std::uint32_t distance,
                              std::string& out) {
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(Status::Ok));
  out.push_back(static_cast<char>(RequestType::Distance));
  put_u64(id, out);
  put_u32(distance, out);
  end_frame(out, frame);
}

void encode_ok_response(RequestType type, std::uint64_t id,
                        std::string_view body, std::string& out) {
  DBN_REQUIRE(body.size() + 10 <= kMaxPayload, "response body too large");
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(Status::Ok));
  out.push_back(static_cast<char>(type));
  put_u64(id, out);
  out.append(body);
  end_frame(out, frame);
}

void encode_error_response(RequestType type, Status status, std::uint64_t id,
                           std::string_view message, std::string& out) {
  DBN_REQUIRE(status != Status::Ok, "error responses need an error status");
  const std::size_t frame = begin_frame(out);
  out.push_back(static_cast<char>(status));
  out.push_back(static_cast<char>(type));
  put_u64(id, out);
  out.append(message.substr(0, 256));
  end_frame(out, frame);
}

DecodeError decode_request(std::string_view payload, Request& out,
                           std::size_t max_k) {
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  if (payload.size() < 9) {
    return DecodeError::TruncatedHeader;
  }
  const std::uint8_t raw_type = p[0];
  out.id = get_u64(p + 1);
  if (!known_request_type(raw_type)) {
    return DecodeError::UnknownType;
  }
  out.type = static_cast<RequestType>(raw_type);
  const std::string_view body = payload.substr(9);
  if (out.type != RequestType::Route && out.type != RequestType::Distance) {
    out.x.clear();
    out.y.clear();
    return body.empty() ? DecodeError::None : DecodeError::TrailingBytes;
  }
  if (body.size() < 2) {
    return DecodeError::TruncatedBody;
  }
  const auto* b = reinterpret_cast<const unsigned char*>(body.data());
  const std::size_t k = get_u16(b);
  if (body.size() < 2 + 2 * k) {
    return DecodeError::TruncatedBody;
  }
  if (body.size() > 2 + 2 * k) {
    return DecodeError::TrailingBytes;
  }
  if (k > max_k) {
    out.x.clear();
    out.y.clear();
    return DecodeError::None;
  }
  out.x.assign(b + 2, b + 2 + k);
  out.y.assign(b + 2 + k, b + 2 + 2 * k);
  return DecodeError::None;
}

DecodedRequest decode_request(std::string_view payload) {
  DecodedRequest result;
  result.error = decode_request(payload, result.request);
  return result;
}

DecodedResponse decode_response(std::string_view payload) {
  DecodedResponse result;
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  if (payload.size() < 10) {
    result.error = DecodeError::TruncatedHeader;
    return result;
  }
  const std::uint8_t raw_status = p[0];
  const std::uint8_t raw_type = p[1];
  if (raw_status > static_cast<std::uint8_t>(Status::InternalError) ||
      !known_request_type(raw_type)) {
    result.error = DecodeError::UnknownType;
    return result;
  }
  result.response.status = static_cast<Status>(raw_status);
  result.response.type = static_cast<RequestType>(raw_type);
  result.response.id = get_u64(p + 2);
  std::string_view body = payload.substr(10);
  if (result.response.status != Status::Ok) {
    result.response.body.assign(body);
    return result;
  }
  switch (result.response.type) {
    case RequestType::Route: {
      if (body.size() < 2) {
        result.error = DecodeError::TruncatedBody;
        return result;
      }
      const auto* b = reinterpret_cast<const unsigned char*>(body.data());
      const std::size_t hops = get_u16(b);
      if (body.size() != 2 + 2 * hops) {
        result.error = body.size() < 2 + 2 * hops ? DecodeError::TruncatedBody
                                                  : DecodeError::TrailingBytes;
        return result;
      }
      result.response.hops.reserve(hops);
      for (std::size_t i = 0; i < hops; ++i) {
        const std::uint8_t shift = b[2 + 2 * i];
        const std::uint8_t digit = b[3 + 2 * i];
        if (shift > 1) {
          result.error = DecodeError::UnknownType;
          return result;
        }
        result.response.hops.push_back(
            Hop{static_cast<ShiftType>(shift),
                digit == kWireWildcard ? kWildcard : Digit{digit}});
      }
      return result;
    }
    case RequestType::Distance:
      if (body.size() != 4) {
        result.error = body.size() < 4 ? DecodeError::TruncatedBody
                                       : DecodeError::TrailingBytes;
        return result;
      }
      result.response.distance =
          get_u32(reinterpret_cast<const unsigned char*>(body.data()));
      return result;
    case RequestType::Ping:
      if (!body.empty()) {
        result.error = DecodeError::TrailingBytes;
      }
      return result;
    case RequestType::Stats:
    case RequestType::Introspect:
      result.response.body.assign(body);
      return result;
  }
  result.error = DecodeError::UnknownType;
  return result;
}

void FrameReader::feed(std::string_view bytes) {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  buffer_.append(bytes);
}

FrameReader::Result FrameReader::next(std::string& payload) {
  if (poisoned_) {
    return Result::Error;
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) {
    return Result::NeedMore;
  }
  const std::size_t length = get_u32(
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_));
  // length == 0 is a framing error, not an empty request: every valid
  // payload starts with a 9-byte request header, so a zero-length frame
  // can only come from a desynchronized or malicious peer — treat it like
  // an oversized frame and poison the stream (no resync is possible).
  if (length == 0 || length > kMaxPayload) {
    poisoned_ = true;
    return Result::Error;
  }
  if (available < 4 + length) {
    return Result::NeedMore;
  }
  payload.assign(buffer_, consumed_ + 4, length);
  consumed_ += 4 + length;
  return Result::Frame;
}

std::optional<Word> word_from_wire(std::uint32_t d,
                                   const std::vector<std::uint8_t>& digits) {
  Word word = Word::zero(d, digits.size());
  if (!word.try_assign(digits)) {
    return std::nullopt;
  }
  return word;
}

}  // namespace dbn::serve
