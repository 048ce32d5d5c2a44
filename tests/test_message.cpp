#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "oracle/routers.hpp"
#include "testing_util.hpp"

namespace dbn::net {
namespace {

Message sample_message() {
  const Word src(2, {0, 1, 1});
  const Word dst(2, {1, 0, 0});
  return Message(ControlCode::Data, src, dst,
                 route_bidirectional_mp(src, dst, WildcardMode::Wildcards),
                 {0xde, 0xad, 0xbe, 0xef});
}

TEST(Message, ConstructionValidatesFields) {
  const Word a(2, {0, 1});
  const Word b(3, {0, 1});
  EXPECT_THROW(Message(ControlCode::Data, a, b, RoutingPath{}),
               ContractViolation);
  RoutingPath bad({{ShiftType::Left, 7}});
  EXPECT_THROW(Message(ControlCode::Data, a, a, bad), ContractViolation);
  RoutingPath wildcard({{ShiftType::Left, kWildcard}});
  EXPECT_NO_THROW(Message(ControlCode::Data, a, a, wildcard));
}

TEST(Message, EncodeDecodeRoundTrip) {
  const Message msg = sample_message();
  const auto wire = encode(msg);
  const auto back = decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST(Message, RoundTripPreservesWildcards) {
  const Word src(3, {0, 1, 2});
  const Word dst(3, {2, 2, 0});
  Message msg(ControlCode::Probe, src, dst,
              route_bidirectional_suffix_tree(src, dst, WildcardMode::Wildcards));
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->path, msg.path);
  EXPECT_EQ(back->control, ControlCode::Probe);
}

TEST(Message, RoundTripEmptyPathAndPayload) {
  const Word w(2, {1, 1});
  const Message msg(ControlCode::Ack, w, w, RoutingPath{});
  const auto back = decode(encode(msg));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST(Message, DecodeRejectsTruncation) {
  const auto wire = encode(sample_message());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::uint8_t> truncated(wire.begin(),
                                        wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(truncated).has_value()) << "cut at " << cut;
  }
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  auto wire = encode(sample_message());
  wire.push_back(0x00);
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Message, DecodeRejectsCorruptedFields) {
  // Corrupt the control byte.
  auto wire = encode(sample_message());
  wire[0] = 0x77;
  EXPECT_FALSE(decode(wire).has_value());
  // Corrupt the radix (offset 1..4) to 1.
  wire = encode(sample_message());
  wire[1] = 1;
  wire[2] = wire[3] = wire[4] = 0;
  EXPECT_FALSE(decode(wire).has_value());
  // Corrupt a source digit to be >= radix (digits start at offset 9).
  wire = encode(sample_message());
  wire[9] = 9;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Message, DecodeRejectsOutOfRangeHopDigit) {
  const Word w(2, {0, 1});
  Message msg(ControlCode::Data, w, w, RoutingPath{{{ShiftType::Left, 1}}});
  auto wire = encode(msg);
  // Hop digit is the last 4 bytes before the payload length; payload empty.
  // Layout: ... hopcount(4) type(1) digit(4) payloadlen(4).
  const std::size_t digit_offset = wire.size() - 8;
  wire[digit_offset] = 5;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Message, FuzzDecoderNeverCrashes) {
  Rng rng(9090);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    (void)decode(junk);  // must not throw or crash
  }
  // Mutated valid messages must also never crash the decoder.
  const auto wire = encode(sample_message());
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = wire;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const auto result = decode(mutated);
    if (result.has_value()) {
      // If it decodes, the fields must be internally consistent.
      EXPECT_EQ(result->source.length(), result->destination.length());
    }
  }
}

}  // namespace
}  // namespace dbn::net
