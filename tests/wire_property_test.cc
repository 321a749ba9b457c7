// Property sweeps for the service wire format: canonical round-trips
// (Serialize(Parse(s)) == s and Parse(Serialize(p)) == p) over randomly
// generated payloads for all four item types, random transcript events of
// every kind, whole transcripts, and rejection of malformed input.
//
// Also pins the JSON parser (json::ParseInto) itself: AppendView
// reproduces every canonical document byte for byte, mutated documents are
// either rejected with a positioned ParseError or accepted as a fixed point
// of AppendView, a malformed corpus is rejected with exact error strings,
// and escapes decode to pinned bytes. The server's error frames carry these
// messages, so any drift is a wire-visible change.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "service/json.h"
#include "service/wire.h"
#include "session/session.h"

namespace qlearn {
namespace service {
namespace wire {
namespace {

/// Random text covering the escaping-sensitive cases: quotes, backslashes,
/// control characters, and plain ASCII.
std::string RandomText(common::Rng* rng) {
  static const char* kAtoms[] = {"a", "Z", "9", " ", "?",  "\"", "\\", "\n",
                                 "\t", "\r", "\b", "\f", "\x01", "/", "{", "}"};
  std::string text;
  const size_t length = rng->Uniform(24);
  for (size_t i = 0; i < length; ++i) {
    text += kAtoms[rng->Index(sizeof(kAtoms) / sizeof(kAtoms[0]))];
  }
  return text;
}

uint64_t RandomId(common::Rng* rng) {
  // Mix small ids (realistic rows/nodes) with full-range 64-bit values.
  return rng->Bernoulli(0.5) ? rng->Uniform(1000) : rng->Next();
}

/// A random payload of one of the four item types, with the item type's id
/// arity: one node for twigs, a row pair for joins, a row path for chains,
/// a candidate index for graph paths.
QuestionPayload RandomQuestion(common::Rng* rng) {
  QuestionPayload payload;
  switch (rng->Index(4)) {
    case 0:
      payload.kind = "twig";
      payload.ids = {RandomId(rng)};
      break;
    case 1:
      payload.kind = "join";
      payload.ids = {RandomId(rng), RandomId(rng)};
      break;
    case 2: {
      payload.kind = "chain";
      const size_t arity = 2 + rng->Uniform(5);
      for (size_t i = 0; i < arity; ++i) payload.ids.push_back(RandomId(rng));
      break;
    }
    default:
      payload.kind = "path";
      payload.ids = {RandomId(rng)};
      break;
  }
  payload.text = RandomText(rng);
  return payload;
}

session::SessionStats RandomStats(common::Rng* rng) {
  session::SessionStats stats;
  stats.questions = rng->Uniform(100000);
  stats.forced_positive = rng->Uniform(100000);
  stats.forced_negative = rng->Uniform(100000);
  stats.conflicts = rng->Uniform(3);
  return stats;
}

TranscriptEvent RandomEvent(common::Rng* rng) {
  TranscriptEvent event;
  switch (rng->Index(4)) {
    case 0:
      event.kind = TranscriptEvent::Kind::kOpen;
      event.scenario = RandomText(rng);
      event.seed = RandomId(rng);
      event.max_questions = RandomId(rng);
      break;
    case 1: {
      event.kind = TranscriptEvent::Kind::kAsk;
      event.requested = rng->Uniform(64) + 1;
      const size_t count = rng->Uniform(5);
      for (size_t i = 0; i < count; ++i) {
        event.questions.push_back(RandomQuestion(rng));
      }
      break;
    }
    case 2: {
      event.kind = TranscriptEvent::Kind::kTell;
      const size_t count = rng->Uniform(6);
      for (size_t i = 0; i < count; ++i) {
        event.labels.push_back(rng->Bernoulli(0.5));
      }
      break;
    }
    default:
      event.kind = TranscriptEvent::Kind::kClose;
      event.hypothesis.kind = RandomText(rng);
      event.hypothesis.text = RandomText(rng);
      event.stats = RandomStats(rng);
      break;
  }
  return event;
}

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, QuestionPayloadsOfAllFourItemTypes) {
  common::Rng rng(GetParam() * 104729 + 11);
  for (int i = 0; i < 50; ++i) {
    const QuestionPayload payload = RandomQuestion(&rng);
    const std::string s = Serialize(payload);
    auto parsed = ParseQuestionPayload(s);
    ASSERT_TRUE(parsed.ok()) << s << ": " << parsed.status().ToString();
    EXPECT_TRUE(parsed.value() == payload) << s;
    // Canonical form: serializing what was parsed reproduces the bytes.
    EXPECT_EQ(Serialize(parsed.value()), s);
  }
}

TEST_P(WireRoundTrip, HypothesesAndStats) {
  common::Rng rng(GetParam() * 7907 + 5);
  for (int i = 0; i < 50; ++i) {
    HypothesisPayload hypothesis;
    hypothesis.kind = RandomText(&rng);
    hypothesis.text = RandomText(&rng);
    const std::string h = Serialize(hypothesis);
    auto parsed_hypothesis = ParseHypothesisPayload(h);
    ASSERT_TRUE(parsed_hypothesis.ok()) << h;
    EXPECT_TRUE(parsed_hypothesis.value() == hypothesis);
    EXPECT_EQ(Serialize(parsed_hypothesis.value()), h);

    const session::SessionStats stats = RandomStats(&rng);
    const std::string s = Serialize(stats);
    auto parsed_stats = ParseStats(s);
    ASSERT_TRUE(parsed_stats.ok()) << s;
    EXPECT_EQ(Serialize(parsed_stats.value()), s);
  }
}

TEST_P(WireRoundTrip, TranscriptEventsOfEveryKind) {
  common::Rng rng(GetParam() * 6151 + 3);
  for (int i = 0; i < 40; ++i) {
    const TranscriptEvent event = RandomEvent(&rng);
    const std::string s = Serialize(event);
    auto parsed = ParseEvent(s);
    ASSERT_TRUE(parsed.ok()) << s << ": " << parsed.status().ToString();
    EXPECT_TRUE(parsed.value() == event) << s;
    EXPECT_EQ(Serialize(parsed.value()), s);
  }
}

TEST_P(WireRoundTrip, WholeTranscripts) {
  common::Rng rng(GetParam() * 389 + 1);
  std::vector<TranscriptEvent> events;
  const size_t count = rng.Uniform(12);
  for (size_t i = 0; i < count; ++i) events.push_back(RandomEvent(&rng));
  const std::string s = SerializeTranscript(events);
  auto parsed = ParseTranscript(s);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), events.size());
  EXPECT_EQ(SerializeTranscript(parsed.value()), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip, ::testing::Range(0, 20));

/// Whatever ParseInto says about `text`: a rejection is a ParseError
/// reading "json: ... at offset N" with N within the input, and an accepted
/// document serializes to a fixed point of AppendView (re-parsing its
/// serialization reproduces it).
void ExpectPositionedErrorOrFixedPoint(const std::string& text) {
  json::Arena arena;
  auto view = json::ParseInto(text, &arena);
  if (!view.ok()) {
    EXPECT_EQ(view.status().code(), common::StatusCode::kParseError) << text;
    const std::string& message = view.status().message();
    const std::string kPrefix = "json: ";
    const std::string kOffset = " at offset ";
    ASSERT_EQ(message.rfind(kPrefix, 0), 0u) << message;
    const size_t at = message.rfind(kOffset);
    ASSERT_NE(at, std::string::npos) << message;
    const std::string digits = message.substr(at + kOffset.size());
    ASSERT_FALSE(digits.empty()) << message;
    ASSERT_EQ(digits.find_first_not_of("0123456789"), std::string::npos)
        << message;
    EXPECT_LE(std::stoull(digits), text.size()) << message;
    return;
  }
  std::string serialized;
  json::AppendView(*view.value(), &serialized);
  json::Arena second_arena;
  auto reparsed = json::ParseInto(serialized, &second_arena);
  ASSERT_TRUE(reparsed.ok()) << serialized;
  std::string again;
  json::AppendView(*reparsed.value(), &again);
  EXPECT_EQ(again, serialized) << text;
}

class JsonParse : public ::testing::TestWithParam<int> {};

TEST_P(JsonParse, CanonicalPayloadsOfAllFourItemTypes) {
  common::Rng rng(GetParam() * 15013 + 7);
  json::Arena arena;
  for (int i = 0; i < 50; ++i) {
    const std::string s = Serialize(RandomQuestion(&rng));
    arena.Reset();
    auto view = json::ParseInto(s, &arena);
    ASSERT_TRUE(view.ok()) << s << ": " << view.status().ToString();
    std::string serialized;
    json::AppendView(*view.value(), &serialized);
    EXPECT_EQ(serialized, s);  // byte-identical to the wire writer
  }
}

TEST_P(JsonParse, CanonicalEventsAndStats) {
  common::Rng rng(GetParam() * 27791 + 13);
  json::Arena arena;
  for (int i = 0; i < 40; ++i) {
    const std::string s = Serialize(RandomEvent(&rng));
    arena.Reset();
    auto view = json::ParseInto(s, &arena);
    ASSERT_TRUE(view.ok()) << s << ": " << view.status().ToString();
    std::string serialized;
    json::AppendView(*view.value(), &serialized);
    EXPECT_EQ(serialized, s);
  }
}

TEST_P(JsonParse, MutatedInputsAreRejectedAtAnOffsetOrRoundTrip) {
  common::Rng rng(GetParam() * 9973 + 29);
  // Start from valid documents and corrupt them: truncation, byte flips,
  // injected junk.
  for (int i = 0; i < 60; ++i) {
    std::string s = Serialize(RandomEvent(&rng));
    switch (rng.Index(4)) {
      case 0:  // truncate
        s.resize(rng.Uniform(s.size() + 1));
        break;
      case 1:  // flip one byte to a printable character
        if (!s.empty()) {
          s[rng.Index(s.size())] =
              static_cast<char>(' ' + rng.Uniform(95));
        }
        break;
      case 2:  // append trailing junk
        s += static_cast<char>(' ' + rng.Uniform(95));
        break;
      default:  // insert a byte mid-document
        s.insert(rng.Uniform(s.size() + 1), 1,
                 static_cast<char>(' ' + rng.Uniform(95)));
        break;
    }
    ExpectPositionedErrorOrFixedPoint(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonParse, ::testing::Range(0, 20));

TEST(JsonParseTest, MalformedCorpusGivesPinnedVerdicts) {
  // The verdict for each input: the exact error, or (for the two inputs
  // the grammar accepts) "accepted: " plus the canonical re-serialization.
  const std::pair<std::string, std::string> kCorpus[] = {
      {"", "ParseError: json: unexpected end of input at offset 0"},
      {"{", "ParseError: json: expected '\"' at offset 1"},
      {"}", "ParseError: json: unexpected character '}' at offset 0"},
      {"nul", "ParseError: json: unexpected character 'n' at offset 0"},
      {"truely",
       "ParseError: json: trailing characters after JSON value at offset 4"},
      {"\"unterminated", "ParseError: json: unterminated string at offset 13"},
      {"\"bad \\q escape\"", "ParseError: json: invalid escape at offset 7"},
      {"{\"a\":1,}", "ParseError: json: expected '\"' at offset 7"},
      {"{\"a\" 1}",
       "ParseError: json: expected ':' after object key at offset 5"},
      {"[1,]", "ParseError: json: unexpected character ']' at offset 3"},
      {"[1 2]", "ParseError: json: expected ',' or ']' in array at offset 3"},
      {"{\"a\":01}", "ParseError: json: leading zero in integer at offset 7"},
      {"{\"a\":-1}", "ParseError: json: unexpected character '-' at offset 5"},
      {"{\"a\":1.5}",
       "ParseError: json: expected ',' or '}' in object at offset 6"},
      {"{\"a\":99999999999999999999999}",
       "ParseError: json: integer overflow at offset 24"},
      {"{\"a\":1} trailing",
       "ParseError: json: trailing characters after JSON value at offset 8"},
      {"  {\"a\":1}", "accepted: {\"a\":1}"},
      // A raw control character inside a string is accepted and written
      // back escaped.
      {"{\"a\":\"\x01\"}", "accepted: {\"a\":\"\\u0001\"}"},
  };
  json::Arena arena;
  for (const auto& [text, verdict] : kCorpus) {
    arena.Reset();
    auto view = json::ParseInto(text, &arena);
    std::string got;
    if (view.ok()) {
      got = "accepted: ";
      json::AppendView(*view.value(), &got);
    } else {
      got = view.status().ToString();
    }
    EXPECT_EQ(got, verdict) << text;
  }
}

TEST(JsonParseTest, EscapesDecodeToPinnedBytes) {
  // Escape-free strings take the zero-copy path, escaped ones the decode
  // path; both are pinned by the decoded bytes of member "k" and, for
  // canonical documents, by AppendView reproducing the input.
  struct Case {
    std::string text;
    std::string decoded;
    bool canonical;
  };
  const Case kCases[] = {
      {"{\"k\":\"plain\"}", "plain", true},
      {"{\"k\":\"quote \\\" backslash \\\\\"}", "quote \" backslash \\",
       true},
      {"{\"k\":\"\\b\\f\\n\\r\\t\"}", "\b\f\n\r\t", true},
      {"{\"k\":\"\\u0001\\u001f\"}", "\x01\x1f", true},
      {"{\"k\":\"\"}", "", true},
      {"{\"k\":\"a\\/b\"}", "a/b", false},
      {"{\"k\":\"\\u0041\\u007E\"}", "A~", false},
  };
  json::Arena arena;
  for (const Case& c : kCases) {
    arena.Reset();
    auto view = json::ParseInto(c.text, &arena);
    ASSERT_TRUE(view.ok()) << c.text << ": " << view.status().ToString();
    uint64_t seen = 0;
    auto decoded =
        json::ToStringView(json::Find(*view.value(), "k", &seen), "k");
    ASSERT_TRUE(decoded.ok()) << c.text;
    EXPECT_EQ(decoded.value(), c.decoded) << c.text;
    std::string serialized;
    json::AppendView(*view.value(), &serialized);
    if (c.canonical) {
      EXPECT_EQ(serialized, c.text);
    }
  }
  // An escaped key decodes the same way.
  arena.Reset();
  auto escaped_key = json::ParseInto("{\"\\n\":\"escaped key\"}", &arena);
  ASSERT_TRUE(escaped_key.ok());
  EXPECT_EQ(escaped_key.value()->members[0].key, "\n");
  std::string serialized;
  json::AppendView(*escaped_key.value(), &serialized);
  EXPECT_EQ(serialized, "{\"\\n\":\"escaped key\"}");
  // Escapes past 0x7f are rejected: non-ASCII travels as raw UTF-8.
  arena.Reset();
  auto wide = json::ParseInto("{\"k\":\"\\u00e9\"}", &arena);
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().ToString(),
            "ParseError: json: \\u escape above 0x7f unsupported at offset 12");
}

TEST(JsonParseTest, NestingPastTheDepthLimitIsRejectedNotRecursedInto) {
  json::Arena arena;
  const auto nested = [](size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  // At the limit both container kinds parse and round-trip.
  const std::string arrays = nested(json::kMaxDepth, '[', ']');
  auto view = json::ParseInto(arrays, &arena);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  std::string serialized;
  json::AppendView(*view.value(), &serialized);
  EXPECT_EQ(serialized, arrays);
  std::string objects;
  for (uint32_t i = 0; i < json::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(json::kMaxDepth, '}');
  arena.Reset();
  EXPECT_TRUE(json::ParseInto(objects, &arena).ok());
  // One level deeper is an error at the container that crosses the limit.
  arena.Reset();
  auto deeper = json::ParseInto(nested(json::kMaxDepth + 1, '[', ']'), &arena);
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.status().ToString(),
            "ParseError: json: nesting deeper than 64 levels at offset 64");
  // A frame-sized run of brackets (1 MiB, the default frame cap) fails
  // the same way instead of exhausting the stack.
  arena.Reset();
  auto bomb = json::ParseInto(std::string(size_t{1} << 20, '['), &arena);
  ASSERT_FALSE(bomb.ok());
  EXPECT_EQ(bomb.status().ToString(),
            "ParseError: json: nesting deeper than 64 levels at offset 64");
}

TEST(WireRejectionTest, MalformedInputIsParseError) {
  const char* kMalformed[] = {
      "",                                          // empty
      "{",                                         // truncated
      "{\"kind\":\"twig\",\"ids\":[1]}",           // missing key
      "{\"kind\":\"twig\",\"ids\":[1],\"text\":\"x\",\"extra\":1}",  // unknown
      "{\"kind\":\"twig\",\"ids\":[-1],\"text\":\"x\"}",   // negative id
      "{\"kind\":\"twig\",\"ids\":[1.5],\"text\":\"x\"}",  // float id
      "{\"kind\":twig,\"ids\":[1],\"text\":\"x\"}",        // bare word
      "{\"kind\":\"twig\",\"ids\":[1],\"text\":\"x\"} junk",  // trailing
      "{\"kind\":\"twig\",\"kind\":\"twig\",\"ids\":[1],\"text\":\"x\"}",
      "{\"kind\":\"twig\",\"ids\":[01],\"text\":\"x\"}",   // leading zero
      "{\"kind\":\"twig\",\"ids\":[99999999999999999999999],\"text\":\"x\"}",
  };
  for (const char* text : kMalformed) {
    auto parsed = ParseQuestionPayload(text);
    EXPECT_FALSE(parsed.ok()) << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), common::StatusCode::kParseError)
          << text;
    }
  }
  EXPECT_FALSE(ParseEvent("{\"event\":\"bogus\"}").ok());
  EXPECT_FALSE(ParseTranscript("{\"event\":\"tell\",\"labels\":[]}\n{").ok());
}

TEST(WireAcceptanceTest, KeyOrderAndWhitespaceAreFlexibleOnParse) {
  // Parsers accept any key order and surrounding whitespace; the canonical
  // writer then normalizes.
  auto parsed = ParseQuestionPayload(
      " { \"text\" : \"is it?\" , \"ids\" : [ 4 ] , \"kind\" : \"twig\" } ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Serialize(parsed.value()),
            "{\"kind\":\"twig\",\"ids\":[4],\"text\":\"is it?\"}");
}

}  // namespace
}  // namespace wire
}  // namespace service
}  // namespace qlearn
