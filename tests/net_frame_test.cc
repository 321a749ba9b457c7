// Robustness tests for the framed-TCP front end's parsing edge: zero-length,
// oversized, and truncated frames, malformed JSON payloads, the bounded
// per-connection buffer, and — over a real socket — that a connection stays
// usable after every class of bad frame.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/json.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace qlearn {
namespace net {
namespace {

using common::Status;
using common::StatusCode;

std::string Framed(const std::string& payload,
                   size_t max = kDefaultMaxFrameBytes) {
  std::string out;
  EXPECT_TRUE(AppendFrame(payload, max, &out));
  return out;
}

TEST(FrameTest, AppendFrameEncodesBigEndianLength) {
  std::string out;
  ASSERT_TRUE(AppendFrame("abc", kDefaultMaxFrameBytes, &out));
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[2]), 0);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 3);
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

TEST(FrameTest, AppendFrameRejectsEmptyAndOversizedWithoutTouchingOut) {
  std::string out = "prefix";
  EXPECT_FALSE(AppendFrame("", kDefaultMaxFrameBytes, &out));
  EXPECT_EQ(out, "prefix");
  EXPECT_FALSE(AppendFrame(std::string(9, 'x'), /*max_frame_bytes=*/8, &out));
  EXPECT_EQ(out, "prefix");
  EXPECT_TRUE(AppendFrame(std::string(8, 'x'), /*max_frame_bytes=*/8, &out));
  EXPECT_EQ(out.size(), 6 + kFrameHeaderBytes + 8);
}

TEST(FrameTest, RoundTripsOneFrame) {
  FrameReader reader;
  const std::string framed = Framed("{\"op\":\"counters\"}");
  reader.Feed(framed.data(), framed.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event event = reader.Next();
  EXPECT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
  EXPECT_EQ(event.payload, "{\"op\":\"counters\"}");
  EXPECT_FALSE(reader.HasEvent());
  EXPECT_FALSE(reader.MidFrame());
  EXPECT_EQ(reader.BufferedBytes(), 0u);
}

TEST(FrameTest, ReassemblesFramesFedOneByteAtATime) {
  FrameReader reader;
  std::string stream = Framed("first") + Framed("second") + Framed("third");
  std::vector<std::string> payloads;
  for (char byte : stream) {
    reader.Feed(&byte, 1);
    while (reader.HasEvent()) {
      FrameReader::Event event = reader.Next();
      ASSERT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
      payloads.push_back(event.payload);
    }
  }
  EXPECT_EQ(payloads, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_FALSE(reader.MidFrame());
}

TEST(FrameTest, ZeroLengthFrameIsRecoverable) {
  FrameReader reader;
  const char zero_header[kFrameHeaderBytes] = {0, 0, 0, 0};
  reader.Feed(zero_header, sizeof(zero_header));
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event bad = reader.Next();
  EXPECT_EQ(bad.kind, FrameReader::Event::Kind::kBadFrame);
  EXPECT_NE(bad.error.find("zero-length"), std::string::npos);
  // The reader resynchronizes at the next header: a good frame parses.
  const std::string good = Framed("after");
  reader.Feed(good.data(), good.size());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "after");
}

TEST(FrameTest, OversizedFrameIsDiscardedStreamingNotBuffered) {
  constexpr size_t kMax = 16;
  FrameReader reader(kMax);
  // Declare a 1000-byte payload against a 16-byte cap.
  const unsigned char header[kFrameHeaderBytes] = {0, 0, 0x03, 0xe8};
  reader.Feed(reinterpret_cast<const char*>(header), sizeof(header));
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event bad = reader.Next();
  EXPECT_EQ(bad.kind, FrameReader::Event::Kind::kBadFrame);
  EXPECT_NE(bad.error.find("1000"), std::string::npos);
  // Stream the oversized body in chunks: the reader must not buffer it.
  std::string body(1000, 'x');
  for (size_t i = 0; i < body.size(); i += 100) {
    reader.Feed(body.data() + i, 100);
    EXPECT_LE(reader.BufferedBytes(), kFrameHeaderBytes + kMax);
  }
  EXPECT_FALSE(reader.MidFrame());
  // The byte after the declared body is a fresh header.
  const std::string good = Framed("ok", kMax);
  reader.Feed(good.data(), good.size());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "ok");
}

TEST(FrameTest, BufferedBytesNeverExceedsOneFrame) {
  constexpr size_t kMax = 64;
  FrameReader reader(kMax);
  const std::string stream = Framed(std::string(kMax, 'a'), kMax) +
                             Framed(std::string(kMax / 2, 'b'), kMax);
  for (size_t i = 0; i < stream.size(); ++i) {
    reader.Feed(stream.data() + i, 1);
    EXPECT_LE(reader.BufferedBytes(), kFrameHeaderBytes + kMax);
  }
  EXPECT_EQ(reader.EventCount(), 2u);
}

TEST(FrameTest, MidFrameDetectsTruncation) {
  FrameReader reader;
  const std::string framed = Framed("truncated payload");
  // Partial header.
  reader.Feed(framed.data(), 2);
  EXPECT_TRUE(reader.MidFrame());
  // Full header, partial payload.
  reader.Feed(framed.data() + 2, 5);
  EXPECT_TRUE(reader.MidFrame());
  EXPECT_FALSE(reader.HasEvent());
  // Rest of the payload: complete, no longer mid-frame.
  reader.Feed(framed.data() + 7, framed.size() - 7);
  EXPECT_FALSE(reader.MidFrame());
  ASSERT_TRUE(reader.HasEvent());
  EXPECT_EQ(reader.Next().payload, "truncated payload");
}

// --- Malformed JSON payloads at the protocol layer (no sockets). ---

StatusCode ErrorCodeOf(const std::string& response_frame) {
  auto parsed = ParseResponse(Request::Op::kCounters, response_frame);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString()
                           << " frame: " << response_frame;
  if (!parsed.ok()) return StatusCode::kOk;
  EXPECT_FALSE(parsed.value().status.ok()) << "frame: " << response_frame;
  return parsed.value().status.code();
}

TEST(ProtocolTest, MalformedJsonYieldsStructuredParseError) {
  service::SessionService service;
  EXPECT_EQ(ErrorCodeOf(HandleFrame(&service, "not json at all")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(HandleFrame(&service, "{\"op\":\"ask\"")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(HandleFrame(&service, "[1,2,3]")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(HandleFrame(&service, "{\"op\":\"warp\"}")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(HandleFrame(
                &service, "{\"op\":\"counters\",\"bogus\":1}")),
            StatusCode::kParseError);
  EXPECT_EQ(ErrorCodeOf(HandleFrame(
                &service, "{\"op\":\"ask\",\"id\":\"s-1\",\"k\":1}")),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Counters().errors, 1u);  // only the NotFound hit the
                                             // service; parse errors do not
}

TEST(ProtocolTest, RequestWithMoreKeysThanTheSeenMaskIsRejected) {
  // 65 keys with "op" at index 64 — past the 64-bit seen mask both strict
  // parsers use. The request must come back as a structured parse error
  // (unknown keys) on the heap and the arena dispatch paths alike, with
  // no out-of-range shift on the lookup.
  service::SessionService service;
  std::string request = "{";
  for (int i = 0; i < 64; ++i) {
    request += "\"k" + std::to_string(i) + "\":1,";
  }
  request += "\"op\":\"counters\"}";
  EXPECT_EQ(ErrorCodeOf(HandleFrame(&service, request)),
            StatusCode::kParseError);
  service::json::Arena arena;
  std::string response;
  HandleFrameInto(&service, request, &arena, &response);
  EXPECT_EQ(ErrorCodeOf(response), StatusCode::kParseError);
  EXPECT_EQ(response, HandleFrame(&service, request));
}

TEST(ProtocolTest, MalformedRequestsAnswerWithPinnedErrorFrames) {
  // Every request-side rejection, with the exact wording a client sees.
  const std::pair<std::string, std::string> kCases[] = {
      {"not json at all", "json: unexpected character 'n' at offset 0"},
      {"{\"op\":\"ask\"", "json: expected ',' or '}' in object at offset 11"},
      {"[1,2,3]", "protocol: request must be an object"},
      {"{\"op\":\"warp\"}", "protocol: unknown op \"warp\""},
      {"{\"op\":\"counters\",\"bogus\":1}",
       "json: unknown key \"bogus\" in \"counters\" request"},
      {"{\"k\":1}", "json: missing or non-string \"op\""},
      {"{\"op\":7}", "json: missing or non-string \"op\""},
      {"{\"op\":\"ask\",\"k\":1}", "json: missing or non-string \"id\""},
      {"{\"op\":\"ask\",\"id\":\"s\"}", "json: missing or non-integer \"k\""},
      {"{\"op\":\"tell\",\"id\":\"s\",\"labels\":true}",
       "protocol: missing or non-array \"labels\""},
      {"{\"op\":\"tell\",\"id\":\"s\",\"labels\":[true,0]}",
       "protocol: non-boolean entry in \"labels\""},
      {"{\"op\":\"open\"}", "json: missing or non-string \"scenario\""},
      {"{\"op\":\"open\",\"scenario\":\"join\",\"seed\":\"7\"}",
       "json: missing or non-integer \"seed\""},
      {"{\"op\":\"open\",\"scenario\":\"join\",\"id\":7}",
       "json: missing or non-string \"id\""},
      {"{\"op\":\"import\",\"id\":\"s\",\"scenario\":\"join\",\"image\":\"abc\"}",
       "protocol: \"image\" hex has odd length 3"},
      {"{\"op\":\"import\",\"id\":\"s\",\"scenario\":\"join\",\"image\":\"AB\"}",
       "protocol: \"image\" is not lowercase hex"},
      {"{\"op\":\"import\",\"id\":\"s\",\"scenario\":\"join\"}",
       "json: missing or non-string \"image\""},
      {"{\"op\":\"status\",\"id\":\"s\",\"k\":1}",
       "json: unknown key \"k\" in \"status\" request"},
      {"{\"op\":\"sessions\",\"op\":\"counters\"}",
       "json: duplicate key \"op\" at offset 21"},
  };
  service::SessionService service;
  service::json::Arena arena;
  for (const auto& [request, message] : kCases) {
    std::string expected = "{\"error\":{\"code\":\"ParseError\",\"message\":";
    service::json::AppendEscaped(message, &expected);
    expected += "}}";
    EXPECT_EQ(HandleFrame(&service, request), expected) << request;
    std::string out;
    arena.Reset();
    HandleFrameInto(&service, request, &arena, &out);
    EXPECT_EQ(out, expected) << request;
  }
  EXPECT_EQ(service.Counters().errors, 0u);
}

TEST(ProtocolTest, ErrorFrameRoundTripsStatusCode) {
  const Status in = Status::ResourceExhausted("question budget exhausted");
  auto parsed = ParseResponse(Request::Op::kAsk, SerializeError(in));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed.value().status.message(), "question budget exhausted");
}

// --- ParseResponse over the ok frame of every op. ---

/// `frame` (an ok frame) with an unknown key added as the body's last
/// member.
std::string WithUnknownKey(const std::string& frame) {
  std::string out = frame.substr(0, frame.size() - 2);  // drop "}}"
  out += out.back() == '{' ? "\"unknown\":1}}" : ",\"unknown\":1}}";
  return out;
}

/// `frame` (an ok frame) with body member `skip` removed.
std::string WithoutMember(const std::string& frame, uint32_t skip) {
  service::json::Arena arena;
  auto root = service::json::ParseInto(frame, &arena);
  EXPECT_TRUE(root.ok()) << frame;
  const service::json::View& body = root.value()->members[0].value;
  std::string out = "{\"ok\":{";
  bool first = true;
  for (uint32_t i = 0; i < body.member_count; ++i) {
    if (i == skip) continue;
    if (!first) out.push_back(',');
    first = false;
    service::json::AppendEscaped(body.members[i].key, &out);
    out.push_back(':');
    service::json::AppendView(body.members[i].value, &out);
  }
  out += "}}";
  return out;
}

/// Ok frame of `request`, run through the dispatcher.
std::string OkFrame(service::SessionService* service,
                    const std::string& request) {
  service::json::Arena arena;
  std::string out;
  HandleFrameInto(service, request, &arena, &out);
  EXPECT_EQ(out.rfind("{\"ok\":", 0), 0u) << request << " -> " << out;
  return out;
}

/// One op's ok frame must be rejected, with the pinned messages, once an
/// unknown key is added and once each body member is removed in turn (for
/// an empty body: once the "ok" member itself is removed). An error frame
/// parses for the op too.
void ExpectStrictOkBody(Request::Op op, const std::string& op_name,
                        const std::string& frame,
                        const std::vector<std::string>& removed_errors) {
  auto unknown = ParseResponse(op, WithUnknownKey(frame));
  ASSERT_FALSE(unknown.ok()) << frame;
  EXPECT_EQ(unknown.status().ToString(),
            "ParseError: json: unknown key \"unknown\" in \"" + op_name +
                "\" ok body");
  service::json::Arena arena;
  auto root = service::json::ParseInto(frame, &arena);
  ASSERT_TRUE(root.ok());
  const uint32_t members = root.value()->members[0].value.member_count;
  if (members == 0) {
    ASSERT_EQ(removed_errors.size(), 1u) << frame;
    auto empty = ParseResponse(op, "{}");
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().ToString(), removed_errors[0]);
  } else {
    ASSERT_EQ(removed_errors.size(), members) << frame;
    for (uint32_t i = 0; i < members; ++i) {
      const std::string removed_frame = WithoutMember(frame, i);
      auto removed = ParseResponse(op, removed_frame);
      ASSERT_FALSE(removed.ok()) << removed_frame;
      EXPECT_EQ(removed.status().ToString(), removed_errors[i])
          << removed_frame;
    }
  }
  auto error = ParseResponse(op, SerializeError(Status::NotFound("gone")));
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error.value().status.ToString(), "NotFound: gone");
}

std::string Missing(const std::string& kind, const std::string& key) {
  return "ParseError: json: missing or non-" + kind + " \"" + key + "\"";
}

std::string MissingArray(const std::string& key) {
  return "ParseError: protocol: missing or non-array \"" + key + "\"";
}

TEST(ProtocolTest, ParseResponseCoversTheOkFrameOfEveryOp) {
  service::SessionService service;
  const std::string kNoOk =
      "ParseError: protocol: response must be an object with one key";

  const std::string open = OkFrame(
      &service,
      "{\"op\":\"open\",\"scenario\":\"join\",\"seed\":7,\"id\":\"s-cover\"}");
  auto opened = ParseResponse(Request::Op::kOpen, open);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().status.ok());
  EXPECT_EQ(opened.value().id, "s-cover");
  ExpectStrictOkBody(Request::Op::kOpen, "open", open,
                     {Missing("string", "id")});

  const std::string ask =
      OkFrame(&service, "{\"op\":\"ask\",\"id\":\"s-cover\",\"k\":2}");
  auto asked = ParseResponse(Request::Op::kAsk, ask);
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  ASSERT_EQ(asked.value().questions.size(), 2u);
  std::string questions;
  for (const auto& question : asked.value().questions) {
    EXPECT_EQ(question.kind, "join");
    EXPECT_EQ(question.ids.size(), 2u);
    EXPECT_FALSE(question.text.empty());
    questions += questions.empty() ? "" : ",";
    questions += service::wire::Serialize(question);
  }
  EXPECT_EQ(ask, "{\"ok\":{\"questions\":[" + questions + "]}}");
  ExpectStrictOkBody(Request::Op::kAsk, "ask", ask,
                     {MissingArray("questions")});

  const std::string oracle =
      OkFrame(&service, "{\"op\":\"oracle\",\"id\":\"s-cover\"}");
  auto labeled = ParseResponse(Request::Op::kOracle, oracle);
  ASSERT_TRUE(labeled.ok()) << labeled.status().ToString();
  ASSERT_EQ(labeled.value().labels.size(), 2u);
  std::string labels;
  for (const bool label : labeled.value().labels) {
    labels += labels.empty() ? "" : ",";
    labels += label ? "true" : "false";
  }
  EXPECT_EQ(oracle, "{\"ok\":{\"labels\":[" + labels + "]}}");
  ExpectStrictOkBody(Request::Op::kOracle, "oracle", oracle,
                     {MissingArray("labels")});

  const std::string tell = OkFrame(
      &service,
      "{\"op\":\"tell\",\"id\":\"s-cover\",\"labels\":[" + labels + "]}");
  auto told = ParseResponse(Request::Op::kTell, tell);
  ASSERT_TRUE(told.ok()) << told.status().ToString();
  EXPECT_TRUE(told.value().status.ok());
  ExpectStrictOkBody(Request::Op::kTell, "tell", tell, {kNoOk});

  const std::string status =
      OkFrame(&service, "{\"op\":\"status\",\"id\":\"s-cover\"}");
  auto statused = ParseResponse(Request::Op::kStatus, status);
  ASSERT_TRUE(statused.ok()) << statused.status().ToString();
  const service::SessionStatus& session = statused.value().session;
  EXPECT_EQ(session.id, "s-cover");
  EXPECT_EQ(session.scenario, "join");
  EXPECT_EQ(session.stats.questions, 2u);
  EXPECT_EQ(session.pending, 0u);
  EXPECT_FALSE(session.budget_exhausted);
  EXPECT_FALSE(session.hypothesis.empty());
  ExpectStrictOkBody(Request::Op::kStatus, "status", status,
                     {Missing("string", "id"), Missing("string", "scenario"),
                      "ParseError: protocol: missing \"stats\"",
                      Missing("integer", "pending"),
                      Missing("boolean", "budget_exhausted"),
                      Missing("string", "hypothesis")});

  const std::string counters = OkFrame(&service, "{\"op\":\"counters\"}");
  auto counted = ParseResponse(Request::Op::kCounters, counters);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  const service::ServiceCounters& c = counted.value().counters;
  EXPECT_EQ(c.opens, 1u);
  EXPECT_EQ(c.asks, 1u);
  EXPECT_EQ(c.tells, 1u);
  EXPECT_EQ(c.oracles, 1u);
  EXPECT_EQ(c.statuses, 1u);
  EXPECT_EQ(c.closes, 0u);
  EXPECT_EQ(c.errors, 0u);
  EXPECT_EQ(c.questions_served, 2u);
  EXPECT_EQ(c.labels_accepted, 2u);
  EXPECT_EQ(counted.value().open_sessions, 1u);
  EXPECT_EQ(counted.value().resident_sessions, 1u);
  EXPECT_EQ(counted.value().parked_sessions, 0u);
  uint64_t ask_samples = 0;
  for (const uint64_t bucket : c.ask_latency_us.buckets) ask_samples += bucket;
  EXPECT_EQ(ask_samples, 1u);
  ExpectStrictOkBody(
      Request::Op::kCounters, "counters", counters,
      {Missing("integer", "opens"), Missing("integer", "asks"),
       Missing("integer", "tells"), Missing("integer", "oracles"),
       Missing("integer", "statuses"), Missing("integer", "closes"),
       Missing("integer", "errors"), Missing("integer", "questions_served"),
       Missing("integer", "labels_accepted"),
       Missing("integer", "hibernates"), Missing("integer", "rehydrates"),
       Missing("integer", "hibernate_errors"), Missing("integer", "exports"),
       Missing("integer", "imports"), Missing("integer", "open_sessions"),
       Missing("integer", "resident_sessions"),
       Missing("integer", "parked_sessions"),
       "ParseError: protocol: missing or non-object \"latency_us\""});

  const std::string sessions = OkFrame(&service, "{\"op\":\"sessions\"}");
  auto listed = ParseResponse(Request::Op::kSessions, sessions);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed.value().session_ids,
            std::vector<std::string>({"s-cover"}));
  ExpectStrictOkBody(Request::Op::kSessions, "sessions", sessions,
                     {MissingArray("ids")});

  const std::string exported =
      OkFrame(&service, "{\"op\":\"export\",\"id\":\"s-cover\"}");
  auto shipped = ParseResponse(Request::Op::kExport, exported);
  ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();
  EXPECT_EQ(shipped.value().scenario, "join");
  const std::string& image = shipped.value().image;
  EXPECT_EQ(image.rfind("QLSV", 0), 0u);
  EXPECT_EQ(exported.size(),
            std::string("{\"ok\":{\"scenario\":\"join\",\"image\":\"\"}}")
                    .size() +
                2 * image.size());
  ExpectStrictOkBody(Request::Op::kExport, "export", exported,
                     {Missing("string", "scenario"),
                      Missing("string", "image")});

  Request import;
  import.op = Request::Op::kImport;
  import.id = "s-moved";
  import.scenario = "join";
  import.image = image;
  const std::string imported = OkFrame(&service, Serialize(import));
  auto adopted = ParseResponse(Request::Op::kImport, imported);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted.value().status.ok());
  ExpectStrictOkBody(Request::Op::kImport, "import", imported, {kNoOk});

  const std::string close =
      OkFrame(&service, "{\"op\":\"close\",\"id\":\"s-moved\"}");
  auto closed = ParseResponse(Request::Op::kClose, close);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed.value().hypothesis.kind, "join");
  EXPECT_FALSE(closed.value().hypothesis.text.empty());
  EXPECT_EQ(closed.value().stats.questions, 2u);
  EXPECT_EQ(close, "{\"ok\":{\"hypothesis\":" +
                       service::wire::Serialize(closed.value().hypothesis) +
                       ",\"stats\":" +
                       service::wire::Serialize(closed.value().stats) + "}}");
  ExpectStrictOkBody(Request::Op::kClose, "close", close,
                     {"ParseError: protocol: missing \"hypothesis\"",
                      "ParseError: protocol: missing \"stats\""});
}

TEST(ProtocolTest, ParseResponseRejectsMalformedEnvelopesWithPinnedErrors) {
  const std::pair<const char*, const char*> kCases[] = {
      {"[]", "ParseError: protocol: response must be an object with one key"},
      {"{\"ok\":{},\"error\":{}}",
       "ParseError: protocol: response must be an object with one key"},
      {"{\"fine\":{}}",
       "ParseError: protocol: expected \"ok\" or \"error\", got \"fine\""},
      {"{\"ok\":[]}", "ParseError: protocol: \"ok\" body must be an object"},
      {"{\"error\":7}",
       "ParseError: protocol: \"error\" body must be an object"},
      {"{\"error\":{\"code\":\"NotFound\"}}",
       "ParseError: json: missing or non-string \"message\""},
      {"{\"error\":{\"code\":\"NotFound\",\"message\":\"x\",\"at\":1}}",
       "ParseError: json: unknown key \"at\" in error body"},
      {"{\"error\":{\"code\":\"Bogus\",\"message\":\"x\"}}",
       "ParseError: protocol: unknown error code \"Bogus\""},
      {"{\"error\":{\"code\":\"OK\",\"message\":\"x\"}}",
       "ParseError: protocol: unknown error code \"OK\""},
      {"{\"ok\":{\"ids\":[\"a\",7]}}",
       "ParseError: protocol: non-string entry in \"ids\""},
      {"{\"ok\":{\"labels\":[true,1]}}",
       "ParseError: protocol: non-boolean entry in \"labels\""},
      {"{\"ok\":{\"scenario\":\"join\",\"image\":\"abc\"}}",
       "ParseError: protocol: \"image\" hex has odd length 3"},
      {"{\"ok\":{\"scenario\":\"join\",\"image\":\"AB\"}}",
       "ParseError: protocol: \"image\" is not lowercase hex"},
      {"{\"ok\":{\"questions\":[7]}}",
       "ParseError: wire: question payload must be an object"},
  };
  const Request::Op kOps[] = {
      Request::Op::kOpen,     Request::Op::kOpen,   Request::Op::kOpen,
      Request::Op::kOpen,     Request::Op::kOpen,   Request::Op::kOpen,
      Request::Op::kOpen,     Request::Op::kOpen,   Request::Op::kOpen,
      Request::Op::kSessions, Request::Op::kOracle, Request::Op::kExport,
      Request::Op::kExport,   Request::Op::kAsk,
  };
  static_assert(sizeof(kCases) / sizeof(kCases[0]) ==
                sizeof(kOps) / sizeof(kOps[0]));
  for (size_t i = 0; i < sizeof(kOps) / sizeof(kOps[0]); ++i) {
    auto parsed = ParseResponse(kOps[i], kCases[i].first);
    ASSERT_FALSE(parsed.ok()) << kCases[i].first;
    EXPECT_EQ(parsed.status().ToString(), kCases[i].second)
        << kCases[i].first;
  }
}

// --- Over a real socket: the connection survives every bad-frame class. ---

class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendBytes(const std::string& bytes) {
    size_t pos = 0;
    while (pos < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + pos, bytes.size() - pos,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      pos += static_cast<size_t>(n);
    }
  }

  // Blocks for one complete response frame and returns its payload.
  std::string ReadResponse() {
    while (!reader_.HasEvent()) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while awaiting a response";
        return "";
      }
      reader_.Feed(buffer, static_cast<size_t>(n));
    }
    FrameReader::Event event = reader_.Next();
    EXPECT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
    return event.payload;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST(ServerRobustnessTest, ConnectionStaysUsableAfterEveryBadFrameClass) {
  service::SessionService service;
  ServerOptions options;
  options.workers = 2;
  options.max_frame_bytes = 1 << 10;
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  RawConnection conn(server.port());

  // 1. Zero-length frame: structured error, connection stays up.
  conn.SendBytes(std::string(kFrameHeaderBytes, '\0'));
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kInvalidArgument);

  // 2. Oversized frame (declared 64 KiB against a 1 KiB cap), full body
  //    actually sent: error for the frame, then the next frame parses.
  std::string oversized;
  oversized.push_back(0);
  oversized.push_back(1);
  oversized.push_back(0);
  oversized.push_back(0);
  oversized += std::string(1 << 16, 'x');
  conn.SendBytes(oversized);
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kInvalidArgument);

  // 3. Malformed JSON in a well-formed frame.
  conn.SendBytes(Framed("this is not json"));
  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kParseError);

  // 4. Valid request on the same connection: still served.
  conn.SendBytes(Framed("{\"op\":\"counters\"}"));
  auto parsed =
      ParseResponse(Request::Op::kCounters, conn.ReadResponse());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().status.ok())
      << parsed.value().status.ToString();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.bad_frames, 2u);       // zero-length + oversized
  EXPECT_EQ(stats.frames_received, 2u);  // malformed JSON + counters
  server.Stop();
}

TEST(ServerRobustnessTest, FrameOfOpenBracketsIsAnErrorNotAStackOverflow) {
  service::SessionService service;
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.port());

  // A full-size frame that only opens arrays: the parser stops at its
  // depth limit instead of recursing once per byte.
  conn.SendBytes(Framed(std::string(kDefaultMaxFrameBytes, '[')));
  EXPECT_EQ(conn.ReadResponse(),
            SerializeError(common::Status::ParseError(
                "json: nesting deeper than 64 levels at offset 64")));
  conn.SendBytes(Framed("{\"op\":\"counters\"}"));
  auto parsed = ParseResponse(Request::Op::kCounters, conn.ReadResponse());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().status.ok());
  server.Stop();
}

TEST(ServerRobustnessTest, TruncatedFrameIsCountedOnDisconnect) {
  service::SessionService service;
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  {
    RawConnection conn(server.port());
    std::string partial = Framed("{\"op\":\"counters\"}");
    partial.resize(partial.size() - 3);  // drop the payload's tail
    conn.SendBytes(partial);
    // Destructor closes the socket mid-frame.
  }
  // The reactor notices EOF asynchronously; poll until it has.
  for (int i = 0; i < 200 && server.stats().truncated_frames == 0; ++i) {
    ::usleep(10 * 1000);
  }
  EXPECT_EQ(server.stats().truncated_frames, 1u);
  EXPECT_EQ(server.stats().frames_received, 0u);
  server.Stop();
}

TEST(ServerRobustnessTest, PipelinedRequestsAnswerInOrder) {
  service::SessionService service;
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.port());

  // Burst: open, bad JSON, counters — all written before reading anything.
  conn.SendBytes(Framed("{\"op\":\"open\",\"scenario\":\"twig\"}") +
                 Framed("}{") + Framed("{\"op\":\"counters\"}"));

  auto open_parsed = ParseResponse(Request::Op::kOpen, conn.ReadResponse());
  ASSERT_TRUE(open_parsed.ok()) << open_parsed.status().ToString();
  EXPECT_TRUE(open_parsed.value().status.ok());
  EXPECT_FALSE(open_parsed.value().id.empty());

  EXPECT_EQ(ErrorCodeOf(conn.ReadResponse()), StatusCode::kParseError);

  auto counters_parsed =
      ParseResponse(Request::Op::kCounters, conn.ReadResponse());
  ASSERT_TRUE(counters_parsed.ok()) << counters_parsed.status().ToString();
  EXPECT_TRUE(counters_parsed.value().status.ok());
  EXPECT_EQ(counters_parsed.value().open_sessions, 1u);
  server.Stop();
}

TEST(ServerRobustnessTest, InlineBurstPastTheQueueCapDrainsCompletely) {
  // Inline dispatch with a tiny pipelining cap: a burst far past the cap,
  // written before reading a single response, must bound the server's
  // queues (reads pause, dispatch stops at the cap) yet still answer
  // every request in order once the responses are read. Regression guard
  // for the inline-mode output-backpressure path: the shard must neither
  // queue responses without bound nor park the connection with requests
  // still waiting.
  service::SessionService service;
  ServerOptions options;
  options.workers = 0;  // inline dispatch on the shard thread
  options.max_queued_frames = 4;
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn(server.port());

  constexpr int kRequests = 200;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    if (i % 2 == 0) {
      burst += Framed("{\"op\":\"counters\"}");
    } else {
      burst += Framed("{\"op\":\"status\",\"id\":\"s-" + std::to_string(i) +
                      "\"}");
    }
  }
  conn.SendBytes(burst);
  for (int i = 0; i < kRequests; ++i) {
    const std::string response = conn.ReadResponse();
    if (i % 2 == 0) {
      auto parsed = ParseResponse(Request::Op::kCounters, response);
      ASSERT_TRUE(parsed.ok()) << i << ": " << parsed.status().ToString();
      EXPECT_TRUE(parsed.value().status.ok()) << i;
    } else {
      EXPECT_EQ(ErrorCodeOf(response), StatusCode::kNotFound) << i;
    }
  }
  server.Stop();
}

TEST(BufferPoolTest, RecyclesCapacityAndEnforcesCaps) {
  BufferPool pool(/*max_buffers=*/2, /*max_buffer_bytes=*/1024);
  std::string buffer = pool.Acquire();
  EXPECT_TRUE(buffer.empty());
  buffer.assign(512, 'x');
  const size_t capacity = buffer.capacity();
  pool.Release(std::move(buffer));
  EXPECT_EQ(pool.PooledCount(), 1u);

  // The next Acquire reuses the released capacity, cleared.
  std::string reused = pool.Acquire();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), capacity);
  EXPECT_EQ(pool.PooledCount(), 0u);

  // A buffer that outgrew the per-buffer cap is dropped, not pooled.
  std::string oversized(4096, 'y');
  pool.Release(std::move(oversized));
  EXPECT_EQ(pool.PooledCount(), 0u);

  // The free list is bounded at max_buffers.
  for (int i = 0; i < 5; ++i) {
    std::string b(64, 'z');
    pool.Release(std::move(b));
  }
  EXPECT_EQ(pool.PooledCount(), 2u);

  // Capacity-less strings are not worth pooling.
  pool.Release(std::string());
  EXPECT_EQ(pool.PooledCount(), 2u);
}

TEST(BufferPoolTest, FrameReaderDrawsReassemblyBuffersFromThePool) {
  BufferPool pool(/*max_buffers=*/4, /*max_buffer_bytes=*/1024);
  FrameReader reader;
  reader.set_pool(&pool);

  // Seed the pool with one recognizable buffer.
  std::string seeded;
  seeded.reserve(256);
  pool.Release(std::move(seeded));
  ASSERT_EQ(pool.PooledCount(), 1u);

  const std::string wire = Framed("{\"op\":\"counters\"}");
  reader.Feed(wire.data(), wire.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event event = reader.Next();
  EXPECT_EQ(event.payload, "{\"op\":\"counters\"}");
  // The reassembly buffer came from the pool...
  EXPECT_EQ(pool.PooledCount(), 0u);
  // ...and the consumer hands the payload back, completing the cycle.
  pool.Release(std::move(event.payload));
  EXPECT_EQ(pool.PooledCount(), 1u);

  // Steady state: framing the same payload again reuses that one buffer.
  reader.Feed(wire.data(), wire.size());
  ASSERT_TRUE(reader.HasEvent());
  FrameReader::Event again = reader.Next();
  EXPECT_EQ(again.payload, "{\"op\":\"counters\"}");
  EXPECT_EQ(pool.PooledCount(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
