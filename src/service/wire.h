// Wire format of the session service: JSON-serialized questions, answers,
// hypotheses, and stats, shared by all four paper scenarios.
//
// Real deployments ask oracles over a wire — crowd workers, UI users —
// so the serving layer needs a model-agnostic exchange format. One tagged
// QuestionPayload covers every scenario: `kind` discriminates the item
// type, `ids` carries the model-specific coordinates (the document node for
// twigs, the (left,right) row pair for joins, the row path for chains, the
// candidate index for graph paths — see each engine's ItemIds hook), and
// `text` is the human-facing rendering a front end displays verbatim.
//
// The same format doubles as the persistent *transcript* format: a session
// is a sequence of open / ask / tell / close events, serialized one JSON
// object per line (JSONL, diff-friendly). The golden-transcript conformance
// harness (tests/transcript_harness.h) records and replays these to pin the
// paper-faithful question sequences across refactors.
//
// The emitted JSON is canonical — fixed key order, no whitespace — so byte
// equality of serializations is semantic equality, and
// Serialize(Parse(s)) == s for every string s this module emitted.
#ifndef QLEARN_SERVICE_WIRE_H_
#define QLEARN_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/json.h"
#include "session/session.h"

namespace qlearn {
namespace service {
namespace wire {

/// One membership question, tagged by scenario item type.
struct QuestionPayload {
  std::string kind;           ///< "twig" | "join" | "chain" | "path"
  std::vector<uint64_t> ids;  ///< model-specific coordinates (engine ItemIds)
  std::string text;           ///< human-facing rendering

  bool operator==(const QuestionPayload& other) const {
    return kind == other.kind && ids == other.ids && text == other.text;
  }
  bool operator!=(const QuestionPayload& other) const {
    return !(*this == other);
  }
};

/// The learned (current or final) hypothesis, rendered for the wire.
struct HypothesisPayload {
  std::string kind;  ///< item-type tag, same domain as QuestionPayload::kind
  std::string text;  ///< human-facing rendering of the query

  bool operator==(const HypothesisPayload& other) const {
    return kind == other.kind && text == other.text;
  }
};

/// One recorded exchange of a session transcript.
struct TranscriptEvent {
  enum class Kind { kOpen, kAsk, kTell, kClose };

  Kind kind = Kind::kOpen;

  // kOpen: which scenario was instantiated and under what knobs.
  std::string scenario;
  uint64_t seed = 0;
  uint64_t max_questions = 0;

  // kAsk: the batch size the client requested and the questions served.
  uint64_t requested = 0;
  std::vector<QuestionPayload> questions;

  // kTell: the labels, in batch order.
  std::vector<bool> labels;

  // kClose: the final hypothesis and interaction counters.
  HypothesisPayload hypothesis;
  session::SessionStats stats;

  bool operator==(const TranscriptEvent& other) const;
};

// Canonical serialization (single line, fixed key order, no whitespace).
std::string Serialize(const QuestionPayload& payload);
std::string Serialize(const HypothesisPayload& payload);
std::string Serialize(const session::SessionStats& stats);
std::string Serialize(const TranscriptEvent& event);

// Append forms of the same serializations, for writers that assemble a
// larger frame into one (pooled) buffer — the TCP response hot path. The
// bytes appended are exactly what Serialize returns.
void SerializeTo(const QuestionPayload& payload, std::string* out);
void SerializeTo(const HypothesisPayload& payload, std::string* out);
void SerializeTo(const session::SessionStats& stats, std::string* out);
/// One event per line, trailing newline after each (JSONL).
std::string SerializeTranscript(const std::vector<TranscriptEvent>& events);

// Parsers accept exactly the JSON subset this module emits (objects,
// arrays, strings with escapes, unsigned decimal integers, booleans) in any
// key order, and return ParseError on anything else.
common::Result<QuestionPayload> ParseQuestionPayload(const std::string& text);
common::Result<HypothesisPayload> ParseHypothesisPayload(
    const std::string& text);
common::Result<session::SessionStats> ParseStats(const std::string& text);
common::Result<TranscriptEvent> ParseEvent(const std::string& text);
/// Parses a JSONL transcript; blank lines are ignored.
common::Result<std::vector<TranscriptEvent>> ParseTranscript(
    const std::string& text);

// Conversions from parsed json::Views, for protocols that embed wire
// payloads inside larger messages (net/protocol.h). Shape-strict like the
// string parsers above.
common::Result<QuestionPayload> QuestionFromJson(const json::View& value);
common::Result<HypothesisPayload> HypothesisFromJson(const json::View& value);
common::Result<session::SessionStats> StatsFromJson(const json::View& value);

}  // namespace wire
}  // namespace service
}  // namespace qlearn

#endif  // QLEARN_SERVICE_WIRE_H_
