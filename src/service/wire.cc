#include "service/wire.h"

#include <string_view>
#include <utility>

#include "service/json.h"

namespace qlearn {
namespace service {
namespace wire {

namespace {

using common::Result;
using common::Status;
using json::AppendEscaped;
using json::AppendUInts;
using json::CheckAllKeysKnown;
using json::Find;
using json::ToStringView;
using json::ToUInt;
using json::View;

// ---------------------------------------------------------------------------
// Canonical JSON writing. Key order is fixed by the Serialize functions and
// nothing emits whitespace, so byte equality is semantic equality. The
// escaping/number primitives live in service/json.h, shared with the TCP
// protocol layer (net/protocol.h).

void AppendQuestion(const QuestionPayload& payload, std::string* out) {
  *out += "{\"kind\":";
  AppendEscaped(payload.kind, out);
  *out += ",\"ids\":";
  AppendUInts(payload.ids, out);
  *out += ",\"text\":";
  AppendEscaped(payload.text, out);
  out->push_back('}');
}

void AppendHypothesis(const HypothesisPayload& payload, std::string* out) {
  *out += "{\"kind\":";
  AppendEscaped(payload.kind, out);
  *out += ",\"text\":";
  AppendEscaped(payload.text, out);
  out->push_back('}');
}

void AppendStats(const session::SessionStats& stats, std::string* out) {
  *out += "{\"questions\":";
  json::AppendUInt(stats.questions, out);
  *out += ",\"forced_positive\":";
  json::AppendUInt(stats.forced_positive, out);
  *out += ",\"forced_negative\":";
  json::AppendUInt(stats.forced_negative, out);
  *out += ",\"conflicts\":";
  json::AppendUInt(stats.conflicts, out);
  out->push_back('}');
}

// ---------------------------------------------------------------------------
// json::View -> payload struct conversion, strict about shapes and keys.

Status ShapeError(const std::string& message) {
  return Status::ParseError("wire: " + message);
}

}  // namespace

Result<QuestionPayload> QuestionFromJson(const View& value) {
  if (value.type != View::Type::kObject) {
    return ShapeError("question payload must be an object");
  }
  uint64_t seen = 0;
  QuestionPayload payload;
  QLEARN_ASSIGN_OR_RETURN(payload.kind,
                          ToStringView(Find(value, "kind", &seen), "kind"));
  const View* ids = Find(value, "ids", &seen);
  if (ids == nullptr || ids->type != View::Type::kArray) {
    return ShapeError("missing or non-array \"ids\"");
  }
  payload.ids.reserve(ids->element_count);
  for (uint32_t i = 0; i < ids->element_count; ++i) {
    if (ids->elements[i].type != View::Type::kUInt) {
      return ShapeError("non-integer entry in \"ids\"");
    }
    payload.ids.push_back(ids->elements[i].uint_value);
  }
  QLEARN_ASSIGN_OR_RETURN(payload.text,
                          ToStringView(Find(value, "text", &seen), "text"));
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(value, seen, "question payload"));
  return payload;
}

Result<HypothesisPayload> HypothesisFromJson(const View& value) {
  if (value.type != View::Type::kObject) {
    return ShapeError("hypothesis payload must be an object");
  }
  uint64_t seen = 0;
  HypothesisPayload payload;
  QLEARN_ASSIGN_OR_RETURN(payload.kind,
                          ToStringView(Find(value, "kind", &seen), "kind"));
  QLEARN_ASSIGN_OR_RETURN(payload.text,
                          ToStringView(Find(value, "text", &seen), "text"));
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(value, seen, "hypothesis payload"));
  return payload;
}

Result<session::SessionStats> StatsFromJson(const View& value) {
  if (value.type != View::Type::kObject) {
    return ShapeError("stats must be an object");
  }
  uint64_t seen = 0;
  session::SessionStats stats;
  QLEARN_ASSIGN_OR_RETURN(
      stats.questions, ToUInt(Find(value, "questions", &seen), "questions"));
  QLEARN_ASSIGN_OR_RETURN(
      stats.forced_positive,
      ToUInt(Find(value, "forced_positive", &seen), "forced_positive"));
  QLEARN_ASSIGN_OR_RETURN(
      stats.forced_negative,
      ToUInt(Find(value, "forced_negative", &seen), "forced_negative"));
  QLEARN_ASSIGN_OR_RETURN(
      stats.conflicts, ToUInt(Find(value, "conflicts", &seen), "conflicts"));
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(value, seen, "stats"));
  return stats;
}

namespace {

Result<TranscriptEvent> EventFromJson(const View& value) {
  if (value.type != View::Type::kObject) {
    return ShapeError("transcript event must be an object");
  }
  uint64_t seen = 0;
  TranscriptEvent event;
  QLEARN_ASSIGN_OR_RETURN(const std::string_view tag,
                          ToStringView(Find(value, "event", &seen), "event"));
  if (tag == "open") {
    event.kind = TranscriptEvent::Kind::kOpen;
    QLEARN_ASSIGN_OR_RETURN(
        event.scenario,
        ToStringView(Find(value, "scenario", &seen), "scenario"));
    QLEARN_ASSIGN_OR_RETURN(event.seed,
                            ToUInt(Find(value, "seed", &seen), "seed"));
    QLEARN_ASSIGN_OR_RETURN(
        event.max_questions,
        ToUInt(Find(value, "max_questions", &seen), "max_questions"));
  } else if (tag == "ask") {
    event.kind = TranscriptEvent::Kind::kAsk;
    QLEARN_ASSIGN_OR_RETURN(
        event.requested, ToUInt(Find(value, "requested", &seen), "requested"));
    const View* questions = Find(value, "questions", &seen);
    if (questions == nullptr || questions->type != View::Type::kArray) {
      return ShapeError("missing or non-array \"questions\"");
    }
    for (uint32_t i = 0; i < questions->element_count; ++i) {
      QLEARN_ASSIGN_OR_RETURN(QuestionPayload payload,
                              QuestionFromJson(questions->elements[i]));
      event.questions.push_back(std::move(payload));
    }
  } else if (tag == "tell") {
    event.kind = TranscriptEvent::Kind::kTell;
    const View* labels = Find(value, "labels", &seen);
    if (labels == nullptr || labels->type != View::Type::kArray) {
      return ShapeError("missing or non-array \"labels\"");
    }
    for (uint32_t i = 0; i < labels->element_count; ++i) {
      if (labels->elements[i].type != View::Type::kBool) {
        return ShapeError("non-boolean entry in \"labels\"");
      }
      event.labels.push_back(labels->elements[i].bool_value);
    }
  } else if (tag == "close") {
    event.kind = TranscriptEvent::Kind::kClose;
    const View* hypothesis = Find(value, "hypothesis", &seen);
    if (hypothesis == nullptr) return ShapeError("missing \"hypothesis\"");
    QLEARN_ASSIGN_OR_RETURN(event.hypothesis, HypothesisFromJson(*hypothesis));
    const View* stats = Find(value, "stats", &seen);
    if (stats == nullptr) return ShapeError("missing \"stats\"");
    QLEARN_ASSIGN_OR_RETURN(event.stats, StatsFromJson(*stats));
  } else {
    return ShapeError("unknown event tag \"" + std::string(tag) + "\"");
  }
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(
      value, seen, "\"" + std::string(tag) + "\" event"));
  return event;
}

}  // namespace

bool TranscriptEvent::operator==(const TranscriptEvent& other) const {
  // Canonical serialization is injective on the fields each kind carries,
  // so byte equality is the equality we mean everywhere else too.
  return Serialize(*this) == Serialize(other);
}

std::string Serialize(const QuestionPayload& payload) {
  std::string out;
  AppendQuestion(payload, &out);
  return out;
}

std::string Serialize(const HypothesisPayload& payload) {
  std::string out;
  AppendHypothesis(payload, &out);
  return out;
}

std::string Serialize(const session::SessionStats& stats) {
  std::string out;
  AppendStats(stats, &out);
  return out;
}

void SerializeTo(const QuestionPayload& payload, std::string* out) {
  AppendQuestion(payload, out);
}

void SerializeTo(const HypothesisPayload& payload, std::string* out) {
  AppendHypothesis(payload, out);
}

void SerializeTo(const session::SessionStats& stats, std::string* out) {
  AppendStats(stats, out);
}

std::string Serialize(const TranscriptEvent& event) {
  std::string out;
  switch (event.kind) {
    case TranscriptEvent::Kind::kOpen:
      out += "{\"event\":\"open\",\"scenario\":";
      AppendEscaped(event.scenario, &out);
      out += ",\"seed\":" + std::to_string(event.seed);
      out += ",\"max_questions\":" + std::to_string(event.max_questions);
      out.push_back('}');
      break;
    case TranscriptEvent::Kind::kAsk:
      out += "{\"event\":\"ask\",\"requested\":" +
             std::to_string(event.requested) + ",\"questions\":[";
      for (size_t i = 0; i < event.questions.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendQuestion(event.questions[i], &out);
      }
      out += "]}";
      break;
    case TranscriptEvent::Kind::kTell:
      out += "{\"event\":\"tell\",\"labels\":[";
      for (size_t i = 0; i < event.labels.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += event.labels[i] ? "true" : "false";
      }
      out += "]}";
      break;
    case TranscriptEvent::Kind::kClose:
      out += "{\"event\":\"close\",\"hypothesis\":";
      AppendHypothesis(event.hypothesis, &out);
      out += ",\"stats\":";
      AppendStats(event.stats, &out);
      out.push_back('}');
      break;
  }
  return out;
}

std::string SerializeTranscript(const std::vector<TranscriptEvent>& events) {
  std::string out;
  for (const TranscriptEvent& event : events) {
    out += Serialize(event);
    out.push_back('\n');
  }
  return out;
}

common::Result<QuestionPayload> ParseQuestionPayload(const std::string& text) {
  json::Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value, json::ParseInto(text, &arena));
  return QuestionFromJson(*value);
}

common::Result<HypothesisPayload> ParseHypothesisPayload(
    const std::string& text) {
  json::Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value, json::ParseInto(text, &arena));
  return HypothesisFromJson(*value);
}

common::Result<session::SessionStats> ParseStats(const std::string& text) {
  json::Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value, json::ParseInto(text, &arena));
  return StatsFromJson(*value);
}

common::Result<TranscriptEvent> ParseEvent(const std::string& text) {
  json::Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value, json::ParseInto(text, &arena));
  return EventFromJson(*value);
}

common::Result<std::vector<TranscriptEvent>> ParseTranscript(
    const std::string& text) {
  std::vector<TranscriptEvent> events;
  json::Arena arena;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    const std::string_view line = std::string_view(text).substr(
        start, end == std::string::npos ? end : end - start);
    if (!line.empty()) {
      arena.Reset();
      QLEARN_ASSIGN_OR_RETURN(const View* value,
                              json::ParseInto(line, &arena));
      QLEARN_ASSIGN_OR_RETURN(TranscriptEvent event, EventFromJson(*value));
      events.push_back(std::move(event));
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return events;
}

}  // namespace wire
}  // namespace service
}  // namespace qlearn
