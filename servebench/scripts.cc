#include "scripts.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "net/frame.h"
#include "net/protocol.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace servebench {
namespace {

using qlearn::common::Result;
using qlearn::common::Status;
using qlearn::net::Request;
using qlearn::service::wire::TranscriptEvent;

// The reference service runs one golden at a time under this id.
const std::string kPlaceholder = "s" + std::string(16, 'Z');

// Hibernation image layout (SessionService::ParkLocked): magic u32,
// version u32, scenario (u64 length + bytes), three budget u64s, then the
// elapsed wall time as a u64-cast double, ..., and an 8-byte checksum.
constexpr size_t kElapsedOffsetBeforeScenario = 4 + 4 + 8 + 8 + 8 + 8;
constexpr size_t kChecksumBytes = 8;

std::string Frame(std::string_view payload) {
  std::string frame(qlearn::net::kFrameHeaderBytes, '\0');
  qlearn::net::EncodeFrameHeader(
      static_cast<uint32_t>(payload.size()),
      reinterpret_cast<unsigned char*>(frame.data()));
  frame.append(payload);
  return frame;
}

Template MakeTemplate(std::string frame) {
  Template t;
  for (size_t at = frame.find(kPlaceholder); at != std::string::npos;
       at = frame.find(kPlaceholder, at + kIdWidth)) {
    t.id_slots.push_back(static_cast<uint32_t>(at));
  }
  t.bytes = std::move(frame);
  return t;
}

std::string ExportPrefix(std::string_view scenario) {
  return "{\"ok\":{\"scenario\":\"" + std::string(scenario) +
         "\",\"image\":\"";
}

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

Status Mismatch(const std::string& golden, size_t event,
                const std::string& what) {
  return Status::Internal("golden " + golden + " event " +
                          std::to_string(event) + ": " + what);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kAsk: return "ask";
    case Op::kTell: return "tell";
    case Op::kClose: return "close";
    case Op::kExport: return "export";
    case Op::kImport: return "import";
  }
  return "?";
}

void Template::AppendTo(std::string_view id, std::string* out) const {
  const size_t base = out->size();
  out->append(bytes);
  for (uint32_t slot : id_slots) {
    std::memcpy(out->data() + base + slot, id.data(), kIdWidth);
  }
}

bool Template::Matches(std::string_view id, std::string_view frame) const {
  if (frame.size() != bytes.size()) return false;
  size_t at = 0;
  const auto same_until = [&](size_t end) {
    const bool same =
        std::memcmp(frame.data() + at, bytes.data() + at, end - at) == 0;
    at = end;
    return same;
  };
  for (uint32_t slot : id_slots) {
    if (!same_until(slot)) return false;
    if (frame.substr(slot, kIdWidth) != id) return false;
    at = slot + kIdWidth;
  }
  for (const auto& [begin, end] : hex_masks) {
    if (!same_until(begin)) return false;
    for (size_t i = begin; i < end; ++i) {
      if (!IsHexDigit(frame[i])) return false;
    }
    at = end;
  }
  return same_until(bytes.size());
}

std::string SessionId(uint32_t prefix, uint32_t number) {
  char buffer[kIdWidth + 1];
  std::snprintf(buffer, sizeof(buffer), "s%08x%08x", prefix, number);
  return std::string(buffer, kIdWidth);
}

void AppendImportFrame(std::string_view id, std::string_view scenario,
                       std::string_view export_frame, std::string* out) {
  const size_t hex_begin =
      qlearn::net::kFrameHeaderBytes + ExportPrefix(scenario).size();
  const std::string_view hex =
      export_frame.substr(hex_begin, export_frame.size() - hex_begin - 3);
  std::string payload = "{\"op\":\"import\",\"id\":\"";
  payload.append(id);
  payload += "\",\"scenario\":\"";
  payload.append(scenario);
  payload += "\",\"image\":\"";
  payload.append(hex);
  payload += "\"}";
  out->append(Frame(payload));
}

Result<std::vector<Script>> BuildScripts(const std::string& golden_dir,
                                         const std::vector<std::string>& names,
                                         bool handoff) {
  qlearn::service::SessionService service;
  std::vector<Script> scripts;
  for (const std::string& name : names) {
    const std::string path = golden_dir + "/" + name + ".jsonl";
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot read golden " + path);
    std::ostringstream text;
    text << in.rdbuf();
    QLEARN_ASSIGN_OR_RETURN(auto events,
                            qlearn::service::wire::ParseTranscript(text.str()));

    Script script;
    script.golden = name;
    // Runs one request through the reference service and records the
    // step; returns the reply payload.
    const auto add_step = [&](Op op, std::string_view request_frame,
                              const Request& typed) {
      const std::string_view payload =
          request_frame.substr(qlearn::net::kFrameHeaderBytes);
      const std::string reply =
          qlearn::net::HandleFrame(&service, std::string(payload));
      Step step;
      step.op = op;
      step.typed = typed;
      if (op != Op::kImport) step.request = MakeTemplate(std::string(request_frame));
      step.response = MakeTemplate(Frame(reply));
      script.steps.push_back(std::move(step));
      return reply;
    };
    const auto request_frame = [](Request request) {
      request.id = kPlaceholder;
      return Frame(qlearn::net::Serialize(request));
    };

    for (size_t e = 0; e < events.size(); ++e) {
      const TranscriptEvent& event = events[e];
      Request request;
      switch (event.kind) {
        case TranscriptEvent::Kind::kOpen: {
          request.op = Request::Op::kOpen;
          request.scenario = event.scenario;
          request.seed = event.seed;
          request.max_questions = event.max_questions;
          script.scenario = event.scenario;
          const std::string reply = add_step(Op::kOpen, request_frame(request), request);
          if (reply != "{\"ok\":{\"id\":\"" + kPlaceholder + "\"}}") {
            return Mismatch(name, e, "open replied " + reply);
          }
          break;
        }
        case TranscriptEvent::Kind::kAsk: {
          request.op = Request::Op::kAsk;
          request.k = event.requested;
          const std::string reply = add_step(Op::kAsk, request_frame(request), request);
          QLEARN_ASSIGN_OR_RETURN(
              auto response,
              qlearn::net::ParseResponse(Request::Op::kAsk, reply));
          if (!response.status.ok() ||
              response.questions.size() != event.questions.size()) {
            return Mismatch(name, e, "ask replied " + reply);
          }
          for (size_t q = 0; q < event.questions.size(); ++q) {
            if (qlearn::service::wire::Serialize(response.questions[q]) !=
                qlearn::service::wire::Serialize(event.questions[q])) {
              return Mismatch(name, e, "question " + std::to_string(q));
            }
          }
          script.steps.back().questions =
              static_cast<uint32_t>(event.questions.size());
          break;
        }
        case TranscriptEvent::Kind::kTell: {
          request.op = Request::Op::kTell;
          request.labels = event.labels;
          if (add_step(Op::kTell, request_frame(request), request) != "{\"ok\":{}}") {
            return Mismatch(name, e, "tell failed");
          }
          if (!handoff) break;
          request.op = Request::Op::kExport;
          const std::string exported =
              Frame(add_step(Op::kExport, request_frame(request), request));
          const std::string prefix = ExportPrefix(script.scenario);
          const size_t hex_begin =
              qlearn::net::kFrameHeaderBytes + prefix.size();
          if (exported.compare(qlearn::net::kFrameHeaderBytes, prefix.size(),
                               prefix) != 0) {
            return Mismatch(name, e, "export replied " + exported.substr(4));
          }
          const size_t image_bytes = (exported.size() - hex_begin - 3) / 2;
          const size_t elapsed =
              kElapsedOffsetBeforeScenario + script.scenario.size();
          Template& reply = script.steps.back().response;
          reply.hex_masks = {
              {static_cast<uint32_t>(hex_begin + 2 * elapsed),
               static_cast<uint32_t>(hex_begin + 2 * (elapsed + 8))},
              {static_cast<uint32_t>(hex_begin +
                                     2 * (image_bytes - kChecksumBytes)),
               static_cast<uint32_t>(hex_begin + 2 * image_bytes)}};
          std::string import;
          AppendImportFrame(kPlaceholder, script.scenario, exported, &import);
          if (add_step(Op::kImport, import, request) != "{\"ok\":{}}") {
            return Mismatch(name, e, "import failed");
          }
          break;
        }
        case TranscriptEvent::Kind::kClose: {
          request.op = Request::Op::kClose;
          const std::string reply = add_step(Op::kClose, request_frame(request), request);
          QLEARN_ASSIGN_OR_RETURN(
              auto response,
              qlearn::net::ParseResponse(Request::Op::kClose, reply));
          if (!response.status.ok() ||
              qlearn::service::wire::Serialize(response.hypothesis) !=
                  qlearn::service::wire::Serialize(event.hypothesis) ||
              qlearn::service::wire::Serialize(response.stats) !=
                  qlearn::service::wire::Serialize(event.stats)) {
            return Mismatch(name, e, "close replied " + reply);
          }
          break;
        }
      }
    }
    if (script.steps.empty() || script.steps.front().op != Op::kOpen ||
        script.steps.back().op != Op::kClose) {
      return Status::InvalidArgument("golden " + name +
                                     " is not one open ... close session");
    }
    scripts.push_back(std::move(script));
  }
  return scripts;
}

}  // namespace servebench
