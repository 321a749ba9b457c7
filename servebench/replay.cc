#include "replay.h"

#include <memory>

#include "common.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "service/json.h"
#include "service/session_service.h"
#include "session/registry.h"

namespace servebench {
namespace {

using qlearn::service::SessionService;
using qlearn::session::ScenarioSession;

const char* const kServiceSpan[kOpCount] = {
    "service.open",  "service.ask",    "service.tell",
    "service.close", "service.export", "service.import"};
const char* const kOtherSpan[kOpCount] = {
    "other.open",  "other.ask",    "other.tell",
    "other.close", "other.export", "other.import"};

class Recorder {
 public:
  Recorder(std::vector<Span>* spans, uint32_t session)
      : spans_(spans), session_(session) {}
  void set_step(uint32_t step) { step_ = step; }

  /// Runs `call` inside a span; returns the span's index.
  template <typename Call>
  int32_t Time(const char* name, int32_t parent, Call&& call) {
    Span span{name, NowNanos(), 0, parent, session_, step_};
    call();
    span.end_ns = NowNanos();
    spans_->push_back(span);
    return static_cast<int32_t>(spans_->size() - 1);
  }
  double Micros(int32_t index) const {
    const Span& span = (*spans_)[static_cast<size_t>(index)];
    return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }

 private:
  std::vector<Span>* spans_;
  uint32_t session_;
  uint32_t step_ = 0;
};

qlearn::session::SessionOptions EngineOptions(const qlearn::net::Request& open) {
  qlearn::session::SessionOptions options;
  options.seed = open.seed;
  options.max_questions = static_cast<size_t>(open.max_questions);
  return options;
}

qlearn::service::OpenOptions ServiceOptions(const qlearn::net::Request& open,
                                            const std::string& id) {
  qlearn::service::OpenOptions options;
  options.seed = open.seed;
  options.budget.max_questions = open.max_questions;
  options.budget.max_pending = static_cast<size_t>(open.max_pending);
  options.id = id;
  return options;
}

// One step as a direct SessionService call; `image` carries an export to
// the following import.
void CallService(SessionService* service, const Script& script,
                 const Step& step, const std::string& id, std::string* image) {
  const qlearn::net::Request& r = step.typed;
  switch (step.op) {
    case Op::kOpen:
      (void)service->Open(script.scenario, ServiceOptions(r, id));
      break;
    case Op::kAsk:
      (void)service->Ask(id, static_cast<size_t>(r.k));
      break;
    case Op::kTell:
      (void)service->Tell(id, r.labels);
      break;
    case Op::kClose:
      (void)service->Close(id);
      break;
    case Op::kExport: {
      auto exported = service->ExportSession(id);
      if (exported.ok()) *image = std::move(exported).value().image;
      break;
    }
    case Op::kImport:
      (void)service->ImportSession(id, script.scenario, *image);
      break;
  }
}

}  // namespace

ReplayResult ReplayLayers(const std::vector<Script>& scripts, uint64_t seed,
                          double seconds) {
  qlearn::session::RegisterBuiltinScenarios();
  qlearn::session::ScenarioRegistry* registry =
      qlearn::session::ScenarioRegistry::Global();
  SessionService net_twin, service_twin, other_twin;
  qlearn::net::FrameReader reader;
  qlearn::service::json::Arena arena, peek_arena;
  std::string frame, reply, net_export, service_image, other_image,
      snapshot;
  std::map<std::string, std::vector<double>> samples;
  std::map<Op, std::vector<double>> server;

  ReplayResult result;
  Rng rng(seed ^ 0x5e55105e55105ull);
  std::vector<size_t> block(scripts.size());
  const int64_t deadline = NowMicros() + static_cast<int64_t>(seconds * 1e6);
  for (uint32_t n = 0; n < scripts.size() || NowMicros() < deadline; ++n) {
    if (n % scripts.size() == 0) {
      for (size_t i = 0; i < block.size(); ++i) block[i] = i;
      for (size_t i = block.size(); i > 1; --i) {
        std::swap(block[i - 1], block[rng.Below(i)]);
      }
    }
    const Script& script = scripts[block[n % scripts.size()]];
    const std::string id = SessionId(0x7e7e7e7e, n);
    Recorder rec(&result.spans, n);
    std::unique_ptr<ScenarioSession> engine;
    bool rehydrate_next = false;
    bool handoffs = false;
    for (const Step& step : script.steps) handoffs |= step.op == Op::kExport;

    for (uint32_t i = 0; i < script.steps.size(); ++i) {
      const Step& step = script.steps[i];
      const size_t op = static_cast<size_t>(step.op);
      rec.set_step(i);
      ++result.steps;

      // net: reassembly, parse, peek, and the whole dispatch.
      frame.clear();
      if (step.op == Op::kImport) {
        AppendImportFrame(id, script.scenario, net_export, &frame);
      } else {
        step.request.AppendTo(id, &frame);
      }
      qlearn::net::FrameReader::Event event;
      const int32_t decode = rec.Time("net.frame.decode", -1, [&] {
        reader.Feed(frame.data(), frame.size());
        event = reader.Next();
      });
      const std::string_view payload = event.payload;
      arena.Reset();
      const int32_t parse = rec.Time("service.json.parse", -1, [&] {
        (void)qlearn::service::json::ParseInto(payload, &arena);
      });
      peek_arena.Reset();
      const int32_t peek = rec.Time("net.router.peek", -1, [&] {
        (void)qlearn::net::PeekRequest(payload, &peek_arena);
      });
      arena.Reset();
      reply.assign(qlearn::net::kFrameHeaderBytes, '\0');
      const int32_t protocol = rec.Time("net.protocol", -1, [&] {
        qlearn::net::HandleFrameInto(&net_twin, payload, &arena, &reply);
      });
      qlearn::net::EncodeFrameHeader(
          static_cast<uint32_t>(reply.size() - qlearn::net::kFrameHeaderBytes),
          reinterpret_cast<unsigned char*>(reply.data()));
      if (!step.response.Matches(id, reply)) ++result.mismatched;
      if (step.op == Op::kExport) net_export = reply;
      samples["net.frame.decode_us"].push_back(rec.Micros(decode));
      samples["service.json.parse_us"].push_back(rec.Micros(parse));
      samples["net.router.peek_us"].push_back(rec.Micros(peek));
      server[step.op].push_back(rec.Micros(decode) + rec.Micros(protocol));

      // service: the same step, called directly.
      const int32_t service = rec.Time(kServiceSpan[op], protocol, [&] {
        CallService(&service_twin, script, step, id, &service_image);
      });
      samples["net.protocol.self_us"].push_back(rec.Micros(protocol) -
                                                rec.Micros(service));

      // session: the engine call the service step makes.
      int32_t call = -1;
      switch (step.op) {
        case Op::kOpen:
          call = rec.Time("session.create", service, [&] {
            auto created = registry->Create(script.scenario,
                                            EngineOptions(step.typed));
            if (created.ok()) engine = std::move(created).value();
          });
          break;
        case Op::kAsk:
          call = rec.Time("session.select", service, [&] {
            (void)engine->NextQuestions(static_cast<size_t>(step.typed.k));
            (void)engine->PendingIds();
            (void)engine->PayloadKind();
          });
          break;
        case Op::kTell:
          call = rec.Time("session.answer", service,
                          [&] { engine->AnswerAll(step.typed.labels); });
          break;
        case Op::kClose:
          // Close also releases the session, so the span includes that.
          call = rec.Time("session.finish", service, [&] {
            engine->Finish();
            (void)engine->Hypothesis();
            engine.reset();
          });
          break;
        default:
          break;
      }
      if (call >= 0) {
        const char* const kCallMetric[] = {"session.create_us",
                                           "session.select_us",
                                           "session.answer_us",
                                           "session.finish_us"};
        const char* const kSelfMetric[] = {
            "service.self_us.open", "service.self_us.ask",
            "service.self_us.tell", "service.self_us.close"};
        samples[kCallMetric[op]].push_back(rec.Micros(call));
        samples[kSelfMetric[op]].push_back(rec.Micros(service) -
                                           rec.Micros(call));
      }

      // other: the same session with the other handoff behaviour. Without
      // handoffs in the script it exports and re-imports after each tell;
      // with them it stays resident. Rehydration is the difference between
      // the handed-off twin's next call and the resident twin's.
      if (handoffs) {
        if (step.op == Op::kExport || step.op == Op::kImport) {
          samples[step.op == Op::kExport ? "service.export_us"
                                         : "service.import_us"]
              .push_back(rec.Micros(service));
          continue;
        }
      } else if (step.op == Op::kExport || step.op == Op::kImport) {
        continue;
      }
      const int32_t other = rec.Time(kOtherSpan[op], -1, [&] {
        CallService(&other_twin, script, step, id, &other_image);
      });
      if (rehydrate_next) {
        const double handed_off = handoffs ? rec.Micros(service) : rec.Micros(other);
        const double resident = handoffs ? rec.Micros(other) : rec.Micros(service);
        samples["service.rehydrate_us"].push_back(handed_off - resident);
        rehydrate_next = false;
      }
      if (step.op != Op::kTell) continue;
      rehydrate_next = true;
      if (!handoffs) {
        Step exporting;
        exporting.op = Op::kExport;
        samples["service.export_us"].push_back(
            rec.Micros(rec.Time("service.export", -1, [&] {
              CallService(&other_twin, script, exporting, id, &other_image);
            })));
        exporting.op = Op::kImport;
        samples["service.import_us"].push_back(
            rec.Micros(rec.Time("service.import", -1, [&] {
              CallService(&other_twin, script, exporting, id, &other_image);
            })));
      }

      snapshot.clear();
      samples["session.snapshot.serialize_us"].push_back(
          rec.Micros(rec.Time("session.snapshot.serialize", -1, [&] {
            (void)engine->SerializeSnapshot(&snapshot);
          })));
      samples["session.snapshot.image_bytes"].push_back(
          static_cast<double>(snapshot.size()));
      auto fresh = registry->Create(script.scenario,
                                    EngineOptions(script.steps[0].typed));
      if (fresh.ok()) {
        std::unique_ptr<ScenarioSession> restored = std::move(fresh).value();
        samples["session.snapshot.restore_us"].push_back(
            rec.Micros(rec.Time("session.snapshot.restore", -1, [&] {
              (void)restored->RestoreSnapshot(snapshot);
            })));
      }
    }
  }
  for (const auto& [name, values] : samples) {
    result.metrics[name] = Median(values);
  }
  for (const auto& [op, values] : server) result.server_us[op] = Median(values);
  return result;
}

}  // namespace servebench
