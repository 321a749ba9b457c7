// The traced layer replay: one thread feeds generated sessions through
// each layer's public entry point, top down, and keeps a span per call.
//
// Each session runs as parallel twins that do identical work, because the
// engines are deterministic for a scenario and seed:
//
//   net     FrameReader::Feed+Next, json::ParseInto, net::PeekRequest and
//           net::HandleFrameInto on one SessionService (replies are
//           byte-checked like the load client's);
//   service the same step as a direct SessionService call on a second
//           service;
//   session the same step on a bare ScenarioSession (Create, NextQuestions,
//           AnswerAll, Finish), plus SerializeSnapshot/RestoreSnapshot
//           after each tell;
//   handoff a third service that exports and re-imports the session after
//           each tell, so its next call rehydrates.
//
// A layer's self time for a step is its span minus its child layer's span
// for the same step (net.protocol minus service.<op>, service.<op> minus
// session.<call>); rehydration is the handoff twin's call minus the
// service twin's.
#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scripts.h"

namespace servebench {

/// One in-process call. `parent` indexes the span of the layer above for
/// the same step (-1 at the top).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t session = 0;
  uint32_t step = 0;
};

struct ReplayResult {
  uint64_t steps = 0;
  uint64_t mismatched = 0;
  std::vector<Span> spans;
  /// Per-layer medians (name -> value); units are fixed per metric name.
  std::map<std::string, double> metrics;
  /// Median in-process server time per op: frame decode + HandleFrameInto.
  std::map<Op, double> server_us;
};

/// Replays sessions drawn from `scripts` in seeded order for about
/// `seconds` (at least one of each script).
ReplayResult ReplayLayers(const std::vector<Script>& scripts, uint64_t seed,
                          double seconds);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
