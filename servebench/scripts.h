// Session scripts: the golden transcripts turned into byte templates.
//
// Every request a golden replay sends, and every response it must get
// back, is built once at set-up by running the golden through in-process
// net::HandleFrame with a placeholder session id. Ids are fixed width
// (kIdWidth), so a frame for any real session is its template with the id
// bytes overwritten: the load client never serializes or parses JSON on
// the hot path, it copies requests and byte-compares responses.
//
// The reference frames are checked once against each golden's typed
// questions, final hypothesis and stats, so a byte match at run time is a
// match with the golden.
//
// With `handoff`, every tell is followed by an export of the session and an
// import of the exported image, so the next call rehydrates it. An export
// response carries the session's elapsed wall time and a checksum over the
// image, the only bytes that differ from run to run; they are compared as
// hex digits, and the import that sends them back verifies the checksum.
#ifndef SERVEBENCH_SCRIPTS_H_
#define SERVEBENCH_SCRIPTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace servebench {

/// Session ids are "s" + 16 hex digits.
inline constexpr size_t kIdWidth = 17;

enum class Op { kOpen, kAsk, kTell, kClose, kExport, kImport };
inline constexpr size_t kOpCount = 6;
const char* OpName(Op op);

/// A framed message (4-byte length header + payload) whose session id
/// sits at fixed byte offsets.
struct Template {
  std::string bytes;               ///< holds the placeholder id
  std::vector<uint32_t> id_slots;  ///< offsets of each id occurrence
  /// [begin, end) byte ranges compared as lowercase hex digits only.
  std::vector<std::pair<uint32_t, uint32_t>> hex_masks;

  /// Appends the frame for session `id` to `out`.
  void AppendTo(std::string_view id, std::string* out) const;
  /// True when `frame` is this template for session `id`.
  bool Matches(std::string_view id, std::string_view frame) const;
};

struct Step {
  Op op = Op::kOpen;
  Template request;   ///< empty for kImport (built from the export reply)
  Template response;  ///< the expected reply frame
  uint32_t questions = 0;  ///< kAsk: questions in the expected batch
  /// The decoded request, for the layer replay's direct calls (its id is
  /// the placeholder).
  qlearn::net::Request typed;
};

struct Script {
  std::string golden;
  std::string scenario;
  std::vector<Step> steps;
};

/// Fixed-width session id from a per-run prefix and a session number.
std::string SessionId(uint32_t prefix, uint32_t number);

/// Builds the scripts of the named goldens (tests/golden/<name>.jsonl
/// under `golden_dir`). Fails if a golden is missing or its in-process
/// reference frames disagree with it.
qlearn::common::Result<std::vector<Script>> BuildScripts(
    const std::string& golden_dir, const std::vector<std::string>& names,
    bool handoff);

/// The import request frame that hands the image of `export_frame` (an
/// export reply) back to the server under session `id`.
void AppendImportFrame(std::string_view id, std::string_view scenario,
                       std::string_view export_frame, std::string* out);

}  // namespace servebench

#endif  // SERVEBENCH_SCRIPTS_H_
