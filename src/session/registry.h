// String-keyed registry of interactive learning scenarios.
//
// The typed API (session::LearningSession<Engine>) is what library code
// uses; this registry is the uniform front door for benchmarks, examples,
// demo tooling, and future servers that must instantiate "a scenario" by
// name without compiling against its engine type. A ScenarioSession erases
// the engine behind a text-rendered question stream:
//
//   auto s = ScenarioRegistry::Global()->Create("join", {});
//   while (auto q = s.value()->NextQuestion()) {
//     s.value()->Answer(AskUser(*q));       // or s.value()->OracleLabels()
//   }
//   s.value()->Finish();
//
// Built-in scenarios ("twig", "join", "chain", "path", plus strategy
// variants like "twig-random" / "join-lattice" / "path-workload") carry a
// small synthetic dataset and a hidden goal query, so they can also
// self-answer via OracleLabels() — useful for demos, smoke tests, and load
// generation.
//
// A scenario is registered as a factory of its ScenarioUniverse: the
// immutable half every session of it shares (dataset, goal and oracle,
// candidate pool, and the state after the baseline propagation). The
// registry builds each universe once per process, on first use, and every
// Create copies the thin per-session state out of it — so opening a
// session, or rehydrating one (Create, then RestoreSnapshot), never
// rebuilds the dataset or re-runs the baseline propagation.
#ifndef QLEARN_SESSION_REGISTRY_H_
#define QLEARN_SESSION_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "session/session.h"

namespace qlearn {
namespace session {

/// Type-erased interactive session: questions are rendered to text, answers
/// are booleans. Mirrors LearningSession's incremental surface.
class ScenarioSession {
 public:
  virtual ~ScenarioSession() = default;

  /// Next question rendered for a human, or nullopt when the session is
  /// over. The question is pending until Answer().
  virtual std::optional<std::string> NextQuestion() = 0;
  /// Batched variant; pending until AnswerAll().
  virtual std::vector<std::string> NextQuestions(size_t k) = 0;
  /// Answers the single pending question.
  virtual void Answer(bool positive) = 0;
  /// Answers the pending batch, in order.
  virtual void AnswerAll(const std::vector<bool>& labels) = 0;
  /// Labels the built-in goal oracle would give the pending questions
  /// (empty when the scenario has no built-in oracle). Does not answer.
  virtual std::vector<bool> OracleLabels() = 0;
  /// Tag of the underlying question-item type ("twig" / "join" / "chain" /
  /// "path") — the payload discriminator a wire format serializes.
  virtual std::string PayloadKind() const = 0;
  /// Stable model-specific coordinates of the pending questions, in batch
  /// order: the node id for twigs, the (left,right) row pair for joins, the
  /// row path for chains, the candidate index for graph paths. Together
  /// with the rendered text this is everything a service needs to serialize
  /// a question (see service/wire.h).
  virtual std::vector<std::vector<uint64_t>> PendingIds() const = 0;
  /// Ends the session (idempotent); Hypothesis() then renders the final
  /// learned query.
  virtual void Finish() = 0;

  virtual const SessionStats& stats() const = 0;
  /// Human-readable rendering of the current (or final) hypothesis.
  virtual std::string Hypothesis() const = 0;

  /// Hibernation: serializes the full session state (RNG stream, budget,
  /// stats, engine image) into a binary image. Fails with
  /// FailedPrecondition while questions are pending or after Finish — only
  /// quiescent sessions snapshot (see session::LearningSession).
  virtual common::Status SerializeSnapshot(std::string* out) const = 0;
  /// Restores a SerializeSnapshot image into a freshly created session of
  /// the same scenario. Malformed or mismatched images are rejected with
  /// InvalidArgument; discard the session on error.
  virtual common::Status RestoreSnapshot(std::string_view image) = 0;
};

/// The immutable, process-shared half of a scenario: its dataset, goal and
/// oracle, candidate pool, and the session state after the baseline
/// propagation. Only read once built, so any number of threads may start
/// sessions from it at once; each session holds a reference on it and
/// reaches it only through const.
class ScenarioUniverse {
 public:
  virtual ~ScenarioUniverse() = default;
  /// A session at the baseline state, under `options`' seed and budget.
  virtual std::unique_ptr<ScenarioSession> NewSession(
      const SessionOptions& options) const = 0;
};

struct ScenarioInfo {
  std::string name;         ///< registry key, e.g. "twig"
  std::string description;  ///< one-liner for listings
};

/// Process-wide, thread-safe scenario registry.
class ScenarioRegistry {
 public:
  /// Builds a scenario's universe; called at most once per successful
  /// build (a failed build is retried on the next use).
  using Factory = std::function<
      common::Result<std::shared_ptr<const ScenarioUniverse>>()>;

  static ScenarioRegistry* Global();

  /// Registers a scenario; fails on duplicate names.
  common::Status Register(ScenarioInfo info, Factory factory);
  /// The named scenario's universe, built on first use. Concurrent first
  /// calls build it exactly once; the others wait for that build. Unknown
  /// names return NotFound (the message lists the registered scenarios).
  common::Result<std::shared_ptr<const ScenarioUniverse>> Universe(
      const std::string& name) const;
  /// A fresh session of the named scenario at its universe's baseline
  /// state. Unknown names return NotFound, like Universe.
  common::Result<std::unique_ptr<ScenarioSession>> Create(
      const std::string& name, const SessionOptions& options = {}) const;
  /// Looks up a scenario's info without instantiating it; NotFound on an
  /// unknown name, like Create.
  common::Result<ScenarioInfo> Describe(const std::string& name) const;
  bool Has(const std::string& name) const;
  /// Registration-ordered scenario listing.
  std::vector<ScenarioInfo> List() const;

 private:
  struct Entry {
    ScenarioInfo info;
    Factory factory;
    /// Serializes the first build; guards `universe`.
    std::mutex build_mutex;
    std::shared_ptr<const ScenarioUniverse> universe;
  };

  /// The entry named `name`, or null. Entries are never removed, so the
  /// pointer stays valid.
  Entry* Find(const std::string& name) const;
  /// NotFound status for `name`, listing the registered scenarios.
  common::Status NotFoundError(const std::string& name) const;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Registers the built-in "twig", "join", "chain", and "path" demo
/// scenarios (and their selection-strategy variants) on `registry`.
/// Fails like Register if one of the names is taken already.
common::Status RegisterBuiltinScenarios(ScenarioRegistry* registry);
/// The same on the global registry. Idempotent.
void RegisterBuiltinScenarios();

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_REGISTRY_H_
