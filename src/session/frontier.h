// Shared incremental candidate-frontier layer for the interactive engines.
//
// All four scenario engines (learn::TwigEngine, rlearn::JoinEngine,
// rlearn::ChainEngine, glearn::PathEngine) run the same hot loop: keep a
// pool of candidate items, repeatedly pick the most informative open one,
// retire items as they are asked / labeled / forced, and rescore the rest
// as the hypothesis evolves. Before this layer each engine hand-rolled that
// bookkeeping with private state arrays and an O(candidates * eval) (twig:
// O(candidates^2 * eval)) rescan on every SelectQuestion call. The frontier
// centralizes it once, incrementally:
//
//   * candidate states  — one CandidateState per item (unknown / asked /
//                         labeled / forced) plus a persistent was-asked bit;
//   * memoized scores   — per-candidate Memo slots with epoch-based
//                         dirty-marking: an Observe that changes the
//                         hypothesis bumps the epoch (everything rescores
//                         lazily), an Observe that does not (negative
//                         answers in every engine) invalidates nothing, so
//                         the next selection reuses every cached score;
//   * selection         — strategy objects the frontier drives:
//                         UniformRandomStrategy (every engine's kRandom)
//                         and GreedyScoreStrategy (kGreedyImpact /
//                         kSplitHalf / kLattice / kFrontier / kWorkload,
//                         each engine binding its model-specific scorer).
//                         Greedy selection runs off a lazy max-heap, so the
//                         per-question cost between hypothesis changes is
//                         O(log n) instead of a full rescan.
//
// Bit-identity contract: GreedyScoreStrategy reproduces exactly the
// historical first-wins linear scan — the smallest-index candidate among
// the best-scoring open ones wins, and when no score strictly beats the
// strategy's sentinel the first open candidate wins. The heap relies on
// scores never *improving* within an epoch (they may decay as the open set
// shrinks, e.g. the twig impact count); call Invalidate(k)/InvalidateAll()
// before a score can rise. Debug builds cross-check every greedy pick
// against the reference linear scan.
//
// The engines keep their model-specific pieces — hypothesis extension,
// evaluation, propagation predicates — and delegate every candidate-state
// question to this layer. See session/session.h for the protocol driver
// that sits above the engines.
#ifndef QLEARN_SESSION_FRONTIER_H_
#define QLEARN_SESSION_FRONTIER_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {

/// Lifecycle of one candidate. States only ever move away from kUnknown
/// (the frontier never reopens a candidate); the one lateral transition is
/// kForcedNegative -> kForcedPositive, which the twig engine needs when a
/// growing hypothesis reaches a node that an earlier, smaller hypothesis
/// had ruled out.
enum class CandidateState : uint8_t {
  kUnknown,          ///< open: selectable by a strategy
  kAsked,            ///< question issued, answer not yet observed
  kLabeledPositive,  ///< answered positive by the oracle (or pre-seeded)
  kLabeledNegative,  ///< answered negative by the oracle
  kForcedPositive,   ///< inferred positive, never asked
  kForcedNegative,   ///< inferred negative, never asked
};

/// Human-readable state name (diagnostics and tests).
const char* CandidateStateName(CandidateState state);

/// Uniform-random selection over the open candidates: the kRandom strategy
/// of all four engines. Consumes exactly one Rng draw per pick, on the size
/// of the open set, preserving the historical random streams.
struct UniformRandomStrategy {
  template <typename FrontierT>
  std::optional<size_t> Pick(FrontierT* frontier, common::Rng* rng) const {
    return frontier->SelectUniform(rng);
  }
};

/// Greedy argmax of an engine-bound scorer: the shape of every non-random
/// strategy the engines had (twig kGreedyImpact, join kSplitHalf/kLattice,
/// chain kSplitHalf, path kFrontier/kWorkload). `score_of(k)` returns the
/// candidate's score, or nullopt when the candidate cannot be scored (e.g.
/// no anchored twig generalization exists); higher scores win, ties go to
/// the smallest index, and when nothing strictly beats `sentinel` the first
/// open candidate wins — exactly the historical linear-scan semantics.
/// Strategies that historically minimized a cost negate it.
template <typename Score, typename ScoreFn>
class GreedyScoreStrategy {
 public:
  GreedyScoreStrategy(Score sentinel, ScoreFn score_of)
      : sentinel_(std::move(sentinel)), score_of_(std::move(score_of)) {}

  template <typename FrontierT>
  std::optional<size_t> Pick(FrontierT* frontier, common::Rng* /*rng*/) const {
    return frontier->SelectBest(sentinel_, score_of_);
  }

 private:
  Score sentinel_;
  ScoreFn score_of_;
};

/// Deduction helper: Greedy(sentinel, [..](size_t k) { ... }).
template <typename Score, typename ScoreFn>
GreedyScoreStrategy<Score, ScoreFn> Greedy(Score sentinel, ScoreFn score_of) {
  return GreedyScoreStrategy<Score, ScoreFn>(std::move(sentinel),
                                             std::move(score_of));
}

/// The shared candidate frontier.
///
///   Item   what one candidate is (node id, tuple pair, tuple path, ...);
///          owned by the frontier, index-stable for its lifetime.
///   Score  the ordering type of greedy strategies; needs operator< (e.g.
///          long, std::pair<long, long>).
///   Memo   the expensive per-candidate intermediate a scorer caches via
///          MemoOf (defaults to Score when the score itself is the memo).
template <typename Item, typename Score = long, typename Memo = Score>
class Frontier {
 public:
  void Reserve(size_t n) {
    items_.reserve(n);
    states_.reserve(n);
    asked_.reserve(n);
    OwnMemos().reserve(n);
    memo_epoch_.reserve(n);
  }

  /// Appends a candidate (state kUnknown) and returns its index.
  size_t Add(Item item) {
    items_.push_back(std::move(item));
    states_.push_back(CandidateState::kUnknown);
    asked_.push_back(false);
    OwnMemos().emplace_back();
    memo_epoch_.push_back(0);
    ++open_count_;
    return items_.size() - 1;
  }

  size_t size() const { return items_.size(); }
  const Item& item(size_t k) const { return items_[k]; }
  CandidateState state(size_t k) const { return states_[k]; }
  bool IsOpen(size_t k) const {
    return states_[k] == CandidateState::kUnknown;
  }
  /// Open candidates remaining (state kUnknown).
  size_t open_count() const { return open_count_; }
  /// True once a question about the candidate was issued, regardless of the
  /// label it later received (pre-seeded labels never set this).
  bool WasAsked(size_t k) const { return asked_[k]; }
  bool HasForcedLabel(size_t k) const {
    return states_[k] == CandidateState::kForcedPositive ||
           states_[k] == CandidateState::kForcedNegative;
  }

  /// kUnknown -> kAsked: the candidate is in flight and leaves the open
  /// set. The answer arrives via MarkLabeled — or never, if the driver
  /// discards the pending question, in which case the candidate stays
  /// kAsked (counted, not re-askable).
  void MarkAsked(size_t k) {
    assert(states_[k] == CandidateState::kUnknown && "asked a closed item");
    if (states_[k] != CandidateState::kUnknown) return;
    Close(k, CandidateState::kAsked);
    asked_[k] = true;
  }

  /// Records an oracle label: kAsked -> kLabeled* for answered questions,
  /// kUnknown -> kLabeled* for pre-seeded examples the oracle never sees.
  void MarkLabeled(size_t k, bool positive) {
    assert((states_[k] == CandidateState::kAsked ||
            states_[k] == CandidateState::kUnknown) &&
           "labeled an item that is settled already");
    const CandidateState next = positive ? CandidateState::kLabeledPositive
                                         : CandidateState::kLabeledNegative;
    if (states_[k] == CandidateState::kUnknown) {
      Close(k, next);
    } else if (states_[k] == CandidateState::kAsked) {
      states_[k] = next;
    }
    ReleaseMemo(k);
  }

  /// Records an inferred label. Allowed from kUnknown (both polarities),
  /// from kAsked (a discarded question settled by later knowledge), and —
  /// positive only — from kForcedNegative (the twig upgrade). Returns true
  /// if the state changed.
  bool MarkForced(size_t k, bool positive) {
    const CandidateState next = positive ? CandidateState::kForcedPositive
                                         : CandidateState::kForcedNegative;
    switch (states_[k]) {
      case CandidateState::kUnknown:
        Close(k, next);
        ReleaseMemo(k);
        return true;
      case CandidateState::kAsked:
        states_[k] = next;
        ReleaseMemo(k);
        return true;
      case CandidateState::kForcedNegative:
        if (positive) {
          states_[k] = next;
          return true;
        }
        return false;
      default:
        assert(false && "forced a label on a labeled/settled item");
        return false;
    }
  }

  /// Marks every memoized score stale (epoch bump). Call when the
  /// hypothesis — anything scores depend on beyond the open set — changed.
  /// O(1); rescoring happens lazily at the next greedy selection.
  void InvalidateAll() { ++epoch_; }

  /// Marks one candidate's memo stale and reschedules it for the greedy
  /// heap. Unlike the decay the heap tolerates implicitly, this also
  /// handles a score that *rises*.
  void Invalidate(size_t k) {
    memo_epoch_[k] = 0;
    dirty_.push_back(k);
  }

  /// Memoized access to the expensive per-candidate intermediate:
  /// recomputes via `recompute(k)` only when the slot is stale (never
  /// computed, single-candidate Invalidate, or epoch bump). A nullopt memo
  /// is cached too — "cannot be scored" is itself a per-epoch fact.
  template <typename RecomputeFn>
  const std::optional<Memo>& MemoOf(size_t k, RecomputeFn&& recompute) {
    if (memo_epoch_[k] != epoch_) {
      std::optional<Memo> fresh = recompute(k);
      OwnMemos()[k] = std::move(fresh);
      memo_epoch_[k] = epoch_;
    }
    return (*memos_)[k];
  }

  /// First-wins greedy selection (see GreedyScoreStrategy for semantics).
  /// Runs off a lazy max-heap: a full rescore happens only on the first
  /// selection after an epoch bump; otherwise the pick costs O(log n)
  /// amortized. Within an epoch cached scores must not improve — they may
  /// decay (the heap re-sifts stale entries) or vanish into nullopt.
  template <typename ScoreFn>
  std::optional<size_t> SelectBest(const Score& sentinel, ScoreFn&& score_of) {
    if (open_count_ == 0) return std::nullopt;
    if (heap_epoch_ != epoch_) {
      heap_.clear();
      dirty_.clear();
      for (size_t k = 0; k < states_.size(); ++k) {
        if (states_[k] != CandidateState::kUnknown) continue;
        std::optional<Score> s = score_of(k);
        if (s.has_value()) heap_.push_back(HeapEntry{std::move(*s), k});
      }
      std::make_heap(heap_.begin(), heap_.end(), EntryLess);
      heap_epoch_ = epoch_;
    } else if (!dirty_.empty()) {
      for (size_t k : dirty_) {
        if (states_[k] != CandidateState::kUnknown) continue;
        std::optional<Score> s = score_of(k);
        if (s.has_value()) PushHeap(HeapEntry{std::move(*s), k});
      }
      dirty_.clear();
    }

    std::optional<size_t> picked;
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      if (states_[top.index] != CandidateState::kUnknown) {
        PopHeap();
        continue;
      }
      std::optional<Score> current = score_of(top.index);
      if (!current.has_value()) {
        PopHeap();
        continue;
      }
      if (*current < top.score || top.score < *current) {
        // Stale entry: the score decayed since it was pushed (e.g. the open
        // set shrank under an impact count). Re-sift at its true score.
        const size_t index = top.index;
        PopHeap();
        PushHeap(HeapEntry{std::move(*current), index});
        continue;
      }
      // Fresh top: the best-scored open candidate, smallest index on ties.
      picked = sentinel < top.score ? std::optional<size_t>(top.index)
                                    : FirstOpen();
      break;
    }
    if (!picked.has_value()) picked = FirstOpen();
    assert(picked == ReferenceSelectBest(sentinel, score_of) &&
           "lazy-heap selection diverged from the reference linear scan");
    return picked;
  }

  /// Uniformly random open candidate; exactly one Rng draw on the open
  /// count (the historical kRandom stream shape for every engine).
  std::optional<size_t> SelectUniform(common::Rng* rng) {
    if (open_count_ == 0) return std::nullopt;
    size_t remaining = rng->Index(open_count_);
    for (size_t k = 0; k < states_.size(); ++k) {
      if (states_[k] != CandidateState::kUnknown) continue;
      if (remaining == 0) return k;
      --remaining;
    }
    assert(false && "open_count_ out of sync with states");
    return std::nullopt;
  }

  /// Smallest open index, or nullopt when everything is settled. Amortized
  /// O(1): candidates never reopen, so the scan cursor only moves forward.
  std::optional<size_t> FirstOpen() {
    while (first_open_hint_ < states_.size() &&
           states_[first_open_hint_] != CandidateState::kUnknown) {
      ++first_open_hint_;
    }
    if (first_open_hint_ >= states_.size()) return std::nullopt;
    return first_open_hint_;
  }

  /// Lets a strategy object drive the pick: the engine chooses the
  /// strategy, the frontier supplies the candidate machinery.
  template <typename Strategy>
  std::optional<size_t> Select(const Strategy& strategy, common::Rng* rng) {
    return strategy.Pick(this, rng);
  }

  /// Hibernation: appends the per-candidate states and was-asked bits. The
  /// items themselves are not serialized — the engine rebuilds them from
  /// its model inputs and restores only the mutable lifecycle state.
  void SerializeState(SnapshotWriter* writer) const {
    writer->WriteU64(states_.size());
    static_assert(sizeof(CandidateState) == 1);
    writer->WriteByteRun(reinterpret_cast<const uint8_t*>(states_.data()),
                         states_.size());
    std::vector<uint8_t> asked(asked_.begin(), asked_.end());
    writer->WriteByteRun(asked.data(), asked.size());
  }

  /// Restores SerializeState output into a frontier already holding the
  /// same candidate set. Memos and the greedy heap restart stale (epoch
  /// bump); scores recompute from the restored hypothesis on first use.
  common::Status RestoreState(SnapshotReader* reader) {
    uint64_t count = 0;
    common::Status s = reader->ReadU64(&count);
    if (!s.ok()) return s;
    if (count != states_.size()) {
      return common::Status::InvalidArgument(
          "frontier snapshot holds " + std::to_string(count) +
          " candidates, engine built " + std::to_string(states_.size()));
    }
    std::vector<uint8_t> raw(2 * states_.size());
    s = reader->ReadByteRun(raw.data(), raw.size());
    if (!s.ok()) return s;
    for (size_t k = 0; k < states_.size(); ++k) {
      if (raw[k] > static_cast<uint8_t>(CandidateState::kForcedNegative)) {
        return common::Status::InvalidArgument(
            "frontier snapshot has invalid candidate state " +
            std::to_string(raw[k]));
      }
    }
    for (size_t k = 0; k < states_.size(); ++k) {
      states_[k] = static_cast<CandidateState>(raw[k]);
      asked_[k] = raw[states_.size() + k] != 0;
    }
    open_count_ = 0;
    for (CandidateState state : states_) {
      if (state == CandidateState::kUnknown) ++open_count_;
    }
    first_open_hint_ = 0;
    for (size_t k = 0; k < memo_epoch_.size(); ++k) ReleaseMemo(k);
    InvalidateAll();  // restart heap and memos stale
    return common::Status::OK();
  }

 private:
  struct HeapEntry {
    Score score;
    size_t index;
  };

  /// Max-heap order: higher score first, smaller index first among equals
  /// (reproducing the linear scan's first-wins tie-break).
  static bool EntryLess(const HeapEntry& a, const HeapEntry& b) {
    if (a.score < b.score) return true;
    if (b.score < a.score) return false;
    return a.index > b.index;
  }

  void PushHeap(HeapEntry entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), EntryLess);
  }

  void PopHeap() {
    std::pop_heap(heap_.begin(), heap_.end(), EntryLess);
    heap_.pop_back();
  }

  void Close(size_t k, CandidateState next) {
    assert(states_[k] == CandidateState::kUnknown);
    states_[k] = next;
    --open_count_;
  }

  /// Frees a settled candidate's memo: labeled/forced candidates are never
  /// scored again, and twig selected-sets are large enough that keeping
  /// them for the frontier's lifetime would hold O(n^2) dead cache in a
  /// parked session. The epoch reset keeps MemoOf correct if anything does
  /// read the slot later (it recomputes instead of serving a freed value).
  void ReleaseMemo(size_t k) {
    memo_epoch_[k] = 0;
    // Shared slots belong to every frontier sharing them: only a private
    // slot is freed.
    if (Exclusive()) (*memos_)[k].reset();
  }

  /// True when no other frontier shares the memo slots. The acquire fence
  /// orders this frontier's writes after the reads of the copies that let
  /// go of them.
  bool Exclusive() const {
    if (memos_.use_count() != 1) return false;
    std::atomic_thread_fence(std::memory_order_acquire);
    return true;
  }

  /// The memo slots for writing. A frontier still sharing its source's
  /// slots first takes a private copy of the ones valid in this epoch.
  std::vector<std::optional<Memo>>& OwnMemos() {
    if (!Exclusive()) {
      auto own = std::make_shared<std::vector<std::optional<Memo>>>(
          memos_->size());
      for (size_t k = 0; k < own->size(); ++k) {
        if (memo_epoch_[k] == epoch_) (*own)[k] = (*memos_)[k];
      }
      memos_ = std::move(own);
    }
    return *memos_;
  }

#ifndef NDEBUG
  /// The historical selection loop, verbatim: ascending scan, strictly
  /// better score wins, first open candidate when nothing beats the
  /// sentinel. Debug builds assert the heap agrees on every pick.
  template <typename ScoreFn>
  std::optional<size_t> ReferenceSelectBest(const Score& sentinel,
                                            ScoreFn&& score_of) {
    std::optional<size_t> pick = FirstOpen();
    if (!pick.has_value()) return std::nullopt;
    Score best = sentinel;
    for (size_t k = *pick; k < states_.size(); ++k) {
      if (states_[k] != CandidateState::kUnknown) continue;
      std::optional<Score> s = score_of(k);
      if (s.has_value() && best < *s) {
        best = std::move(*s);
        pick = k;
      }
    }
    return pick;
  }
#endif

  std::vector<Item> items_;
  std::vector<CandidateState> states_;
  std::vector<bool> asked_;
  size_t open_count_ = 0;
  size_t first_open_hint_ = 0;

  // Score memoization. Epoch 0 is reserved as "never valid". A copy of the
  // frontier shares the memo slots with its source until either writes
  // one (copy on write), so a session started from a scenario's baseline
  // reads the baseline's memos without copying them, and a restore, which
  // makes every memo stale, never copies them at all.
  std::shared_ptr<std::vector<std::optional<Memo>>> memos_ =
      std::make_shared<std::vector<std::optional<Memo>>>();
  std::vector<uint64_t> memo_epoch_;
  uint64_t epoch_ = 1;

  // Lazy greedy heap; entries scored under heap_epoch_.
  std::vector<HeapEntry> heap_;
  uint64_t heap_epoch_ = 0;
  std::vector<size_t> dirty_;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_FRONTIER_H_
