#include "rlearn/interactive_join.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <vector>

#include "rlearn/mask_scoring.h"

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;

namespace {

/// "QLJE" little-endian: the join-engine snapshot blob tag.
constexpr uint32_t kJoinEngineMagic = 0x454A4C51u;
constexpr uint32_t kJoinEngineVersion = 1;

}  // namespace

JoinEngine::JoinEngine(const PairUniverse* universe,
                       const relational::Relation* left,
                       const relational::Relation* right,
                       const InteractiveJoinOptions& options)
    : universe_(universe),
      left_(left),
      right_(right),
      strategy_(options.strategy),
      vs_(universe, left, right) {
  // Materialize all candidate pairs; agreement masks go bit-transposed
  // into the store (plane b = the candidates agreeing on universe pair b).
  const size_t n = left->size() * right->size();
  frontier_.Reserve(n);
  store_.Reset(universe->size(), n);
  for (size_t i = 0; i < left->size(); ++i) {
    for (size_t j = 0; j < right->size(); ++j) {
      const size_t k = frontier_.Add(PairExample{i, j});
      const PairMask agree = universe->AgreeMask(left->row(i), right->row(j));
      for (PairMask m = agree; m != 0; m &= m - 1) {
        store_.SetPlaneBit(static_cast<size_t>(std::countr_zero(m)), k);
      }
    }
  }
  // The planes are a pure function of the relations: copies of the engine
  // share them, and a restore gathers them instead of reading the image.
  store_.SealPlanes();
}

size_t JoinEngine::IndexOf(const PairExample& item) const {
  return item.left_row * right_->size() + item.right_row;
}

void JoinEngine::EnsureKeptCounts() {
  if (counts_valid_) return;
  store_.PlanePopcounts(0, vs_.most_specific(), &kept_counts_);
  counts_valid_ = true;
}

std::optional<PairExample> JoinEngine::SelectQuestion(common::Rng* rng) {
  std::optional<size_t> pick;
  switch (strategy_) {
    case JoinStrategy::kRandom:
      pick = frontier_.Select(session::UniformRandomStrategy{}, rng);
      break;
    case JoinStrategy::kSplitHalf: {
      // Prefer the pair whose positive answer halves θ*. The per-candidate
      // kept-counts are one bit-sliced popcount sweep per θ* change; the
      // greedy scorer is then an array read.
      EnsureKeptCounts();
      const int total = std::popcount(vs_.most_specific());
      pick = frontier_.Select(
          session::Greedy<long>(
              std::numeric_limits<long>::min(),
              [this, total](size_t k) -> std::optional<long> {
                return SplitHalfScore(total,
                                      kept_counts_[store_.DenseOf(k)]);
              }),
          rng);
      break;
    }
    case JoinStrategy::kLattice: {
      // Probe a pair that drops exactly one bit of θ* if positive; fall
      // back to split-half behaviour otherwise.
      EnsureKeptCounts();
      const int full = std::popcount(vs_.most_specific());
      pick = frontier_.Select(
          session::Greedy<long>(
              std::numeric_limits<long>::min(),
              [this, full](size_t k) -> std::optional<long> {
                return LatticeProbeScore(full,
                                         kept_counts_[store_.DenseOf(k)]);
              }),
          rng);
      break;
    }
  }
  if (!pick.has_value()) return std::nullopt;
  return frontier_.item(*pick);
}

void JoinEngine::MarkAsked(const PairExample& item) {
  const size_t k = IndexOf(item);
  frontier_.MarkAsked(k);
  store_.OnAsked(k);
}

void JoinEngine::Observe(const PairExample& item, bool positive,
                         session::SessionStats* stats) {
  const size_t k = IndexOf(item);
  frontier_.MarkLabeled(k, positive);
  store_.OnSettled(k);
  theta_advanced_ = false;
  if (positive) {
    const PairMask before = vs_.most_specific();
    vs_.AddPositive(item);
    theta_advanced_ = vs_.most_specific() != before;
    // θ* shrank: every memoized split/lattice score and the kept-counts
    // are stale. Negative answers leave θ* (and thus both) untouched.
    frontier_.InvalidateAll();
    if (theta_advanced_) counts_valid_ = false;
  } else {
    vs_.AddNegative(item);
  }
  if (!vs_.Consistent()) {
    ++stats->conflicts;
    aborted_ = true;  // target outside the hypothesis space
  }
}

void JoinEngine::OnPositive(const PairExample& /*item*/) {
  // A positive whose agreement already covered θ* (possible mid-batch)
  // leaves every classification unchanged.
  if (theta_advanced_) prop_.RecordHypothesisChange();
}

void JoinEngine::OnNegative(const PairExample& /*item*/) {
  // Observe ran first, so the version space's newest negative mask is this
  // item's agreement (no per-candidate gather from the planes needed).
  prop_.RecordNegative(vs_.negative_masks().back());
}

void JoinEngine::Propagate(session::SessionStats* stats) {
  if (reference_propagation_) {
    ReferencePropagate(stats);
    prop_.MarkFullPassDone();
  } else if (prop_.NeedsFullPass()) {
    FullPropagate(stats);
    prop_.MarkFullPassDone();
  } else {
    ApplyNegativeDeltas(stats);
  }
#ifndef NDEBUG
  AssertPropagationFixpoint();
#endif
  // Shrink the dense sweep axis once enough candidates settled. Survivor
  // order is id-ascending before and after, so replay is unaffected; the
  // kept-counts are dense-indexed and refresh lazily.
  if (store_.MaybeCompact()) counts_valid_ = false;
}

void JoinEngine::ReferencePropagate(session::SessionStats* stats) {
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    switch (vs_.Classify(frontier_.item(k))) {
      case EquiJoinVersionSpace::PairStatus::kForcedPositive:
        frontier_.MarkForced(k, /*positive=*/true);
        store_.OnSettled(k);
        ++stats->forced_positive;
        break;
      case EquiJoinVersionSpace::PairStatus::kForcedNegative:
        frontier_.MarkForced(k, /*positive=*/false);
        store_.OnSettled(k);
        ++stats->forced_negative;
        break;
      case EquiJoinVersionSpace::PairStatus::kInformative:
        break;
    }
  }
}

void JoinEngine::ForceSweep(const std::vector<uint64_t>& bits, bool positive,
                            session::SessionStats* stats) {
  session::ForEachSetBit(bits.data(), bits.size(), [&](size_t d) {
    const size_t k = store_.IdOf(d);
    frontier_.MarkForced(k, positive);
    store_.OnSettled(k);
    if (positive) {
      ++stats->forced_positive;
    } else {
      ++stats->forced_negative;
    }
  });
}

void JoinEngine::ConvictCovered(PairMask neg, session::SessionStats* stats) {
  // A negative m covers A = θ* ∧ agree iff A ∧ ¬m == 0, i.e. the candidate
  // agrees on none of the surviving pairs θ* ∧ ¬m. With no surviving pair
  // the negative covers every open candidate (neg = 0 degenerates to the
  // A == 0 conviction: agreement misses all of θ*).
  const PairMask surviving = vs_.most_specific() & ~neg;
  store_.CopyOpen(&scratch_);
  if (surviving != 0) store_.AndNotOrPlanes(0, surviving, scratch_.data());
  ForceSweep(scratch_, /*positive=*/false, stats);
}

void JoinEngine::FullPropagate(session::SessionStats* stats) {
  // Classification of a pair depends only on A = θ* ∧ agree (see
  // EquiJoinVersionSpace::Classify), so the whole pass is word-parallel:
  // one AND sweep for the forced positives (A == θ*), then one conviction
  // sweep per negative (plus the A == 0 sweep, the neg = 0 special case).
  const PairMask theta = vs_.most_specific();
  assert(theta != 0 && "propagating an inconsistent version space");
  store_.CopyOpen(&scratch_);
  store_.AndPlanes(0, theta, scratch_.data());
  ForceSweep(scratch_, /*positive=*/true, stats);
  ConvictCovered(0, stats);
  for (PairMask neg : vs_.negative_masks()) {
    ConvictCovered(neg, stats);
  }
}

void JoinEngine::ApplyNegativeDeltas(session::SessionStats* stats) {
  std::vector<PairMask> deltas = prop_.TakeDeltas();
  if (deltas.empty()) return;
  // θ* is untouched, so no new forced positives exist: each queued
  // negative is one conviction sweep over the still-open candidates.
  for (PairMask neg : deltas) {
    ConvictCovered(neg, stats);
  }
}

#ifndef NDEBUG
void JoinEngine::AssertPropagationFixpoint() const {
  // The historical per-candidate classification must find nothing left to
  // force after a flush.
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    assert(vs_.Classify(frontier_.item(k)) ==
               EquiJoinVersionSpace::PairStatus::kInformative &&
           "delta flush missed a forced pair");
    assert(store_.IsOpen(k) && "store open bit out of sync with frontier");
  }
}
#endif

PairMask JoinEngine::Current() const {
  return vs_.Consistent() ? vs_.most_specific() : 0;
}

PairMask JoinEngine::Finish(session::SessionStats* /*stats*/) {
  // No end-of-session audit beyond the per-answer consistency checks.
  return Current();
}

void JoinEngine::SerializeSnapshot(session::SnapshotWriter* writer) const {
  writer->WriteU32(kJoinEngineMagic);
  writer->WriteU32(kJoinEngineVersion);
  writer->WriteU8(static_cast<uint8_t>(strategy_));
  writer->WriteU8(aborted_ ? 1 : 0);
  writer->WriteU64(vs_.most_specific());
  writer->WriteU64(vs_.num_positives());
  writer->WriteU64(vs_.negative_masks().size());
  for (PairMask m : vs_.negative_masks()) writer->WriteU64(m);
  frontier_.SerializeState(writer);
  store_.SerializeSnapshot(writer);
}

common::Status JoinEngine::RestoreSnapshot(session::SnapshotReader* reader) {
  uint32_t magic = 0, version = 0;
  uint8_t strategy = 0, aborted = 0;
  uint64_t theta = 0, num_positives = 0, num_negatives = 0;
  Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU8(&strategy);
  if (s.ok()) s = reader->ReadU8(&aborted);
  if (s.ok()) s = reader->ReadU64(&theta);
  if (s.ok()) s = reader->ReadU64(&num_positives);
  if (s.ok()) s = reader->ReadU64(&num_negatives);
  if (!s.ok()) return s;
  if (magic != kJoinEngineMagic) {
    return Status::InvalidArgument("not a join-engine snapshot");
  }
  if (version != kJoinEngineVersion) {
    return Status::InvalidArgument("unsupported join-engine snapshot version " +
                                   std::to_string(version));
  }
  if (strategy != static_cast<uint8_t>(strategy_)) {
    return Status::InvalidArgument(
        "join-engine snapshot was taken under a different strategy");
  }
  std::vector<PairMask> negatives(num_negatives);
  for (uint64_t i = 0; i < num_negatives; ++i) {
    s = reader->ReadU64(&negatives[i]);
    if (!s.ok()) return s;
  }
  s = frontier_.RestoreState(reader);
  if (!s.ok()) return s;
  s = store_.RestoreSnapshot(reader);
  if (!s.ok()) return s;

  vs_.RestoreState(theta, std::move(negatives),
                   static_cast<size_t>(num_positives));
  aborted_ = aborted != 0;
  theta_advanced_ = false;
  counts_valid_ = false;
  // Snapshots are taken between answered turns: every queued delta was
  // flushed, so the restored engine starts in steady state.
  prop_.MarkFullPassDone();
  return Status::OK();
}

const relational::Tuple& JoinEngine::LeftRow(const PairExample& item) const {
  return left_->row(item.left_row);
}

const relational::Tuple& JoinEngine::RightRow(const PairExample& item) const {
  return right_->row(item.right_row);
}

bool JoinEngine::WasAsked(const PairExample& item) const {
  return frontier_.WasAsked(IndexOf(item));
}

bool JoinEngine::HasForcedLabel(const PairExample& item) const {
  return frontier_.HasForcedLabel(IndexOf(item));
}

Result<InteractiveJoinResult> RunInteractiveJoinSession(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, JoinOracle* oracle,
    const InteractiveJoinOptions& options) {
  if (universe.size() == 0) {
    return Status::InvalidArgument("empty candidate pair universe");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<JoinEngine> session(
      JoinEngine(&universe, &left, &right, options), session_options);

  InteractiveJoinResult result;
  result.learned = session.Run([&](const PairExample& pair) {
    return oracle->IsPositive(left.row(pair.left_row),
                              right.row(pair.right_row));
  });
  result.candidate_pairs = session.engine().candidate_pairs();
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
  return result;
}

}  // namespace rlearn
}  // namespace qlearn
