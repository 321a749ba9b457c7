#include "rlearn/interactive_chain.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "rlearn/mask_scoring.h"

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;

namespace {

/// "QLCE" little-endian: the chain-engine snapshot blob tag.
constexpr uint32_t kChainEngineMagic = 0x45434C51u;
constexpr uint32_t kChainEngineVersion = 1;

/// Enumerates up to `cap` candidate paths (row-index products, row-major).
std::vector<ChainExample> EnumerateCandidates(const JoinChain& chain,
                                              size_t cap) {
  std::vector<ChainExample> out;
  std::vector<size_t> sizes(chain.length());
  for (size_t i = 0; i < chain.length(); ++i) {
    sizes[i] = chain.relation(i).size();
    if (sizes[i] == 0) return out;
  }
  std::vector<size_t> idx(chain.length(), 0);
  while (out.size() < cap) {
    out.push_back(ChainExample{idx});
    size_t pos = chain.length();
    while (pos-- > 0) {
      if (++idx[pos] < sizes[pos]) break;
      idx[pos] = 0;
      if (pos == 0) return out;
    }
  }
  return out;
}

}  // namespace

ChainEngine::ChainEngine(const JoinChain* chain,
                         const InteractiveChainOptions& options)
    : chain_(chain),
      strategy_(options.strategy),
      vs_(chain),
      last_consistent_(vs_.most_specific()) {
  std::vector<ChainExample> candidates =
      EnumerateCandidates(*chain, options.max_candidates);
  frontier_.Reserve(candidates.size());
  // Per-edge agreement masks go bit-transposed into the store: 64 planes
  // per edge, plane e*64+b = the paths agreeing on bit b of edge e.
  store_.Reset(64 * chain->num_edges(), candidates.size());
  for (ChainExample& candidate : candidates) {
    std::vector<PairMask> agree(chain->num_edges());
    for (size_t e = 0; e < chain->num_edges(); ++e) {
      agree[e] = chain->AgreeOn(e, candidate.rows);
    }
    const size_t k = frontier_.Add(std::move(candidate));
    for (size_t e = 0; e < chain->num_edges(); ++e) {
      for (PairMask m = agree[e]; m != 0; m &= m - 1) {
        store_.SetPlaneBit(e * 64 + static_cast<size_t>(std::countr_zero(m)),
                           k);
      }
    }
  }
  // The planes are a pure function of the chain: copies of the engine
  // share them, and a restore gathers them instead of reading the image.
  store_.SealPlanes();
}

std::optional<size_t> ChainEngine::IndexOf(const ChainExample& item) const {
  // Candidates are the row-major prefix of the full row product, so the
  // index is the mixed-radix value of the row vector. Malformed paths
  // (wrong arity, row out of range) and paths beyond the max_candidates
  // prefix have no candidate slot.
  if (item.rows.size() != chain_->length()) return std::nullopt;
  size_t index = 0;
  for (size_t i = 0; i < chain_->length(); ++i) {
    if (item.rows[i] >= chain_->relation(i).size()) return std::nullopt;
    index = index * chain_->relation(i).size() + item.rows[i];
  }
  if (index >= frontier_.size()) return std::nullopt;
  return index;
}

void ChainEngine::EnsureKeptCounts() {
  if (counts_valid_) return;
  const ChainMask& theta = vs_.most_specific();
  const size_t edges = chain_->num_edges();
  kept_counts_.resize(edges);
  totals_.resize(edges);
  for (size_t e = 0; e < edges; ++e) {
    store_.PlanePopcounts(e * 64, theta[e], &kept_counts_[e]);
    totals_[e] = std::popcount(theta[e]);
  }
  counts_valid_ = true;
}

std::optional<ChainExample> ChainEngine::SelectQuestion(common::Rng* rng) {
  std::optional<size_t> pick;
  if (strategy_ == ChainStrategy::kRandom) {
    pick = frontier_.Select(session::UniformRandomStrategy{}, rng);
  } else {
    // kSplitHalf in two phases. Until the first positive arrives, ask the
    // most plausible match (the candidate keeping the most θ* pairs alive
    // on every edge): a positive intersects every edge's θ* at once and
    // carries far more information than any negative. Once θ* reflects a
    // positive, switch to even-split probing of the surviving pairs.
    //
    // The per-edge kept-counts depend only on θ*, which changes exactly on
    // positive answers — one bit-sliced popcount sweep per edge per change;
    // the greedy scorer is then a row of array reads.
    EnsureKeptCounts();
    const bool hunting = vs_.num_positives() == 0;
    const size_t edges = chain_->num_edges();
    pick = frontier_.Select(
        session::Greedy<SplitScore>(
            SplitScore{std::numeric_limits<long>::min(),
                       std::numeric_limits<long>::min()},
            [this, hunting, edges](size_t k) -> std::optional<SplitScore> {
              const size_t d = store_.DenseOf(k);
              long total_kept = 0;
              long split = 0;
              for (size_t e = 0; e < edges; ++e) {
                const int kept = kept_counts_[e][d];
                total_kept += kept;
                split += SplitHalfScore(totals_[e], kept);
              }
              return hunting ? SplitScore{total_kept, split}
                             : SplitScore{split, total_kept};
            }),
        rng);
  }
  if (!pick.has_value()) return std::nullopt;
  return frontier_.item(*pick);
}

void ChainEngine::MarkAsked(const ChainExample& item) {
  const std::optional<size_t> k = IndexOf(item);
  assert(k.has_value() && "asked path outside the enumerated candidates");
  if (!k.has_value()) return;
  frontier_.MarkAsked(*k);
  store_.OnAsked(*k);
}

void ChainEngine::Observe(const ChainExample& item, bool positive,
                          session::SessionStats* stats) {
  const std::optional<size_t> k = IndexOf(item);
  if (k.has_value()) {
    frontier_.MarkLabeled(*k, positive);
    store_.OnSettled(*k);
  }
  theta_advanced_ = false;
  if (positive) {
    const ChainMask before = vs_.most_specific();
    vs_.AddPositive(item);
    theta_advanced_ = vs_.most_specific() != before;
    // θ* (and possibly the hunting phase) changed: memoized split scores
    // are stale. Negatives leave θ* untouched — nothing to invalidate.
    frontier_.InvalidateAll();
    if (theta_advanced_) counts_valid_ = false;
  } else {
    vs_.AddNegative(item);
  }
  if (vs_.Consistent()) {
    last_consistent_ = vs_.most_specific();
  } else {
    ++stats->conflicts;
    aborted_ = true;  // target outside the hypothesis space
  }
}

void ChainEngine::OnPositive(const ChainExample& /*item*/) {
  // A positive that covered every edge's θ* already (possible mid-batch)
  // leaves every classification unchanged.
  if (theta_advanced_) prop_.RecordHypothesisChange();
}

void ChainEngine::OnNegative(const ChainExample& /*item*/) {
  // Observe ran first, so the version space's newest negative agreement
  // vector is this path's (valid for slotless paths too — the version
  // space recomputes agreements itself).
  prop_.RecordNegative(vs_.negative_agreements().back());
}

void ChainEngine::Propagate(session::SessionStats* stats) {
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

void ChainEngine::ReferencePropagate(session::SessionStats* stats) {
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    switch (vs_.Classify(frontier_.item(k))) {
      case ChainVersionSpace::PathStatus::kForcedPositive:
        frontier_.MarkForced(k, /*positive=*/true);
        store_.OnSettled(k);
        ++stats->forced_positive;
        break;
      case ChainVersionSpace::PathStatus::kForcedNegative:
        frontier_.MarkForced(k, /*positive=*/false);
        store_.OnSettled(k);
        ++stats->forced_negative;
        break;
      case ChainVersionSpace::PathStatus::kInformative:
        break;
    }
  }
}

void ChainEngine::ForceSweep(const std::vector<uint64_t>& bits, bool positive,
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

void ChainEngine::ConvictCovered(const std::vector<PairMask>& neg,
                                 session::SessionStats* stats) {
  // The negative covers a path iff on every edge A_e ∧ ¬neg_e == 0, i.e.
  // the path agrees on none of the surviving pairs θ*_e ∧ ¬neg_e. An edge
  // with no surviving pair imposes no constraint (its A_e is covered for
  // every path).
  const ChainMask& theta = vs_.most_specific();
  store_.CopyOpen(&scratch_);
  for (size_t e = 0; e < chain_->num_edges(); ++e) {
    const PairMask surviving = theta[e] & ~neg[e];
    if (surviving != 0) {
      store_.AndNotOrPlanes(e * 64, surviving, scratch_.data());
    }
  }
  ForceSweep(scratch_, /*positive=*/false, stats);
}

void ChainEngine::FullPropagate(session::SessionStats* stats) {
  // Classification of a path depends only on its per-edge effective masks
  // A_e = θ*_e ∧ agree_e (see ChainVersionSpace::Classify), so the whole
  // pass is word-parallel: one AND sweep over every edge's θ* planes for
  // the forced positives (A == θ* edge-wise), a per-edge A_e == 0 sweep,
  // and one conviction sweep per accumulated negative.
  const ChainMask& theta = vs_.most_specific();
  const size_t edges = chain_->num_edges();
  store_.CopyOpen(&scratch_);
  for (size_t e = 0; e < edges; ++e) {
    assert(theta[e] != 0 && "propagating an inconsistent version space");
    store_.AndPlanes(e * 64, theta[e], scratch_.data());
  }
  ForceSweep(scratch_, /*positive=*/true, stats);
  for (size_t e = 0; e < edges; ++e) {
    store_.CopyOpen(&scratch_);
    store_.AndNotOrPlanes(e * 64, theta[e], scratch_.data());
    ForceSweep(scratch_, /*positive=*/false, stats);
  }
  for (const std::vector<PairMask>& neg : vs_.negative_agreements()) {
    ConvictCovered(neg, stats);
  }
}

void ChainEngine::ApplyNegativeDeltas(session::SessionStats* stats) {
  std::vector<std::vector<PairMask>> deltas = prop_.TakeDeltas();
  if (deltas.empty()) return;
  // θ* is untouched, so no new forced positives exist: each queued
  // negative is one conviction sweep over the still-open paths.
  for (const std::vector<PairMask>& neg : deltas) {
    ConvictCovered(neg, stats);
  }
}

#ifndef NDEBUG
void ChainEngine::AssertPropagationFixpoint() const {
  // The historical per-candidate classification must find nothing left to
  // force after a flush.
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    assert(vs_.Classify(frontier_.item(k)) ==
               ChainVersionSpace::PathStatus::kInformative &&
           "delta flush missed a forced path");
    assert(store_.IsOpen(k) && "store open bit out of sync with frontier");
  }
}
#endif

ChainMask ChainEngine::Finish(session::SessionStats* /*stats*/) {
  // No end-of-session audit beyond the per-answer consistency checks.
  return Current();
}

void ChainEngine::SerializeSnapshot(session::SnapshotWriter* writer) const {
  writer->WriteU32(kChainEngineMagic);
  writer->WriteU32(kChainEngineVersion);
  writer->WriteU8(static_cast<uint8_t>(strategy_));
  writer->WriteU8(aborted_ ? 1 : 0);
  const size_t edges = chain_->num_edges();
  writer->WriteU64(edges);
  for (PairMask m : vs_.most_specific()) writer->WriteU64(m);
  for (PairMask m : last_consistent_) writer->WriteU64(m);
  writer->WriteU64(vs_.num_positives());
  writer->WriteU64(vs_.negative_agreements().size());
  for (const std::vector<PairMask>& neg : vs_.negative_agreements()) {
    for (PairMask m : neg) writer->WriteU64(m);
  }
  frontier_.SerializeState(writer);
  store_.SerializeSnapshot(writer);
}

common::Status ChainEngine::RestoreSnapshot(session::SnapshotReader* reader) {
  uint64_t edges = 0, num_positives = 0, num_negatives = 0;
  uint32_t magic = 0, version = 0;
  uint8_t strategy = 0, aborted = 0;
  Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU8(&strategy);
  if (s.ok()) s = reader->ReadU8(&aborted);
  if (s.ok()) s = reader->ReadU64(&edges);
  if (!s.ok()) return s;
  if (magic != kChainEngineMagic) {
    return Status::InvalidArgument("not a chain-engine snapshot");
  }
  if (version != kChainEngineVersion) {
    return Status::InvalidArgument(
        "unsupported chain-engine snapshot version " +
        std::to_string(version));
  }
  if (strategy != static_cast<uint8_t>(strategy_)) {
    return Status::InvalidArgument(
        "chain-engine snapshot was taken under a different strategy");
  }
  if (edges != chain_->num_edges()) {
    return Status::InvalidArgument(
        "chain-engine snapshot has " + std::to_string(edges) +
        " edges, chain has " + std::to_string(chain_->num_edges()));
  }
  ChainMask theta(edges), last(edges);
  for (uint64_t e = 0; e < edges && s.ok(); ++e) s = reader->ReadU64(&theta[e]);
  for (uint64_t e = 0; e < edges && s.ok(); ++e) s = reader->ReadU64(&last[e]);
  if (s.ok()) s = reader->ReadU64(&num_positives);
  if (s.ok()) s = reader->ReadU64(&num_negatives);
  if (!s.ok()) return s;
  std::vector<std::vector<PairMask>> negatives(num_negatives);
  for (uint64_t i = 0; i < num_negatives; ++i) {
    negatives[i].resize(edges);
    for (uint64_t e = 0; e < edges; ++e) {
      s = reader->ReadU64(&negatives[i][e]);
      if (!s.ok()) return s;
    }
  }
  s = frontier_.RestoreState(reader);
  if (!s.ok()) return s;
  s = store_.RestoreSnapshot(reader);
  if (!s.ok()) return s;

  vs_.RestoreState(std::move(theta), std::move(negatives),
                   static_cast<size_t>(num_positives));
  last_consistent_ = std::move(last);
  aborted_ = aborted != 0;
  theta_advanced_ = false;
  counts_valid_ = false;
  // Snapshots are taken between answered turns: every queued delta was
  // flushed, so the restored engine starts in steady state.
  prop_.MarkFullPassDone();
  return Status::OK();
}

bool ChainEngine::WasAsked(const ChainExample& item) const {
  const std::optional<size_t> k = IndexOf(item);
  return k.has_value() && frontier_.WasAsked(*k);
}

bool ChainEngine::HasForcedLabel(const ChainExample& item) const {
  // Paths without a candidate slot were never classified, so they carry no
  // label.
  const std::optional<size_t> k = IndexOf(item);
  return k.has_value() && frontier_.HasForcedLabel(*k);
}

Result<InteractiveChainResult> RunInteractiveChainSession(
    const JoinChain& chain, ChainOracle* oracle,
    const InteractiveChainOptions& options) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<ChainEngine> session(ChainEngine(&chain, options),
                                                session_options);

  InteractiveChainResult result;
  result.learned = session.Run([&](const ChainExample& example) {
    return oracle->IsPositive(chain, example);
  });
  result.candidate_paths = session.engine().candidate_paths();
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
#ifndef NDEBUG
  // ChainMask invariant: one non-empty mask per edge, even after a
  // conflict (the engine then reports the last consistent θ*).
  assert(result.learned.size() == chain.num_edges());
  for (const PairMask mask : result.learned) assert(mask != 0);
#endif
  return result;
}

}  // namespace rlearn
}  // namespace qlearn
