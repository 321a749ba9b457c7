// Unit tests for the shared candidate-frontier layer (session/frontier.h):
// the state machine, score memoization with epoch/dirty invalidation, and
// the lazy-heap greedy selection's bit-compatibility with the historical
// first-wins linear scan (tie-breaks, sentinel fallback, score decay).
#include "session/frontier.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace qlearn {
namespace session {
namespace {

using IntFrontier = Frontier<int>;

IntFrontier MakeFrontier(size_t n) {
  IntFrontier frontier;
  for (size_t k = 0; k < n; ++k) frontier.Add(static_cast<int>(k) * 10);
  return frontier;
}

TEST(FrontierStateTest, LifecycleTransitions) {
  IntFrontier f = MakeFrontier(5);
  EXPECT_EQ(f.size(), 5u);
  EXPECT_EQ(f.open_count(), 5u);
  EXPECT_EQ(f.item(2), 20);

  f.MarkAsked(0);
  EXPECT_EQ(f.state(0), CandidateState::kAsked);
  EXPECT_TRUE(f.WasAsked(0));
  EXPECT_FALSE(f.IsOpen(0));
  f.MarkLabeled(0, true);
  EXPECT_EQ(f.state(0), CandidateState::kLabeledPositive);
  EXPECT_TRUE(f.WasAsked(0));  // the asked bit survives labeling

  // Pre-seeded label: closed but never asked.
  f.MarkLabeled(1, false);
  EXPECT_EQ(f.state(1), CandidateState::kLabeledNegative);
  EXPECT_FALSE(f.WasAsked(1));

  f.MarkForced(2, false);
  EXPECT_EQ(f.state(2), CandidateState::kForcedNegative);
  EXPECT_TRUE(f.HasForcedLabel(2));
  // The one lateral transition: forced-negative can upgrade to
  // forced-positive (twig: a grown hypothesis reaches the node).
  EXPECT_TRUE(f.MarkForced(2, true));
  EXPECT_EQ(f.state(2), CandidateState::kForcedPositive);
  // ...while re-forcing an already-forced-negative stays a no-op.
  f.MarkForced(3, false);
  EXPECT_FALSE(f.MarkForced(3, false));
  EXPECT_EQ(f.state(3), CandidateState::kForcedNegative);

  EXPECT_EQ(f.open_count(), 1u);
  EXPECT_EQ(f.FirstOpen(), std::optional<size_t>(4));
}

TEST(FrontierStateTest, DiscardedQuestionCanStillBeForced) {
  // A question issued but never answered (driver discarded the batch) may
  // later be settled by propagation — the twig engine relies on this.
  IntFrontier f = MakeFrontier(2);
  f.MarkAsked(1);
  EXPECT_TRUE(f.MarkForced(1, true));
  EXPECT_EQ(f.state(1), CandidateState::kForcedPositive);
  EXPECT_TRUE(f.WasAsked(1));
  EXPECT_TRUE(f.HasForcedLabel(1));
}

TEST(FrontierStateTest, StateNames) {
  EXPECT_STREQ(CandidateStateName(CandidateState::kUnknown), "unknown");
  EXPECT_STREQ(CandidateStateName(CandidateState::kAsked), "asked");
  EXPECT_STREQ(CandidateStateName(CandidateState::kForcedPositive),
               "forced-positive");
}

TEST(FrontierMemoTest, RecomputesOnlyWhenStale) {
  IntFrontier f = MakeFrontier(3);
  int recomputes = 0;
  auto memo_fn = [&recomputes](size_t k) -> std::optional<long> {
    ++recomputes;
    return static_cast<long>(k);
  };
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(recomputes, 1);  // cached on the second read

  f.InvalidateAll();
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(recomputes, 2);  // epoch bump rescored it

  f.Invalidate(1);
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(f.MemoOf(2, memo_fn), std::optional<long>(2));
  EXPECT_EQ(recomputes, 4);  // single dirty mark rescored only candidate 1

  // Settling a candidate releases its memo (never scored again); a later
  // read recomputes instead of serving the freed slot.
  f.MarkForced(2, true);
  EXPECT_EQ(f.MemoOf(2, memo_fn), std::optional<long>(2));
  EXPECT_EQ(recomputes, 5);

  // A nullopt memo ("cannot be scored") is cached like any other value.
  int failures = 0;
  auto failing = [&failures](size_t) -> std::optional<long> {
    ++failures;
    return std::nullopt;
  };
  f.InvalidateAll();
  EXPECT_FALSE(f.MemoOf(0, failing).has_value());
  EXPECT_FALSE(f.MemoOf(0, failing).has_value());
  EXPECT_EQ(failures, 1);
}

TEST(FrontierMemoTest, CopiesShareMemosUntilEitherSideWrites) {
  // A copy reads its source's memos without recomputing them; a write on
  // either side afterwards (a rescore, or a settled candidate's release)
  // never changes what the other side reads.
  IntFrontier source = MakeFrontier(3);
  int recomputes = 0;
  long offset = 0;
  auto memo_fn = [&recomputes, &offset](size_t k) -> std::optional<long> {
    ++recomputes;
    return static_cast<long>(k) + offset;
  };
  ASSERT_EQ(source.MemoOf(0, memo_fn), std::optional<long>(0));
  ASSERT_EQ(source.MemoOf(1, memo_fn), std::optional<long>(1));
  IntFrontier copy = source;
  EXPECT_EQ(copy.MemoOf(0, memo_fn), std::optional<long>(0));
  EXPECT_EQ(recomputes, 2);  // served from the shared slots

  offset = 100;
  source.Invalidate(0);
  EXPECT_EQ(source.MemoOf(0, memo_fn), std::optional<long>(100));
  source.MarkForced(1, true);
  EXPECT_EQ(recomputes, 3);
  EXPECT_EQ(copy.MemoOf(0, memo_fn), std::optional<long>(0));
  EXPECT_EQ(copy.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(recomputes, 3);

  copy.Invalidate(1);
  EXPECT_EQ(copy.MemoOf(1, memo_fn), std::optional<long>(101));
  EXPECT_EQ(source.MemoOf(0, memo_fn), std::optional<long>(100));
  EXPECT_EQ(recomputes, 4);
}

TEST(FrontierSelectTest, GreedyPicksBestScoreFirstWins) {
  IntFrontier f = MakeFrontier(5);
  const std::vector<long> scores = {3, 7, 7, 1, 6};
  auto score_of = [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  };
  // 7 is the max; index 1 beats the equal-scored index 2 (first wins).
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(1));
  f.MarkAsked(1);
  // With 1 closed, the tie-holder at index 2 is the pick.
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(2));
}

TEST(FrontierSelectTest, SentinelFallsBackToFirstOpen) {
  IntFrontier f = MakeFrontier(3);
  auto zero = [](size_t) -> std::optional<long> { return 0; };
  // Nothing strictly beats the sentinel: the first open candidate wins,
  // matching the historical scans' default pick.
  EXPECT_EQ(f.SelectBest(0L, zero), std::optional<size_t>(0));
  f.MarkForced(0, false);
  EXPECT_EQ(f.SelectBest(0L, zero), std::optional<size_t>(1));

  // Unscorable candidates fall back the same way.
  auto none = [](size_t) -> std::optional<long> { return std::nullopt; };
  f.InvalidateAll();
  EXPECT_EQ(f.SelectBest(0L, none), std::optional<size_t>(1));
}

TEST(FrontierSelectTest, EmptyAndExhaustedFrontiers) {
  IntFrontier empty;
  common::Rng rng(7);
  auto one = [](size_t) -> std::optional<long> { return 1; };
  EXPECT_EQ(empty.SelectBest(0L, one), std::nullopt);
  EXPECT_EQ(empty.SelectUniform(&rng), std::nullopt);

  IntFrontier f = MakeFrontier(2);
  f.MarkForced(0, true);
  f.MarkAsked(1);
  EXPECT_EQ(f.SelectBest(0L, one), std::nullopt);
  EXPECT_EQ(f.SelectUniform(&rng), std::nullopt);
  EXPECT_EQ(f.FirstOpen(), std::nullopt);
}

TEST(FrontierSelectTest, HeapTracksScoreDecayWithinEpoch) {
  // Scores that shrink with the open set (the twig impact count) must not
  // leave a stale heap top in charge: close the support of the leader and
  // the runner-up must win the next pick without any invalidation call.
  IntFrontier f = MakeFrontier(4);
  auto impact = [&f](size_t k) -> std::optional<long> {
    // Candidate 0's score counts the open candidates among {1, 2}; the
    // others have fixed low scores.
    if (k == 0) {
      return static_cast<long>(f.IsOpen(1)) + static_cast<long>(f.IsOpen(2));
    }
    return k == 3 ? 1L : 0L;
  };
  EXPECT_EQ(f.SelectBest(0L, impact), std::optional<size_t>(0));  // score 2
  f.MarkForced(1, false);
  f.MarkForced(2, false);
  // Candidate 0 decayed to 0; candidate 3 (score 1) must now win.
  EXPECT_EQ(f.SelectBest(0L, impact), std::optional<size_t>(3));
}

TEST(FrontierSelectTest, InvalidateRescoresARaisedCandidate) {
  // Score *raises* are only legal through Invalidate(k) — verify the dirty
  // mark reschedules the candidate at its new score.
  IntFrontier f = MakeFrontier(3);
  std::vector<long> scores = {1, 2, 3};
  auto score_of = [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  };
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(2));
  scores[0] = 10;
  f.Invalidate(0);
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(0));
}

TEST(FrontierSelectTest, PairScoresCompareLexicographically) {
  using Pair = std::pair<long, long>;
  Frontier<int, Pair> f;
  for (int k = 0; k < 3; ++k) f.Add(k);
  const std::vector<Pair> scores = {{1, 9}, {2, 0}, {2, -1}};
  auto score_of = [&scores](size_t k) -> std::optional<Pair> {
    return scores[k];
  };
  EXPECT_EQ(f.SelectBest(Pair{0, 0}, score_of), std::optional<size_t>(1));
}

TEST(FrontierSelectTest, UniformMatchesAscendingOpenScan) {
  // SelectUniform must draw exactly once on the open count and index the
  // open candidates in ascending order — the historical kRandom shape.
  IntFrontier f = MakeFrontier(6);
  f.MarkAsked(0);
  f.MarkForced(3, true);
  common::Rng pick_rng(42);
  common::Rng ref_rng(42);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> open;
    for (size_t k = 0; k < f.size(); ++k) {
      if (f.IsOpen(k)) open.push_back(k);
    }
    const size_t want = open[ref_rng.Index(open.size())];
    EXPECT_EQ(f.SelectUniform(&pick_rng), std::optional<size_t>(want));
  }
}

TEST(FrontierSelectTest, StrategyObjectsDriveTheFrontier) {
  IntFrontier f = MakeFrontier(3);
  common::Rng rng(7);
  const std::vector<long> scores = {5, 9, 2};
  auto greedy = Greedy<long>(0, [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  });
  EXPECT_EQ(f.Select(greedy, &rng), std::optional<size_t>(1));
  EXPECT_TRUE(f.Select(UniformRandomStrategy{}, &rng).has_value());
}

}  // namespace
}  // namespace session
}  // namespace qlearn
