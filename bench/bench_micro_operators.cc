// Micro-benchmarks (google-benchmark) for the core operators every
// experiment rests on: twig evaluation, join execution, DME membership,
// schema validation, path-query evaluation, the interactive session-driver
// overhead (unified driver vs legacy one-shot wrapper), the session-service
// serving overhead, and wire-format throughput.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "common/alloc_probe.h"
#include "common/interner.h"
#include "common/rng.h"
#include "net/protocol.h"
#include "service/json.h"
#include "glearn/interactive_path.h"
#include "graph/geo_generator.h"
#include "graph/path_query.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "relational/operators.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "schema/dme.h"
#include "schema/dms.h"
#include "service/session_service.h"
#include "service/wire.h"
#include "session/registry.h"
#include "session/session.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/xmark.h"
#include "xml/xml_parser.h"

namespace {

using namespace qlearn;  // NOLINT: benchmark driver

void BM_TwigEvaluate(benchmark::State& state) {
  common::Interner interner;
  xml::XMarkOptions options;
  options.num_people = static_cast<int>(state.range(0));
  const xml::XmlTree doc = xml::GenerateXMark(options, &interner);
  auto query = twig::ParseTwig("//person[address/city]/name", &interner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(twig::Evaluate(query.value(), doc));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.NumNodes()));
}
BENCHMARK(BM_TwigEvaluate)->Arg(25)->Arg(100)->Arg(400);

void BM_EquiJoin(benchmark::State& state) {
  relational::JoinInstanceOptions options;
  options.left_rows = static_cast<int>(state.range(0));
  options.right_rows = static_cast<int>(state.range(0));
  const relational::JoinInstance inst =
      relational::GenerateJoinInstance(options, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        relational::EquiJoin(inst.left, inst.right, inst.goal));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EquiJoin)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DmeMembership(benchmark::State& state) {
  common::Interner interner;
  auto dme = schema::ParseDme(
      "name, emailaddress, phone?, (homepage|creditcard)?, interest*",
      &interner);
  schema::Bag bag{{interner.Intern("name"), 1},
                  {interner.Intern("emailaddress"), 1},
                  {interner.Intern("interest"), 3}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dme.value().Accepts(bag));
  }
}
BENCHMARK(BM_DmeMembership);

void BM_PathQueryEval(benchmark::State& state) {
  common::Interner interner;
  graph::GeoOptions options;
  options.grid_width = static_cast<int>(state.range(0));
  options.grid_height = static_cast<int>(state.range(0));
  const graph::Graph g = graph::GenerateGeoGraph(options, &interner);
  auto regex = automata::ParseRegex("highway+.local?", &interner);
  const graph::PathQuery query{regex.value(), std::nullopt};
  for (auto _ : state) {
    graph::PathQueryEvaluator eval(query, g);
    benchmark::DoNotOptimize(eval.EvalFrom(0));
  }
}
BENCHMARK(BM_PathQueryEval)->Arg(5)->Arg(10)->Arg(20);

// Session-driver overhead: one full interactive join session per iteration,
// through the legacy one-shot wrapper vs driving the unified
// LearningSession directly. The two run the identical question sequence, so
// any gap between them is pure driver overhead — the API redesign's cost on
// the hot loop (it should be in the noise).
struct JoinSessionSetup {
  explicit JoinSessionSetup(int rows) {
    relational::JoinInstanceOptions options;
    options.seed = 70 + rows;
    options.left_rows = rows;
    options.right_rows = rows;
    options.left_arity = 4;
    options.right_arity = 4;
    options.domain_size = 6;
    instance = relational::GenerateJoinInstance(options, 2);
    universe = rlearn::PairUniverse::AllCompatible(instance.left.schema(),
                                                   instance.right.schema())
                   .value();
    for (size_t i = 0; i < universe.size(); ++i) {
      for (const auto& g : instance.goal) {
        if (universe.pairs()[i] == g) goal |= (1ULL << i);
      }
    }
  }

  relational::JoinInstance instance;
  rlearn::PairUniverse universe;
  rlearn::PairMask goal = 0;
};

void BM_JoinSessionLegacyWrapper(benchmark::State& state) {
  const JoinSessionSetup setup(static_cast<int>(state.range(0)));
  size_t questions = 0;
  for (auto _ : state) {
    rlearn::GoalJoinOracle oracle(&setup.universe, setup.goal);
    rlearn::InteractiveJoinOptions options;
    options.seed = 123;
    auto result = rlearn::RunInteractiveJoinSession(
        setup.universe, setup.instance.left, setup.instance.right, &oracle,
        options);
    questions = result.value().questions;
    benchmark::DoNotOptimize(result.value().learned);
  }
  state.counters["questions"] = static_cast<double>(questions);
}
BENCHMARK(BM_JoinSessionLegacyWrapper)->Arg(20)->Arg(50)->Arg(100);

void BM_JoinSessionUnifiedDriver(benchmark::State& state) {
  const JoinSessionSetup setup(static_cast<int>(state.range(0)));
  size_t questions = 0;
  for (auto _ : state) {
    rlearn::GoalJoinOracle oracle(&setup.universe, setup.goal);
    rlearn::InteractiveJoinOptions options;
    options.seed = 123;
    session::SessionOptions session_options;
    session_options.seed = options.seed;
    session::LearningSession<rlearn::JoinEngine> session(
        rlearn::JoinEngine(&setup.universe, &setup.instance.left,
                           &setup.instance.right, options),
        session_options);
    const rlearn::PairMask learned =
        session.Run([&](const rlearn::PairExample& pair) {
          return oracle.IsPositive(setup.instance.left.row(pair.left_row),
                                   setup.instance.right.row(pair.right_row));
        });
    questions = session.stats().questions;
    benchmark::DoNotOptimize(learned);
  }
  state.counters["questions"] = static_cast<double>(questions);
}
BENCHMARK(BM_JoinSessionUnifiedDriver)->Arg(20)->Arg(50)->Arg(100);

// Chain-engine counterpart of the join-session pair above: one full
// interactive chain session (3 FK-style relations, E12 shape) per
// iteration, legacy wrapper vs driving the unified LearningSession
// directly. Identical question sequences; the gap is driver overhead.
struct ChainSessionSetup {
  explicit ChainSessionSetup(int rows) {
    relational::ChainInstanceOptions options;
    options.seed = 1300 + static_cast<uint64_t>(rows);
    options.rows = rows;
    instance = relational::GenerateChainInstance(options);
    chain = rlearn::JoinChain::Create(instance.pointers).value();
    goal = rlearn::NamePairChainGoal(*chain, "fk", "key");
  }

  relational::ChainInstance instance;
  std::optional<rlearn::JoinChain> chain;
  rlearn::ChainMask goal;
};

void BM_ChainSessionLegacyWrapper(benchmark::State& state) {
  const ChainSessionSetup setup(static_cast<int>(state.range(0)));
  size_t questions = 0;
  for (auto _ : state) {
    rlearn::GoalChainOracle oracle(setup.goal);
    rlearn::InteractiveChainOptions options;
    options.seed = 123;
    auto result =
        rlearn::RunInteractiveChainSession(*setup.chain, &oracle, options);
    questions = result.value().questions;
    benchmark::DoNotOptimize(result.value().learned);
  }
  state.counters["questions"] = static_cast<double>(questions);
}
BENCHMARK(BM_ChainSessionLegacyWrapper)->Arg(4)->Arg(8)->Arg(12);

void BM_ChainSessionUnifiedDriver(benchmark::State& state) {
  const ChainSessionSetup setup(static_cast<int>(state.range(0)));
  size_t questions = 0;
  for (auto _ : state) {
    rlearn::InteractiveChainOptions options;
    options.seed = 123;
    session::SessionOptions session_options;
    session_options.seed = options.seed;
    session::LearningSession<rlearn::ChainEngine> session(
        rlearn::ChainEngine(&*setup.chain, options), session_options);
    const rlearn::ChainMask learned =
        session.Run([&](const rlearn::ChainExample& example) {
          return rlearn::ChainSatisfied(*setup.chain, setup.goal, example);
        });
    questions = session.stats().questions;
    benchmark::DoNotOptimize(learned);
  }
  state.counters["questions"] = static_cast<double>(questions);
}
BENCHMARK(BM_ChainSessionUnifiedDriver)->Arg(4)->Arg(8)->Arg(12);

// Selection hot path: steady-state cost of one SelectQuestion call under
// the default greedy strategy of each engine, over growing candidate
// counts. The engine is warmed up with a few real oracle exchanges (so the
// hypothesis and the settled set are realistic), then SelectQuestion is
// timed with no state change in between — exactly the per-question
// selection cost a serving layer pays between answers. Before the shared
// frontier, every call rescanned and rescored all open candidates; the
// recorded before/after numbers live in BENCH_selection.json.
template <typename Engine, typename OracleFn>
void WarmupSelection(Engine* engine, common::Rng* rng, OracleFn oracle,
                     int exchanges) {
  session::SessionStats stats;
  engine->Propagate(&stats);
  for (int i = 0; i < exchanges; ++i) {
    auto question = engine->SelectQuestion(rng);
    if (!question.has_value()) break;
    engine->MarkAsked(*question);
    const bool label = oracle(*question);
    engine->Observe(*question, label, &stats);
    if (label) {
      engine->OnPositive(*question);
    } else {
      engine->OnNegative(*question);
    }
    engine->Propagate(&stats);
  }
}

void BM_SelectQuestion_Twig(benchmark::State& state) {
  common::Interner interner;
  // People directory with range(0) persons (~3 nodes each) — small enough
  // that the pre-frontier O(candidates^2 * eval) greedy scan terminates.
  std::string text = "<site><people>";
  for (int i = 0; i < state.range(0); ++i) {
    switch (i % 4) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><homepage/></person>"; break;
    }
  }
  text += "</people></site>";
  const xml::XmlTree doc = xml::ParseXml(text, &interner).value();
  auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner);
  xml::NodeId seed = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (twig::Selects(goal.value(), doc, v)) {
      seed = v;
      break;
    }
  }
  learn::TwigEngine engine(&doc, seed);  // default kGreedyImpact
  common::Rng rng(123);
  WarmupSelection(&engine, &rng,
                  [&](xml::NodeId v) {
                    return twig::Selects(goal.value(), doc, v);
                  },
                  3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SelectQuestion(&rng));
  }
  state.counters["candidates"] = static_cast<double>(doc.NumNodes());
}
BENCHMARK(BM_SelectQuestion_Twig)->Arg(8)->Arg(32)->Arg(128);

void BM_SelectQuestion_Join(benchmark::State& state) {
  const JoinSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::JoinEngine engine(&setup.universe, &setup.instance.left,
                            &setup.instance.right);  // default kSplitHalf
  rlearn::GoalJoinOracle oracle(&setup.universe, setup.goal);
  common::Rng rng(123);
  WarmupSelection(&engine, &rng,
                  [&](const rlearn::PairExample& pair) {
                    return oracle.IsPositive(
                        setup.instance.left.row(pair.left_row),
                        setup.instance.right.row(pair.right_row));
                  },
                  3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SelectQuestion(&rng));
  }
  state.counters["candidates"] = static_cast<double>(engine.candidate_pairs());
}
BENCHMARK(BM_SelectQuestion_Join)->Arg(20)->Arg(50)->Arg(100)->Arg(200);

void BM_SelectQuestion_Chain(benchmark::State& state) {
  const ChainSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::ChainEngine engine(&*setup.chain, {});  // default kSplitHalf
  common::Rng rng(123);
  WarmupSelection(&engine, &rng,
                  [&](const rlearn::ChainExample& example) {
                    return rlearn::ChainSatisfied(*setup.chain, setup.goal,
                                                  example);
                  },
                  3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SelectQuestion(&rng));
  }
  state.counters["candidates"] = static_cast<double>(engine.candidate_paths());
}
BENCHMARK(BM_SelectQuestion_Chain)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

void BM_SelectQuestion_Path(benchmark::State& state) {
  common::Interner interner;
  graph::GeoOptions geo;
  geo.grid_width = static_cast<int>(state.range(0));
  geo.grid_height = static_cast<int>(state.range(0));
  graph::Graph g = graph::GenerateGeoGraph(geo, &interner);
  auto regex = automata::ParseRegex("highway+", &interner);
  const graph::PathQuery goal{regex.value(), std::nullopt};
  glearn::GoalPathOracle oracle(goal, g);
  graph::Path seed;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (interner.Name(g.edge(e).label) == "highway") {
      seed.start = g.edge(e).src;
      seed.edges = {e};
      break;
    }
  }
  glearn::InteractivePathOptions options;  // default kFrontier
  options.max_path_edges = 3;
  options.max_candidates = 100000;
  glearn::PathEngine engine(&g, seed, options);
  common::Rng rng(123);
  WarmupSelection(&engine, &rng,
                  [&](const glearn::PathEngine::Question& question) {
                    return oracle.IsPositive(*question.path);
                  },
                  3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SelectQuestion(&rng));
  }
  state.counters["candidates"] = static_cast<double>(engine.candidate_paths());
}
BENCHMARK(BM_SelectQuestion_Path)->Arg(3)->Arg(4)->Arg(6);

// Propagation hot path: steady-state cost of one Propagate flush — the
// per-answer inner loop a serving layer pays between oracle replies. Args
// are (size, ref, pos): `ref`=1 replays the historical full-universe
// rescan via set_reference_propagation (the "before" numbers in
// BENCH_propagate.json), `pos`=0 times a negative-answer delta (the
// witness payload of an already-labeled negative is re-queued each
// iteration, so the flush does the steady-state scan without mutating the
// session), `pos`=1 times the hypothesis-change full pass
// (ForceFullRepropagation; the per-candidate memo refill a real positive
// additionally triggers is accounted under BM_SelectQuestion's epoch
// rescoring). The engine is warmed up with real oracle exchanges first.
template <typename Engine, typename OracleFn>
std::optional<typename Engine::Item> WarmupPropagation(Engine* engine,
                                                       common::Rng* rng,
                                                       OracleFn oracle,
                                                       int exchanges) {
  session::SessionStats stats;
  std::optional<typename Engine::Item> last_negative;
  engine->Propagate(&stats);
  for (int i = 0; i < exchanges; ++i) {
    auto question = engine->SelectQuestion(rng);
    if (!question.has_value()) break;
    engine->MarkAsked(*question);
    const bool label = oracle(*question);
    engine->Observe(*question, label, &stats);
    if (label) {
      engine->OnPositive(*question);
    } else {
      engine->OnNegative(*question);
      last_negative = *question;
    }
    engine->Propagate(&stats);
  }
  return last_negative;
}

template <typename Engine>
void RunPropagateLoop(benchmark::State& state, Engine* engine,
                      const std::optional<typename Engine::Item>& negative) {
  const bool positive_variant = state.range(2) == 1;
  if (!positive_variant && !negative.has_value()) {
    state.SkipWithError("warmup produced no negative answer");
    return;
  }
  session::SessionStats stats;
  for (auto _ : state) {
    if (positive_variant) {
      engine->ForceFullRepropagation();
    } else {
      engine->OnNegative(*negative);
    }
    engine->Propagate(&stats);
    benchmark::DoNotOptimize(stats.forced_negative);
  }
}

void BM_Propagate_Twig(benchmark::State& state) {
  common::Interner interner;
  std::string text = "<site><people>";
  for (int i = 0; i < state.range(0); ++i) {
    switch (i % 4) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><homepage/></person>"; break;
    }
  }
  text += "</people></site>";
  const xml::XmlTree doc = xml::ParseXml(text, &interner).value();
  auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner);
  xml::NodeId seed = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (twig::Selects(goal.value(), doc, v)) {
      seed = v;
      break;
    }
  }
  learn::TwigEngine engine(&doc, seed);
  engine.set_reference_propagation(state.range(1) == 1);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](xml::NodeId v) { return twig::Selects(goal.value(), doc, v); }, 6);
  RunPropagateLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(doc.NumNodes());
}
BENCHMARK(BM_Propagate_Twig)
    ->ArgsProduct({{8, 32, 128}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "ref", "pos"});

void BM_Propagate_Join(benchmark::State& state) {
  const JoinSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::JoinEngine engine(&setup.universe, &setup.instance.left,
                            &setup.instance.right);
  engine.set_reference_propagation(state.range(1) == 1);
  rlearn::GoalJoinOracle oracle(&setup.universe, setup.goal);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](const rlearn::PairExample& pair) {
        return oracle.IsPositive(setup.instance.left.row(pair.left_row),
                                 setup.instance.right.row(pair.right_row));
      },
      6);
  RunPropagateLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(engine.candidate_pairs());
}
BENCHMARK(BM_Propagate_Join)
    ->ArgsProduct({{20, 50, 100, 200}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "ref", "pos"});

void BM_Propagate_Chain(benchmark::State& state) {
  const ChainSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::ChainEngine engine(&*setup.chain, {});
  engine.set_reference_propagation(state.range(1) == 1);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](const rlearn::ChainExample& example) {
        return rlearn::ChainSatisfied(*setup.chain, setup.goal, example);
      },
      6);
  RunPropagateLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(engine.candidate_paths());
}
BENCHMARK(BM_Propagate_Chain)
    ->ArgsProduct({{4, 8, 16, 24}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "ref", "pos"});

void BM_Propagate_Path(benchmark::State& state) {
  common::Interner interner;
  graph::GeoOptions geo;
  geo.grid_width = static_cast<int>(state.range(0));
  geo.grid_height = static_cast<int>(state.range(0));
  graph::Graph g = graph::GenerateGeoGraph(geo, &interner);
  auto regex = automata::ParseRegex("highway+", &interner);
  const graph::PathQuery goal{regex.value(), std::nullopt};
  glearn::GoalPathOracle oracle(goal, g);
  graph::Path seed;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (interner.Name(g.edge(e).label) == "highway") {
      seed.start = g.edge(e).src;
      seed.edges = {e};
      break;
    }
  }
  glearn::InteractivePathOptions options;
  options.max_path_edges = 3;
  options.max_candidates = 100000;
  glearn::PathEngine engine(&g, seed, options);
  engine.set_reference_propagation(state.range(1) == 1);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](const glearn::PathEngine::Question& question) {
        return oracle.IsPositive(*question.path);
      },
      6);
  RunPropagateLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(engine.candidate_paths());
}
BENCHMARK(BM_Propagate_Path)
    ->ArgsProduct({{3, 4, 6}, {0, 1}, {0, 1}})
    ->ArgNames({"n", "ref", "pos"});

// Classification hot paths that stay non-flat after the delta layer: the
// optimized full classification pass (baseline / hypothesis change) and the
// witness-index (re)build a cold negative delta pays. Args are
// (size, rebucket): `rebucket`=0 times one full pass
// (ForceFullRepropagation + Propagate — re-bucket + classify-per-bucket
// before the SoA store, plane sweeps after), `rebucket`=1 invalidates the
// witness index and times one negative delta flush (index rebuild +
// conviction before; with the SoA store join/chain need no index at all, so
// the same flush is a single sweep). Before/after numbers live in
// BENCH_classify.json.
template <typename Engine>
void RunClassifyLoop(benchmark::State& state, Engine* engine,
                     const std::optional<typename Engine::Item>& negative) {
  const bool rebucket_variant = state.range(1) == 1;
  if (rebucket_variant && !negative.has_value()) {
    state.SkipWithError("warmup produced no negative answer");
    return;
  }
  session::SessionStats stats;
  for (auto _ : state) {
    if (rebucket_variant) {
      engine->InvalidateWitnessIndexForBench();
      engine->OnNegative(*negative);
    } else {
      engine->ForceFullRepropagation();
    }
    engine->Propagate(&stats);
    benchmark::DoNotOptimize(stats.forced_negative);
  }
}

void BM_Classify_Join(benchmark::State& state) {
  const JoinSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::JoinEngine engine(&setup.universe, &setup.instance.left,
                            &setup.instance.right);
  rlearn::GoalJoinOracle oracle(&setup.universe, setup.goal);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](const rlearn::PairExample& pair) {
        return oracle.IsPositive(setup.instance.left.row(pair.left_row),
                                 setup.instance.right.row(pair.right_row));
      },
      6);
  RunClassifyLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(engine.candidate_pairs());
}
BENCHMARK(BM_Classify_Join)
    ->ArgsProduct({{20, 50, 100, 200}, {0, 1}})
    ->ArgNames({"n", "rebucket"});

void BM_Classify_Chain(benchmark::State& state) {
  const ChainSessionSetup setup(static_cast<int>(state.range(0)));
  rlearn::ChainEngine engine(&*setup.chain, {});
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](const rlearn::ChainExample& example) {
        return rlearn::ChainSatisfied(*setup.chain, setup.goal, example);
      },
      6);
  RunClassifyLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(engine.candidate_paths());
}
BENCHMARK(BM_Classify_Chain)
    ->ArgsProduct({{4, 8, 16, 24}, {0, 1}})
    ->ArgNames({"n", "rebucket"});

void BM_Classify_Twig(benchmark::State& state) {
  common::Interner interner;
  std::string text = "<site><people>";
  for (int i = 0; i < state.range(0); ++i) {
    switch (i % 4) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><homepage/></person>"; break;
    }
  }
  text += "</people></site>";
  const xml::XmlTree doc = xml::ParseXml(text, &interner).value();
  auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner);
  xml::NodeId seed = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (twig::Selects(goal.value(), doc, v)) {
      seed = v;
      break;
    }
  }
  learn::TwigEngine engine(&doc, seed);
  common::Rng rng(123);
  const auto negative = WarmupPropagation(
      &engine, &rng,
      [&](xml::NodeId v) { return twig::Selects(goal.value(), doc, v); }, 6);
  RunClassifyLoop(state, &engine, negative);
  state.counters["candidates"] = static_cast<double>(doc.NumNodes());
}
BENCHMARK(BM_Classify_Twig)
    ->ArgsProduct({{8, 32, 128}, {0, 1}})
    ->ArgNames({"n", "rebucket"});

// Service-surface overhead: one full built-in scenario session per
// iteration driven through SessionService (string handles, budget checks,
// wire payload construction) in batches of `range(0)`. Compare against the
// Unified-driver benchmarks above to see what the serving layer adds per
// question; larger batches amortize the per-Ask cost.
void BM_ServiceSessionChain(benchmark::State& state) {
  service::SessionService svc;
  size_t questions = 0;
  for (auto _ : state) {
    auto id = svc.Open("chain");
    auto batch = svc.Ask(id.value(), static_cast<size_t>(state.range(0)));
    while (batch.ok() && !batch.value().empty()) {
      (void)svc.Tell(id.value(), svc.OracleLabels(id.value()).value());
      batch = svc.Ask(id.value(), static_cast<size_t>(state.range(0)));
    }
    auto closed = svc.Close(id.value());
    questions = closed.value().stats.questions;
    benchmark::DoNotOptimize(closed.value().hypothesis.text);
  }
  state.counters["questions"] = static_cast<double>(questions);
}
BENCHMARK(BM_ServiceSessionChain)->Arg(1)->Arg(8);

// Session lifecycle per built-in scenario, the open and rehydrate costs
// below the service (the universe is built before timing starts):
//   BM_ScenarioCreate/<s>   a session at the universe's baseline (Open);
//   BM_ScenarioRestore/<s>  Create plus RestoreSnapshot of an image taken
//                           after three answered questions (rehydrate).
void BM_ScenarioCreate(benchmark::State& state, const std::string& name) {
  session::ScenarioRegistry* registry = session::ScenarioRegistry::Global();
  (void)registry->Universe(name);
  for (auto _ : state) {
    auto created = registry->Create(name);
    benchmark::DoNotOptimize(created.ok());
  }
}

void BM_ScenarioRestore(benchmark::State& state, const std::string& name) {
  session::ScenarioRegistry* registry = session::ScenarioRegistry::Global();
  auto source = registry->Create(name);
  for (int i = 0; i < 3 && source.value()->NextQuestion().has_value(); ++i) {
    source.value()->AnswerAll(source.value()->OracleLabels());
  }
  std::string image;
  (void)source.value()->SerializeSnapshot(&image);
  for (auto _ : state) {
    auto restored = registry->Create(name);
    benchmark::DoNotOptimize(restored.value()->RestoreSnapshot(image).ok());
  }
  state.counters["image_bytes"] = static_cast<double>(image.size());
}

const bool kScenarioBenchmarks = [] {
  session::RegisterBuiltinScenarios();
  for (const session::ScenarioInfo& info :
       session::ScenarioRegistry::Global()->List()) {
    benchmark::RegisterBenchmark(("BM_ScenarioCreate/" + info.name).c_str(),
                                 BM_ScenarioCreate, info.name);
    benchmark::RegisterBenchmark(("BM_ScenarioRestore/" + info.name).c_str(),
                                 BM_ScenarioRestore, info.name);
  }
  return true;
}();

// Wire-format throughput: serialize + parse one ask event carrying a batch
// of `range(0)` chain questions (the heaviest payload kind).
void BM_WireAskEventRoundTrip(benchmark::State& state) {
  service::wire::TranscriptEvent event;
  event.kind = service::wire::TranscriptEvent::Kind::kAsk;
  event.requested = static_cast<uint64_t>(state.range(0));
  for (int i = 0; i < state.range(0); ++i) {
    service::wire::QuestionPayload payload;
    payload.kind = "chain";
    payload.ids = {static_cast<uint64_t>(i), static_cast<uint64_t>(i) + 1,
                   static_cast<uint64_t>(i) + 2};
    payload.text = "is this tuple path in the chain join? customers#" +
                   std::to_string(i) + " (1, 10) orders#" + std::to_string(i) +
                   " (1, 7) products#" + std::to_string(i) + " (7, 100)";
    event.questions.push_back(std::move(payload));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string serialized = service::wire::Serialize(event);
    auto parsed = service::wire::ParseEvent(serialized);
    benchmark::DoNotOptimize(parsed.ok());
    bytes = serialized.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_WireAskEventRoundTrip)->Arg(1)->Arg(8)->Arg(64);

// --- Protocol frame-handling hot path ---------------------------------------
//
// One AskTell iteration is one steady-state ask(k=1)/tell round trip against
// a live "join" session, i.e. two request frames through HandleFrameInto
// with a reused json::Arena and a recycled response buffer — the exact hot
// path the server's inline dispatch mode executes. `allocs_per_frame`
// counts global operator-new calls (alloc_probe_hooks.cc is linked into
// this binary) and is the headline number BENCH_protocol.json tracks: it
// must hold at a small fixed constant.

/// Opens a fresh "join" session and returns its id.
std::string BenchOpenSession(service::SessionService* svc) {
  const std::string response =
      net::HandleFrame(svc, "{\"op\":\"open\",\"scenario\":\"join\",\"seed\":7}");
  const std::string marker = "\"id\":\"";
  const size_t begin = response.find(marker) + marker.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

/// Runs ask/tell rounds, reopening the session whenever the learner
/// converges (rare).
void BM_HandleFrame_AskTellArena(benchmark::State& state) {
  service::SessionService svc;
  service::json::Arena arena;
  std::string out;
  std::string id = BenchOpenSession(&svc);
  std::string ask = "{\"op\":\"ask\",\"id\":\"" + id + "\",\"k\":1}";
  std::string tell = "{\"op\":\"tell\",\"id\":\"" + id + "\",\"labels\":[true]}";
  const uint64_t allocs_before = common::AllocProbeNewCount();
  for (auto _ : state) {
    arena.Reset();
    out.clear();
    net::HandleFrameInto(&svc, ask, &arena, &out);
    if (out.find("\"text\"") == std::string::npos) {
      // Converged (empty batch) or error: retire this session, start fresh.
      net::HandleFrame(&svc, "{\"op\":\"close\",\"id\":\"" + id + "\"}");
      id = BenchOpenSession(&svc);
      ask = "{\"op\":\"ask\",\"id\":\"" + id + "\",\"k\":1}";
      tell = "{\"op\":\"tell\",\"id\":\"" + id + "\",\"labels\":[true]}";
      continue;
    }
    arena.Reset();
    out.clear();
    net::HandleFrameInto(&svc, tell, &arena, &out);
    benchmark::DoNotOptimize(out.data());
  }
  const uint64_t frames = 2 * static_cast<uint64_t>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(frames));
  state.counters["allocs_per_frame"] =
      static_cast<double>(common::AllocProbeNewCount() - allocs_before) /
      static_cast<double>(frames == 0 ? 1 : frames);
}
BENCHMARK(BM_HandleFrame_AskTellArena);

/// Counters is the pure protocol-layer op (no learner work at all), so it
/// isolates parse + serialize cost: it should be allocation-free at steady
/// state.
void BM_HandleFrame_CountersArena(benchmark::State& state) {
  service::SessionService svc;
  service::json::Arena arena;
  std::string out;
  const std::string counters = "{\"op\":\"counters\"}";
  // Warm one round so lazy capacity growth happens outside the loop.
  net::HandleFrameInto(&svc, counters, &arena, &out);
  const uint64_t allocs_before = common::AllocProbeNewCount();
  for (auto _ : state) {
    arena.Reset();
    out.clear();
    net::HandleFrameInto(&svc, counters, &arena, &out);
    benchmark::DoNotOptimize(out.data());
  }
  const uint64_t frames = static_cast<uint64_t>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(frames));
  state.counters["allocs_per_frame"] =
      static_cast<double>(common::AllocProbeNewCount() - allocs_before) /
      static_cast<double>(frames == 0 ? 1 : frames);
}
BENCHMARK(BM_HandleFrame_CountersArena);

}  // namespace

BENCHMARK_MAIN();
