// Tests for the relational engine: values, schemas, relations, operators,
// and instance generators.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "relational/database.h"
#include "relational/generator.h"
#include "relational/operators.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace qlearn {
namespace relational {
namespace {

Value I(int64_t v) { return Value(v); }
Value S(const char* v) { return Value(std::string(v)); }

TEST(ValueTest, Types) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(I(3).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(S("x").type(), ValueType::kString);
}

TEST(ValueTest, SqlEqualityAndNulls) {
  EXPECT_TRUE(I(3).EqualsSql(I(3)));
  EXPECT_FALSE(I(3).EqualsSql(I(4)));
  EXPECT_FALSE(I(3).EqualsSql(S("3")));
  EXPECT_FALSE(Value().EqualsSql(Value()));  // NULL != NULL
  EXPECT_FALSE(Value().EqualsSql(I(0)));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(I(42).ToString(), "42");
  EXPECT_EQ(S("hi").ToString(), "'hi'");
}

TEST(RelationTest, SchemaLookup) {
  RelationSchema schema("r", {Attribute{"x", ValueType::kInt},
                              Attribute{"y", ValueType::kString}});
  EXPECT_EQ(schema.arity(), 2u);
  EXPECT_EQ(schema.AttributeIndex("y"), 1u);
  EXPECT_FALSE(schema.AttributeIndex("z").has_value());
  EXPECT_EQ(schema.ToString(), "r(x:int, y:string)");
}

TEST(RelationTest, InsertChecksArityAndTypes) {
  Relation r(RelationSchema("r", {Attribute{"x", ValueType::kInt}}));
  EXPECT_TRUE(r.Insert({I(1)}).ok());
  EXPECT_FALSE(r.Insert({I(1), I(2)}).ok());
  EXPECT_FALSE(r.Insert({S("nope")}).ok());
  EXPECT_TRUE(r.Insert({Value()}).ok());  // NULL fits any type
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, IndexSkipsNulls) {
  Relation r(RelationSchema("r", {Attribute{"x", ValueType::kInt}}));
  ASSERT_TRUE(r.Insert({I(7)}).ok());
  ASSERT_TRUE(r.Insert({Value()}).ok());
  ASSERT_TRUE(r.Insert({I(7)}).ok());
  EXPECT_EQ(r.IndexOn(0).size(), 2u);

  // An unchecked write after the index was built invalidates it too, and a
  // join building on `r` sees the new row.
  r.InsertUnchecked({I(7)});
  EXPECT_EQ(r.IndexOn(0).size(), 3u);
  Relation s(RelationSchema("s", {Attribute{"y", ValueType::kInt}}));
  for (int64_t v : {7, 8, 9, 10}) s.InsertUnchecked({I(v)});
  auto joined = EquiJoin(s, r, {AttributePair{0, 0}});  // builds on r
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().size(), 3u);
}

TEST(RelationTest, IndexOnIsSafeFromManyThreads) {
  // Scenario universes share one relation across session threads, and a
  // join reaches the lazily built index cache through a const reference:
  // concurrent first calls must build each index once and agree on it.
  Relation r(RelationSchema("r", {Attribute{"x", ValueType::kInt},
                                  Attribute{"y", ValueType::kInt}}));
  for (int64_t i = 0; i < 2000; ++i) r.InsertUnchecked({I(i % 37), I(i)});
  const Relation& shared = r;
  constexpr size_t kThreads = 4;
  std::vector<const void*> seen(kThreads * 2, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &seen, t] {
      for (size_t k = 0; k < 2; ++k) {
        const size_t col = (t + k) % 2;  // half the threads start on each
        const auto& index = shared.IndexOn(col);
        EXPECT_EQ(index.size(), 2000u);
        seen[t * 2 + col] = &index;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t * 2], seen[0]);
    EXPECT_EQ(seen[t * 2 + 1], seen[1]);
  }
  // A copy carries the indexes; its lookups see the same rows.
  const Relation copy = shared;
  const size_t key = I(5).Hash();
  EXPECT_EQ(copy.IndexOn(0).count(key), shared.IndexOn(0).count(key));
  EXPECT_GT(copy.IndexOn(0).count(key), 0u);
}

class JoinFixture : public ::testing::Test {
 protected:
  JoinFixture() {
    r_ = Relation(RelationSchema("r", {Attribute{"id", ValueType::kInt},
                                       Attribute{"v", ValueType::kString}}));
    s_ = Relation(RelationSchema("s", {Attribute{"id", ValueType::kInt},
                                       Attribute{"w", ValueType::kString}}));
    r_.InsertUnchecked({I(1), S("a")});
    r_.InsertUnchecked({I(2), S("b")});
    r_.InsertUnchecked({I(3), S("c")});
    s_.InsertUnchecked({I(2), S("x")});
    s_.InsertUnchecked({I(3), S("y")});
    s_.InsertUnchecked({I(3), S("z")});
    s_.InsertUnchecked({I(9), S("q")});
  }
  Relation r_;
  Relation s_;
};

TEST_F(JoinFixture, EquiJoinMatchesPairs) {
  auto out = EquiJoin(r_, s_, {AttributePair{0, 0}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);  // 2-x, 3-y, 3-z
  EXPECT_EQ(out.value().schema().arity(), 4u);
}

TEST_F(JoinFixture, EquiJoinRejectsBadPredicates) {
  EXPECT_FALSE(EquiJoin(r_, s_, {}).ok());
  EXPECT_FALSE(EquiJoin(r_, s_, {AttributePair{0, 1}}).ok());  // int vs str
  EXPECT_FALSE(EquiJoin(r_, s_, {AttributePair{5, 0}}).ok());  // range
}

TEST_F(JoinFixture, NaturalJoinSharesColumns) {
  auto out = NaturalJoin(r_, s_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);
  // id, v, w (shared id projected once).
  EXPECT_EQ(out.value().schema().arity(), 3u);
  EXPECT_EQ(out.value().schema().attributes()[2].name, "w");
}

TEST_F(JoinFixture, NaturalJoinNeedsSharedAttributes) {
  Relation t(RelationSchema("t", {Attribute{"other", ValueType::kInt}}));
  EXPECT_FALSE(NaturalJoin(r_, t).ok());
}

TEST_F(JoinFixture, SemijoinKeepsLeftRowsOnce) {
  auto out = Semijoin(r_, s_, {AttributePair{0, 0}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);  // rows 2 and 3, each once
  EXPECT_EQ(out.value().schema().arity(), 2u);
}

TEST_F(JoinFixture, NullsNeverJoin) {
  r_.InsertUnchecked({Value(), S("n")});
  s_.InsertUnchecked({Value(), S("n")});
  auto out = EquiJoin(r_, s_, {AttributePair{0, 0}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 3u);  // unchanged
}

TEST_F(JoinFixture, ProjectAndSelect) {
  auto proj = Project(r_, {1});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().schema().arity(), 1u);
  EXPECT_EQ(proj.value().row(0)[0].AsString(), "a");
  EXPECT_FALSE(Project(r_, {4}).ok());

  const Relation sel = SelectWhere(
      r_, [](const Tuple& t) { return t[0].AsInt() >= 2; });
  EXPECT_EQ(sel.size(), 2u);
}

TEST_F(JoinFixture, AgreeSetComputesAgreements) {
  const auto universe = CompatiblePairs(r_.schema(), s_.schema());
  EXPECT_EQ(universe.size(), 2u);  // id-id (int) and v-w (string)
  const auto agree = AgreeSet(r_.row(1), s_.row(0), universe);
  ASSERT_EQ(agree.size(), 1u);
  EXPECT_EQ(agree[0].left, 0u);
}

TEST(DatabaseTest, AddAndFind) {
  Database db;
  EXPECT_TRUE(
      db.AddRelation(
            Relation(RelationSchema("r", {Attribute{"x", ValueType::kInt}})))
          .ok());
  EXPECT_FALSE(
      db.AddRelation(
            Relation(RelationSchema("r", {Attribute{"x", ValueType::kInt}})))
          .ok());
  EXPECT_NE(db.Find("r"), nullptr);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"r"});
}

TEST(GeneratorTest, InstanceRespectsOptions) {
  JoinInstanceOptions opts;
  opts.left_rows = 30;
  opts.right_rows = 20;
  opts.left_arity = 3;
  opts.right_arity = 5;
  const JoinInstance inst = GenerateJoinInstance(opts, 2);
  EXPECT_EQ(inst.left.size(), 30u);
  EXPECT_EQ(inst.right.size(), 20u);
  EXPECT_EQ(inst.left.schema().arity(), 3u);
  EXPECT_EQ(inst.right.schema().arity(), 5u);
  EXPECT_EQ(inst.goal.size(), 2u);
}

TEST(GeneratorTest, DeterministicBySeed) {
  JoinInstanceOptions opts;
  const JoinInstance a = GenerateJoinInstance(opts, 2);
  const JoinInstance b = GenerateJoinInstance(opts, 2);
  ASSERT_EQ(a.left.size(), b.left.size());
  for (size_t i = 0; i < a.left.size(); ++i) {
    EXPECT_EQ(a.left.row(i), b.left.row(i));
  }
  EXPECT_EQ(a.goal, b.goal);
}

TEST(GeneratorTest, PlantedMatchesExist) {
  JoinInstanceOptions opts;
  opts.planted_match_fraction = 0.5;
  const JoinInstance inst = GenerateJoinInstance(opts, 2);
  size_t matches = 0;
  for (const Tuple& r : inst.left.rows()) {
    for (const Tuple& s : inst.right.rows()) {
      if (PairsSatisfied(r, s, inst.goal)) ++matches;
    }
  }
  EXPECT_GT(matches, 0u);
}

TEST(GeneratorTest, TinyCompanyJoins) {
  Database db = TinyCompanyDatabase();
  const Relation* emp = db.Find("employees");
  const Relation* dept = db.Find("departments");
  ASSERT_NE(emp, nullptr);
  ASSERT_NE(dept, nullptr);
  auto joined = NaturalJoin(*emp, *dept);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().size(), emp->size());  // every emp has a dept
}

}  // namespace
}  // namespace relational
}  // namespace qlearn
