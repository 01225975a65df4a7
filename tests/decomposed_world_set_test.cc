// White-box tests of the DecomposedWorldSet: component structure created
// by the I-SQL operations, the selection/projection fast path (no
// merging), and the compactness guarantees that are the point of WSDs.

#include "worlds/decomposed_world_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "isql/session.h"
#include "tests/test_util.h"

namespace maybms::worlds {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::Exec;
using maybms::testing::ExecScript;

const DecomposedWorldSet& Wsd(const Session& session) {
  return static_cast<const DecomposedWorldSet&>(session.world_set());
}

SessionOptions DecomposedOptions() {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.max_display_worlds = 1 << 20;
  return options;
}

TEST(DecomposedWorldSetTest, RepairCreatesOneComponentPerKeyGroup) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 3u);  // key groups a1, a2, a3
  EXPECT_EQ(wsd.NumWorlds(), 4u);       // 2 * 2 * 1
}

TEST(DecomposedWorldSetTest, ChoiceOfCreatesSingleComponent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table P as select * from S choice of E;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 1u);
  EXPECT_EQ(wsd.NumWorlds(), 2u);
}

TEST(DecomposedWorldSetTest, SelectionFastPathPreservesComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  ASSERT_EQ(Wsd(session).num_components(), 3u);
  // A selection over I decomposes per alternative: no merge, still three
  // components afterwards, worlds unchanged.
  Exec(session, "create table D as select A, B from I where B >= 15;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 4u);
}

TEST(DecomposedWorldSetTest, AggregateQueryMergesOnlyRelevantComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table P as select * from S choice of E;");
  ASSERT_EQ(Wsd(session).num_components(), 4u);
  // sum(B) over I requires merging I's three components, but P's
  // component must remain untouched.
  Exec(session, "create table Sums as select sum(B) as S from I;");
  EXPECT_EQ(Wsd(session).num_components(), 2u)
      << "I's 3 components merged into 1; P's untouched";
  EXPECT_EQ(Wsd(session).NumWorlds(), 8u);  // 4 (merged) * 2 (P)
}

TEST(DecomposedWorldSetTest, QuantifierQueryLeavesStructureUnchanged) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  // possible/certain/conf produce certain answers: materializing them
  // must not merge anything.
  Exec(session, "create table PB as select possible B from I;");
  Exec(session, "create table CB as select certain B from I;");
  Exec(session, "create table KB as select conf, B from I;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
}

TEST(DecomposedWorldSetTest, ExponentialWorldsLinearSpace) {
  // The ICDE'07 headline: n key groups of g alternatives = g^n worlds in
  // O(n*g) components. 40 groups of 2 would be ~10^12 worlds.
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 40; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");

  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 40u);
  EXPECT_NEAR(wsd.Log10NumWorlds(), 40 * std::log10(2.0), 1e-9);
  EXPECT_EQ(wsd.NumWorlds(), uint64_t{1} << 40);

  // Tuple-level confidence over 2^40 worlds via the closed form — instant.
  QueryResult conf = Exec(session, "select conf, K, V from I where K = 7;");
  ASSERT_EQ(conf.table().num_rows(), 2u);
  EXPECT_NEAR(conf.table().row(0).value(2).AsReal(), 0.5, 1e-12);
}

TEST(DecomposedWorldSetTest, NumWorldsSaturatesButLogDoesNot) {
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 300; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.NumWorlds(), std::numeric_limits<uint64_t>::max());
  EXPECT_NEAR(wsd.Log10NumWorlds(), 300 * std::log10(2.0), 1e-6);
}

TEST(DecomposedWorldSetTest, MaterializeWorldsEnumeratesProduct) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  bool truncated = true;
  auto worlds = Wsd(session).MaterializeWorlds(100, &truncated);
  ASSERT_TRUE(worlds.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(worlds->size(), 4u);
  double total = 0;
  for (const World& w : *worlds) {
    total += w.probability;
    EXPECT_TRUE(w.db.HasRelation("I"));
    EXPECT_TRUE(w.db.HasRelation("R"));
    auto i = w.db.GetRelation("I");
    EXPECT_EQ((*i)->num_rows(), 3u);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  auto capped = Wsd(session).MaterializeWorlds(2, &truncated);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(truncated);
  EXPECT_EQ(capped->size(), 2u);
}

TEST(DecomposedWorldSetTest, AssertMergesAndRenormalizes) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table J as select * from I "
                "assert not exists(select * from I where C = 'c1');");
  // The three I components correlate under assert: merged into one.
  EXPECT_EQ(Wsd(session).num_components(), 1u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 2u);
}

/// 14 keys x 2 values repaired into J: 14 components of 2 alternatives.
void LoadFourteenKeyRepair(Session& session) {
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 14; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table J as select * from R repair by key K;");
}

TEST(DecomposedWorldSetTest, DmlThatChangesNothingKeepsComponents) {
  Session session(DecomposedOptions());
  LoadFourteenKeyRepair(session);
  ASSERT_EQ(Wsd(session).num_components(), 14u);
  Exec(session, "delete from J where K < 0;");
  Exec(session, "update J set V = V where K = 3;");
  ASSERT_EQ(Wsd(session).num_components(), 14u);
  for (const Component& c : Wsd(session).components()) {
    EXPECT_EQ(c.size(), 2u);
  }
  EXPECT_EQ(Wsd(session).NumWorlds(), uint64_t{1} << 14);
}

TEST(DecomposedWorldSetTest, DmlThatChangesRowsMergesAndCommits) {
  Session session(DecomposedOptions());
  LoadFourteenKeyRepair(session);
  Exec(session, "delete from J where V = 1 and K < 2;");
  // Every J component is relevant to the delete: merged into one of
  // 2^14 alternatives, each holding its world's post-delete contents.
  ASSERT_EQ(Wsd(session).num_components(), 1u);
  EXPECT_EQ(Wsd(session).components()[0].size(), 16384u);
  EXPECT_EQ(Wsd(session).NumWorlds(), uint64_t{1} << 14);
  QueryResult conf = Exec(session, "select conf, K, V from J where K < 2;");
  maybms::testing::ExpectRows(conf.table(), {"(0, 0, 0.5)", "(1, 0, 0.5)"});
  QueryResult count =
      Exec(session, "select possible count(*) from J;");
  maybms::testing::ExpectRows(count.table(), {"(12)", "(13)", "(14)"});
}

TEST(DecomposedWorldSetTest, DropRelationRemovesContributions) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A;");
  Exec(session, "drop table I;");
  EXPECT_FALSE(Wsd(session).HasRelation("I"));
  for (const Component& c : Wsd(session).components()) {
    EXPECT_FALSE(c.ContributesTo("i"));
  }
}

TEST(DecomposedWorldSetTest, CloneIsIndependent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  auto clone = session.world_set().Clone();
  EXPECT_EQ(clone->NumWorlds(), 4u);
  MAYBMS_EXPECT_OK(clone->DropRelation("I"));
  EXPECT_TRUE(session.world_set().HasRelation("I"));
}

}  // namespace
}  // namespace maybms::worlds
