// Parallel per-world execution must be unobservable: at every thread
// count, both engines return byte-identical results, the same
// deterministic error (the smallest-world-index error, as if execution
// were sequential), and failed DML rolls back to the identical state.
// Also the directed combiner-merge and zero-mass Finish contracts the
// parallel paths rely on (worlds/combiner.h).

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "isql/session.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "worlds/combiner.h"
#include "worlds/sampling.h"

namespace maybms {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::ExecScript;
using maybms::testing::ExpectSameDistribution;
using maybms::testing::WorldDistribution;
using maybms::testing::WorldDistributionOrdered;

const size_t kThreadCounts[] = {1, 2, 4, 8};

SessionOptions Opt(EngineMode mode, size_t threads) {
  SessionOptions options;
  options.engine = mode;
  options.max_display_worlds = 1 << 20;
  options.threads = threads;
  return options;
}

/// Eight worlds; world k holds exactly the row (K = k) in relation C.
void SetupEightWorlds(Session& session) {
  ExecScript(session, R"sql(
    create table M (K integer, W integer);
    insert into M values (0,1),(1,1),(2,1),(3,1),(4,1),(5,1),(6,1),(7,1);
    create table C as select K from M choice of K;
  )sql");
}

/// Exact value equality; reals must match within `real_tolerance`, which
/// defaults to 0.0 — i.e. bitwise — because "byte-identical at every
/// thread count" is the engine contract. (The directed combiner-merge
/// tests below pass a tiny tolerance: merging per-chunk partial sums
/// reassociates floating-point addition relative to a single sequential
/// feed. The ENGINE is still exactly deterministic because its chunk
/// geometry is a function of the trip count alone, never of the thread
/// count — see base/thread_pool.h.)
void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& context,
                           double real_tolerance = 0.0) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.schema().num_columns(), b.schema().num_columns()) << context;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    const Tuple& x = a.row(i);
    const Tuple& y = b.row(i);
    ASSERT_EQ(x.size(), y.size()) << context << " row " << i;
    for (size_t j = 0; j < x.size(); ++j) {
      ASSERT_EQ(x.value(j).type(), y.value(j).type())
          << context << " row " << i << " col " << j;
      if (x.value(j).type() == DataType::kReal) {
        EXPECT_NEAR(x.value(j).AsReal(), y.value(j).AsReal(), real_tolerance)
            << context << " row " << i << " col " << j;
      } else {
        EXPECT_EQ(x.value(j).ToString(), y.value(j).ToString())
            << context << " row " << i << " col " << j;
      }
    }
  }
}

void ExpectResultsIdentical(const QueryResult& a, const QueryResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.kind(), b.kind()) << context;
  switch (a.kind()) {
    case QueryResult::Kind::kMessage:
      break;
    case QueryResult::Kind::kTable:
      ExpectTablesIdentical(a.table(), b.table(), context);
      break;
    case QueryResult::Kind::kWorlds:
      ExpectSameDistribution(WorldDistribution(a.worlds()),
                             WorldDistribution(b.worlds()), /*tolerance=*/0.0);
      ExpectSameDistribution(WorldDistributionOrdered(a.worlds()),
                             WorldDistributionOrdered(b.worlds()),
                             /*tolerance=*/0.0);
      break;
    case QueryResult::Kind::kGroups: {
      ASSERT_EQ(a.groups().size(), b.groups().size()) << context;
      for (size_t i = 0; i < a.groups().size(); ++i) {
        EXPECT_EQ(a.groups()[i].probability, b.groups()[i].probability)
            << context << " group " << i;
        ExpectTablesIdentical(a.groups()[i].key, b.groups()[i].key,
                              context + " key " + std::to_string(i));
        ExpectTablesIdentical(a.groups()[i].table, b.groups()[i].table,
                              context + " table " + std::to_string(i));
      }
      break;
    }
  }
}

class ParallelExecutionTest : public ::testing::TestWithParam<EngineMode> {};

// ---------------------------------------------------------------------------
// Byte-identical query results at every thread count
// ---------------------------------------------------------------------------

TEST_P(ParallelExecutionTest, QueriesAreThreadCountInvariant) {
  const char* kProbes[] = {
      "select * from D2;",
      "select conf, K from D2;",
      "select possible K from D2;",
      "select certain K from D2;",
      "select K from D2 order by 1 desc limit 2;",
      "select conf, K from D2 repair by key K;",
      "select * from D2 repair by key K weight W;",
      "select conf, K from D2 group worlds by (select K from D2 where K > 3);",
      "select conf, K from D2 assert exists(select * from D2 where K >= 0);",
      // A correlated read (a join of two uncertain relations) with assert
      // and group worlds by: the decomposed engine enumerates the relevant
      // sub-product into the shared streaming evaluator.
      "select possible a.K from D2 a, C b where a.K <= b.K "
      "assert exists(select * from C where K > 0) "
      "group worlds by (select count(*) from D2 where K > 3);",
  };
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t threads : kThreadCounts) {
    auto s = std::make_unique<Session>(Opt(GetParam(), threads));
    SetupEightWorlds(*s);
    ExecScript(*s, "create table D2 as select K + 1 as W, K from C;");
    if (::testing::Test::HasFatalFailure()) return;
    sessions.push_back(std::move(s));
  }
  for (const char* probe : kProbes) {
    auto baseline = sessions[0]->Execute(probe);
    ASSERT_TRUE(baseline.ok())
        << probe << "\n" << baseline.status().ToString();
    for (size_t t = 1; t < sessions.size(); ++t) {
      const std::string ctx = std::string(probe) + " at threads=" +
                              std::to_string(kThreadCounts[t]);
      auto result = sessions[t]->Execute(probe);
      ASSERT_TRUE(result.ok()) << ctx << "\n" << result.status().ToString();
      ExpectResultsIdentical(*baseline, *result, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic first-error selection: failures injected in the first,
// a middle, the last, and several worlds must surface the SAME error at
// every thread count (the sequential smallest-world-index error).
// ---------------------------------------------------------------------------

TEST_P(ParallelExecutionTest, PipelineErrorsAreThreadCountInvariant) {
  // Per-world weight tables: world k's single row has the given W, so a
  // repair probe fails exactly in the worlds where W <= 0 — with a
  // world-specific message ("weights must be positive, found ...").
  const char* kWeightTables[] = {
      "create table F as select K * K as W, K from C;",              // world 0
      "create table F as select (K - 4) * (K - 4) as W, K from C;",  // world 4
      "create table F as select (K - 7) * (K - 7) as W, K from C;",  // world 7
      "create table F as select K - 3 as W, K from C;",  // worlds 0..3
  };
  for (const char* ddl : kWeightTables) {
    std::string baseline_error;
    for (size_t threads : kThreadCounts) {
      Session session(Opt(GetParam(), threads));
      SetupEightWorlds(session);
      ExecScript(session, ddl);
      if (::testing::Test::HasFatalFailure()) return;
      auto result = session.Execute("select * from F repair by key K weight W;");
      ASSERT_FALSE(result.ok()) << ddl << " at threads=" << threads;
      const std::string error = result.status().ToString();
      EXPECT_NE(error.find("weights must be positive"), std::string::npos)
          << error;
      if (threads == 1) {
        baseline_error = error;
      } else {
        EXPECT_EQ(error, baseline_error)
            << ddl << " at threads=" << threads;
      }
    }
  }
}

TEST_P(ParallelExecutionTest, DmlErrorsAreDeterministicAndRollBack) {
  // `update F set R = R / (K - c)` divides by zero exactly in world K=c
  // (division is always real here; R is a REAL column, so every other
  // world succeeds) — injected in the first, a middle, and the last world.
  for (int c : {0, 4, 7}) {
    const std::string update =
        "update F set R = R / (K - " + std::to_string(c) + ");";
    std::string baseline_error;
    for (size_t threads : kThreadCounts) {
      Session session(Opt(GetParam(), threads));
      SetupEightWorlds(session);
      ExecScript(session, "create table F as select K + 0.5 as R, K from C;");
      if (::testing::Test::HasFatalFailure()) return;
      auto before = session.Execute("select * from F;");
      ASSERT_TRUE(before.ok());

      auto result = session.Execute(update);
      ASSERT_FALSE(result.ok()) << update << " at threads=" << threads;
      const std::string error = result.status().ToString();
      EXPECT_NE(error.find("division by zero"), std::string::npos) << error;
      if (threads == 1) {
        baseline_error = error;
      } else {
        EXPECT_EQ(error, baseline_error) << update << " at threads=" << threads;
      }

      // All-or-nothing across worlds: the failed update left no trace.
      auto after = session.Execute("select * from F;");
      ASSERT_TRUE(after.ok());
      ExpectResultsIdentical(*before, *after,
                             update + " rollback at threads=" +
                                 std::to_string(threads));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_P(ParallelExecutionTest, DmlSurfacesTheFirstWorldsError) {
  // `update F set K = K + 0.5` fails in EVERY world, with a TypeError
  // embedding the world-specific value (K + 0.5). The surfaced error must
  // be world 0's — computed here from a single-world session whose only
  // world IS world 0 — at every thread count.
  Session solo(Opt(GetParam(), 1));
  ExecScript(solo, R"sql(
    create table M (K integer, W integer);
    insert into M values (0, 1);
    create table C as select K from M choice of K;
    create table F as select K + 0.5 as R, K from C;
  )sql");
  auto solo_result = solo.Execute("update F set K = K + 0.5;");
  ASSERT_FALSE(solo_result.ok());
  const std::string expected = solo_result.status().ToString();

  for (size_t threads : kThreadCounts) {
    Session session(Opt(GetParam(), threads));
    SetupEightWorlds(session);
    ExecScript(session, "create table F as select K + 0.5 as R, K from C;");
    if (::testing::Test::HasFatalFailure()) return;
    auto result = session.Execute("update F set K = K + 0.5;");
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().ToString(), expected) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Zero surviving mass: a well-defined error on both engines, never NaN.
// ---------------------------------------------------------------------------

TEST_P(ParallelExecutionTest, AssertEliminatingEveryWorldIsCleanError) {
  for (size_t threads : kThreadCounts) {
    Session session(Opt(GetParam(), threads));
    SetupEightWorlds(session);
    auto result = session.Execute(
        "select conf, K from C assert exists(select * from C where K < 0);");
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_NE(result.status().ToString().find("assert eliminated every world"),
              std::string::npos)
        << result.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Monte-Carlo sampling: estimates depend on (seed, samples) only.
// ---------------------------------------------------------------------------

TEST_P(ParallelExecutionTest, SamplingIsThreadCountInvariant) {
  Session session(Opt(GetParam(), /*threads=*/1));
  SetupEightWorlds(session);
  auto parsed = sql::Parser::ParseStatement("select K from C;");
  ASSERT_TRUE(parsed.ok());
  const auto& stmt = static_cast<const sql::SelectStatement&>(**parsed);

  auto baseline = worlds::EstimateConfidence(session.world_set(), stmt,
                                             /*samples=*/333, /*seed=*/42,
                                             /*threads=*/1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {2u, 4u, 8u}) {
    auto estimate = worlds::EstimateConfidence(session.world_set(), stmt, 333,
                                               42, threads);
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
    ExpectTablesIdentical(*baseline, *estimate,
                          "EstimateConfidence threads=" +
                              std::to_string(threads));
  }

  auto cond = sql::Parser::ParseStatement(
      "select * from C assert exists(select * from C where K < 4);");
  ASSERT_TRUE(cond.ok());
  const auto& cond_stmt = static_cast<const sql::SelectStatement&>(**cond);
  ASSERT_NE(cond_stmt.assert_condition, nullptr);
  auto p1 = worlds::EstimateConditionProbability(
      session.world_set(), *cond_stmt.assert_condition, 500, 7, 1);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  for (size_t threads : {2u, 8u}) {
    auto pt = worlds::EstimateConditionProbability(
        session.world_set(), *cond_stmt.assert_condition, 500, 7, threads);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*p1, *pt) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelExecutionTest,
                         ::testing::Values(EngineMode::kExplicit,
                                           EngineMode::kDecomposed),
                         [](const ::testing::TestParamInfo<EngineMode>&
                                param_info) {
                           return param_info.param == EngineMode::kExplicit
                                      ? "Explicit"
                                      : "Decomposed";
                         });

// ---------------------------------------------------------------------------
// Combiner merge: per-chunk combiners merged in chunk order must be
// indistinguishable from one sequential feed (worlds/combiner.h).
// ---------------------------------------------------------------------------

Table RandomAnswer(std::mt19937& rng) {
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  schema.AddColumn(Column("b", DataType::kText));
  Table table(schema);
  std::uniform_int_distribution<int> rows(0, 5);
  std::uniform_int_distribution<int> vals(0, 3);
  const int n = rows(rng);
  for (int i = 0; i < n; ++i) {
    table.AppendUnchecked(
        Tuple({Value::Integer(vals(rng)),
               Value::Text(vals(rng) % 2 == 0 ? "x" : "y")}));
  }
  return table;
}

TEST(CombinerMergeTest, MergeMatchesSequentialFeed) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> prob(0.01, 1.0);
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain,
        sql::WorldQuantifier::kConf}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::pair<double, Table>> feeds;
      double total = 0;
      std::uniform_int_distribution<int> count(1, 24);
      const int n = count(rng);
      for (int i = 0; i < n; ++i) {
        double p = prob(rng);
        total += p;
        feeds.emplace_back(p, RandomAnswer(rng));
      }

      auto sequential = worlds::QuantifierCombiner::Create(q);
      ASSERT_TRUE(sequential.ok());
      for (const auto& [p, t] : feeds) sequential->Feed(p, t);
      auto expected = sequential->Finish(total);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      // Split into chunks of several worlds each, feed each chunk into
      // its own combiner, merge in chunk order. Confidences may deviate
      // by reassociated-summation ulps, nothing more.
      auto merged = worlds::QuantifierCombiner::Create(q);
      ASSERT_TRUE(merged.ok());
      const size_t chunk_size = (feeds.size() + 3) / 4;
      for (size_t begin = 0; begin < feeds.size(); begin += chunk_size) {
        auto chunk = worlds::QuantifierCombiner::Create(q);
        ASSERT_TRUE(chunk.ok());
        for (size_t i = begin; i < std::min(begin + chunk_size, feeds.size());
             ++i) {
          chunk->Feed(feeds[i].first, feeds[i].second);
        }
        merged->Merge(std::move(*chunk));
      }
      EXPECT_EQ(merged->worlds_fed(), feeds.size());
      auto actual = merged->Finish(total);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectTablesIdentical(*expected, *actual,
                            "quantifier " + std::to_string(static_cast<int>(q)) +
                                " trial " + std::to_string(trial),
                            /*real_tolerance=*/1e-12);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CombinerMergeTest, SingletonChunkMergeIsExactlySequential) {
  // Merging single-world chunks in order performs the SAME additions in
  // the SAME order as one sequential feed, so here equality is bitwise.
  // (The finest possible geometry — a degenerate case the engines no
  // longer hit now that ChunkSize(n) >= 64 for n > 1, pinned anyway.)
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> prob(0.01, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::pair<double, Table>> feeds;
    double total = 0;
    for (int i = 0; i < 12; ++i) {
      double p = prob(rng);
      total += p;
      feeds.emplace_back(p, RandomAnswer(rng));
    }
    auto sequential =
        worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
    ASSERT_TRUE(sequential.ok());
    auto merged =
        worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
    ASSERT_TRUE(merged.ok());
    for (const auto& [p, t] : feeds) {
      sequential->Feed(p, t);
      auto chunk =
          worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
      ASSERT_TRUE(chunk.ok());
      chunk->Feed(p, t);
      merged->Merge(std::move(*chunk));
    }
    auto expected = sequential->Finish(total);
    auto actual = merged->Finish(total);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ExpectTablesIdentical(*expected, *actual,
                          "trial " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CombinerMergeTest, FeedAfterMergeKeepsInWorldDedup) {
  // A duplicate row within one post-merge world must count once.
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  Table dup(schema);
  dup.AppendUnchecked(Tuple({Value::Integer(1)}));
  dup.AppendUnchecked(Tuple({Value::Integer(1)}));

  auto merged = worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
  ASSERT_TRUE(merged.ok());
  auto chunk = worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
  ASSERT_TRUE(chunk.ok());
  chunk->Feed(0.25, dup);
  merged->Merge(std::move(*chunk));
  merged->Feed(0.75, dup);

  auto table = merged->Finish(1.0);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->num_rows(), 1u);
  // conf = 0.25 + 0.75 exactly, not double-counted.
  EXPECT_EQ(table->row(0).value(1).AsReal(), 1.0);
}

TEST(CombinerMergeTest, GroupedMergeMatchesSequentialFeed) {
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> prob(0.01, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::tuple<double, Table, Table>> feeds;
    std::uniform_int_distribution<int> count(1, 16);
    const int n = count(rng);
    for (int i = 0; i < n; ++i) {
      double p = prob(rng);
      Table answer = RandomAnswer(rng);
      Table key = RandomAnswer(rng);
      feeds.emplace_back(p, std::move(answer), std::move(key));
    }

    worlds::GroupedQuantifierCombiner sequential(sql::WorldQuantifier::kConf);
    for (const auto& [p, answer, key] : feeds) {
      ASSERT_TRUE(sequential.Feed(p, answer, key).ok());
    }
    auto expected = sequential.Finish();
    ASSERT_TRUE(expected.ok());

    worlds::GroupedQuantifierCombiner merged(sql::WorldQuantifier::kConf);
    const size_t chunk_size = (feeds.size() + 2) / 3;
    for (size_t begin = 0; begin < feeds.size(); begin += chunk_size) {
      worlds::GroupedQuantifierCombiner chunk(sql::WorldQuantifier::kConf);
      for (size_t i = begin; i < std::min(begin + chunk_size, feeds.size());
           ++i) {
        ASSERT_TRUE(chunk
                        .Feed(std::get<0>(feeds[i]), std::get<1>(feeds[i]),
                              std::get<2>(feeds[i]))
                        .ok());
      }
      ASSERT_TRUE(merged.Merge(std::move(chunk)).ok());
    }
    auto actual = merged.Finish();
    ASSERT_TRUE(actual.ok());
    ASSERT_EQ(expected->size(), actual->size()) << "trial " << trial;
    for (size_t g = 0; g < expected->size(); ++g) {
      EXPECT_NEAR((*expected)[g].probability, (*actual)[g].probability, 1e-12);
      ExpectTablesIdentical((*expected)[g].key, (*actual)[g].key,
                            "group key " + std::to_string(g));
      ExpectTablesIdentical((*expected)[g].table, (*actual)[g].table,
                            "group table " + std::to_string(g),
                            /*real_tolerance=*/1e-12);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CombinerZeroMassTest, ConfFinishWithZeroNormalizerIsError) {
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  Table answer(schema);
  answer.AppendUnchecked(Tuple({Value::Integer(7)}));

  auto combiner =
      worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
  ASSERT_TRUE(combiner.ok());
  combiner->Feed(0.0, answer);
  auto result = combiner->Finish(0.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kEmptyWorldSet)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("zero total probability mass"),
            std::string::npos);
}

TEST(CombinerZeroMassTest, ConfFinishWithNegativeOrNanNormalizerIsError) {
  for (double normalizer : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    auto combiner =
        worlds::QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
    ASSERT_TRUE(combiner.ok());
    EXPECT_FALSE(combiner->Finish(normalizer).ok()) << normalizer;
  }
}

TEST(CombinerZeroMassTest, PossibleAndCertainIgnoreTheNormalizer) {
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  Table answer(schema);
  answer.AppendUnchecked(Tuple({Value::Integer(7)}));
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain}) {
    auto combiner = worlds::QuantifierCombiner::Create(q);
    ASSERT_TRUE(combiner.ok());
    combiner->Feed(0.0, answer);
    auto result = combiner->Finish(0.0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 1u);
  }
}

}  // namespace
}  // namespace maybms
