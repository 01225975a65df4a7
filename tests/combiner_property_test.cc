// Property suite for the streaming QuantifierCombiner (worlds/combiner.h)
// against the set-based reference combinators (CombinePossible/
// CombineCertain/CombineConf in tests/set_combinators.h), plus a peak-allocation check that
// the explicit engine's streaming quantifier path really does discard
// per-world answers as it goes.
//
// The randomized inputs deliberately stress the tuple-identity rules the
// combiner must share with the oracle: duplicate tuples within one world
// and across worlds, NULLs in key columns (NULL == NULL for combination
// purposes), Integer/Real coincidence, empty tables, empty schemas,
// single-world inputs, and probabilities that sum to 1 only within
// floating-point tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "isql/session.h"
#include "tests/set_combinators.h"
#include "tests/test_util.h"
#include "worlds/combiner.h"
#include "worlds/world_set.h"

// ---------------------------------------------------------------------------
// Allocation tracking (whole test binary): every operator new carries a
// small size header so live and peak byte counts are exact. Used by the
// retention test at the bottom; harmless bookkeeping for everything else.
// ---------------------------------------------------------------------------

namespace {

std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

constexpr size_t kHeader = alignof(std::max_align_t);

void TrackAlloc(size_t n) {
  size_t live = g_live_bytes.fetch_add(n) + n;
  size_t peak = g_peak_bytes.load();
  while (peak < live && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
}

void* TrackedNew(size_t n) {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(base) = n;
  TrackAlloc(n);
  return static_cast<char*>(base) + kHeader;
}

void TrackedDelete(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(base));
  std::free(base);
}

}  // namespace

void* operator new(size_t n) { return TrackedNew(n); }
void* operator new[](size_t n) { return TrackedNew(n); }
void operator delete(void* p) noexcept { TrackedDelete(p); }
void operator delete[](void* p) noexcept { TrackedDelete(p); }
void operator delete(void* p, size_t) noexcept { TrackedDelete(p); }
void operator delete[](void* p, size_t) noexcept { TrackedDelete(p); }

namespace maybms {
namespace {

using maybms::testing::I;
using maybms::testing::N;
using maybms::testing::T;
using worlds::QuantifierCombiner;

constexpr double kTolerance = 1e-9;

// ---------------------------------------------------------------------------
// Randomized streaming-vs-oracle equivalence
// ---------------------------------------------------------------------------

/// Deterministic input generator (raw mt19937 words, like pipeline_gen):
/// a vector of (probability, Table) worlds over a shared random schema.
struct RandomWorlds {
  std::vector<std::pair<double, Table>> entries;
};

class WorldsGen {
 public:
  explicit WorldsGen(uint32_t seed) : rng_(seed) {}

  int Int(int lo, int hi) {
    return lo + static_cast<int>(rng_() % static_cast<uint32_t>(hi - lo + 1));
  }
  bool Chance(double p) { return (rng_() >> 8) * (1.0 / 16777216.0) < p; }

  Value RandomValue() {
    switch (Int(0, 4)) {
      case 0:
        return Value::Null();  // NULLs in key columns
      case 1:
        return Value::Integer(Int(0, 3));
      case 2:
        // Integer/Real coincidence under the total order.
        return Value::Real(static_cast<double>(Int(0, 3)));
      case 3:
        return Value::Text(Int(0, 1) ? "a" : "b");
      default:
        return Value::Integer(Int(-2, 2));
    }
  }

  RandomWorlds Generate() {
    RandomWorlds out;
    const int cols = Int(0, 3);  // 0: the zero-ary `select conf` shape
    Schema schema;
    for (int c = 0; c < cols; ++c) {
      schema.AddColumn(Column("c" + std::to_string(c), DataType::kInteger));
    }
    const int worlds = Int(1, 12);  // single-world inputs included
    std::vector<double> weights(static_cast<size_t>(worlds));
    double total = 0;
    for (double& w : weights) {
      w = static_cast<double>(Int(1, 100));
      total += w;
    }
    // Normalize: the weights sum to 1 only within fp tolerance, exactly
    // like renormalized assert survivors in the engine.
    for (double& w : weights) w /= total;

    for (int i = 0; i < worlds; ++i) {
      Table table(schema);
      if (!Chance(0.2)) {  // 20%: empty world answer
        const int rows = Int(0, 6);
        for (int r = 0; r < rows; ++r) {
          Tuple row;
          for (int c = 0; c < cols; ++c) row.Append(RandomValue());
          table.AppendUnchecked(row);
          // Duplicates within one world (must count once).
          if (Chance(0.3)) table.AppendUnchecked(row);
        }
      }
      out.entries.emplace_back(weights[static_cast<size_t>(i)],
                               std::move(table));
    }
    return out;
  }

 private:
  std::mt19937 rng_;
};

/// Exact agreement for discrete values, kTolerance for reals (conf).
void ExpectTablesMatch(const Table& oracle, const Table& streaming,
                       const std::string& context) {
  ASSERT_EQ(oracle.schema().num_columns(), streaming.schema().num_columns())
      << context;
  for (size_t c = 0; c < oracle.schema().num_columns(); ++c) {
    EXPECT_EQ(oracle.schema().column(c).type, streaming.schema().column(c).type)
        << context << " (column " << c << ")";
  }
  ASSERT_EQ(oracle.num_rows(), streaming.num_rows()) << context;
  for (size_t r = 0; r < oracle.num_rows(); ++r) {
    const Tuple& expect = oracle.row(r);
    const Tuple& got = streaming.row(r);
    ASSERT_EQ(expect.size(), got.size()) << context;
    for (size_t c = 0; c < expect.size(); ++c) {
      if (expect.value(c).type() == DataType::kReal &&
          got.value(c).type() == DataType::kReal) {
        EXPECT_NEAR(expect.value(c).AsReal(), got.value(c).AsReal(),
                    kTolerance)
            << context << " (row " << r << ", column " << c << ")";
      } else {
        EXPECT_EQ(expect.value(c).TotalOrderCompare(got.value(c)), 0)
            << context << " (row " << r << ", column " << c << "): "
            << expect.value(c).ToString() << " vs " << got.value(c).ToString();
      }
    }
  }
}

Table RunStreaming(sql::WorldQuantifier quantifier,
                   const std::vector<std::pair<double, Table>>& entries) {
  auto combiner = QuantifierCombiner::Create(quantifier);
  EXPECT_TRUE(combiner.ok());
  for (const auto& [prob, table] : entries) combiner->Feed(prob, table);
  auto result = combiner->Finish();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

Table RunOracle(sql::WorldQuantifier quantifier,
                const std::vector<std::pair<double, Table>>& entries) {
  switch (quantifier) {
    case sql::WorldQuantifier::kPossible:
      return worlds::CombinePossible(entries);
    case sql::WorldQuantifier::kCertain:
      return worlds::CombineCertain(entries);
    default:
      return worlds::CombineConf(entries);
  }
}

const char* QuantifierName(sql::WorldQuantifier q) {
  switch (q) {
    case sql::WorldQuantifier::kPossible:
      return "possible";
    case sql::WorldQuantifier::kCertain:
      return "certain";
    default:
      return "conf";
  }
}

class CombinerPropertyTest : public ::testing::TestWithParam<uint32_t> {};

// 100 seeds x 3 quantifiers = 300 randomized streaming-vs-oracle cases.
TEST_P(CombinerPropertyTest, StreamingMatchesSetBasedOracle) {
  RandomWorlds worlds = WorldsGen(GetParam()).Generate();
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain,
        sql::WorldQuantifier::kConf}) {
    const std::string context = "seed " + std::to_string(GetParam()) + ", " +
                                QuantifierName(q) + ", " +
                                std::to_string(worlds.entries.size()) +
                                " worlds";
    ExpectTablesMatch(RunOracle(q, worlds.entries),
                      RunStreaming(q, worlds.entries), context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Feeding the same worlds in any order yields the same relation (conf
// within fp tolerance): the accumulator is order-free, so the explicit
// engine's world order and the decomposed engine's alternative order
// cannot produce different answers.
TEST_P(CombinerPropertyTest, FeedOrderInvariance) {
  RandomWorlds worlds = WorldsGen(GetParam()).Generate();
  std::mt19937 shuffle_rng(GetParam() ^ 0x9e3779b9u);
  std::vector<std::pair<double, Table>> shuffled = worlds.entries;
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain,
        sql::WorldQuantifier::kConf}) {
    const std::string context = "seed " + std::to_string(GetParam()) + ", " +
                                QuantifierName(q) + " (shuffled feed)";
    Table in_order = RunStreaming(q, worlds.entries);
    Table permuted = RunStreaming(q, shuffled);
    // Schemas may differ when the first fed table changed; contents and
    // column count must not.
    ASSERT_EQ(in_order.schema().num_columns(), permuted.schema().num_columns())
        << context;
    ExpectTablesMatch(in_order, permuted, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinerPropertyTest,
                         ::testing::Range(uint32_t{0}, uint32_t{100}));

// ---------------------------------------------------------------------------
// Directed edge cases
// ---------------------------------------------------------------------------

Schema TwoCols() {
  Schema schema;
  schema.AddColumn(Column("k", DataType::kInteger));
  schema.AddColumn(Column("g", DataType::kText));
  return schema;
}

TEST(CombinerEdgeTest, NoWorldsFed) {
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain,
        sql::WorldQuantifier::kConf}) {
    std::vector<std::pair<double, Table>> none;
    ExpectTablesMatch(RunOracle(q, none), RunStreaming(q, none),
                      QuantifierName(q));
  }
}

TEST(CombinerEdgeTest, SingleWorldIsItsOwnCombination) {
  Table t(TwoCols());
  t.AppendUnchecked(Tuple({I(1), T("a")}));
  t.AppendUnchecked(Tuple({I(1), T("a")}));  // in-world duplicate
  t.AppendUnchecked(Tuple({I(2), T("b")}));
  std::vector<std::pair<double, Table>> entries = {{1.0, t}};
  for (sql::WorldQuantifier q :
       {sql::WorldQuantifier::kPossible, sql::WorldQuantifier::kCertain,
        sql::WorldQuantifier::kConf}) {
    ExpectTablesMatch(RunOracle(q, entries), RunStreaming(q, entries),
                      QuantifierName(q));
  }
}

TEST(CombinerEdgeTest, NullKeysCombineAsEqual) {
  // NULL = NULL is UNKNOWN inside a query, but for world combination two
  // NULL answer fields are the same tuple (world_set.h contract).
  Table a(TwoCols());
  a.AppendUnchecked(Tuple({N(), T("a")}));
  Table b(TwoCols());
  b.AppendUnchecked(Tuple({N(), T("a")}));
  std::vector<std::pair<double, Table>> entries = {{0.25, a}, {0.75, b}};

  Table certain =
      RunStreaming(sql::WorldQuantifier::kCertain, entries);
  ASSERT_EQ(certain.num_rows(), 1u);  // present in both worlds

  Table conf = RunStreaming(sql::WorldQuantifier::kConf, entries);
  ASSERT_EQ(conf.num_rows(), 1u);
  EXPECT_NEAR(conf.row(0).value(2).AsReal(), 1.0, kTolerance);
}

TEST(CombinerEdgeTest, EmptyWorldKillsCertain) {
  Table a(TwoCols());
  a.AppendUnchecked(Tuple({I(1), T("a")}));
  Table empty(TwoCols());
  std::vector<std::pair<double, Table>> entries = {{0.5, a}, {0.5, empty}};
  Table certain = RunStreaming(sql::WorldQuantifier::kCertain, entries);
  EXPECT_EQ(certain.num_rows(), 0u);
  Table possible = RunStreaming(sql::WorldQuantifier::kPossible, entries);
  EXPECT_EQ(possible.num_rows(), 1u);
}

TEST(CombinerEdgeTest, ZeroAryConfIsNonEmptyProbability) {
  Schema empty_schema;
  Table with_row(empty_schema);
  with_row.AppendUnchecked(Tuple());
  Table without(empty_schema);
  std::vector<std::pair<double, Table>> entries = {{0.3, with_row},
                                                   {0.7, without}};
  for (auto* run : {&RunOracle, &RunStreaming}) {
    Table conf = (*run)(sql::WorldQuantifier::kConf, entries);
    ASSERT_EQ(conf.num_rows(), 1u);
    ASSERT_EQ(conf.schema().num_columns(), 1u);
    EXPECT_NEAR(conf.row(0).value(0).AsReal(), 0.3, kTolerance);
  }
}

TEST(CombinerEdgeTest, FinishNormalizerScalesConf) {
  // The weighted-sample form: feed unit weights, normalize by the count.
  Table a(TwoCols());
  a.AppendUnchecked(Tuple({I(1), T("a")}));
  auto combiner = QuantifierCombiner::Create(sql::WorldQuantifier::kConf);
  ASSERT_TRUE(combiner.ok());
  for (int s = 0; s < 3; ++s) combiner->Feed(1.0, a);
  combiner->Feed(1.0, Table(TwoCols()));
  auto result = combiner->Finish(4.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_NEAR(result->row(0).value(2).AsReal(), 0.75, kTolerance);
}

TEST(CombinerEdgeTest, RejectsMissingQuantifier) {
  auto combiner = QuantifierCombiner::Create(sql::WorldQuantifier::kNone);
  EXPECT_FALSE(combiner.ok());
}

// ---------------------------------------------------------------------------
// Per-world result retention (ISSUE 4 satellite): the explicit engine's
// quantifier evaluation must not keep per-world answers — or copies of
// the worlds themselves — alive until the end of the statement.
// ---------------------------------------------------------------------------

TEST(ExplicitStreamingRetentionTest, QuantifierEvalPeakAllocationIsFlat) {
  isql::SessionOptions options;
  options.engine = isql::EngineMode::kExplicit;
  isql::Session session(options);

  // 2^12 = 4096 worlds from a 12-key-group repair; the world-set itself
  // occupies several MB.
  std::string script;
  script += "create table R (K integer, V integer);\n";
  script += "insert into R values ";
  for (int k = 0; k < 12; ++k) {
    if (k > 0) script += ", ";
    script += "(" + std::to_string(k) + ", 1), (" + std::to_string(k) + ", 2)";
  }
  script += ";\ncreate table I as select K, V from R repair by key K;\n";
  ASSERT_TRUE(session.ExecuteScript(script).ok());

  // Warm up once (plans, gtest bookkeeping), then measure the peak of a
  // second evaluation.
  ASSERT_TRUE(session.Execute("select certain count(*) from I;").ok());

  const size_t live_before = g_live_bytes.load();
  g_peak_bytes.store(live_before);
  auto result = session.Execute("select certain count(*) from I;");
  ASSERT_TRUE(result.ok());
  const size_t peak_delta = g_peak_bytes.load() - live_before;

  // The old collect-then-combine path copied every world's database plus
  // one Table per world (tens of MB here). Streaming keeps one world's
  // answer plus the accumulator: well under 2 MB even with slack for
  // plan structures and the result.
  EXPECT_LT(peak_delta, 2u << 20)
      << "quantifier evaluation retained per-world state ("
      << peak_delta / 1024 << " KiB peak over baseline)";
}

}  // namespace
}  // namespace maybms
