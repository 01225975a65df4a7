#ifndef MAYBMS_TESTS_PIPELINE_GEN_H_
#define MAYBMS_TESTS_PIPELINE_GEN_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace maybms::testing {

/// A randomly generated I-SQL pipeline: a setup script that builds a
/// world-set (base tables, inserts, repair-by-key / choice-of / assert
/// materializations, some of them quantified (`create table .. as select
/// possible/certain/conf .. repair by key / choice of`) — with integer, REAL, and invalid TEXT weight
/// columns, and repair chains of depth >= 3 — CREATE VIEW definitions,
/// late DML — including UPDATE .. SET with expression right-hand sides
/// and subquery WHERE clauses) followed by read-only probe queries that exercise selections,
/// projections, joins (comma-lists and explicit [LEFT] JOIN ... ON),
/// aggregates, correlated EXISTS/IN/scalar subqueries, set operations,
/// ORDER BY [DESC] with LIMIT (compared as ordered sequences — the
/// deterministic full-row tie-break documented in docs/isql.md makes the
/// sorted order a function of the answer bag alone), queries over views,
/// possible/certain/conf quantifiers, assert, and group-worlds-by.
///
/// The differential conformance harness executes every statement on both
/// engine backends (ExplicitWorldSet and DecomposedWorldSet) and asserts
/// that the observable behavior — success/failure, world counts, world
/// distributions, answer relations, per-tuple confidences — agrees.
struct GeneratedPipeline {
  /// Statements that build the world-set, in order. They are expected to
  /// succeed or fail *identically* on both engines; the harness executes
  /// them one at a time and checks status agreement.
  std::vector<std::string> setup;

  /// Read-only queries whose full results are compared across engines.
  std::vector<std::string> probes;

  /// Upper bound on the number of worlds the setup can create (the
  /// generator stays within its world budget so the explicit engine can
  /// always enumerate).
  uint64_t world_bound = 1;

  /// The whole pipeline as one script, for failure messages.
  std::string DebugString() const;
};

/// Deterministic seeded generator: the same seed always yields the same
/// pipeline — on every platform and standard library (randomness is drawn
/// from raw mt19937 words, never std::uniform_*_distribution) — so any
/// conformance failure is reproducible from its seed.
class PipelineGenerator {
 public:
  struct Options {
    int max_base_tables = 2;      // >= 1
    int max_derived_tables = 3;   // >= 1
    int min_probes = 5;
    int max_probes = 9;
    uint64_t world_budget = 512;  // cap on worlds the setup may create
  };

  explicit PipelineGenerator(uint32_t seed);
  PipelineGenerator(uint32_t seed, Options options);

  GeneratedPipeline Generate();

 private:
  struct Row {
    int k, v, w;
    char g;
  };

  struct TableInfo {
    std::string name;
    bool uncertain = false;
    // Views are probe-only: they are never DML targets and never sources
    // of derived tables (their world accounting would otherwise have to
    // chase the view expansion).
    bool is_view = false;
    // Materialized under possible/certain/conf: one certain relation.
    bool quantified = false;
    // Rows of the root base table this table was derived from (derived
    // tables only ever project subsets of their ancestor's rows, so these
    // bound any repair/choice fan-out applied to this table).
    std::vector<Row> ancestor_rows;
  };

  int Int(int lo, int hi);  // uniform in [lo, hi]
  bool Chance(double p);    // true with probability ~p
  /// Picks a statement source. Views are only eligible when
  /// `allow_views` (probe queries); setup statements stick to tables.
  const TableInfo& Pick(bool prefer_uncertain, bool allow_views = false);

  void EmitBaseTable(GeneratedPipeline* p);
  void EmitDerivedTable(GeneratedPipeline* p);
  /// A chain of >= 3 derived tables C0 <- C1 <- C2, each repairing its
  /// predecessor (budget permitting; over-budget links degrade to plain
  /// copies so the chain keeps its depth). Deep chains drive the
  /// decomposed engine's repair-over-uncertain flattening repeatedly and
  /// the explicit engine's per-world re-partitioning.
  void EmitRepairChain(GeneratedPipeline* p);
  void EmitView(GeneratedPipeline* p);
  void EmitLateDml(GeneratedPipeline* p);

  /// Worst-case world multiplication factor of `repair by key <cols>`
  /// (product of key-group sizes, over any key subset of {K, G}) or
  /// `choice of <col>` (distinct count) over `rows`.
  static uint64_t RepairFactor(const std::vector<Row>& rows, bool use_k,
                               bool use_g);
  static uint64_t ChoiceFactor(const std::vector<Row>& rows, char col);

  std::string RandomPredicate(const std::string& qualifier);
  std::string RandomProjection(const std::string& qualifier);
  std::string RandomProbe();

  std::mt19937 rng_;
  Options options_;
  std::vector<TableInfo> tables_;
  uint64_t world_bound_ = 1;
  int next_base_ = 0;
  int next_derived_ = 0;
  int next_chain_ = 0;
  int next_view_ = 0;
};

}  // namespace maybms::testing

#endif  // MAYBMS_TESTS_PIPELINE_GEN_H_
