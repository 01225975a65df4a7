#ifndef MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
#define MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_

// World-set decompositions (the paper's core data structure): the
// world-set is a product of independent components over a certain core
// database.
//
// Ownership and invariants:
//  * `certain_` owns every relation's schema and its certain tuples;
//    components only ever hold per-alternative *extra* tuples keyed by
//    (lower-cased) relation name. The schema catalog therefore lives in
//    exactly one place, identical for every world — the invariant the
//    prepared-statement layer (engine/prepared.h) relies on when it
//    plans against `certain_` and executes against local worlds.
//  * Components are independent by construction: each alternative's
//    probabilities sum to 1 within its component, and world probability
//    is the product over components. Reads that correlate components
//    (joins of uncertain relations, aggregates over them, assert, group
//    worlds by) enumerate the RELEVANT sub-product only — never the full
//    product — and never copy it: each local world is decoded from its
//    ordinal and built on the spot. Components merge only when a
//    statement commits a correlated result (CREATE TABLE AS, DML that
//    changes rows).
//  * Query plans are schema-only and never capture alternative contents;
//    per-world state (subquery materializations, hash indexes) lives in
//    per-execution caches (engine/planner.h).
//
// Trivalent logic / NULL keys follow the per-world executor everywhere:
// a local world is an ordinary database (certain core + chosen
// alternatives' tuples), so NULL semantics cannot diverge between the
// fast per-alternative path and full enumeration — the differential
// conformance suite enforces this against the explicit engine.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "worlds/component.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

class StreamingEvaluator;

/// MayBMS-style world-set decomposition (WSD): the world-set is the
/// product of independent components over a certain core database.
///
///   worlds = { certain ⊎ a_1 ⊎ ... ⊎ a_m : a_i ∈ component_i }
///
/// `repair by key` over a certain relation creates one component per key
/// group; `choice of` creates a single component — so a repair with n key
/// groups of size g represents g^n worlds in O(n·g) space, the companion
/// ICDE'07 paper's "10^10^6 worlds" point.
///
/// Query processing avoids world enumeration wherever the paper's
/// operations allow:
///  * selections/projections over one uncertain relation are pushed into
///    each alternative (no component merging — the fast path);
///  * possible/certain/conf over decomposable results use per-component
///    math (conf uses the closed form 1 − ∏_c (1 − p_c(t)));
///  * only `assert`, `group worlds by`, and queries that genuinely
///    correlate components (joins of uncertain relations, aggregates over
///    them, subqueries) enumerate the *relevant* sub-product, feeding each
///    local world's answer to the shared StreamingEvaluator
///    (worlds/streaming_evaluator.h) — never the full world-set.
class DecomposedWorldSet : public WorldSet {
 public:
  /// `max_merge` caps the alternatives a single merge may produce (the
  /// correlated sub-product); 0 = unlimited. `threads` caps the shared
  /// thread pool's parallelism for per-alternative loops (0 =
  /// MAYBMS_THREADS / hardware); results and errors are byte-identical at
  /// every thread count (see base/thread_pool.h).
  static constexpr size_t kDefaultMaxMerge = 1 << 20;

  explicit DecomposedWorldSet(size_t max_merge = kDefaultMaxMerge,
                              size_t threads = 0);

  std::unique_ptr<WorldSet> Clone() const override;
  std::string EngineName() const override { return "decomposed"; }

  uint64_t NumWorlds() const override;
  double Log10NumWorlds() const override;
  std::vector<std::string> RelationNames() const override;
  bool HasRelation(const std::string& name) const override;
  Result<std::vector<World>> MaterializeWorlds(
      size_t max_worlds, bool* truncated = nullptr) const override;
  Result<std::vector<World>> TopKWorlds(size_t k) const override;
  Result<World> SampleWorld(base::SplitMix64* rng) const override;

  Status CreateBaseTable(const std::string& name,
                         const Table& prototype) override;
  Status DropRelation(const std::string& name) override;
  Status ApplyDml(const sql::Statement& stmt, const Catalog& catalog) override;

  Result<SelectEvaluation> EvaluateSelect(const sql::SelectStatement& stmt,
                                          size_t max_worlds) const override;
  Status MaterializeSelect(const std::string& name,
                           const sql::SelectStatement& stmt) override;

  Result<storage::DurableSnapshot> ToSnapshot() const override;
  Status FromSnapshot(const storage::DurableSnapshot& snapshot) override;

  /// Introspection for tests and benchmarks.
  const Database& certain_part() const { return certain_; }
  const std::vector<Component>& components() const { return components_; }
  size_t num_components() const { return components_.size(); }

 private:
  /// The decomposed (non-enumerated) form of a query result: certain rows
  /// plus per-alternative contributions of the involved components.
  /// `components_[component_indices[k]]`'s alternative j contributes
  /// `contributions[k][j]`; each new repair/choice component's
  /// alternatives carry theirs under the "__result" key.
  struct DecomposedResult {
    Schema schema;
    std::vector<Tuple> certain_rows;
    std::vector<size_t> component_indices;  // into components_
    std::vector<std::vector<std::vector<Tuple>>> contributions;
    std::vector<Component> new_components;
  };

  /// The decomposed form of a statement without assert / group worlds by,
  /// or nullopt when the statement correlates components (or repairs an
  /// uncertain source) and must enumerate.
  Result<std::optional<DecomposedResult>> Decompose(
      const sql::SelectStatement& stmt,
      const std::set<std::string>& referenced,
      const std::vector<size_t>& relevant) const;

  /// Runs the statement's SQL core (after repair/choice fan-out) in every
  /// local world of the sub-product of `relevant` and feeds each answer to
  /// `evaluator`, tagged with the world's sub-product ordinal. Read-only.
  Status StreamAnswers(const sql::SelectStatement& stmt,
                       const std::vector<size_t>& relevant,
                       StreamingEvaluator* evaluator) const;

  /// The sub-product of the given components (indices into components_).
  SubProduct ProductOf(const std::vector<size_t>& indices) const;

  using WorldBody = std::function<Status(
      size_t ordinal, size_t slot, size_t chunk, double probability,
      const std::vector<const Alternative*>& chosen)>;

  /// The sub-product enumerator: runs `body` for ordinals [0, n) of
  /// `product` on the shared pool (ParallelFor's slot and chunk passed
  /// through). Local worlds come out in MergeComponents' order, which is
  /// also the order the repair/choice source loop decodes in sequence.
  Status ForEachWorld(const SubProduct& product, size_t n,
                      const WorldBody& body) const;

  /// Indices of components contributing to any of `relations` (lower-case).
  std::vector<size_t> RelevantComponents(
      const std::set<std::string>& relations) const;

  /// Merges the given components into a single flattened component
  /// (capped by max_merge_). Only committing statements call it.
  Result<Component> MergeRelevant(const std::vector<size_t>& indices) const;

  /// True if the statement qualifies for the per-alternative push-down
  /// fast path (single uncertain relation scan, per-tuple predicate, plain
  /// projection).
  bool QualifiesForFastPath(const sql::SelectStatement& stmt,
                            const std::set<std::string>& referenced) const;

  Database certain_;
  std::vector<Component> components_;
  size_t max_merge_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
