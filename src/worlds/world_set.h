#ifndef MAYBMS_WORLDS_WORLD_SET_H_
#define MAYBMS_WORLDS_WORLD_SET_H_

// The world-set abstraction: a set of possible worlds over one shared
// relation catalog, with the I-SQL evaluation pipeline (per-world SQL
// core → assert → group worlds by / possible / certain / conf).
//
// Ownership and invariants:
//  * Every world of a WorldSet shares ONE schema catalog: relation names
//    and column schemas are identical across worlds; only relation
//    contents differ. CreateBaseTable/DropRelation/DML keep this true.
//    The prepared-statement layer (engine/prepared.h) depends on it —
//    statements are planned once against any single world's schemas and
//    executed in all of them; plans never capture world data.
//  * World probabilities are kept normalized (they sum to 1); `assert`
//    renormalizes after dropping worlds and eliminating every world is
//    an error that leaves the set untouched.
//  * SELECT evaluation is const: plain queries never modify the set
//    (per the paper); only MaterializeSelect/ApplyDml/CreateBaseTable/
//    DropRelation mutate, and each is all-or-nothing across worlds.
//  * Relation instances are copy-on-write shared across worlds
//    (storage/catalog.h): a Table is IMMUTABLE once shared — worlds,
//    snapshots, and derived worlds hold handles to the same instance, and
//    every writer either swaps in a new instance (Database::PutRelation)
//    or mutates through Database::MutableRelation, which clones first iff
//    the instance is shared. All-or-nothing mutation is implemented as a
//    snapshot/rollback commit: compute each world's post-statement tables
//    against copy-on-write snapshots, swap handles into the live set only
//    after every world succeeded.
//
// Trivalent logic / NULL keys: per-world evaluation uses standard SQL
// three-valued logic (engine/expr_eval.h); the cross-world combination
// (QuantifierCombiner, worlds/combiner.h) compares answer *tuples* under
// the total order of Value, where NULL is a plain value — two NULL answer
// fields compare equal for world-combination purposes even though
// NULL = NULL is UNKNOWN inside a query.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/rng.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "worlds/world.h"

namespace maybms::worlds {

/// Result of evaluating an I-SQL SELECT against a world-set.
///
/// Exactly which fields are populated depends on the query:
///  * plain SQL core (possibly after repair/choice/assert): `per_world`
///    holds one (probability, result table) entry per (derived) world;
///  * `possible` / `certain` / `conf`: `combined` holds the single certain
///    answer relation (conf results carry a trailing `conf` column);
///  * `group worlds by`: `groups` holds one entry per world group.
struct SelectEvaluation {
  std::vector<std::pair<double, Table>> per_world;
  bool truncated = false;  // per_world enumeration hit the cap

  std::optional<Table> combined;

  struct GroupResult {
    double probability = 0;  // total probability mass of the group
    Table key;               // the grouping query's answer for this group
    Table table;             // the possible/certain result within the group
  };
  std::vector<GroupResult> groups;
};

/// A set of possible worlds over a shared set of relation names, with an
/// I-SQL evaluation interface. Two implementations exist:
///
///  * ExplicitWorldSet — one materialized database per world (the textbook
///    semantics; baseline);
///  * DecomposedWorldSet — MayBMS-style world-set decomposition: a product
///    of independent components over a certain core.
///
/// All statements handed to a WorldSet must reference base relations only
/// (the session layer expands views beforehand).
class WorldSet {
 public:
  virtual ~WorldSet() = default;

  virtual std::unique_ptr<WorldSet> Clone() const = 0;

  /// Name of the representation ("explicit" / "decomposed").
  virtual std::string EngineName() const = 0;

  // ---- Introspection ----

  /// Number of worlds, saturating at uint64 max.
  virtual uint64_t NumWorlds() const = 0;

  /// log10 of the number of worlds (finite even when NumWorlds saturates).
  virtual double Log10NumWorlds() const = 0;

  virtual std::vector<std::string> RelationNames() const = 0;
  virtual bool HasRelation(const std::string& name) const = 0;

  /// Materializes up to `max_worlds` worlds (all of them if the set is
  /// smaller). Sets *truncated when the cap was hit.
  virtual Result<std::vector<World>> MaterializeWorlds(
      size_t max_worlds, bool* truncated = nullptr) const = 0;

  /// The `k` most probable worlds, in decreasing probability order.
  /// The decomposed engine computes these without enumerating the product
  /// (best-first search over per-component sorted alternatives), so this
  /// works on world-sets with astronomically many worlds.
  virtual Result<std::vector<World>> TopKWorlds(size_t k) const = 0;

  /// Draws one world at random according to the world probabilities.
  /// The decomposed engine samples each component independently — O(n)
  /// per draw regardless of the number of worlds. Basis for Monte-Carlo
  /// approximate confidence (see worlds/sampling.h), which constructs a
  /// fresh O(1)-seeded generator per sample — hence base::SplitMix64,
  /// not std::mt19937 with its 624-word init.
  virtual Result<World> SampleWorld(base::SplitMix64* rng) const = 0;

  // ---- Schema / update operations (applied to every world) ----

  /// Adds an empty base relation with the given schema to every world.
  virtual Status CreateBaseTable(const std::string& name,
                                 const Table& prototype) = 0;

  virtual Status DropRelation(const std::string& name) = 0;

  /// Executes INSERT/UPDATE/DELETE in every world. Possible-worlds update
  /// semantics per the paper: if the update violates a constraint in some
  /// world, it is discarded in all worlds (an error is returned and no
  /// world changes).
  virtual Status ApplyDml(const sql::Statement& stmt,
                          const Catalog& catalog) = 0;

  // ---- I-SQL SELECT pipeline ----

  /// Evaluates `stmt` without modifying this world-set (per the paper,
  /// plain queries are not materialized). `max_worlds` caps the size of
  /// `per_world` in the result.
  virtual Result<SelectEvaluation> EvaluateSelect(
      const sql::SelectStatement& stmt, size_t max_worlds) const = 0;

  /// Executes `create table <name> as <stmt>`: applies the statement's
  /// world operations (repair by key / choice of create worlds; assert
  /// drops worlds and renormalizes) and stores the result relation in
  /// every (surviving) world. A quantified statement without assert or
  /// group worlds by stores its combined relation in the existing worlds:
  /// its repair/choice worlds do not outlive the combination.
  virtual Status MaterializeSelect(const std::string& name,
                                   const sql::SelectStatement& stmt) = 0;

  // ---- Durable storage interchange (storage/store.h) ----

  /// Captures the world-set as an engine-neutral durable snapshot. Table
  /// instances are pointer-deduped so the copy-on-write sharing structure
  /// is preserved exactly (storage/snapshot.h).
  virtual Result<storage::DurableSnapshot> ToSnapshot() const = 0;

  /// Replaces this world-set's entire contents with the snapshot's.
  /// Probabilities are adopted verbatim — NO renormalization — so restored
  /// query results are byte-identical to pre-snapshot ones. Rejects a
  /// snapshot whose `engine` does not match EngineName().
  virtual Status FromSnapshot(const storage::DurableSnapshot& snapshot) = 0;
};

// ---- Shared helpers used by both implementations -------------------------

/// Statement-shape checks every world-set implementation applies before
/// running the I-SQL pipeline (repair/choice vs UNION combinations, a
/// plain grouping query). The error messages are part of the
/// differential-conformance surface: both engines — and every evaluation
/// path within an engine — must fail identically, so there is exactly one
/// copy of them.
Status ValidateWorldOps(const sql::SelectStatement& stmt);

/// Collects the (lower-cased) names of all relations referenced anywhere in
/// a statement: FROM clauses, subqueries in any expression, assert
/// conditions, group-worlds-by queries, and UNION branches.
void CollectReferencedRelations(const sql::SelectStatement& stmt,
                                std::set<std::string>* out);
void CollectReferencedRelations(const sql::Expr& expr,
                                std::set<std::string>* out);

/// Canonical key for group-worlds-by: the sorted distinct rows of the
/// grouping query's answer.
Table CanonicalizeGroupKey(const Table& table);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_WORLD_SET_H_
