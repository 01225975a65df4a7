#ifndef MAYBMS_WORLDS_COMBINER_H_
#define MAYBMS_WORLDS_COMBINER_H_

// Streaming world-combination for possible / certain / conf.
//
// The paper's world-set algebra only ever needs tuple-level accumulation:
// a tuple's confidence is the sum of the probabilities of the worlds whose
// answer contains it, a tuple is certain iff every world's answer contains
// it, possible iff some world's does. There is no need to keep every
// per-world answer materialized until the last world has been evaluated.
//
// QuantifierCombiner exploits that: it is fed one world at a time and
// maintains a single hash map from answer tuple to accumulated state, so
// each per-world answer can be discarded the moment it has been fed.
// Total cost is O(total answer tuples) expected plus one O(D log D) sort
// of the D distinct output tuples at the end.
//
// Tuple identity follows the rules documented in world_set.h: tuples hash
// and compare under Value's total order (Tuple::Hash / Tuple::Compare),
// where NULL is a plain value (two NULL answer fields are identical for
// world-combination purposes) and numerics are type-tagged consistently
// (Integer(1) and Real(1.0) coincide). Output order is deterministic:
// rows are emitted sorted by that total order. The set-based reference
// combinators in tests/ pin these semantics on randomized inputs
// (tests/combiner_property_test.cc).

#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "types/tuple.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// Streaming accumulator for one possible/certain/conf combination.
///
/// Usage:
///   MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner c,
///                           QuantifierCombiner::Create(quantifier));
///   for (world : worlds) c.Feed(world.probability, result_of(world));
///   MAYBMS_ASSIGN_OR_RETURN(Table combined, c.Finish(total_probability));
///
/// Feed weights may be unnormalized (e.g. pre-assert probabilities or
/// Monte-Carlo sample counts); Finish(normalizer) divides accumulated
/// confidences by `normalizer`. Pass 1.0 when the fed weights already sum
/// to one. possible/certain ignore the weights entirely.
class QuantifierCombiner {
 public:
  /// Rejects WorldQuantifier::kNone ("group worlds by requires possible,
  /// certain, or conf").
  static Result<QuantifierCombiner> Create(sql::WorldQuantifier quantifier);

  QuantifierCombiner(QuantifierCombiner&&) = default;
  QuantifierCombiner& operator=(QuantifierCombiner&&) = default;

  /// Folds one world's answer into the accumulator. `table` may be
  /// destroyed immediately after the call. Duplicate rows within one
  /// world's answer count once (set semantics across worlds).
  void Feed(double probability, const Table& table);

  /// Number of worlds fed so far.
  size_t worlds_fed() const { return worlds_fed_; }

  /// Absorbs `other` (a combiner for the SAME quantifier) as if its
  /// worlds had been fed to this combiner immediately after this
  /// combiner's own worlds, in `other`'s feed order. This is the parallel
  /// merge: per-chunk combiners are merged in chunk-index order, which
  /// keeps every accumulation order — and therefore every output byte —
  /// independent of the thread count (see base/thread_pool.h).
  /// Consumes `other`.
  void Merge(QuantifierCombiner&& other);

  /// Emits the combined relation, sorted by tuple total order. Consumes
  /// the combiner.
  /// A conf combination with `normalizer` <= 0 (zero total surviving
  /// mass) is an error, never NaN confidences.
  Result<Table> Finish(double normalizer = 1.0);

 private:
  explicit QuantifierCombiner(sql::WorldQuantifier quantifier);

  struct Accum {
    double conf = 0;          // conf: accumulated probability mass
    size_t worlds_seen = 0;   // certain: worlds whose answer contains it
    size_t last_world = 0;    // 1-based ordinal of the last feeding world
  };

  sql::WorldQuantifier quantifier_;
  size_t worlds_fed_ = 0;
  std::unordered_map<Tuple, Accum, TupleHash> acc_;
  Schema value_schema_;        // first fed schema with > 0 columns
  bool saw_schema_ = false;    // any table fed (possible/certain schema)
  Schema first_schema_;        // schema of the very first fed table
  double nonempty_prob_ = 0;   // conf, 0-column answers: P(non-empty)
};

/// Streaming accumulator for `group worlds by`: one QuantifierCombiner
/// per distinct (canonicalized) group key, fed unnormalized world
/// probabilities; Finish() normalizes within each group and emits groups
/// in the deterministic total order of their canonical key rows. Used by
/// the engines' shared StreamingEvaluator (worlds/streaming_evaluator.h),
/// so normalization and emission order cannot drift between engines.
class GroupedQuantifierCombiner {
 public:
  /// kNone is rejected at the first Feed, with the same error the
  /// per-group QuantifierCombiner::Create produces.
  explicit GroupedQuantifierCombiner(sql::WorldQuantifier quantifier);

  /// Folds one world: `group_key_answer` is the raw grouping-query
  /// answer (canonicalized here via CanonicalizeGroupKey), `answer` the
  /// world's statement answer. Both may be destroyed after the call.
  /// `probability` may be unnormalized (e.g. pre-assert mass).
  Status Feed(double probability, const Table& answer,
              const Table& group_key_answer);

  /// Worlds fed so far. Callers apply assert filtering *before* Feed, so
  /// this doubles as the survivor count.
  size_t worlds_fed() const { return worlds_fed_; }

  /// Absorbs `other` (same quantifier) as if its worlds had been fed
  /// right after this combiner's own, per group key — the grouped
  /// counterpart of QuantifierCombiner::Merge, with the same chunk-order
  /// determinism contract. Consumes `other`.
  Status Merge(GroupedQuantifierCombiner&& other);

  /// One GroupResult per distinct key: probability = group mass / total
  /// fed mass, relation combined under the quantifier with weights
  /// normalized within the group. Consumes the combiner.
  Result<std::vector<SelectEvaluation::GroupResult>> Finish();

 private:
  struct GroupAccum {
    double mass = 0;
    Table key_table;
    std::optional<QuantifierCombiner> combiner;
  };

  sql::WorldQuantifier quantifier_;
  size_t worlds_fed_ = 0;
  double total_mass_ = 0;
  std::map<std::vector<Tuple>, GroupAccum> groups_;
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMBINER_H_
