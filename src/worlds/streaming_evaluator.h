#ifndef MAYBMS_WORLDS_STREAMING_EVALUATOR_H_
#define MAYBMS_WORLDS_STREAMING_EVALUATOR_H_

// The answer-combining tail both engines share: everything an I-SQL
// SELECT does after the per-world SQL core has produced a world's answer.
//
// An engine enumerates its (derived) worlds in its own way — the explicit
// engine walks its world vector, the decomposed engine decodes ordinals of
// the relevant sub-product — and feeds each world's (probability, answer,
// world database) to one StreamingEvaluator from ThreadPool::ParallelFor
// bodies. The evaluator then
//  * applies `assert`, exposing the statement's own answer under the
//    result name only when the condition names it;
//  * folds the survivor into a QuantifierCombiner, a
//    GroupedQuantifierCombiner (group worlds by), or the per-world listing
//    (no quantifier), keeping one accumulator per chunk;
//  * merges chunk accumulators in chunk order (EndBatch), which keeps every
//    floating-point sum, and so every output byte, independent of the
//    thread count;
//  * finishes with the statement's semantics: "assert eliminated every
//    world", renormalization over the surviving mass, and per-group
//    normalization.
//
// Nothing per-world outlives its Feed except what the result needs: the
// listing's answers (capped at `max_worlds`) and, when the caller asks for
// them, one small Survivor record per surviving world — what a
// materialization needs to commit the surviving worlds.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "worlds/combiner.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

class StreamingEvaluator {
 public:
  /// A surviving world, in feed order: the caller's tag for the world it
  /// fed, its final probability (renormalized after an assert) and, under
  /// group worlds by, the index of its group in the evaluation's `groups`.
  struct Survivor {
    uint64_t tag = 0;
    double probability = 0;
    size_t group = 0;
  };

  /// `result_name` is the name under which a world's answer is visible to
  /// the assert condition and the grouping query ("__result" for plain
  /// selects, the target for CREATE TABLE AS). `slots` sizes the per-thread
  /// plan caches (ThreadPool::Slots). The per-world listing of a
  /// quantifier-free statement keeps at most `max_worlds` answers; with
  /// `record_survivors` every survivor is also recorded for Finish.
  StreamingEvaluator(const sql::SelectStatement& stmt, std::string result_name,
                     size_t slots, size_t max_worlds,
                     bool record_survivors = false);

  /// Starts a batch: one ParallelFor over `n` worlds.
  void BeginBatch(size_t n);

  /// Folds one world. Runs on pool threads with the ParallelFor body's
  /// `slot` and `chunk`; `tag` identifies the world to the caller.
  Status Feed(size_t slot, size_t chunk, uint64_t tag, double probability,
              Table answer, const Database& world);

  /// Merges the batch's chunk accumulators in chunk order.
  Status EndBatch();

  /// The evaluation: `combined`, `groups` or `per_world`, by the statement's
  /// quantifier and grouping. With `record_survivors`, `survivors` receives
  /// one record per surviving world, aligned with `per_world` for a
  /// quantifier-free statement. Consumes the evaluator.
  Result<SelectEvaluation> Finish(std::vector<Survivor>* survivors = nullptr);

 private:
  using KeyRows = std::vector<Tuple>;

  struct Accumulator {
    std::optional<QuantifierCombiner> combiner;
    std::optional<GroupedQuantifierCombiner> grouped;
    std::vector<std::pair<double, Table>> per_world;
    // Survivors with their canonical group key (mapped to group indices
    // at Finish).
    std::vector<std::pair<Survivor, KeyRows>> survivors;
    double mass = 0;  // surviving probability mass
    size_t count = 0;  // surviving worlds
  };

  /// Folds `from` into `into` as if its worlds were fed right after.
  Status Absorb(Accumulator* into, Accumulator&& from) const;

  const sql::SelectStatement& stmt_;
  std::string result_name_;
  bool exposes_result_ = false;  // assert/grouping query names the result
  size_t max_worlds_;
  bool record_survivors_;
  std::vector<engine::SubqueryPlanCache> assert_plans_;           // per slot
  std::vector<std::optional<engine::PreparedSelect>> group_plans_;  // per slot
  std::vector<Accumulator> chunks_;
  Accumulator total_;
};

/// Enumerates the `repair by key` / `choice of` worlds derived from one
/// source world and feeds each one's answer to an evaluator, as one batch.
/// The source pipeline is planned once and the projection once per thread
/// slot; combination `c` is decoded in little-endian mixed radix over the
/// partition blocks (block 0 fastest), so derived probabilities multiply
/// in block order at every thread count. Both engines use it, each with
/// its own world cap.
class RepairChoiceFanOut {
 public:
  /// Vets the running total of derived worlds before any is emitted.
  using CapCheck = std::function<Status(uint64_t total)>;

  /// `core` is `stmt` without its world operations; both must outlive the
  /// fan-out. `schema_db` is any world (plans are schema-only).
  static Result<RepairChoiceFanOut> Prepare(const sql::SelectStatement& stmt,
                                            const sql::SelectStatement& core,
                                            const Database& schema_db,
                                            size_t threads, CapCheck cap);

  /// Derives the worlds of `world` (of probability `probability`), feeding
  /// them to `evaluator` under `tag`.
  Status Feed(const Database& world, double probability, uint64_t tag,
              StreamingEvaluator* evaluator);

 private:
  RepairChoiceFanOut(const sql::SelectStatement& stmt,
                     const sql::SelectStatement& core, size_t threads,
                     CapCheck cap, engine::PreparedFromWhere source_plan);

  const sql::SelectStatement& stmt_;
  const sql::SelectStatement& core_;
  size_t threads_;
  CapCheck cap_;
  engine::PreparedFromWhere source_plan_;
  std::vector<std::optional<engine::PreparedProjection>> projections_;
  uint64_t produced_ = 0;
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_STREAMING_EVALUATOR_H_
