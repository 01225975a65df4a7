#ifndef MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
#define MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "worlds/world_set.h"

namespace maybms::worlds {

class StreamingEvaluator;

/// The textbook possible-worlds representation: every world is a fully
/// materialized database. Doubles as the semantic reference implementation
/// (differential tests) and the benchmark baseline against the
/// decomposition-based engine.
///
/// World creation (`repair by key`, `choice of`) multiplies the number of
/// materialized databases, so the total world count is capped; exceeding
/// the cap is an error directing users to the decomposed engine.
///
/// Per-world work (the SQL core, the shared streaming evaluator of
/// worlds/streaming_evaluator.h, DML snapshots) runs on the shared chunked
/// thread pool (base/thread_pool.h).
/// `threads` caps the parallelism (0 = MAYBMS_THREADS / hardware);
/// results and errors are byte-identical at every thread count.
class ExplicitWorldSet : public WorldSet {
 public:
  static constexpr size_t kDefaultMaxWorlds = 1 << 20;

  explicit ExplicitWorldSet(size_t max_worlds = kDefaultMaxWorlds,
                            size_t threads = 0);

  std::unique_ptr<WorldSet> Clone() const override;
  std::string EngineName() const override { return "explicit"; }

  uint64_t NumWorlds() const override { return worlds_.size(); }
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

  /// Direct access for tests and the formatter.
  const std::vector<World>& worlds() const { return worlds_; }

  /// Replaces the worlds wholesale (test setup helper). Probabilities are
  /// normalized to sum to one.
  void SetWorlds(std::vector<World> worlds);

 private:
  /// Runs the statement's SQL core in every world (fanning each out into
  /// its repair-by-key / choice-of worlds first) and feeds every answer to
  /// `evaluator`. Read-only.
  Status StreamAnswers(const sql::SelectStatement& stmt,
                       StreamingEvaluator* evaluator) const;

  std::vector<World> worlds_;
  size_t max_worlds_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

/// Returns a copy of `stmt` with all world-set operations removed, leaving
/// the per-world SQL core (select list, from, where, grouping, ordering,
/// union). Shared by both world-set implementations.
std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_EXPLICIT_WORLD_SET_H_
