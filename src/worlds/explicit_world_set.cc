#include "worlds/explicit_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "engine/prepared.h"
#include "worlds/streaming_evaluator.h"

namespace maybms::worlds {

std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt) {
  std::unique_ptr<sql::SelectStatement> core = stmt.Clone();
  core->quantifier = sql::WorldQuantifier::kNone;
  core->repair.reset();
  core->choice.reset();
  core->assert_condition.reset();
  core->group_worlds_by.reset();
  return core;
}

ExplicitWorldSet::ExplicitWorldSet(size_t max_worlds, size_t threads)
    : max_worlds_(max_worlds), threads_(threads) {
  worlds_.emplace_back(Database(), 1.0);
}

std::unique_ptr<WorldSet> ExplicitWorldSet::Clone() const {
  return std::make_unique<ExplicitWorldSet>(*this);
}

double ExplicitWorldSet::Log10NumWorlds() const {
  return std::log10(static_cast<double>(worlds_.size()));
}

std::vector<std::string> ExplicitWorldSet::RelationNames() const {
  return worlds_.empty() ? std::vector<std::string>{}
                         : worlds_.front().db.RelationNames();
}

bool ExplicitWorldSet::HasRelation(const std::string& name) const {
  return !worlds_.empty() && worlds_.front().db.HasRelation(name);
}

Result<std::vector<World>> ExplicitWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  if (truncated != nullptr) *truncated = worlds_.size() > max_worlds;
  if (worlds_.size() <= max_worlds) return worlds_;
  return std::vector<World>(worlds_.begin(), worlds_.begin() + max_worlds);
}

Result<std::vector<World>> ExplicitWorldSet::TopKWorlds(size_t k) const {
  std::vector<size_t> order(worlds_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return worlds_[a].probability > worlds_[b].probability;
  });
  std::vector<World> top;
  top.reserve(std::min(k, order.size()));
  for (size_t i = 0; i < order.size() && top.size() < k; ++i) {
    // Same budget semantics as the decomposed engine: one charge per
    // enumerated world, so which engine holds the data cannot change
    // whether a statement fits its world budget.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    top.push_back(worlds_[order[i]]);
  }
  return top;
}

Result<World> ExplicitWorldSet::SampleWorld(base::SplitMix64* rng) const {
  if (worlds_.empty()) return Status::EmptyWorldSet("no worlds to sample");
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double u = uniform(*rng);
  double cumulative = 0;
  for (const World& world : worlds_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    cumulative += world.probability;
    if (u <= cumulative) return world;
  }
  return worlds_.back();  // numeric slack
}

Status ExplicitWorldSet::CreateBaseTable(const std::string& name,
                                         const Table& prototype) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  // One shared instance for every world: the relation starts out
  // identical everywhere, so storing it is W handle bumps, not W copies.
  // The first world that mutates it clones its own copy (COW).
  auto shared = std::make_shared<Table>(prototype);
  // One poll BEFORE the loop, none inside: each iteration is an O(1)
  // handle bump, and aborting mid-loop would leave the relation present
  // in some worlds only — a cancellation point must never tear state.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  for (World& world : worlds_) world.db.PutRelation(name, shared);
  return Status::OK();
}

Status ExplicitWorldSet::DropRelation(const std::string& name) {
  if (!HasRelation(name)) {
    return Status::NotFound("relation not found: " + name);
  }
  // Poll before the loop only: dropping from a prefix of the worlds and
  // then aborting would tear the set (see CreateBaseTable).
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  for (World& world : worlds_) {
    MAYBMS_RETURN_NOT_OK(world.db.DropRelation(name));
  }
  return Status::OK();
}

Status ExplicitWorldSet::ApplyDml(const sql::Statement& stmt,
                                  const Catalog& catalog) {
  // Possible-worlds update semantics (paper §2): the update must commit
  // in every world or in none. Snapshot/rollback commit protocol: each
  // world's post-statement database is computed against a copy-on-write
  // snapshot (O(#relations) handle bumps; only the statement's target
  // relation is rewritten, every untouched relation stays shared with the
  // live world) and recorded in a commit log. The log is swapped into
  // `worlds_` only after every world succeeded; any per-world failure
  // (e.g. a constraint violation) simply drops the log, leaving the set
  // untouched — the PR 1 atomicity guarantee without copying unchanged
  // relations.
  //
  // Snapshots are computed in parallel; each world is touched by exactly
  // one thread and the live set is read-only until the final swap. When
  // several worlds fail, the error of the smallest world index is
  // reported (ThreadPool rule 2) — the same error the sequential loop
  // hit first, so rollback behavior is deterministic at any thread count.
  if (worlds_.empty()) return Status::OK();
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // The statement is planned once per thread slot (column resolution,
  // INSERT ... SELECT preparation, subquery analysis) against one world's
  // schemas — identical in every world — and only executed per world.
  // Slot 0 prepares eagerly so preparation errors surface before any
  // world executes, exactly as in the sequential code.
  std::vector<std::optional<engine::PreparedDml>> plans(pool.Slots(threads_));
  MAYBMS_ASSIGN_OR_RETURN(
      plans[0], engine::PreparedDml::Prepare(stmt, worlds_[0].db, &catalog));
  std::vector<Database> commit_log(worlds_.size());
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      worlds_.size(), threads_,
      [&](size_t i, size_t slot, size_t /*chunk*/) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot],
              engine::PreparedDml::Prepare(stmt, worlds_[i].db, &catalog));
        }
        Database snapshot = worlds_[i].db;  // shares every table handle
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&snapshot));
        commit_log[i] = std::move(snapshot);
        return Status::OK();
      }));
  for (size_t i = 0; i < worlds_.size(); ++i) {
    worlds_[i].db = std::move(commit_log[i]);
  }
  return Status::OK();
}

void ExplicitWorldSet::SetWorlds(std::vector<World> worlds) {
  // Pure O(1)-per-world arithmetic over an already-materialized vector
  // (whose construction was the governed, charged part), and the whole
  // normalize-and-swap must be atomic — aborting between the two loops
  // would install half-normalized probabilities.
  double total = 0;
  // maybms-lint: allow(ungoverned-world-loop)
  for (const World& w : worlds) total += w.probability;
  if (total > 0) {
    // maybms-lint: allow(ungoverned-world-loop)
    for (World& w : worlds) w.probability /= total;
  }
  worlds_ = std::move(worlds);
}

Status ExplicitWorldSet::StreamAnswers(const sql::SelectStatement& stmt,
                                       StreamingEvaluator* evaluator) const {
  if (worlds_.empty()) return Status::OK();
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  // Statements are planned once per thread slot (all worlds share one
  // schema catalog; see engine/prepared.h) and executed per world; only
  // scans, joins and predicate evaluation repeat.
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(
        RepairChoiceFanOut fan_out,
        RepairChoiceFanOut::Prepare(
            stmt, *core, worlds_[0].db, threads_, [&](uint64_t total) {
              if (total <= max_worlds_) return Status::OK();
              return Status::Unsupported(
                  "explicit world-set would exceed the configured cap of " +
                  std::to_string(max_worlds_) +
                  " worlds; use the decomposed engine");
            }));
    // Input worlds advance strictly in sequence, so errors interleave
    // (world i's combinations before world i+1's partition) as in a
    // sequential walk.
    for (size_t i = 0; i < worlds_.size(); ++i) {
      MAYBMS_RETURN_NOT_OK(fan_out.Feed(worlds_[i].db, worlds_[i].probability,
                                        i, evaluator));
    }
    return Status::OK();
  }
  base::ThreadPool& pool = base::ThreadPool::Shared();
  const size_t n = worlds_.size();
  std::vector<std::optional<engine::PreparedSelect>> plans(
      pool.Slots(threads_));
  MAYBMS_ASSIGN_OR_RETURN(
      plans[0], engine::PreparedSelect::Prepare(*core, worlds_[0].db));
  evaluator->BeginBatch(n);
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      n, threads_, [&](size_t i, size_t slot, size_t chunk) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedSelect::Prepare(*core,
                                                           worlds_[i].db));
        }
        MAYBMS_ASSIGN_OR_RETURN(Table answer,
                                plans[slot]->Execute(worlds_[i].db));
        MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
            answer.num_rows(), answer.schema().num_columns())));
        return evaluator->Feed(slot, chunk, i, worlds_[i].probability,
                               std::move(answer), worlds_[i].db);
      }));
  return evaluator->EndBatch();
}

Result<SelectEvaluation> ExplicitWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  StreamingEvaluator evaluator(stmt, "__result",
                               base::ThreadPool::Shared().Slots(threads_),
                               max_worlds);
  MAYBMS_RETURN_NOT_OK(StreamAnswers(stmt, &evaluator));
  return evaluator.Finish();
}

Status ExplicitWorldSet::MaterializeSelect(const std::string& name,
                                           const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  // Compute, then commit: the live worlds are only read until the final
  // swap, so a mid-statement error (e.g. `choice of` over an empty
  // relation, or the world cap) leaves the world-set untouched.
  const bool quantified = stmt.quantifier != sql::WorldQuantifier::kNone;
  const bool keeps_worlds =
      !quantified || stmt.assert_condition || stmt.group_worlds_by;
  StreamingEvaluator evaluator(
      stmt, name, base::ThreadPool::Shared().Slots(threads_),
      std::numeric_limits<size_t>::max(), keeps_worlds);
  MAYBMS_RETURN_NOT_OK(StreamAnswers(stmt, &evaluator));
  std::vector<StreamingEvaluator::Survivor> survivors;
  MAYBMS_ASSIGN_OR_RETURN(
      SelectEvaluation eval,
      evaluator.Finish(keeps_worlds ? &survivors : nullptr));

  // A quantified answer is one certain relation: shared by every world
  // that stores it (handle bumps, not row copies).
  std::shared_ptr<const Table> combined;
  if (eval.combined.has_value()) {
    combined = std::make_shared<const Table>(std::move(*eval.combined));
  }
  if (!keeps_worlds) {
    // No assert, no grouping: the combined relation lands in the existing
    // worlds; repair/choice worlds never outlive the combination.
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    for (World& world : worlds_) world.db.PutRelation(name, combined);
    return Status::OK();
  }
  std::vector<std::shared_ptr<const Table>> group_tables;
  for (auto& group : eval.groups) {
    group_tables.push_back(
        std::make_shared<const Table>(std::move(group.table)));
  }
  std::vector<World> next;
  next.reserve(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    const StreamingEvaluator::Survivor& s = survivors[i];
    World derived(worlds_[s.tag].db, s.probability);
    if (stmt.group_worlds_by) {
      derived.db.PutRelation(name, group_tables[s.group]);
    } else if (combined != nullptr) {
      derived.db.PutRelation(name, combined);
    } else {
      derived.db.PutRelation(name, std::move(eval.per_world[i].second));
    }
    next.push_back(std::move(derived));
  }
  worlds_ = std::move(next);
  return Status::OK();
}

Result<storage::DurableSnapshot> ExplicitWorldSet::ToSnapshot() const {
  storage::DurableSnapshot snapshot;
  snapshot.engine = EngineName();
  // Pointer-dedupe: every distinct shared instance appears once in
  // `tables`, so worlds that share a relation instance keep sharing it on
  // disk and after restore.
  std::map<const Table*, size_t> index;
  snapshot.worlds.reserve(worlds_.size());
  for (const World& world : worlds_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    storage::DurableSnapshot::WorldRef world_ref;
    world_ref.probability = world.probability;
    for (const std::string& name : world.db.RelationNames()) {
      MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                              world.db.GetRelationHandle(name));
      auto [it, inserted] = index.emplace(handle.get(), snapshot.tables.size());
      if (inserted) snapshot.tables.push_back(std::move(handle));
      world_ref.relations.push_back({name, it->second});
    }
    snapshot.worlds.push_back(std::move(world_ref));
  }
  return snapshot;
}

Status ExplicitWorldSet::FromSnapshot(
    const storage::DurableSnapshot& snapshot) {
  if (snapshot.engine != EngineName()) {
    return Status::InvalidArgument(
        "cannot restore a '" + snapshot.engine +
        "' snapshot into the explicit engine");
  }
  if (snapshot.worlds.empty()) {
    return Status::InvalidArgument(
        "explicit snapshot restore: snapshot has no worlds");
  }
  std::vector<World> worlds;
  worlds.reserve(snapshot.worlds.size());
  for (const auto& world_ref : snapshot.worlds) {
    // Restore builds into a local vector and swaps at the end, so a poll
    // aborting here leaves the live set untouched. (The post-commit
    // reload in isql::Session runs SHIELDED — QueryContextScope(nullptr)
    // — so a fired deadline can never abort it; see PersistAndReload.)
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    World world;
    world.probability = world_ref.probability;
    for (const auto& relation : world_ref.relations) {
      if (relation.table_index >= snapshot.tables.size()) {
        return Status::DataLoss(
            "explicit snapshot restore: table index out of range");
      }
      world.db.PutRelation(relation.name,
                           snapshot.tables[relation.table_index]);
    }
    worlds.push_back(std::move(world));
  }
  // Adopt probabilities verbatim — NOT SetWorlds, whose renormalization
  // could perturb the doubles and break byte-identical restored results.
  worlds_ = std::move(worlds);
  return Status::OK();
}

}  // namespace maybms::worlds
