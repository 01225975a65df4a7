#include "worlds/streaming_evaluator.h"

#include <limits>
#include <map>
#include <set>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/expr_eval.h"
#include "worlds/partition.h"

namespace maybms::worlds {

StreamingEvaluator::StreamingEvaluator(const sql::SelectStatement& stmt,
                                       std::string result_name, size_t slots,
                                       size_t max_worlds,
                                       bool record_survivors)
    : stmt_(stmt),
      result_name_(std::move(result_name)),
      max_worlds_(max_worlds),
      record_survivors_(record_survivors),
      assert_plans_(slots),
      group_plans_(slots) {
  // Copying a world database to expose the answer is reserved for the
  // statements that can observe it: those naming the result relation.
  std::set<std::string> refs;
  if (stmt.assert_condition) {
    CollectReferencedRelations(*stmt.assert_condition, &refs);
  }
  if (stmt.group_worlds_by) {
    CollectReferencedRelations(*stmt.group_worlds_by, &refs);
  }
  exposes_result_ = refs.count(AsciiToLower(result_name_)) > 0;
}

void StreamingEvaluator::BeginBatch(size_t n) {
  chunks_.clear();
  chunks_.resize(base::ThreadPool::NumChunks(n));
}

Status StreamingEvaluator::Feed(size_t slot, size_t chunk, uint64_t tag,
                                double probability, Table answer,
                                const Database& world) {
  std::optional<Database> extended;
  const Database* db = &world;
  if (exposes_result_) {
    extended.emplace(world);
    extended->PutRelation(result_name_, answer);
    db = &*extended;
  }
  if (stmt_.assert_condition) {
    engine::SubqueryCache cache(&assert_plans_[slot]);
    engine::EvalContext ctx{db, nullptr, nullptr, nullptr, nullptr, &cache};
    MAYBMS_ASSIGN_OR_RETURN(
        Trivalent keep, engine::EvalPredicate(*stmt_.assert_condition, ctx));
    if (keep != Trivalent::kTrue) return Status::OK();
  }

  Accumulator& acc = chunks_[chunk];
  acc.mass += probability;
  ++acc.count;
  Survivor survivor{tag, probability, 0};
  if (stmt_.group_worlds_by) {
    if (!group_plans_[slot].has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(
          group_plans_[slot],
          engine::PreparedSelect::Prepare(*stmt_.group_worlds_by, *db));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table key, group_plans_[slot]->Execute(*db));
    if (!acc.grouped.has_value()) acc.grouped.emplace(stmt_.quantifier);
    MAYBMS_RETURN_NOT_OK(acc.grouped->Feed(probability, answer, key));
    if (record_survivors_) {
      acc.survivors.emplace_back(survivor, CanonicalizeGroupKey(key).rows());
    }
    return Status::OK();
  }
  if (record_survivors_) acc.survivors.emplace_back(survivor, KeyRows());
  if (stmt_.quantifier == sql::WorldQuantifier::kNone) {
    // Survivors of earlier chunks come first, so no chunk ever needs more
    // than `max_worlds_` of its own.
    if (acc.per_world.size() < max_worlds_) {
      acc.per_world.emplace_back(probability, std::move(answer));
    }
    return Status::OK();
  }
  if (!acc.combiner.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(acc.combiner,
                            QuantifierCombiner::Create(stmt_.quantifier));
  }
  acc.combiner->Feed(probability, answer);
  return Status::OK();
}

Status StreamingEvaluator::Absorb(Accumulator* into,
                                  Accumulator&& from) const {
  if (from.combiner.has_value()) {
    if (into->combiner.has_value()) {
      into->combiner->Merge(std::move(*from.combiner));
    } else {
      into->combiner = std::move(from.combiner);
    }
  }
  if (from.grouped.has_value()) {
    if (into->grouped.has_value()) {
      MAYBMS_RETURN_NOT_OK(into->grouped->Merge(std::move(*from.grouped)));
    } else {
      into->grouped = std::move(from.grouped);
    }
  }
  for (auto& entry : from.per_world) {
    if (into->per_world.size() >= max_worlds_) break;
    into->per_world.push_back(std::move(entry));
  }
  into->survivors.insert(into->survivors.end(),
                         std::make_move_iterator(from.survivors.begin()),
                         std::make_move_iterator(from.survivors.end()));
  into->mass += from.mass;
  into->count += from.count;
  return Status::OK();
}

Status StreamingEvaluator::EndBatch() {
  for (Accumulator& chunk : chunks_) {
    MAYBMS_RETURN_NOT_OK(Absorb(&total_, std::move(chunk)));
  }
  chunks_.clear();
  return Status::OK();
}

Result<SelectEvaluation> StreamingEvaluator::Finish(
    std::vector<Survivor>* survivors) {
  if (stmt_.assert_condition && total_.count == 0) {
    return Status::EmptyWorldSet("assert eliminated every world");
  }
  // Fed weights are pre-assert probabilities: renormalize over the
  // surviving mass. (Survivors have positive probability, so the mass is
  // positive whenever a world survived.)
  const double normalizer = stmt_.assert_condition ? total_.mass : 1.0;

  SelectEvaluation eval;
  if (stmt_.group_worlds_by) {
    if (total_.grouped.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(eval.groups, total_.grouped->Finish());
    }
  } else if (stmt_.quantifier != sql::WorldQuantifier::kNone) {
    if (!total_.combiner.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(total_.combiner,
                              QuantifierCombiner::Create(stmt_.quantifier));
    }
    MAYBMS_ASSIGN_OR_RETURN(eval.combined,
                            total_.combiner->Finish(normalizer));
  } else {
    eval.per_world = std::move(total_.per_world);
    eval.truncated = total_.count > eval.per_world.size();
    // O(1)-per-world arithmetic over an already-governed enumeration.
    // maybms-lint: allow(ungoverned-world-loop)
    for (auto& entry : eval.per_world) entry.first /= normalizer;
  }

  if (survivors != nullptr) {
    // Groups are emitted in canonical key order: map keys to indices.
    std::map<KeyRows, size_t> group_index;
    for (size_t g = 0; g < eval.groups.size(); ++g) {
      group_index.emplace(eval.groups[g].key.rows(), g);
    }
    survivors->clear();
    survivors->reserve(total_.survivors.size());
    for (auto& [survivor, key] : total_.survivors) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      survivor.probability /= normalizer;
      if (stmt_.group_worlds_by) survivor.group = group_index.at(key);
      survivors->push_back(survivor);
    }
  }
  return eval;
}

Result<RepairChoiceFanOut> RepairChoiceFanOut::Prepare(
    const sql::SelectStatement& stmt, const sql::SelectStatement& core,
    const Database& schema_db, size_t threads, CapCheck cap) {
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                          engine::PreparedFromWhere::Prepare(stmt, schema_db));
  // Projections lazily build subquery-plan caches during Execute, so each
  // thread slot owns one (base/thread_pool.h rule 3). Slot 0's is
  // prepared here so preparation errors surface before any world runs;
  // preparation is schema-only, so a lazy slot>0 preparation cannot fail.
  MAYBMS_ASSIGN_OR_RETURN(
      engine::PreparedProjection projection,
      engine::PreparedProjection::Prepare(core, schema_db,
                                          source_plan.output_schema()));
  RepairChoiceFanOut fan_out(stmt, core, threads, std::move(cap),
                             std::move(source_plan));
  fan_out.projections_[0].emplace(std::move(projection));
  return fan_out;
}

RepairChoiceFanOut::RepairChoiceFanOut(const sql::SelectStatement& stmt,
                                       const sql::SelectStatement& core,
                                       size_t threads, CapCheck cap,
                                       engine::PreparedFromWhere source_plan)
    : stmt_(stmt),
      core_(core),
      threads_(threads),
      cap_(std::move(cap)),
      source_plan_(std::move(source_plan)),
      projections_(base::ThreadPool::Shared().Slots(threads)) {}

Status RepairChoiceFanOut::Feed(const Database& world, double probability,
                                uint64_t tag, StreamingEvaluator* evaluator) {
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan_.Execute(world));
  std::vector<PartitionBlock> blocks;
  if (stmt_.repair.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt_.repair));
  } else {
    MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt_.choice));
  }
  // An empty block list (repair of an empty relation) yields exactly the
  // single empty combination.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t combos = 1;
  for (const PartitionBlock& block : blocks) {
    const uint64_t n = block.choices.size();
    combos = n != 0 && combos > kMax / n ? kMax : combos * n;
  }
  MAYBMS_RETURN_NOT_OK(cap_(combos > kMax - produced_ ? kMax
                                                      : produced_ + combos));
  produced_ += combos;
  // Fan-out is THE world-budget charge site: `combos` derived worlds come
  // into existence here whatever consumes them.
  MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(combos));

  evaluator->BeginBatch(static_cast<size_t>(combos));
  MAYBMS_RETURN_NOT_OK(base::ThreadPool::Shared().ParallelFor(
      static_cast<size_t>(combos), threads_,
      [&](size_t c, size_t slot, size_t chunk) -> Status {
        if (!projections_[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              projections_[slot],
              engine::PreparedProjection::Prepare(
                  core_, world, source_plan_.output_schema()));
        }
        double prob = probability;
        std::vector<Tuple> chosen;
        uint64_t rem = c;
        for (const PartitionBlock& block : blocks) {
          const WeightedChoice& choice =
              block.choices[static_cast<size_t>(rem % block.choices.size())];
          rem /= block.choices.size();
          prob *= choice.probability;
          for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
        }
        MAYBMS_ASSIGN_OR_RETURN(Table answer,
                                projections_[slot]->Execute(world, chosen));
        // Memory-budget charge for the derived world's answer.
        MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
            answer.num_rows(), answer.schema().num_columns())));
        return evaluator->Feed(slot, chunk, tag, prob, std::move(answer),
                               world);
      }));
  return evaluator->EndBatch();
}

}  // namespace maybms::worlds
