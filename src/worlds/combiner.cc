#include "worlds/combiner.h"

#include <algorithm>
#include <utility>

#include "types/value.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

QuantifierCombiner::QuantifierCombiner(sql::WorldQuantifier quantifier)
    : quantifier_(quantifier) {}

Result<QuantifierCombiner> QuantifierCombiner::Create(
    sql::WorldQuantifier quantifier) {
  switch (quantifier) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain:
    case sql::WorldQuantifier::kConf:
      return QuantifierCombiner(quantifier);
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

void QuantifierCombiner::Feed(double probability, const Table& table) {
  ++worlds_fed_;
  if (!saw_schema_) {
    first_schema_ = table.schema();
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 && table.schema().num_columns() > 0) {
    value_schema_ = table.schema();
  }
  if (quantifier_ == sql::WorldQuantifier::kConf && !table.empty()) {
    nonempty_prob_ += probability;
  }
  for (const Tuple& row : table.rows()) {
    auto [it, inserted] = acc_.try_emplace(row);
    Accum& entry = it->second;
    if (!inserted && entry.last_world == worlds_fed_) continue;  // in-world dup
    entry.last_world = worlds_fed_;
    ++entry.worlds_seen;
    entry.conf += probability;
  }
}

void QuantifierCombiner::Merge(QuantifierCombiner&& other) {
  if (!saw_schema_ && other.saw_schema_) {
    first_schema_ = std::move(other.first_schema_);
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 &&
      other.value_schema_.num_columns() > 0) {
    value_schema_ = std::move(other.value_schema_);
  }
  nonempty_prob_ += other.nonempty_prob_;
  // `other`'s worlds come after ours in the merged ordinal space, so its
  // 1-based last_world stamps shift by our pre-merge worlds_fed_. The
  // shifted stamp is always the newer one (> worlds_fed_ >= any existing
  // stamp), which keeps in-world dup detection correct for future Feeds.
  const size_t shift = worlds_fed_;
  for (auto& [row, entry] : other.acc_) {
    auto [it, inserted] = acc_.try_emplace(row);
    Accum& mine = it->second;
    mine.conf += entry.conf;
    mine.worlds_seen += entry.worlds_seen;
    mine.last_world = entry.last_world + shift;
  }
  worlds_fed_ += other.worlds_fed_;
}

Result<Table> QuantifierCombiner::Finish(double normalizer) {
  // Zero total surviving mass (assert killed every world, or every sample
  // weight was 0) has no well-defined conf distribution — fail cleanly
  // instead of emitting NaN confidences. possible/certain never divide.
  if (quantifier_ == sql::WorldQuantifier::kConf && !(normalizer > 0)) {
    return Status::EmptyWorldSet(
        "conf is undefined over zero total probability mass");
  }
  // Deterministic emission order: the tuple total order.
  std::vector<std::pair<const Tuple*, const Accum*>> ordered;
  ordered.reserve(acc_.size());
  for (const auto& [row, entry] : acc_) {
    if (quantifier_ == sql::WorldQuantifier::kCertain &&
        entry.worlds_seen != worlds_fed_) {
      continue;  // missed at least one world
    }
    ordered.emplace_back(&row, &entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  switch (quantifier_) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain: {
      if (!saw_schema_) return Table();  // no worlds fed
      Table out(first_schema_);
      for (const auto& e : ordered) out.AppendUnchecked(*e.first);
      return out;
    }
    case sql::WorldQuantifier::kConf: {
      // 0-column answers: confidence that the answer is non-empty.
      if (value_schema_.num_columns() == 0) {
        Schema schema;
        schema.AddColumn(Column("conf", DataType::kReal));
        Table out(std::move(schema));
        out.AppendUnchecked(Tuple({Value::Real(nonempty_prob_ / normalizer)}));
        return out;
      }
      Schema schema = value_schema_;
      schema.AddColumn(Column("conf", DataType::kReal));
      Table out(std::move(schema));
      for (const auto& e : ordered) {
        Tuple extended = *e.first;
        extended.Append(Value::Real(e.second->conf / normalizer));
        out.AppendUnchecked(std::move(extended));
      }
      return out;
    }
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

GroupedQuantifierCombiner::GroupedQuantifierCombiner(
    sql::WorldQuantifier quantifier)
    : quantifier_(quantifier) {}

Status GroupedQuantifierCombiner::Feed(double probability, const Table& answer,
                                       const Table& group_key_answer) {
  Table canonical = CanonicalizeGroupKey(group_key_answer);
  auto it = groups_.find(canonical.rows());
  if (it == groups_.end()) {
    // Create the combiner BEFORE inserting the group entry: a kNone
    // quantifier must fail without leaving a combinerless GroupAccum
    // behind for Finish() to trip over.
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                            QuantifierCombiner::Create(quantifier_));
    GroupAccum fresh;
    fresh.combiner.emplace(std::move(combiner));
    it = groups_.emplace(canonical.rows(), std::move(fresh)).first;
    it->second.key_table = std::move(canonical);
  }
  GroupAccum& group = it->second;
  group.combiner->Feed(probability, answer);
  group.mass += probability;
  total_mass_ += probability;
  ++worlds_fed_;
  return Status::OK();
}

Status GroupedQuantifierCombiner::Merge(GroupedQuantifierCombiner&& other) {
  for (auto& [key, group] : other.groups_) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                              QuantifierCombiner::Create(quantifier_));
      GroupAccum fresh;
      fresh.combiner.emplace(std::move(combiner));
      it = groups_.emplace(key, std::move(fresh)).first;
      it->second.key_table = std::move(group.key_table);
    }
    it->second.combiner->Merge(std::move(*group.combiner));
    it->second.mass += group.mass;
  }
  total_mass_ += other.total_mass_;
  worlds_fed_ += other.worlds_fed_;
  return Status::OK();
}

Result<std::vector<SelectEvaluation::GroupResult>>
GroupedQuantifierCombiner::Finish() {
  std::vector<SelectEvaluation::GroupResult> out;
  out.reserve(groups_.size());
  for (auto& [key, group] : groups_) {
    MAYBMS_ASSIGN_OR_RETURN(
        Table combined,
        group.combiner->Finish(group.mass > 0 ? group.mass : 1.0));
    out.push_back(SelectEvaluation::GroupResult{
        total_mass_ > 0 ? group.mass / total_mass_ : 0,
        std::move(group.key_table), std::move(combined)});
  }
  return out;
}

}  // namespace maybms::worlds
