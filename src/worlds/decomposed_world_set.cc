#include "worlds/decomposed_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <random>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "worlds/explicit_world_set.h"
#include "worlds/partition.h"
#include "worlds/streaming_evaluator.h"

namespace maybms::worlds {

namespace {

/// Key under which pipeline results are stored in new components before a
/// materialization assigns the real relation name.
const char kResultKey[] = "__result";

bool ContainsSubquery(const sql::Expr& expr) {
  switch (expr.kind) {
    case sql::ExprKind::kExists:
    case sql::ExprKind::kInSubquery:
    case sql::ExprKind::kScalarSubquery:
      return true;
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kColumnRef:
      return false;
    case sql::ExprKind::kUnary:
      return ContainsSubquery(
          *static_cast<const sql::UnaryExpr&>(expr).operand);
    case sql::ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return ContainsSubquery(*b.left) || ContainsSubquery(*b.right);
    }
    case sql::ExprKind::kFunctionCall: {
      const auto& f = static_cast<const sql::FunctionCallExpr&>(expr);
      for (const auto& a : f.args) {
        if (ContainsSubquery(*a)) return true;
      }
      return false;
    }
    case sql::ExprKind::kIsNull:
      return ContainsSubquery(
          *static_cast<const sql::IsNullExpr&>(expr).operand);
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      if (ContainsSubquery(*in.operand)) return true;
      for (const auto& i : in.items) {
        if (ContainsSubquery(*i)) return true;
      }
      return false;
    }
    case sql::ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(expr);
      return ContainsSubquery(*b.operand) || ContainsSubquery(*b.low) ||
             ContainsSubquery(*b.high);
    }
    case sql::ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      for (const auto& w : c.whens) {
        if (ContainsSubquery(*w.condition) || ContainsSubquery(*w.result)) {
          return true;
        }
      }
      return c.else_result && ContainsSubquery(*c.else_result);
    }
    case sql::ExprKind::kCast:
      return ContainsSubquery(
          *static_cast<const sql::CastExpr&>(expr).operand);
  }
  return false;
}

/// Filters `rows` (over the projection's qualified source schema) by the
/// statement's WHERE clause and projects them through the prepared select
/// list. The fast path guarantees there are no subqueries, so `db` is only
/// a formality for the evaluation context; `where_plans` shares what
/// little subquery analysis there is across the per-alternative calls.
Result<std::vector<Tuple>> FilterProjectRows(
    const sql::SelectStatement& core, const Database& db, const Schema& schema,
    const std::vector<Tuple>& rows, engine::PreparedProjection& projection,
    engine::SubqueryPlanCache* where_plans) {
  std::vector<Tuple> kept;
  kept.reserve(rows.size());
  engine::SubqueryCache subquery_cache(where_plans);
  for (const Tuple& row : rows) {
    if (core.where) {
      engine::EvalContext ctx{&db,     &schema, &row,
                              nullptr, nullptr, &subquery_cache};
      MAYBMS_ASSIGN_OR_RETURN(Trivalent keep,
                              engine::EvalPredicate(*core.where, ctx));
      if (keep != Trivalent::kTrue) continue;
    }
    kept.push_back(row);
  }
  MAYBMS_ASSIGN_OR_RETURN(Table projected, projection.Execute(db, kept));
  return std::move(*projected.mutable_rows());
}

/// Builds the database of one local world: the certain core plus the
/// contributions of the chosen alternatives. Copying the core is
/// O(#relations) handle bumps; only the relations the choice contributes
/// to are cloned (by the copy-on-write MutableRelation) — every untouched
/// relation stays shared with the core and every other local world.
Database BuildLocalDatabase(const Database& certain,
                            const std::vector<const Alternative*>& chosen) {
  Database db = certain;
  for (const Alternative* alt : chosen) {
    for (const auto& [rel, tuples] : alt->tuples) {
      auto table = db.MutableRelation(rel);
      if (!table.ok()) continue;  // relation dropped; stale contribution
      for (const Tuple& t : tuples) (*table)->AppendUnchecked(t);
    }
  }
  return db;
}

/// True when `a` and `b` hold the same rows in the same order, with
/// values of the same types (Tuple equality alone equates 1 and 1.0).
bool SameRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const Value& x = a[i].value(j);
      const Value& y = b[i].value(j);
      if (x.type() != y.type() || !(x == y)) return false;
    }
  }
  return true;
}

/// Per involved component, each alternative's (probability, contribution
/// to the answer).
using ContributionView =
    std::vector<std::vector<std::pair<double, const std::vector<Tuple>*>>>;

/// possible / certain / conf of a decomposed result by per-component math,
/// without enumerating worlds.
Result<Table> CombineClosedForm(sql::WorldQuantifier quantifier,
                                const Schema& schema,
                                const std::vector<Tuple>& certain_rows,
                                const ContributionView& parts) {
  if (quantifier == sql::WorldQuantifier::kPossible) {
    Table result(schema);
    for (const Tuple& t : certain_rows) result.AppendUnchecked(t);
    for (const auto& part : parts) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      for (const auto& [prob, rows] : part) {
        for (const Tuple& t : *rows) result.AppendUnchecked(t);
      }
    }
    result.DeduplicateRows();
    return result;
  }
  if (quantifier == sql::WorldQuantifier::kCertain) {
    // t is certain iff it is in the certain part or some component yields
    // it in every alternative.
    std::set<Tuple> emitted(certain_rows.begin(), certain_rows.end());
    for (const auto& part : parts) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      if (part.empty()) continue;
      std::set<Tuple> candidates(part[0].second->begin(),
                                 part[0].second->end());
      for (size_t j = 1; j < part.size() && !candidates.empty(); ++j) {
        std::set<Tuple> next;
        for (const Tuple& t : *part[j].second) {
          if (candidates.count(t)) next.insert(t);
        }
        candidates = std::move(next);
      }
      emitted.insert(candidates.begin(), candidates.end());
    }
    Table result(schema);
    for (const Tuple& t : emitted) result.AppendUnchecked(t);
    return result;
  }

  // conf — closed form 1 - prod_c (1 - p_c(t)).
  std::map<Tuple, double> not_prob;  // t -> prod (1 - p_c(t))
  std::set<Tuple> certain_set(certain_rows.begin(), certain_rows.end());
  for (const auto& part : parts) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    std::map<Tuple, double> p_c;
    for (const auto& [prob, rows] : part) {
      std::set<Tuple> distinct(rows->begin(), rows->end());
      for (const Tuple& t : distinct) p_c[t] += prob;
    }
    for (const auto& [t, p] : p_c) {
      auto [it, inserted] = not_prob.emplace(t, 1.0);
      it->second *= (1.0 - p);
    }
  }
  Schema conf_schema;
  if (schema.num_columns() == 0) {
    double conf = 1.0;
    if (certain_set.empty()) {
      conf = not_prob.empty() ? 0.0 : 1.0 - not_prob.begin()->second;
    }
    conf_schema.AddColumn(Column("conf", DataType::kReal));
    Table result(std::move(conf_schema));
    result.AppendUnchecked(Tuple({Value::Real(conf)}));
    return result;
  }
  conf_schema = schema;
  conf_schema.AddColumn(Column("conf", DataType::kReal));
  Table result(std::move(conf_schema));
  std::map<Tuple, double> conf;
  for (const Tuple& t : certain_set) conf[t] = 1.0;
  for (const auto& [t, np] : not_prob) {
    if (certain_set.count(t)) continue;
    conf[t] = 1.0 - np;
  }
  for (const auto& [t, p] : conf) {
    Tuple extended = t;
    extended.Append(Value::Real(p));
    result.AppendUnchecked(std::move(extended));
  }
  return result;
}

}  // namespace

DecomposedWorldSet::DecomposedWorldSet(size_t max_merge, size_t threads)
    : max_merge_(max_merge), threads_(threads) {}

std::unique_ptr<WorldSet> DecomposedWorldSet::Clone() const {
  return std::make_unique<DecomposedWorldSet>(*this);
}

uint64_t DecomposedWorldSet::NumWorlds() const {
  uint64_t total = 1;
  for (const Component& c : components_) {
    uint64_t size = static_cast<uint64_t>(c.size());
    if (size != 0 &&
        total > std::numeric_limits<uint64_t>::max() / size) {
      return std::numeric_limits<uint64_t>::max();  // saturate
    }
    total *= size;
  }
  return total;
}

double DecomposedWorldSet::Log10NumWorlds() const {
  double log_total = 0;
  for (const Component& c : components_) {
    log_total += std::log10(static_cast<double>(c.size()));
  }
  return log_total;
}

std::vector<std::string> DecomposedWorldSet::RelationNames() const {
  return certain_.RelationNames();
}

bool DecomposedWorldSet::HasRelation(const std::string& name) const {
  return certain_.HasRelation(name);
}

SubProduct DecomposedWorldSet::ProductOf(
    const std::vector<size_t>& indices) const {
  std::vector<const Component*> parts;
  parts.reserve(indices.size());
  for (size_t i : indices) parts.push_back(&components_[i]);
  return SubProduct(std::move(parts));
}

Status DecomposedWorldSet::ForEachWorld(const SubProduct& product, size_t n,
                                        const WorldBody& body) const {
  return base::ThreadPool::Shared().ParallelFor(
      n, threads_, [&](size_t ordinal, size_t slot, size_t chunk) -> Status {
        std::vector<const Alternative*> chosen;
        const double probability = product.Decode(ordinal, &chosen);
        return body(ordinal, slot, chunk, probability, chosen);
      });
}

Result<std::vector<World>> DecomposedWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  std::vector<size_t> all(components_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const SubProduct product = ProductOf(all);
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(product.size(), max_worlds));
  if (truncated != nullptr) *truncated = product.size() > n;
  std::vector<World> worlds(n);
  MAYBMS_RETURN_NOT_OK(ForEachWorld(
      product, n,
      [&](size_t ordinal, size_t, size_t, double probability,
          const std::vector<const Alternative*>& chosen) -> Status {
        // Each world is a database copy: charge it against the world
        // budget.
        MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
        worlds[ordinal] =
            World(BuildLocalDatabase(certain_, chosen), probability);
        return Status::OK();
      }));
  return worlds;
}

Result<std::vector<World>> DecomposedWorldSet::TopKWorlds(size_t k) const {
  // Best-first search over the product of per-component alternatives
  // sorted by decreasing probability: the most probable world picks rank
  // 0 everywhere; successors bump one rank. Never enumerates more than
  // O(k * n) states, independent of the total world count.
  const size_t n = components_.size();
  std::vector<std::vector<size_t>> sorted(n);  // rank -> alternative index
  for (size_t c = 0; c < n; ++c) {
    sorted[c].resize(components_[c].size());
    for (size_t j = 0; j < sorted[c].size(); ++j) sorted[c][j] = j;
    std::stable_sort(sorted[c].begin(), sorted[c].end(),
                     [&](size_t a, size_t b) {
                       return components_[c].alternatives[a].probability >
                              components_[c].alternatives[b].probability;
                     });
  }

  auto probability_of = [&](const std::vector<size_t>& ranks) {
    double p = 1.0;
    for (size_t c = 0; c < n; ++c) {
      p *= components_[c].alternatives[sorted[c][ranks[c]]].probability;
    }
    return p;
  };

  struct State {
    double probability;
    std::vector<size_t> ranks;
    bool operator<(const State& other) const {
      return probability < other.probability;  // max-heap
    }
  };
  std::priority_queue<State> frontier;
  std::set<std::vector<size_t>> seen;
  std::vector<size_t> initial(n, 0);
  frontier.push(State{probability_of(initial), initial});
  seen.insert(std::move(initial));

  std::vector<World> top;
  while (!frontier.empty() && top.size() < k) {
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    State state = frontier.top();
    frontier.pop();
    std::vector<const Alternative*> chosen;
    chosen.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      chosen.push_back(
          &components_[c].alternatives[sorted[c][state.ranks[c]]]);
    }
    top.emplace_back(BuildLocalDatabase(certain_, chosen), state.probability);

    for (size_t c = 0; c < n; ++c) {
      if (state.ranks[c] + 1 >= sorted[c].size()) continue;
      std::vector<size_t> next = state.ranks;
      ++next[c];
      if (seen.insert(next).second) {
        frontier.push(State{probability_of(next), std::move(next)});
      }
    }
  }
  return top;
}

Result<World> DecomposedWorldSet::SampleWorld(base::SplitMix64* rng) const {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<const Alternative*> chosen;
  chosen.reserve(components_.size());
  double probability = 1.0;
  for (const Component& component : components_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    if (component.alternatives.empty()) {
      return Status::EmptyWorldSet("component with no alternatives");
    }
    double u = uniform(*rng);
    double cumulative = 0;
    const Alternative* pick = &component.alternatives.back();
    for (const Alternative& alt : component.alternatives) {
      cumulative += alt.probability;
      if (u <= cumulative) {
        pick = &alt;
        break;
      }
    }
    probability *= pick->probability;
    chosen.push_back(pick);
  }
  return World(BuildLocalDatabase(certain_, chosen), probability);
}

Status DecomposedWorldSet::CreateBaseTable(const std::string& name,
                                           const Table& prototype) {
  if (certain_.HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  certain_.PutRelation(name, prototype);
  return Status::OK();
}

Status DecomposedWorldSet::DropRelation(const std::string& name) {
  // Poll BEFORE any mutation: erasing contributions from a prefix of the
  // components and then aborting would tear the set.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  MAYBMS_RETURN_NOT_OK(certain_.DropRelation(name));
  std::string lower = AsciiToLower(name);
  for (Component& c : components_) {
    for (Alternative& alt : c.alternatives) alt.tuples.erase(lower);
  }
  return Status::OK();
}

std::vector<size_t> DecomposedWorldSet::RelevantComponents(
    const std::set<std::string>& relations) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < components_.size(); ++i) {
    for (const std::string& rel : relations) {
      if (components_[i].ContributesTo(rel)) {
        indices.push_back(i);
        break;
      }
    }
  }
  return indices;
}

Result<Component> DecomposedWorldSet::MergeRelevant(
    const std::vector<size_t>& indices) const {
  std::vector<const Component*> parts;
  parts.reserve(indices.size());
  for (size_t i : indices) parts.push_back(&components_[i]);
  return MergeComponents(parts, max_merge_);
}

Status DecomposedWorldSet::ApplyDml(const sql::Statement& stmt,
                                    const Catalog& catalog) {
  std::set<std::string> referenced;
  std::string target;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(stmt);
      target = insert.table_name;
      if (insert.query) CollectReferencedRelations(*insert.query, &referenced);
      for (const auto& row : insert.rows) {
        for (const auto& e : row) CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(stmt);
      target = update.table_name;
      if (update.where) CollectReferencedRelations(*update.where, &referenced);
      for (const auto& [col, e] : update.assignments) {
        CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(stmt);
      target = del.table_name;
      if (del.where) CollectReferencedRelations(*del.where, &referenced);
      break;
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
  referenced.insert(AsciiToLower(target));

  // The statement is planned once against the certain schemas (local
  // worlds share them) and executed per world.
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedDml plan,
                          engine::PreparedDml::Prepare(stmt, certain_,
                                                       &catalog));

  std::vector<size_t> relevant = RelevantComponents(referenced);
  if (relevant.empty()) {
    // All referenced relations are certain: apply once to the core.
    return plan.Execute(&certain_);
  }

  // The update's effect may differ per world: run it in every local world
  // of the relevant sub-product. The decomposition changes only if some
  // world's target rows did; then the relevant components merge for good
  // and the target relation becomes per-alternative content.
  const SubProduct product = ProductOf(relevant);
  MAYBMS_RETURN_NOT_OK(product.CheckCap(max_merge_));
  const size_t n = static_cast<size_t>(product.size());
  std::vector<Table> new_contents(n);
  std::vector<char> changed(n, 0);
  // A PreparedDml caches per-execution state, so each slot gets its own;
  // slot 0 adopts the plan prepared above (preparation errors already
  // surfaced there).
  std::vector<std::optional<engine::PreparedDml>> plans(
      base::ThreadPool::Shared().Slots(threads_));
  plans[0].emplace(std::move(plan));
  MAYBMS_RETURN_NOT_OK(ForEachWorld(
      product, n,
      [&](size_t ordinal, size_t slot, size_t, double,
          const std::vector<const Alternative*>& chosen) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedDml::Prepare(stmt, certain_,
                                                        &catalog));
        }
        Database local = BuildLocalDatabase(certain_, chosen);
        MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle before,
                                local.GetRelationHandle(target));
        // All-or-nothing per world.
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&local));
        MAYBMS_ASSIGN_OR_RETURN(const Table* updated,
                                local.GetRelation(target));
        changed[ordinal] = SameRows(before->rows(), updated->rows()) ? 0 : 1;
        new_contents[ordinal] = *updated;
        return Status::OK();
      }));
  if (std::find(changed.begin(), changed.end(), 1) == changed.end()) {
    return Status::OK();
  }

  // Commit: the merged component (in the enumeration's order) carries the
  // full per-world contents of the target relation; its certain part
  // becomes empty.
  MAYBMS_ASSIGN_OR_RETURN(Component merged, MergeRelevant(relevant));
  const std::string target_lower = AsciiToLower(target);
  for (size_t i = 0; i < merged.alternatives.size(); ++i) {
    merged.alternatives[i].tuples[target_lower] = new_contents[i].rows();
  }
  // The target's contents moved into the merged component: swap an empty
  // instance into the core instead of cloning a (possibly shared) table
  // just to clear it.
  MAYBMS_ASSIGN_OR_RETURN(const Table* core_table,
                          certain_.GetRelation(target));
  certain_.PutRelation(target, Table(core_table->schema()));

  std::sort(relevant.rbegin(), relevant.rend());
  for (size_t i : relevant) {
    components_.erase(components_.begin() + static_cast<long>(i));
  }
  components_.push_back(std::move(merged));
  return Status::OK();
}

bool DecomposedWorldSet::QualifiesForFastPath(
    const sql::SelectStatement& stmt,
    const std::set<std::string>& referenced) const {
  if (stmt.from.size() != 1 || referenced.size() != 1) return false;
  if (!stmt.joins.empty()) return false;  // self-joins correlate tuples
  if (stmt.union_next || stmt.distinct) return false;
  if (!stmt.group_by.empty() || stmt.having || !stmt.order_by.empty() ||
      stmt.limit.has_value()) {
    return false;
  }
  if (stmt.where &&
      (ContainsSubquery(*stmt.where) || engine::ContainsAggregate(*stmt.where))) {
    return false;
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) continue;
    if (ContainsSubquery(*item.expr) || engine::ContainsAggregate(*item.expr)) {
      return false;
    }
  }
  return true;
}

Result<std::optional<DecomposedWorldSet::DecomposedResult>>
DecomposedWorldSet::Decompose(const sql::SelectStatement& stmt,
                              const std::set<std::string>& referenced,
                              const std::vector<size_t>& relevant) const {
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  DecomposedResult result;
  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    if (!relevant.empty()) return std::optional<DecomposedResult>();
    // The clean product construction: repair creates one component per
    // key group, choice a single component. This is the O(n·g)
    // representation of g^n worlds. The source pipeline and the
    // projection are planned once against the certain core.
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                            engine::PreparedFromWhere::Prepare(stmt, certain_));
    MAYBMS_ASSIGN_OR_RETURN(
        engine::PreparedProjection projection,
        engine::PreparedProjection::Prepare(*core, certain_,
                                            source_plan.output_schema()));
    MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan.Execute(certain_));
    std::vector<PartitionBlock> blocks;
    if (stmt.repair.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt.repair));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt.choice));
    }
    result.schema = projection.output_schema();
    for (const PartitionBlock& block : blocks) {
      // Each block becomes one component whose alternatives are this
      // block's choices: charge them as the decomposition's unit of world
      // fan-out (the explicit engine charges the full product; the
      // decomposed representation IS the O(n·g) compression).
      MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(block.choices.size()));
      Component comp;
      for (const WeightedChoice& choice : block.choices) {
        std::vector<Tuple> chosen;
        chosen.reserve(choice.row_indices.size());
        for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
        MAYBMS_ASSIGN_OR_RETURN(Table projected,
                                projection.Execute(certain_, chosen));
        MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
            projected.num_rows(), projected.schema().num_columns())));
        Alternative alt;
        alt.probability = choice.probability;
        alt.tuples[kResultKey] = projected.rows();
        comp.alternatives.push_back(std::move(alt));
      }
      result.new_components.push_back(std::move(comp));
    }
    return std::optional<DecomposedResult>(std::move(result));
  }
  if (relevant.empty() || !QualifiesForFastPath(stmt, referenced)) {
    return std::optional<DecomposedResult>();
  }

  // Fast path: push selection/projection into each alternative — no
  // enumeration, component structure preserved. One prepared projection
  // and shared WHERE subquery plans serve the certain rows and every
  // alternative's contribution.
  const std::string rel = AsciiToLower(stmt.from[0].table_name);
  MAYBMS_ASSIGN_OR_RETURN(const Table* base, certain_.GetRelation(rel));
  Schema qualified =
      base->schema().WithQualifier(stmt.from[0].effective_alias());
  MAYBMS_ASSIGN_OR_RETURN(
      engine::PreparedProjection projection,
      engine::PreparedProjection::Prepare(*core, certain_, qualified));
  engine::SubqueryPlanCache where_plans;
  result.schema = projection.output_schema();
  MAYBMS_ASSIGN_OR_RETURN(
      result.certain_rows,
      FilterProjectRows(*core, certain_, qualified, base->rows(), projection,
                        &where_plans));
  result.component_indices = relevant;
  for (size_t idx : relevant) {
    std::vector<std::vector<Tuple>> per_alt;
    per_alt.reserve(components_[idx].size());
    for (const Alternative& alt : components_[idx].alternatives) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      std::vector<Tuple> projected;
      if (const std::vector<Tuple>* rows = alt.TuplesFor(rel)) {
        MAYBMS_ASSIGN_OR_RETURN(
            projected, FilterProjectRows(*core, certain_, qualified, *rows,
                                         projection, &where_plans));
        MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
            projected.size(), result.schema.num_columns())));
      }
      per_alt.push_back(std::move(projected));
    }
    result.contributions.push_back(std::move(per_alt));
  }
  return std::optional<DecomposedResult>(std::move(result));
}

Status DecomposedWorldSet::StreamAnswers(const sql::SelectStatement& stmt,
                                         const std::vector<size_t>& relevant,
                                         StreamingEvaluator* evaluator) const {
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  const SubProduct product = ProductOf(relevant);
  MAYBMS_RETURN_NOT_OK(product.CheckCap(max_merge_));

  if (stmt.repair.has_value() || stmt.choice.has_value()) {
    // Repair/choice within each local world of the relevant sub-product:
    // source worlds advance in sequence (world i's combinations before
    // world i+1's partition); each one's combinations run on the pool.
    MAYBMS_ASSIGN_OR_RETURN(
        RepairChoiceFanOut fan_out,
        RepairChoiceFanOut::Prepare(
            stmt, *core, certain_, threads_, [this](uint64_t total) {
              if (max_merge_ == 0 || total <= max_merge_) return Status::OK();
              return Status::Unsupported(
                  "repair/choice over an uncertain source exceeds the merge "
                  "cap of " +
                  std::to_string(max_merge_) + " alternatives");
            }));
    std::vector<const Alternative*> chosen;
    for (uint64_t ordinal = 0; ordinal < product.size(); ++ordinal) {
      const double probability = product.Decode(ordinal, &chosen);
      MAYBMS_RETURN_NOT_OK(fan_out.Feed(BuildLocalDatabase(certain_, chosen),
                                        probability, ordinal, evaluator));
    }
    return Status::OK();
  }

  // The SQL core is planned once per slot against the certain schemas
  // (local worlds only append rows, never change schemas) and executed in
  // every local world.
  std::vector<std::optional<engine::PreparedSelect>> plans(
      base::ThreadPool::Shared().Slots(threads_));
  MAYBMS_ASSIGN_OR_RETURN(plans[0],
                          engine::PreparedSelect::Prepare(*core, certain_));
  const size_t n = static_cast<size_t>(product.size());
  evaluator->BeginBatch(n);
  MAYBMS_RETURN_NOT_OK(ForEachWorld(
      product, n,
      [&](size_t ordinal, size_t slot, size_t chunk, double probability,
          const std::vector<const Alternative*>& chosen) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedSelect::Prepare(*core, certain_));
        }
        Database local = BuildLocalDatabase(certain_, chosen);
        MAYBMS_ASSIGN_OR_RETURN(Table answer, plans[slot]->Execute(local));
        MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(base::EstimateTableBytes(
            answer.num_rows(), answer.schema().num_columns())));
        return evaluator->Feed(slot, chunk, ordinal, probability,
                               std::move(answer), local);
      }));
  return evaluator->EndBatch();
}

Result<SelectEvaluation> DecomposedWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  const std::vector<size_t> relevant = RelevantComponents(referenced);

  if (!stmt.assert_condition && !stmt.group_worlds_by) {
    MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedResult> dec,
                            Decompose(stmt, referenced, relevant));
    if (dec.has_value()) {
      // The involved components: the existing ones the answer draws
      // contributions from, then the new repair/choice components.
      static const std::vector<Tuple>* const kNoRows = new std::vector<Tuple>();
      std::vector<const Component*> parts;
      ContributionView view;
      for (size_t k = 0; k < dec->component_indices.size(); ++k) {
        parts.push_back(&components_[dec->component_indices[k]]);
        view.emplace_back();
        for (size_t j = 0; j < parts.back()->size(); ++j) {
          view.back().emplace_back(parts.back()->alternatives[j].probability,
                                   &dec->contributions[k][j]);
        }
      }
      for (const Component& comp : dec->new_components) {
        parts.push_back(&comp);
        view.emplace_back();
        for (const Alternative& alt : comp.alternatives) {
          const std::vector<Tuple>* rows = alt.TuplesFor(kResultKey);
          view.back().emplace_back(alt.probability,
                                   rows != nullptr ? rows : kNoRows);
        }
      }
      SelectEvaluation eval;
      if (stmt.quantifier != sql::WorldQuantifier::kNone) {
        MAYBMS_ASSIGN_OR_RETURN(
            eval.combined, CombineClosedForm(stmt.quantifier, dec->schema,
                                             dec->certain_rows, view));
        return eval;
      }
      // List the worlds of the involved components only (all other
      // components leave the answer unchanged).
      const SubProduct product(parts);
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(product.size(), max_worlds));
      eval.truncated = product.size() > n;
      eval.per_world.resize(n);
      MAYBMS_RETURN_NOT_OK(ForEachWorld(
          product, n,
          [&](size_t ordinal, size_t, size_t, double probability,
              const std::vector<const Alternative*>& chosen) -> Status {
            MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
            Table answer(dec->schema, dec->certain_rows);
            for (size_t k = 0; k < chosen.size(); ++k) {
              const size_t j = static_cast<size_t>(
                  chosen[k] - parts[k]->alternatives.data());
              for (const Tuple& t : *view[k][j].second) {
                answer.AppendUnchecked(t);
              }
            }
            eval.per_world[ordinal] = {probability, std::move(answer)};
            return Status::OK();
          }));
      return eval;
    }
  }

  StreamingEvaluator evaluator(stmt, "__result",
                               base::ThreadPool::Shared().Slots(threads_),
                               max_worlds);
  MAYBMS_RETURN_NOT_OK(StreamAnswers(stmt, relevant, &evaluator));
  return evaluator.Finish();
}

Status DecomposedWorldSet::MaterializeSelect(const std::string& name,
                                             const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  std::vector<size_t> relevant = RelevantComponents(referenced);
  const std::string lower = AsciiToLower(name);
  const bool quantified = stmt.quantifier != sql::WorldQuantifier::kNone;

  if (!stmt.assert_condition && !stmt.group_worlds_by) {
    if (quantified) {
      // The combined relation is certain: it lands in the core, and the
      // statement's repair/choice worlds do not outlive the combination.
      MAYBMS_ASSIGN_OR_RETURN(SelectEvaluation eval, EvaluateSelect(stmt, 0));
      certain_.PutRelation(name, std::move(*eval.combined));
      return Status::OK();
    }
    MAYBMS_ASSIGN_OR_RETURN(std::optional<DecomposedResult> dec,
                            Decompose(stmt, referenced, relevant));
    if (dec.has_value()) {
      // Attach contributions in place (fast path) and/or append the new
      // repair/choice components.
      certain_.PutRelation(name,
                           Table(dec->schema, std::move(dec->certain_rows)));
      for (size_t k = 0; k < dec->component_indices.size(); ++k) {
        Component& comp = components_[dec->component_indices[k]];
        for (size_t j = 0; j < comp.size(); ++j) {
          comp.alternatives[j].tuples[lower] =
              std::move(dec->contributions[k][j]);
        }
      }
      for (Component& comp : dec->new_components) {
        for (Alternative& alt : comp.alternatives) {
          alt.tuples[lower] = std::move(alt.tuples[kResultKey]);
          alt.tuples.erase(kResultKey);
        }
        components_.push_back(std::move(comp));
      }
      return Status::OK();
    }
  }

  // Enumerate, then commit the surviving worlds as one merged component.
  StreamingEvaluator evaluator(stmt, name,
                               base::ThreadPool::Shared().Slots(threads_),
                               std::numeric_limits<size_t>::max(),
                               /*record_survivors=*/true);
  MAYBMS_RETURN_NOT_OK(StreamAnswers(stmt, relevant, &evaluator));
  std::vector<StreamingEvaluator::Survivor> survivors;
  MAYBMS_ASSIGN_OR_RETURN(SelectEvaluation eval, evaluator.Finish(&survivors));
  // The relation each survivor stores: its group's combination, the one
  // combined relation (kept in the core), or its own answer.
  const bool stores_combined = quantified && !stmt.group_worlds_by;
  auto content = [&](size_t i) -> const Table& {
    if (stmt.group_worlds_by) return eval.groups[survivors[i].group].table;
    if (stores_combined) return *eval.combined;
    return eval.per_world[i].second;
  };
  if (relevant.empty() && !stmt.repair.has_value() &&
      !stmt.choice.has_value()) {
    // The only world is the certain core itself.
    certain_.PutRelation(name, content(0));
    return Status::OK();
  }
  MAYBMS_ASSIGN_OR_RETURN(Component source, MergeRelevant(relevant));
  Component merged;
  merged.alternatives.reserve(survivors.size());
  for (size_t i = 0; i < survivors.size(); ++i) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    Alternative alt = source.alternatives[survivors[i].tag];
    alt.probability = survivors[i].probability;
    if (!stores_combined) alt.tuples[lower] = content(i).rows();
    merged.alternatives.push_back(std::move(alt));
  }
  Table core_table = stores_combined ? std::move(*eval.combined)
                                     : Table(content(0).schema());
  std::sort(relevant.rbegin(), relevant.rend());
  for (size_t i : relevant) {
    components_.erase(components_.begin() + static_cast<long>(i));
  }
  components_.push_back(std::move(merged));
  certain_.PutRelation(name, std::move(core_table));
  return Status::OK();
}

Result<storage::DurableSnapshot> DecomposedWorldSet::ToSnapshot() const {
  storage::DurableSnapshot snapshot;
  snapshot.engine = EngineName();
  // The certain core is the only place relation instances (and schemas)
  // live; components carry schema-less per-alternative extra tuples.
  std::map<const Table*, size_t> index;
  for (const std::string& name : certain_.RelationNames()) {
    MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                            certain_.GetRelationHandle(name));
    auto [it, inserted] = index.emplace(handle.get(), snapshot.tables.size());
    if (inserted) snapshot.tables.push_back(std::move(handle));
    snapshot.certain.push_back({name, it->second});
  }
  snapshot.components.reserve(components_.size());
  for (const Component& component : components_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    storage::DurableSnapshot::ComponentRef component_ref;
    component_ref.alternatives.reserve(component.alternatives.size());
    for (const Alternative& alt : component.alternatives) {
      storage::DurableSnapshot::AlternativeRef alt_ref;
      alt_ref.probability = alt.probability;
      // std::map iteration: contributions in sorted-key order, restored
      // into the same sorted map — deterministic round trip.
      for (const auto& [relation, tuples] : alt.tuples) {
        alt_ref.contributions.emplace_back(relation, tuples);
      }
      component_ref.alternatives.push_back(std::move(alt_ref));
    }
    snapshot.components.push_back(std::move(component_ref));
  }
  return snapshot;
}

Status DecomposedWorldSet::FromSnapshot(
    const storage::DurableSnapshot& snapshot) {
  if (snapshot.engine != EngineName()) {
    return Status::InvalidArgument(
        "cannot restore a '" + snapshot.engine +
        "' snapshot into the decomposed engine");
  }
  Database certain;
  for (const auto& relation : snapshot.certain) {
    if (relation.table_index >= snapshot.tables.size()) {
      return Status::DataLoss(
          "decomposed snapshot restore: table index out of range");
    }
    certain.PutRelation(relation.name, snapshot.tables[relation.table_index]);
  }
  std::vector<Component> components;
  components.reserve(snapshot.components.size());
  for (const auto& component_ref : snapshot.components) {
    // Builds locals and swaps at the end — a poll abort here cannot tear
    // the live set. The post-commit reload runs shielded (see
    // isql::Session::PersistAndReload).
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    Component component;
    component.alternatives.reserve(component_ref.alternatives.size());
    for (const auto& alt_ref : component_ref.alternatives) {
      Alternative alt;
      // Probabilities adopted verbatim — no Normalize() — so restored
      // world probabilities are bit-identical.
      alt.probability = alt_ref.probability;
      for (const auto& [relation, tuples] : alt_ref.contributions) {
        alt.tuples[relation] = tuples;
      }
      component.alternatives.push_back(std::move(alt));
    }
    components.push_back(std::move(component));
  }
  certain_ = std::move(certain);
  components_ = std::move(components);
  return Status::OK();
}

}  // namespace maybms::worlds
