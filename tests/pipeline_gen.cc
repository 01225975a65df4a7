#include "tests/pipeline_gen.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace maybms::testing {

std::string GeneratedPipeline::DebugString() const {
  std::ostringstream out;
  out << "-- setup (world bound " << world_bound << ")\n";
  for (const std::string& s : setup) out << s << "\n";
  out << "-- probes\n";
  for (const std::string& s : probes) out << s << "\n";
  return out.str();
}

PipelineGenerator::PipelineGenerator(uint32_t seed)
    : PipelineGenerator(seed, Options()) {}

PipelineGenerator::PipelineGenerator(uint32_t seed, Options options)
    : rng_(seed), options_(options) {}

// Derived from raw mt19937 output rather than std::uniform_*_distribution,
// whose mapping is implementation-defined: a seed must reproduce the same
// pipeline on every standard library, or failure seeds would not be
// portable. Modulo bias is irrelevant at our tiny ranges.
int PipelineGenerator::Int(int lo, int hi) {
  return lo + static_cast<int>(rng_() %
                               static_cast<uint32_t>(hi - lo + 1));
}

bool PipelineGenerator::Chance(double p) {
  return (rng_() >> 8) * (1.0 / 16777216.0) < p;  // 24 uniform bits
}

const PipelineGenerator::TableInfo& PipelineGenerator::Pick(
    bool prefer_uncertain, bool allow_views) {
  std::vector<size_t> eligible;
  eligible.reserve(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (!allow_views && tables_[i].is_view) continue;
    eligible.push_back(i);
  }
  if (prefer_uncertain && Chance(0.8)) {
    std::vector<size_t> uncertain;
    for (size_t i : eligible) {
      if (tables_[i].uncertain) uncertain.push_back(i);
    }
    if (!uncertain.empty()) {
      return tables_[uncertain[Int(0, static_cast<int>(uncertain.size()) - 1)]];
    }
  }
  return tables_[eligible[Int(0, static_cast<int>(eligible.size()) - 1)]];
}

uint64_t PipelineGenerator::RepairFactor(const std::vector<Row>& rows,
                                         bool use_k, bool use_g) {
  std::map<std::pair<int, char>, uint64_t> groups;
  for (const Row& r : rows) ++groups[{use_k ? r.k : 0, use_g ? r.g : ' '}];
  uint64_t factor = 1;
  for (const auto& [key, n] : groups) factor *= n;
  return factor;
}

uint64_t PipelineGenerator::ChoiceFactor(const std::vector<Row>& rows,
                                         char col) {
  std::set<int> distinct;
  for (const Row& r : rows) distinct.insert(col == 'K' ? r.k : r.g);
  return std::max<uint64_t>(distinct.size(), 1);
}

void PipelineGenerator::EmitBaseTable(GeneratedPipeline* p) {
  TableInfo info;
  info.name = "B" + std::to_string(next_base_++);
  const char kGs[] = {'x', 'y', 'z'};
  int keys = Int(1, 3);
  for (int k = 0; k < keys; ++k) {
    int group = Int(1, 3);
    for (int i = 0; i < group; ++i) {
      info.ancestor_rows.push_back(
          Row{k, Int(1, 6), Int(1, 9), kGs[Int(0, 2)]});
    }
  }
  std::ostringstream create;
  create << "create table " << info.name
         << " (K integer, V integer, W integer, G text);";
  p->setup.push_back(create.str());

  std::ostringstream insert;
  insert << "insert into " << info.name << " values ";
  for (size_t i = 0; i < info.ancestor_rows.size(); ++i) {
    const Row& r = info.ancestor_rows[i];
    if (i > 0) insert << ", ";
    insert << "(" << r.k << ", " << r.v << ", " << r.w << ", '" << r.g << "')";
  }
  insert << ";";
  p->setup.push_back(insert.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitDerivedTable(GeneratedPipeline* p) {
  const TableInfo& src = Pick(/*prefer_uncertain=*/Chance(0.5));
  TableInfo info;
  info.name = "U" + std::to_string(next_derived_++);
  info.ancestor_rows = src.ancestor_rows;

  std::ostringstream sql;
  sql << "create table " << info.name << " as select K, V, ";
  // Occasionally retype W to REAL (`W + 0.5 as W`): any later repair or
  // choice sourcing this table with `weight W` then runs on non-integer
  // weights. The row identity structure (K, G) is untouched, so the
  // world-bound math below stays valid.
  sql << (Chance(0.25) ? "W + 0.5 as W" : "W") << ", G from " << src.name;
  // A WHERE filter only ever shrinks repair/choice fan-out, so the world
  // bound computed from the unfiltered ancestor rows stays valid.
  if (Chance(0.35)) sql << " where " << RandomPredicate("");

  // Weight clause for repair/choice: usually the numeric W (integer or
  // real depending on the source), rarely the TEXT column G — a negative
  // case that must fail identically on both engines ("weight column must
  // hold numeric non-NULL values").
  auto weight_clause = [&]() -> const char* {
    int roll = Int(0, 9);
    if (roll < 5) return " weight W";
    if (roll == 5) return " weight G";
    return "";
  };

  int form = Int(0, 3);
  uint64_t factor = 1;
  bool world_op = false;  // a repair/choice clause was emitted
  if (form == 0) {  // repair by key
    bool key_includes_g = Chance(0.3);
    factor = RepairFactor(src.ancestor_rows, /*use_k=*/true, key_includes_g);
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " repair by key K" << (key_includes_g ? ", G" : "")
          << weight_clause();
      world_op = true;
    } else {
      factor = 1;  // over budget: plain filtered copy
    }
  } else if (form == 1) {  // choice of
    char col = Chance(0.5) ? 'K' : 'G';
    factor = ChoiceFactor(src.ancestor_rows, col);
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " choice of " << col << weight_clause();
      world_op = true;
    } else {
      factor = 1;
    }
  }
  if (world_op && Chance(0.25)) {
    // A quantified materialization combines the repair/choice worlds into
    // one relation stored in the existing worlds: no world fan-out, and
    // the new table is certain. Both engines must agree on that world
    // count (checked after setup).
    const char* kQuantifiers[] = {"possible ", "certain ", "conf, "};
    std::string text = sql.str();
    text.insert(std::string("create table " + info.name + " as select ").size(),
                kQuantifiers[Int(0, 2)]);
    sql.str(text);
    sql.seekp(0, std::ios_base::end);
    factor = 1;
    info.quantified = true;
  }
  if (form == 2) {  // assert (drops worlds; never multiplies)
    sql << " assert exists(select * from " << src.name << " where V >= "
        << Int(1, 2) << ")";
  }
  // form == 3: plain per-world selection.
  sql << ";";
  world_bound_ *= factor;
  info.uncertain = !info.quantified && (src.uncertain || factor > 1);
  p->setup.push_back(sql.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitRepairChain(GeneratedPipeline* p) {
  // A repair chain of depth >= 3: C0 repairs an existing table, C1
  // repairs C0, C2 repairs C1. Links that would blow the world budget
  // degrade to plain copies so the chain always reaches its depth; key
  // columns vary per link so repairs of an already-key-unique relation
  // can still multiply worlds (e.g. repair by key K, then by key G).
  const TableInfo* prev = &Pick(/*prefer_uncertain=*/Chance(0.5));
  const int depth = 3;
  for (int link = 0; link < depth; ++link) {
    TableInfo info;
    info.name = "C" + std::to_string(next_chain_++);
    info.ancestor_rows = prev->ancestor_rows;

    std::ostringstream sql;
    sql << "create table " << info.name << " as select K, V, W, G from "
        << prev->name;
    int key_form = Int(0, 2);
    bool use_k = key_form != 1;
    bool use_g = key_form != 0;
    uint64_t factor = RepairFactor(info.ancestor_rows, use_k, use_g);
    bool repaired = false;
    if (world_bound_ * factor <= options_.world_budget) {
      sql << " repair by key" << (use_k ? " K" : "")
          << (use_k && use_g ? "," : "") << (use_g ? " G" : "")
          << (Chance(0.5) ? " weight W" : "");
      world_bound_ *= factor;
      repaired = true;
    }
    sql << ";";
    info.uncertain = prev->uncertain || (repaired && factor > 1);
    p->setup.push_back(sql.str());
    tables_.push_back(std::move(info));
    prev = &tables_.back();
  }
}

void PipelineGenerator::EmitView(GeneratedPipeline* p) {
  // Views are named queries expanded at use; they may reference earlier
  // views (the session materializes dependencies first) and may carry an
  // `assert`, in which case probing them evaluates against the derived
  // world-set the view denotes — on both engines.
  const TableInfo& src = Pick(Chance(0.5), /*allow_views=*/true);
  TableInfo info;
  info.name = "V" + std::to_string(next_view_++);
  info.uncertain = src.uncertain;
  info.is_view = true;
  info.ancestor_rows = src.ancestor_rows;

  std::ostringstream sql;
  sql << "create view " << info.name << " as select K, V, W, G from "
      << src.name;
  if (Chance(0.5)) sql << " where " << RandomPredicate("");
  if (Chance(0.15)) {
    sql << " assert exists(select * from " << src.name << " where V >= "
        << Int(1, 2) << ")";
  }
  sql << ";";
  p->setup.push_back(sql.str());
  tables_.push_back(std::move(info));
}

void PipelineGenerator::EmitLateDml(GeneratedPipeline* p) {
  // Late DML runs in every world and never multiplies the world count.
  // Views are never targets (and never appear in DML subqueries: the
  // session does not expand views for DML).
  if (Chance(0.5)) {
    const TableInfo& t = Pick(/*prefer_uncertain=*/Chance(0.5));
    const char kGs[] = {'x', 'y', 'z'};
    std::ostringstream sql;
    sql << "insert into " << t.name << " values (" << Int(0, 3) << ", "
        << Int(1, 6) << ", " << Int(1, 9) << ", '" << kGs[Int(0, 2)] << "');";
    p->setup.push_back(sql.str());
  }
  if (Chance(0.25)) {
    const TableInfo& t = Pick(/*prefer_uncertain=*/false);
    std::ostringstream sql;
    sql << "delete from " << t.name << " where " << RandomPredicate("");
    sql << ";";
    p->setup.push_back(sql.str());
  }
  if (Chance(0.35)) {
    const TableInfo& t = Pick(/*prefer_uncertain=*/true);
    std::ostringstream sql;
    sql << "update " << t.name << " set ";
    switch (Int(0, 2)) {
      case 0:  // constant-step right-hand side
        sql << "V = V + 1";
        break;
      case 1:  // expression RHS over other columns of the row
        sql << (Chance(0.5) ? "V = V + W" : "W = V * 2");
        break;
      default:  // multiple assignments, expression RHS
        sql << "V = W + " << Int(0, 2) << ", W = W + 1";
        break;
    }
    sql << " where ";
    if (Chance(0.4)) {
      // WHERE with a subquery: the referenced table pulls its component
      // into the decomposed engine's DML merge.
      const TableInfo& u = Pick(/*prefer_uncertain=*/true);
      if (Chance(0.5)) {
        sql << "K in (select K from " << u.name << " where "
            << RandomPredicate("") << ")";
      } else {
        sql << "exists(select * from " << u.name << " where V >= "
            << Int(1, 3) << ")";
      }
    } else {
      sql << RandomPredicate("");
    }
    sql << ";";
    p->setup.push_back(sql.str());
  }
}

std::string PipelineGenerator::RandomPredicate(const std::string& q) {
  std::ostringstream out;
  switch (Int(0, 5)) {
    case 0:
      out << q << "V > " << Int(1, 5);
      break;
    case 1:
      out << q << "V <= " << Int(2, 6);
      break;
    case 2:
      out << q << "K <> " << Int(0, 2);
      break;
    case 3: {
      const char kGs[] = {'x', 'y', 'z'};
      out << q << "G = '" << kGs[Int(0, 2)] << "'";
      break;
    }
    case 4: {
      int lo = Int(1, 4);
      out << q << "V between " << lo << " and " << lo + Int(1, 2);
      break;
    }
    default:
      out << q << "W >= " << Int(1, 8);
      break;
  }
  return out.str();
}

std::string PipelineGenerator::RandomProjection(const std::string& q) {
  switch (Int(0, 6)) {
    case 0:
      return "*";
    case 1:
      return q + "K";
    case 2:
      return q + "V";
    case 3:
      return q + "K, " + q + "V";
    case 4:
      return q + "V, " + q + "G";
    case 5:
      return q + "V + 1 as X";
    default:
      return q + "K, " + q + "V, " + q + "G";
  }
}

std::string PipelineGenerator::RandomProbe() {
  // Quantifier: 0 = none (per-world result), 1 = possible, 2 = certain,
  // 3 = conf.
  int quant = Int(0, 3);
  const char* quant_prefix[] = {"", "possible ", "certain ", "conf, "};
  std::ostringstream out;
  switch (Int(0, 11)) {
    case 0: {  // selection + projection scan
      const TableInfo& t = Pick(true, /*allow_views=*/true);
      out << "select " << quant_prefix[quant] << RandomProjection("");
      out << " from " << t.name;
      if (Chance(0.6)) out << " where " << RandomPredicate("");
      break;
    }
    case 1: {  // self-join
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      out << "select " << quant_prefix[quant] << "a.V, b.K from " << t.name
          << " a, " << t.name << " b where a.K < b.K";
      if (Chance(0.5)) out << " and " << RandomPredicate("b.");
      break;
    }
    case 2: {  // equi-join of two tables
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(false);
      out << "select " << quant_prefix[quant] << "a.K, b.V from " << a.name
          << " a, " << b.name << " b where a.K = b.K";
      if (Chance(0.5)) out << " and " << RandomPredicate("a.");
      break;
    }
    case 3: {  // aggregate
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      const char* aggs[] = {"sum(V)", "count(*)", "min(V)", "max(W)"};
      out << "select " << quant_prefix[quant] << aggs[Int(0, 3)] << " from "
          << t.name;
      if (Chance(0.5)) out << " where " << RandomPredicate("");
      break;
    }
    case 4: {  // bare conf with a subquery condition
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      if (Chance(0.5)) {
        out << "select conf from " << t.name << " where " << Int(5, 30)
            << " > (select sum(V) from " << u.name << ")";
      } else {
        out << "select conf from " << t.name
            << " where exists(select * from " << u.name << " where "
            << RandomPredicate("") << ")";
      }
      break;
    }
    case 5: {  // group worlds by (plain, with assert, or over repair)
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      const char* kQuant[] = {"possible", "certain"};
      const char* kKey[] = {"min(V)", "count(*)", "max(V)"};
      out << "select " << kQuant[Int(0, 1)] << " " << RandomProjection("")
          << " from " << t.name;
      // Probe-level repair: SELECT never materializes, so this only
      // multiplies worlds during evaluation (bounded by budget x ~27),
      // pitting the explicit engine's streaming grouped repair
      // enumeration against the decomposed engine's materializing path.
      bool probe_repair = Chance(0.2);
      if (probe_repair) out << " repair by key K";
      if (!probe_repair && Chance(0.3)) {
        out << " assert exists(select * from " << u.name << " where "
            << RandomPredicate("") << ")";
      }
      out << " group worlds by (select " << kKey[Int(0, 2)] << " from "
          << u.name;
      if (Chance(0.5)) out << " where " << RandomPredicate("");
      out << ")";
      break;
    }
    case 6: {  // query-level assert
      const TableInfo& t = Pick(true);
      out << "select " << quant_prefix[quant] << "V from " << t.name
          << " assert exists(select * from " << t.name << " where V >= "
          << Int(1, 2) << ")";
      break;
    }
    case 7: {  // set operation
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      const char* kOps[] = {"union", "intersect", "except"};
      out << "select " << quant_prefix[quant] << "V from " << a.name << " "
          << kOps[Int(0, 2)] << " select V from " << b.name;
      break;
    }
    case 8: {  // correlated EXISTS subquery
      const TableInfo& t = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      out << "select " << quant_prefix[quant] << "t.K from " << t.name
          << " t where exists(select * from " << t.name
          << " t2 where t2.V = t.V and t2.K <> t.K)";
      break;
    }
    case 9: {  // explicit [LEFT] JOIN ... ON with equi key + residual
      const TableInfo& a = Pick(true);
      const TableInfo& b = Pick(false);
      out << "select " << quant_prefix[quant] << "a.K, b.V from " << a.name
          << " a " << (Chance(0.5) ? "left join " : "join ") << b.name
          << " b on a.K = b.K";
      if (Chance(0.5)) out << " and a.V < b.W";
      if (Chance(0.4)) out << " where " << RandomPredicate("a.");
      break;
    }
    case 10: {  // ORDER BY [DESC] with optional LIMIT: ordered prefixes
      // must agree across engines — guaranteed by the deterministic
      // full-row tie-break (docs/isql.md). The harness compares these
      // per-world answers as ordered sequences, not multisets.
      const TableInfo& t = Pick(true, /*allow_views=*/true);
      out << "select " << quant_prefix[quant] << RandomProjection("")
          << " from " << t.name;
      if (Chance(0.5)) out << " where " << RandomPredicate("");
      out << " order by 1";
      if (Chance(0.4)) out << " desc";
      if (Chance(0.7)) out << " limit " << Int(1, 4);
      break;
    }
    default: {  // correlated IN / scalar-aggregate subquery
      const TableInfo& t = Pick(true);
      const TableInfo& u = Pick(true);
      if (quant == 3) quant = Int(0, 2);
      if (Chance(0.5)) {
        out << "select " << quant_prefix[quant] << "t.K from " << t.name
            << " t where t.V " << (Chance(0.3) ? "not in" : "in")
            << " (select u.V from " << u.name << " u where u.K = t.K)";
      } else {
        const char* aggs[] = {"max(u.V)", "count(*)", "sum(u.W)"};
        out << "select " << quant_prefix[quant] << "t.K, t.V from " << t.name
            << " t where " << Int(0, 3) << " < (select " << aggs[Int(0, 2)]
            << " from " << u.name << " u where u.K = t.K)";
      }
      break;
    }
  }
  out << ";";
  return out.str();
}

GeneratedPipeline PipelineGenerator::Generate() {
  GeneratedPipeline p;
  tables_.clear();
  world_bound_ = 1;
  next_base_ = 0;
  next_derived_ = 0;
  next_view_ = 0;

  int bases = Int(1, options_.max_base_tables);
  for (int i = 0; i < bases; ++i) EmitBaseTable(&p);
  int derived = Int(1, options_.max_derived_tables);
  for (int i = 0; i < derived; ++i) EmitDerivedTable(&p);
  if (Chance(0.35)) EmitRepairChain(&p);
  int views = Int(0, 2);
  for (int i = 0; i < views; ++i) EmitView(&p);
  EmitLateDml(&p);

  int probes = Int(options_.min_probes, options_.max_probes);
  for (int i = 0; i < probes; ++i) p.probes.push_back(RandomProbe());

  p.world_bound = world_bound_;
  return p;
}

}  // namespace maybms::testing
