#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "worlds/decomposed_world_set.h"

namespace isqlbench {

using maybms::isql::EngineMode;
using maybms::isql::QueryResult;

namespace {

Rows TableRows(const maybms::Table& table) {
  Rows rows;
  for (const maybms::Tuple& t : table.rows()) {
    Row row;
    for (const maybms::Value& v : t.values()) {
      row.push_back(v.IsNumeric() ? v.NumericValue() : std::nan(""));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(' ');
  size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

Check ExpectRows(Rows expected, double tol) {
  return [expected = std::move(expected), tol](const Answer& a) {
    return CompareRows(expected, a.rows, tol);
  };
}

std::string Num(int64_t v) { return std::to_string(v); }

constexpr double kConfTol = 1e-9;
// Keys the tuple-conf and on-the-fly repair templates range over.
constexpr int64_t kConfKeys = 200;
constexpr int64_t kRepairKeys = 8;

}  // namespace

Answer FromResult(const QueryResult& result) {
  Answer a;
  if (result.kind() == QueryResult::Kind::kTable) a.rows = TableRows(result.table());
  for (const auto& g : result.groups()) {
    a.groups.push_back({g.probability, TableRows(g.key), TableRows(g.table)});
  }
  return a;
}

bool FromText(const std::string& text, Answer* out) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.size() < 2 || lines[1].empty() ||
      lines[1].find_first_not_of("-+") != std::string::npos) {
    return false;
  }
  out->rows.clear();
  for (size_t i = 2; i < lines.size(); ++i) {
    if (lines[i] == "(no rows)") continue;
    Row row;
    std::istringstream cells(lines[i]);
    for (std::string cell; std::getline(cells, cell, '|');) {
      std::string t = Trim(cell);
      char* end = nullptr;
      double v = std::strtod(t.c_str(), &end);
      if (t.empty() || *end != '\0') return false;
      row.push_back(v);
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  // Sizes: see README.md ("Workloads") for why each is what it is.
  static const WorkloadSpec kSpecs[] = {
      {"wsd_session", EngineMode::kDecomposed, false, 20000, 20000, 14},
      {"explicit_session", EngineMode::kExplicit, false, 2, 2, 11},
      {"durable_server", EngineMode::kDecomposed, true, 20000, 100, 0},
  };
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  Inputs in;
  in.r = GenerateRelation(&rng, spec.r_keys, kRAlts, 1, 100);
  in.i.assign(in.r.begin(), in.r.begin() + spec.i_keys);
  in.s = GenerateBinaryRelation(&rng, spec.s_keys);
  // Sums below the bound: the same number of worlds on every seed.
  in.sum_bound = (int64_t{2} << spec.s_keys) / 5;
  for (const KeyGroup& g : in.s) in.sum_bound += g.alts[0].v;
  return in;
}

std::vector<std::string> LoadStatements(const Inputs& in) {
  std::vector<std::string> out;
  auto load = [&](const std::string& name, const Relation& rel) {
    out.push_back("create table " + name + " (K integer, V integer, W integer)");
    constexpr size_t kRowsPerInsert = 5000;
    std::string values;
    size_t n = 0;
    for (const KeyGroup& g : rel) {
      for (const Alt& a : g.alts) {
        values += (n % kRowsPerInsert == 0 ? "" : ", ");
        values += "(" + Num(g.k) + ", " + Num(a.v) + ", " + Num(a.w) + ")";
        if (++n % kRowsPerInsert == 0) {
          out.push_back("insert into " + name + " values " + values);
          values.clear();
        }
      }
    }
    if (!values.empty()) out.push_back("insert into " + name + " values " + values);
  };
  load("R", in.r);
  out.push_back("create table I as select K, V from R" +
                (in.i.size() < in.r.size() ? " where K < " + Num(static_cast<int64_t>(in.i.size()))
                                           : std::string()) +
                " repair by key K weight W");
  if (!in.s.empty()) {
    load("S", in.s);
    out.push_back("create table J as select K, V from S repair by key K weight W");
  }
  return out;
}

std::vector<Template> SessionRound(const WorkloadSpec& spec, const Inputs& in) {
  const std::string c = Num(in.sum_bound);
  const std::string conf_keys = Num(std::min<int64_t>(kConfKeys, spec.i_keys));
  const std::string repair_keys =
      Num(std::min<int64_t>(kRepairKeys, spec.r_keys));
  const Relation& r = in.r;
  const Relation& i = in.i;
  const Relation& s = in.s;
  const int64_t s_keys = spec.s_keys;
  std::vector<Template> t;
  // Per-world answers of each unquantified form: the explicit engine
  // answers in every world of the set, the decomposed engine only over
  // the components the statement reads (or creates).
  const bool explicit_engine = spec.engine == EngineMode::kExplicit;
  const double all = ExpectedShape(spec, in).log10_worlds;
  const double over_i = explicit_engine ? all : spec.i_keys * std::log10(kRAlts);
  const double over_j = explicit_engine ? all : s_keys * std::log10(2);
  const double over_repair =
      (explicit_engine ? all : 0) +
      static_cast<double>(std::stoll(repair_keys)) * std::log10(kRAlts);
  auto read = [&](std::string name, std::string sql, Path path,
                  std::string unquantified, std::string core, double answers,
                  Check check) {
    t.push_back({std::move(name), std::move(sql), Op::kRead, path,
                 std::move(unquantified), std::move(core), answers,
                 std::move(check)});
  };
  auto write = [&](std::string name, std::string sql) {
    t.push_back({std::move(name), std::move(sql), Op::kWrite,
                 Path::kClosedForm, "", "", 0, nullptr});
  };

  read("i_conf", "select conf, K, V from I where K < " + conf_keys,
       Path::kClosedForm, "select K, V from I where K < " + conf_keys,
       "select K, V from I where K < " + conf_keys, over_i,
       ExpectRows(TupleConf(i, std::stoll(conf_keys)), kConfTol));
  read("i_possible", "select possible K from I where V > 90",
       Path::kClosedForm, "select K from I where V > 90",
       "select K from I where V > 90", over_i, ExpectRows(PossibleKeys(i, 90), 0));
  read("i_certain", "select certain K from I where V > 10",
       Path::kClosedForm, "select K from I where V > 10",
       "select K from I where V > 10", over_i, ExpectRows(CertainKeys(i, 10), 0));
  read("r_repair",
       "select conf, K, V from R where K < " + repair_keys +
           " repair by key K weight W",
       Path::kClosedForm,
       "select K, V from R where K < " + repair_keys +
           " repair by key K weight W",
       "select K, V from R where K < " + repair_keys, over_repair,
       ExpectRows(TupleConf(r, std::stoll(repair_keys)), kConfTol));
  read("j_possible_sum", "select possible sum(V) from J", Path::kEnumerate,
       "select sum(V) from J", "select sum(V) from J", over_j,
       ExpectRows(PossibleSums(s), 0));
  read("j_certain_count", "select certain count(*) from J", Path::kEnumerate,
       "select count(*) from J", "select count(*) from J", over_j,
       ExpectRows({{static_cast<double>(s_keys)}}, 0));
  read("j_conf_sum", "select conf from J where " + c + " > (select sum(V) from J)",
       Path::kEnumerate, "",
       "select K from J where " + c + " > (select sum(V) from J)", over_j,
       ExpectRows({{ProbSumBelow(s, in.sum_bound)}}, kConfTol));
  read("j_assert",
       "select conf, K, V from J assert " + c + " > (select sum(V) from J)",
       Path::kEnumerate,
       "select K, V from J assert " + c + " > (select sum(V) from J)", "",
       over_j, ExpectRows(AssertedConf(s, in.sum_bound), kConfTol));
  read("j_group",
       "select possible count(*) from J group worlds by (select sum(V) from J)",
       Path::kEnumerate, "", "", over_j,
       [groups = SumGroups(s), s_keys](const Answer& a) -> std::string {
         Rows got;
         double mass = 0;
         for (const Answer::Group& g : a.groups) {
           if (g.key.size() != 1 || g.key[0].size() != 1) return "bad group key";
           std::string rows = CompareRows({{static_cast<double>(s_keys)}},
                                          g.rows, 0);
           if (!rows.empty()) return "group answer: " + rows;
           got.push_back({g.key[0][0], g.probability});
           mass += g.probability;
         }
         if (!(std::fabs(mass - 1.0) <= kConfTol)) return "group masses do not sum to 1";
         return CompareRows(groups, got, kConfTol);
       });

  write("r_insert", "insert into R values (-1, 1, 1), (-2, 2, 1)");
  write("r_update", "update R set V = V + 1 where K < 0");
  write("r_delete", "delete from R where K < 0");
  // A key range, not a value filter, so D has the same shape on every seed.
  write("d_create", "create table D as select K, V from I where K < " + conf_keys);
  write("d_drop", "drop table D");
  return t;
}

Template DigestRead(const Inputs& in, bool admit_inserted) {
  const double n = static_cast<double>(BaseCount(in.r));
  const double sum = static_cast<double>(BaseSum(in.r));
  Template t;
  t.name = "r_digest";
  t.sql = "select certain count(*), sum(V) from R";
  t.unquantified = "select count(*), sum(V) from R";
  t.core = t.unquantified;
  t.check = [n, sum, admit_inserted](const Answer& a) -> std::string {
    std::string base = CompareRows({{n, sum}}, a.rows, 0);
    if (base.empty() || !admit_inserted) return base;
    std::string inserted =
        CompareRows({{n + 1, sum + static_cast<double>(kInsertedV)}}, a.rows, 0);
    return inserted.empty() ? "" : "matches no committed state: " + base;
  };
  return t;
}

std::vector<Template> ServerReads(const Inputs& in, int64_t k) {
  const std::string key = Num(k);
  const double over_i = static_cast<double>(in.i.size()) *
                        std::log10(static_cast<double>(in.i.at(0).alts.size()));
  Rows conf;
  for (const Row& row : TupleConf(in.i, k + 1)) {
    if (row[0] == static_cast<double>(k)) conf.push_back(row);
  }
  std::vector<Template> t;
  t.push_back({"i_point_conf", "select conf, K, V from I where K = " + key,
               Op::kRead, Path::kClosedForm,
               "select K, V from I where K = " + key,
               "select K, V from I where K = " + key, over_i,
               ExpectRows(std::move(conf), kConfTol)});
  t.push_back({"i_point_possible", "select possible V from I where K = " + key,
               Op::kRead, Path::kClosedForm,
               "select V from I where K = " + key,
               "select V from I where K = " + key, over_i,
               ExpectRows(PossibleValues(in.i, k), 0)});
  t.push_back(DigestRead(in, /*admit_inserted=*/true));
  return t;
}

std::vector<Template> ServerWrites() {
  return {
      {"r_insert", "insert into R values (-1, " + Num(kInsertedV) + ", 1)",
       Op::kWrite, Path::kClosedForm, "", "", 0, nullptr},
      {"r_delete", "delete from R where K < 0", Op::kWrite, Path::kClosedForm,
       "", "", 0, nullptr},
  };
}

Shape ExpectedShape(const WorkloadSpec& spec, const Inputs& in) {
  Shape s;
  // I has kRAlts^i_keys worlds, J 2^s_keys.
  s.log10_worlds = static_cast<double>(spec.i_keys) * std::log10(kRAlts) +
                   static_cast<double>(in.s.size()) * std::log10(2);
  if (spec.engine == EngineMode::kExplicit) {
    s.components = 1;
    s.largest = static_cast<uint64_t>(std::llround(std::pow(10, s.log10_worlds)));
  } else {
    s.components = static_cast<uint64_t>(spec.i_keys + spec.s_keys);
    s.largest = kRAlts;  // I's components; J's have 2 alternatives
  }
  return s;
}

Shape MeasureShape(const maybms::worlds::WorldSet& ws) {
  Shape s;
  s.log10_worlds = ws.Log10NumWorlds();
  const auto* wsd = dynamic_cast<const maybms::worlds::DecomposedWorldSet*>(&ws);
  if (wsd == nullptr) {
    s.components = 1;
    s.largest = ws.NumWorlds();
    return s;
  }
  s.components = wsd->num_components();
  for (const auto& c : wsd->components()) {
    s.largest = std::max<uint64_t>(s.largest, c.size());
  }
  return s;
}

}  // namespace isqlbench
