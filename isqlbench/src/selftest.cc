// Self-tests of the benchmark's answer checks:
//  1. each oracle in model.h equals brute-force world enumeration on tiny
//     inputs;
//  2. each workload check accepts the oracle's answer and rejects a
//     perturbed one;
//  3. on tiny inputs both engines' answers — as results and as the
//     server's text rendering — pass every check.
// Exits 0 when every test passes. Run: python3 isqlbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "isql/formatter.h"
#include "isql/session.h"
#include "model.h"
#include "workloads.h"

namespace isqlbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectSame(const Rows& want, const Rows& got, double tol,
                const std::string& what) {
  std::string diff = CompareRows(want, got, tol);
  Expect(diff.empty(), what + ": " + diff);
}

// ---- 1. Oracles against brute force ----------------------------------------

void OraclesMatchBruteForce(const Relation& rel, const std::string& label) {
  std::map<int64_t, double> sums;
  std::map<std::pair<int64_t, int64_t>, double> marginal;
  std::set<int64_t> possible_keys, certain_keys;
  bool first = true;
  double total = 0;
  EnumerateWorlds(rel, [&](double p, const std::vector<int>& choice) {
    total += p;
    int64_t sum = 0;
    std::set<int64_t> above;
    for (size_t i = 0; i < rel.size(); ++i) {
      const Alt& a = rel[i].alts[static_cast<size_t>(choice[i])];
      sum += a.v;
      marginal[{rel[i].k, a.v}] += p;
      if (a.v > 50) above.insert(rel[i].k);
    }
    sums[sum] += p;
    possible_keys.insert(above.begin(), above.end());
    if (first) {
      certain_keys = above;
      first = false;
    } else {
      std::set<int64_t> both;
      for (int64_t k : certain_keys) {
        if (above.count(k)) both.insert(k);
      }
      certain_keys = both;
    }
  });
  Expect(std::fabs(total - 1) < 1e-12, label + ": world probabilities sum to 1");

  Rows conf, possible, certain, groups, distinct;
  for (const auto& [kv, p] : marginal) {
    conf.push_back({static_cast<double>(kv.first), static_cast<double>(kv.second), p});
  }
  for (int64_t k : possible_keys) possible.push_back({static_cast<double>(k)});
  for (int64_t k : certain_keys) certain.push_back({static_cast<double>(k)});
  for (const auto& [s, p] : sums) {
    groups.push_back({static_cast<double>(s), p});
    distinct.push_back({static_cast<double>(s)});
  }
  ExpectSame(conf, TupleConf(rel, 1 << 30), 1e-12, label + ": TupleConf");
  ExpectSame(possible, PossibleKeys(rel, 50), 0, label + ": PossibleKeys");
  ExpectSame(certain, CertainKeys(rel, 50), 0, label + ": CertainKeys");
  ExpectSame(distinct, PossibleSums(rel), 0, label + ": PossibleSums");
  ExpectSame(groups, SumGroups(rel), 1e-12, label + ": SumGroups");

  for (const auto& [c, unused] : sums) {
    (void)unused;
    double below = 0;
    for (const auto& [s, p] : sums) {
      if (s < c) below += p;
    }
    Expect(std::fabs(below - ProbSumBelow(rel, c)) < 1e-12,
           label + ": ProbSumBelow " + std::to_string(c));
    if (below == 0) continue;
    std::map<std::pair<int64_t, int64_t>, double> cond;
    EnumerateWorlds(rel, [&](double p, const std::vector<int>& choice) {
      int64_t sum = 0;
      for (size_t i = 0; i < rel.size(); ++i) {
        sum += rel[i].alts[static_cast<size_t>(choice[i])].v;
      }
      if (sum >= c) return;
      for (size_t i = 0; i < rel.size(); ++i) {
        cond[{rel[i].k, rel[i].alts[static_cast<size_t>(choice[i])].v}] += p / below;
      }
    });
    Rows want;
    for (const auto& [kv, p] : cond) {
      want.push_back({static_cast<double>(kv.first), static_cast<double>(kv.second), p});
    }
    ExpectSame(want, AssertedConf(rel, c), 1e-12,
               label + ": AssertedConf " + std::to_string(c));
  }
}

// ---- 2. Checks reject perturbed answers -------------------------------------

Answer OracleAnswer(const std::string& name, const Inputs& in) {
  Answer a;
  if (name == "i_conf") a.rows = TupleConf(in.i, 1 << 30);
  if (name == "i_possible") a.rows = PossibleKeys(in.i, 90);
  if (name == "i_certain") a.rows = CertainKeys(in.i, 10);
  if (name == "r_repair") a.rows = TupleConf(in.r, 8);
  if (name == "j_possible_sum") a.rows = PossibleSums(in.s);
  if (name == "j_certain_count") a.rows = {{static_cast<double>(in.s.size())}};
  if (name == "j_conf_sum") a.rows = {{ProbSumBelow(in.s, in.sum_bound)}};
  if (name == "j_assert") a.rows = AssertedConf(in.s, in.sum_bound);
  if (name == "j_group") {
    for (const Row& g : SumGroups(in.s)) {
      a.groups.push_back({g[1], {{g[0]}}, {{static_cast<double>(in.s.size())}}});
    }
  }
  return a;
}

void ChecksRejectPerturbations() {
  WorkloadSpec spec{"tiny", maybms::isql::EngineMode::kDecomposed, false, 10, 5, 6};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Inputs in = MakeInputs(spec, seed);
    for (const Template& t : SessionRound(spec, in)) {
      if (t.op != Op::kRead) continue;
      const std::string label = t.name + " seed " + std::to_string(seed);
      Answer good = OracleAnswer(t.name, in);
      Expect(t.check(good).empty(), label + " accepts the oracle: " + t.check(good));
      if (!good.groups.empty()) {
        Answer bad = good;
        bad.groups[0].probability += 1e-6;
        Expect(!t.check(bad).empty(), label + " rejects a group mass off by 1e-6");
        bad = good;
        bad.groups.pop_back();
        Expect(!t.check(bad).empty(), label + " rejects a missing group");
        continue;
      }
      Answer bad = good;
      if (good.rows.empty()) {
        bad.rows.push_back({1000});
        Expect(!t.check(bad).empty(), label + " rejects a row where none is");
        continue;
      }
      bad.rows.back().back() += 1e-6;
      Expect(!t.check(bad).empty(), label + " rejects a field off by 1e-6");
      bad = good;
      bad.rows.pop_back();
      Expect(!t.check(bad).empty(), label + " rejects a missing row");
      bad = good;
      bad.rows.push_back(good.rows.back());
      bad.rows.back()[0] += 1000;
      Expect(!t.check(bad).empty(), label + " rejects an extra row");
    }
    const Template base = DigestRead(in, false);
    const Template either = DigestRead(in, true);
    const double n = static_cast<double>(BaseCount(in.r));
    const double sum = static_cast<double>(BaseSum(in.r));
    Answer digest{{{n, sum}}, {}};
    Answer inserted{{{n + 1, sum + static_cast<double>(kInsertedV)}}, {}};
    Answer torn{{{n + 1, sum}}, {}};
    Expect(base.check(digest).empty() && either.check(digest).empty(),
           "digest accepts the base state");
    Expect(!base.check(inserted).empty(), "base digest rejects the inserted state");
    Expect(either.check(inserted).empty(), "reader digest accepts the inserted state");
    Expect(!either.check(torn).empty(), "reader digest rejects a state no writer commits");
  }
}

// ---- 3. Both engines pass every check on tiny inputs ------------------------

void EnginesPassChecks(maybms::isql::EngineMode engine, const char* label) {
  WorkloadSpec spec{"tiny", engine, false, 5, 4, 5};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Inputs in = MakeInputs(spec, seed);
    maybms::isql::SessionOptions options;
    options.engine = engine;
    options.storage = maybms::isql::StorageMode::kMemory;
    options.threads = kThreads;
    maybms::isql::Session session(options);
    for (const std::string& sql : LoadStatements(in)) {
      Expect(session.Execute(sql).ok(), std::string(label) + " load: " + sql.substr(0, 40));
    }
    std::vector<Template> all = SessionRound(spec, in);
    for (const Template& t : ServerReads(in, 2)) all.push_back(t);
    for (int pass = 0; pass < 2; ++pass) {  // the round restores its state
      const Shape shape = MeasureShape(session.world_set());
      const Shape want = ExpectedShape(spec, in);
      Expect(std::fabs(shape.log10_worlds - want.log10_worlds) < 1e-9 &&
                 shape.components == want.components && shape.largest == want.largest,
             std::string(label) + ": world-set shape matches the model");
      for (const Template& t : all) {
        const std::string what = std::string(label) + " " + t.name;
        auto r = session.Execute(t.sql);
        if (!r.ok()) {
          Expect(false, what + ": " + r.status().ToString());
          continue;
        }
        if (t.op != Op::kRead) continue;
        std::string wrong = t.check(FromResult(*r));
        Expect(wrong.empty(), what + ": " + wrong);
        if (r->kind() != maybms::isql::QueryResult::Kind::kTable) continue;
        Answer parsed;
        Expect(FromText(maybms::isql::FormatQueryResult(*r), &parsed),
               what + ": text answer parses");
        wrong = t.check(parsed);
        Expect(wrong.empty(), what + " as text: " + wrong);
      }
    }
  }
}

}  // namespace
}  // namespace isqlbench

int main() {
  using namespace isqlbench;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int keys = 2 + static_cast<int>(seed % 4);
    const int alts = 2 + static_cast<int>(seed % 2);
    // A narrow V range makes sums collide, which the convolution must add.
    OraclesMatchBruteForce(GenerateRelation(&rng, keys, alts, 1, 100),
                           "seed " + std::to_string(seed));
    OraclesMatchBruteForce(GenerateRelation(&rng, keys + 2, 2, 40, 60),
                           "narrow seed " + std::to_string(seed));
    OraclesMatchBruteForce(GenerateBinaryRelation(&rng, keys + 3),
                           "binary seed " + std::to_string(seed));
  }
  ChecksRejectPerturbations();
  EnginesPassChecks(maybms::isql::EngineMode::kDecomposed, "decomposed");
  EnginesPassChecks(maybms::isql::EngineMode::kExplicit, "explicit");
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
