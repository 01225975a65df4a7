#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace isqlbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

Relation GenerateRelation(Rng* rng, int keys, int alts, int64_t v_lo,
                          int64_t v_hi) {
  Relation rel(static_cast<size_t>(keys));
  for (int k = 0; k < keys; ++k) {
    KeyGroup& g = rel[static_cast<size_t>(k)];
    g.k = k;
    while (static_cast<int>(g.alts.size()) < alts) {
      int64_t v = rng->Uniform(v_lo, v_hi);
      bool dup = std::any_of(g.alts.begin(), g.alts.end(),
                             [v](const Alt& a) { return a.v == v; });
      if (dup) continue;
      g.alts.push_back({v, rng->Uniform(1, 9)});
      g.total_w += g.alts.back().w;
    }
  }
  return rel;
}

Relation GenerateBinaryRelation(Rng* rng, int keys) {
  Relation rel(static_cast<size_t>(keys));
  for (int k = 0; k < keys; ++k) {
    KeyGroup& g = rel[static_cast<size_t>(k)];
    g.k = k;
    const int64_t a = rng->Uniform(1, 100);
    g.alts = {{a, rng->Uniform(1, 9)}, {a + (int64_t{1} << k), rng->Uniform(1, 9)}};
    g.total_w = g.alts[0].w + g.alts[1].w;
  }
  return rel;
}

void SortRows(Rows* rows) { std::sort(rows->begin(), rows->end()); }

std::string CompareRows(Rows expected, Rows actual, double tol) {
  SortRows(&expected);
  SortRows(&actual);
  char buf[256];
  if (expected.size() != actual.size()) {
    std::snprintf(buf, sizeof(buf), "expected %zu rows, got %zu",
                  expected.size(), actual.size());
    return buf;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].size() != actual[i].size()) {
      std::snprintf(buf, sizeof(buf), "row %zu: expected %zu fields, got %zu",
                    i, expected[i].size(), actual[i].size());
      return buf;
    }
    for (size_t j = 0; j < expected[i].size(); ++j) {
      if (!(std::fabs(expected[i][j] - actual[i][j]) <= tol)) {
        std::snprintf(buf, sizeof(buf),
                      "row %zu field %zu: expected %.15g, got %.15g", i, j,
                      expected[i][j], actual[i][j]);
        return buf;
      }
    }
  }
  return "";
}

Rows TupleConf(const Relation& rel, int64_t key_below) {
  Rows rows;
  for (const KeyGroup& g : rel) {
    if (g.k >= key_below) continue;
    for (const Alt& a : g.alts) {
      rows.push_back({static_cast<double>(g.k), static_cast<double>(a.v),
                      static_cast<double>(a.w) / static_cast<double>(g.total_w)});
    }
  }
  return rows;
}

Rows PossibleValues(const Relation& rel, int64_t k) {
  Rows rows;
  for (const Alt& a : rel.at(static_cast<size_t>(k)).alts) {
    rows.push_back({static_cast<double>(a.v)});
  }
  return rows;
}

Rows PossibleKeys(const Relation& rel, int64_t v_above) {
  Rows rows;
  for (const KeyGroup& g : rel) {
    if (std::any_of(g.alts.begin(), g.alts.end(),
                    [&](const Alt& a) { return a.v > v_above; })) {
      rows.push_back({static_cast<double>(g.k)});
    }
  }
  return rows;
}

Rows CertainKeys(const Relation& rel, int64_t v_above) {
  Rows rows;
  for (const KeyGroup& g : rel) {
    if (std::all_of(g.alts.begin(), g.alts.end(),
                    [&](const Alt& a) { return a.v > v_above; })) {
      rows.push_back({static_cast<double>(g.k)});
    }
  }
  return rows;
}

namespace {

// Distribution of the sum over every group except `skip` (none if -1).
std::vector<double> Convolve(const Relation& rel, long skip) {
  std::vector<double> dist{1.0};
  for (size_t i = 0; i < rel.size(); ++i) {
    if (static_cast<long>(i) == skip) continue;
    const KeyGroup& g = rel[i];
    int64_t max_v = 0;
    for (const Alt& a : g.alts) max_v = std::max(max_v, a.v);
    std::vector<double> next(dist.size() + static_cast<size_t>(max_v), 0.0);
    for (size_t s = 0; s < dist.size(); ++s) {
      if (dist[s] == 0.0) continue;
      for (const Alt& a : g.alts) {
        next[s + static_cast<size_t>(a.v)] +=
            dist[s] * static_cast<double>(a.w) / static_cast<double>(g.total_w);
      }
    }
    dist = std::move(next);
  }
  return dist;
}

double MassBelow(const std::vector<double>& dist, int64_t c) {
  double p = 0;
  for (int64_t s = 0; s < c && s < static_cast<int64_t>(dist.size()); ++s) {
    p += dist[static_cast<size_t>(s)];
  }
  return p;
}

}  // namespace

std::vector<double> SumDistribution(const Relation& rel) {
  return Convolve(rel, -1);
}

Rows PossibleSums(const Relation& rel) {
  std::vector<char> reach{1};
  for (const KeyGroup& g : rel) {
    int64_t max_v = 0;
    for (const Alt& a : g.alts) max_v = std::max(max_v, a.v);
    std::vector<char> next(reach.size() + static_cast<size_t>(max_v), 0);
    for (size_t s = 0; s < reach.size(); ++s) {
      if (!reach[s]) continue;
      for (const Alt& a : g.alts) next[s + static_cast<size_t>(a.v)] = 1;
    }
    reach = std::move(next);
  }
  Rows rows;
  for (size_t s = 0; s < reach.size(); ++s) {
    if (reach[s]) rows.push_back({static_cast<double>(s)});
  }
  return rows;
}

double ProbSumBelow(const Relation& rel, int64_t c) {
  return MassBelow(SumDistribution(rel), c);
}

Rows AssertedConf(const Relation& rel, int64_t c) {
  const double p_cond = ProbSumBelow(rel, c);
  Rows rows;
  for (size_t i = 0; i < rel.size(); ++i) {
    const std::vector<double> rest = Convolve(rel, static_cast<long>(i));
    const KeyGroup& g = rel[i];
    for (const Alt& a : g.alts) {
      double p = static_cast<double>(a.w) / static_cast<double>(g.total_w) *
                 MassBelow(rest, c - a.v);
      if (p > 0) {
        rows.push_back({static_cast<double>(g.k), static_cast<double>(a.v),
                        p / p_cond});
      }
    }
  }
  return rows;
}

Rows SumGroups(const Relation& rel) {
  const std::vector<double> dist = SumDistribution(rel);
  const Rows sums = PossibleSums(rel);
  Rows rows;
  for (const Row& s : sums) {
    rows.push_back({s[0], dist[static_cast<size_t>(s[0])]});
  }
  return rows;
}

int64_t BaseSum(const Relation& rel) {
  int64_t sum = 0;
  for (const KeyGroup& g : rel) {
    for (const Alt& a : g.alts) sum += a.v;
  }
  return sum;
}

int64_t BaseCount(const Relation& rel) {
  int64_t n = 0;
  for (const KeyGroup& g : rel) n += static_cast<int64_t>(g.alts.size());
  return n;
}

void EnumerateWorlds(
    const Relation& rel,
    const std::function<void(double, const std::vector<int>&)>& fn) {
  std::vector<int> choice(rel.size(), 0);
  while (true) {
    double p = 1.0;
    for (size_t i = 0; i < rel.size(); ++i) {
      const KeyGroup& g = rel[i];
      p *= static_cast<double>(g.alts[static_cast<size_t>(choice[i])].w) /
           static_cast<double>(g.total_w);
    }
    fn(p, choice);
    size_t i = 0;
    for (; i < rel.size(); ++i) {
      if (++choice[i] < static_cast<int>(rel[i].alts.size())) break;
      choice[i] = 0;
    }
    if (i == rel.size()) return;
  }
}

}  // namespace isqlbench
