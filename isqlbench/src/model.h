#ifndef ISQLBENCH_MODEL_H_
#define ISQLBENCH_MODEL_H_

// The benchmark's own model of its inputs: a seeded generator for the
// key-violating base relations and the oracles that compute every
// expected answer from the generated rows alone. Nothing here links
// against the engine, so the oracles are independent of the code they
// check; brute-force world enumeration (for the self-tests) lives here
// too.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace isqlbench {

/// SplitMix64: a tiny, fully specified generator, so the same seed yields
/// the same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

struct Alt {
  int64_t v = 0;
  int64_t w = 0;
};

/// One key of a key-violating relation X(K, V, W): its alternatives are
/// the rows sharing the key; `repair by key K weight W` keeps one of them
/// with probability w / total_w.
struct KeyGroup {
  int64_t k = 0;
  std::vector<Alt> alts;
  int64_t total_w = 0;
};

using Relation = std::vector<KeyGroup>;

/// Key groups 0..keys-1 with `alts` rows each: V distinct within a group
/// and drawn from [v_lo, v_hi], W from [1, 9].
Relation GenerateRelation(Rng* rng, int keys, int alts, int64_t v_lo,
                          int64_t v_hi);

/// Key groups 0..keys-1 with two rows each: V = a and V = a + 2^k, with
/// a drawn from [1, 100] and W from [1, 9]. Every choice of alternatives
/// has its own sum, so the number of distinct sums is 2^keys on every
/// seed, and the sums below base + m are exactly m worlds.
Relation GenerateBinaryRelation(Rng* rng, int keys);

/// Rows of an answer relation; integers are exact in a double.
using Row = std::vector<double>;
using Rows = std::vector<Row>;

/// Sorts rows lexicographically (the canonical order for comparisons).
void SortRows(Rows* rows);

/// Returns "" when `actual` equals `expected` as sorted row sets, with
/// every field within `tol`; otherwise a one-line description of the
/// first difference.
std::string CompareRows(Rows expected, Rows actual, double tol);

// ---- Oracles over a repaired relation -------------------------------------

/// Tuple confidences of the repair: rows (k, v, w / total_w) for keys
/// below `key_below`.
Rows TupleConf(const Relation& rel, int64_t key_below);

/// Rows (v) of the values key `k` can take (`possible V ... where K = k`).
Rows PossibleValues(const Relation& rel, int64_t k);

/// Keys with some (possible) or every (certain) alternative's V above
/// `v_above`, as one-column rows.
Rows PossibleKeys(const Relation& rel, int64_t v_above);
Rows CertainKeys(const Relation& rel, int64_t v_above);

/// Distribution of SUM(V) over the repair, by convolving the per-group
/// distributions: result[s] = P(sum = s).
std::vector<double> SumDistribution(const Relation& rel);

/// The set of possible sums, computed exactly (a subset-sum bitmap, no
/// floating point), as one-column rows.
Rows PossibleSums(const Relation& rel);

/// P(c > SUM(V)).
double ProbSumBelow(const Relation& rel, int64_t c);

/// Tuple confidences after `assert c > (select sum(V) ...)`: rows
/// (k, v, P(k has v | sum < c)) for every tuple with non-zero mass.
Rows AssertedConf(const Relation& rel, int64_t c);

/// Groups of `group worlds by (select sum(V) ...)`: rows (sum, mass).
Rows SumGroups(const Relation& rel);

/// Sum of V over every row of the base relation (the R digest).
int64_t BaseSum(const Relation& rel);
int64_t BaseCount(const Relation& rel);

// ---- Brute force (self-tests only) ----------------------------------------

/// Calls fn(probability, choice) once per world of the repair, where
/// choice[i] is the alternative kept for group i.
void EnumerateWorlds(
    const Relation& rel,
    const std::function<void(double, const std::vector<int>&)>& fn);

}  // namespace isqlbench

#endif  // ISQLBENCH_MODEL_H_
