#ifndef MAYBMS_TESTS_SET_COMBINATORS_H_
#define MAYBMS_TESTS_SET_COMBINATORS_H_

// Set-based reference combinators for possible / certain / conf: the
// textbook definitions over a fully materialized vector of (probability,
// answer) pairs. The engine combines worlds with the streaming
// QuantifierCombiner (worlds/combiner.h); these are the reference it is
// checked against (tests/combiner_property_test.cc,
// tests/world_set_helpers_test.cc).

#include <utility>
#include <vector>

#include "storage/table.h"

namespace maybms::worlds {

/// Combines per-world results under `possible`: the distinct union.
/// Entries' tables must share arity.
Table CombinePossible(const std::vector<std::pair<double, Table>>& entries);

/// Combines per-world results under `certain`: tuples present in every
/// world's answer.
Table CombineCertain(const std::vector<std::pair<double, Table>>& entries);

/// Combines per-world results under `conf`: each distinct tuple extended
/// with the sum of probabilities of the worlds whose answer contains it.
/// For 0-column answers (bare `select conf`), produces a single-row table
/// with one `conf` column holding P(answer non-empty).
Table CombineConf(const std::vector<std::pair<double, Table>>& entries);

}  // namespace maybms::worlds

#endif  // MAYBMS_TESTS_SET_COMBINATORS_H_
