#ifndef MAYBMS_WORLDS_COMPONENT_H_
#define MAYBMS_WORLDS_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/tuple.h"

namespace maybms::worlds {

/// One local world of a component: a probability plus the tuples this
/// choice contributes to each relation (keys are lower-cased relation
/// names). Choosing one alternative from every component — independently —
/// yields one possible world; the world's relation instance is the certain
/// core plus the chosen alternatives' contributions.
struct Alternative {
  double probability = 1.0;
  std::map<std::string, std::vector<Tuple>> tuples;

  const std::vector<Tuple>* TuplesFor(const std::string& relation_lower) const;
};

/// An independent factor of a world-set decomposition (ICDT'07 WSDs,
/// restricted to tuple-level alternatives — which is all the demo paper's
/// operations ever create). Alternatives are mutually exclusive and their
/// probabilities sum to one.
struct Component {
  std::vector<Alternative> alternatives;

  size_t size() const { return alternatives.size(); }

  bool ContributesTo(const std::string& relation_lower) const;

  /// All relation names (lower-cased) any alternative contributes to.
  std::vector<std::string> Relations() const;

  /// Rescales alternative probabilities to sum to one. Returns an error if
  /// the total mass is zero.
  Status Normalize();
};

/// The product of a set of components, addressed by ordinal: ordinal `o`
/// picks from part k the alternative given by digit k of `o` in
/// little-endian mixed radix (part 0 varies fastest). Probabilities
/// multiply in part order. This is the one enumeration order of the
/// decomposed engine: MergeComponents flattens in it, and every
/// per-world loop over a sub-product walks it, so a local world and its
/// probability are bit-identical whichever way they are reached.
class SubProduct {
 public:
  explicit SubProduct(std::vector<const Component*> parts);

  /// Number of combinations, saturating at uint64 max.
  uint64_t size() const { return size_; }

  /// OK iff the product fits in `max_alternatives` (0 = unlimited); the
  /// error is the merge cap's "component merge would exceed ..." text.
  Status CheckCap(size_t max_alternatives) const;

  /// Fills `chosen` with combination `ordinal`'s alternatives, one per
  /// part in part order, and returns its probability.
  double Decode(uint64_t ordinal,
                std::vector<const Alternative*>* chosen) const;

 private:
  std::vector<const Component*> parts_;
  uint64_t size_ = 1;
};

/// Flattens the product of `parts` into a single component whose
/// alternatives are all combinations, in SubProduct order, with merged
/// contributions and product probabilities. The result size is the
/// product of the part sizes; `max_alternatives` guards against explosion
/// (0 = unlimited).
Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMPONENT_H_
