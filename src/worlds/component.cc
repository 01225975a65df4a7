#include "worlds/component.h"

#include <limits>
#include <string>
#include <utility>

namespace maybms::worlds {

const std::vector<Tuple>* Alternative::TuplesFor(
    const std::string& relation_lower) const {
  auto it = tuples.find(relation_lower);
  return it == tuples.end() ? nullptr : &it->second;
}

bool Component::ContributesTo(const std::string& relation_lower) const {
  for (const Alternative& alt : alternatives) {
    auto it = alt.tuples.find(relation_lower);
    if (it != alt.tuples.end() && !it->second.empty()) return true;
  }
  return false;
}

std::vector<std::string> Component::Relations() const {
  std::vector<std::string> names;
  for (const Alternative& alt : alternatives) {
    for (const auto& [rel, tuples] : alt.tuples) {
      if (tuples.empty()) continue;
      bool seen = false;
      for (const std::string& n : names) {
        if (n == rel) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(rel);
    }
  }
  return names;
}

Status Component::Normalize() {
  double total = 0;
  for (const Alternative& alt : alternatives) total += alt.probability;
  if (total <= 0) {
    return Status::EmptyWorldSet("component has zero probability mass");
  }
  for (Alternative& alt : alternatives) alt.probability /= total;
  return Status::OK();
}

SubProduct::SubProduct(std::vector<const Component*> parts)
    : parts_(std::move(parts)) {
  for (const Component* part : parts_) {
    const uint64_t n = static_cast<uint64_t>(part->size());
    if (n != 0 && size_ > std::numeric_limits<uint64_t>::max() / n) {
      size_ = std::numeric_limits<uint64_t>::max();  // saturate
      return;
    }
    size_ *= n;
  }
}

Status SubProduct::CheckCap(size_t max_alternatives) const {
  if (max_alternatives != 0 && size_ > max_alternatives) {
    return Status::Unsupported(
        "component merge would exceed " + std::to_string(max_alternatives) +
        " alternatives; the query correlates too many components");
  }
  return Status::OK();
}

double SubProduct::Decode(uint64_t ordinal,
                          std::vector<const Alternative*>* chosen) const {
  chosen->resize(parts_.size());
  double probability = 1.0;
  for (size_t k = 0; k < parts_.size(); ++k) {
    const std::vector<Alternative>& alternatives = parts_[k]->alternatives;
    const Alternative& alt = alternatives[ordinal % alternatives.size()];
    ordinal /= alternatives.size();
    (*chosen)[k] = &alt;
    probability *= alt.probability;
  }
  return probability;
}

Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives) {
  SubProduct product(parts);
  MAYBMS_RETURN_NOT_OK(product.CheckCap(max_alternatives));
  Component merged;
  merged.alternatives.resize(static_cast<size_t>(product.size()));
  std::vector<const Alternative*> chosen;
  for (size_t o = 0; o < merged.alternatives.size(); ++o) {
    Alternative& combo = merged.alternatives[o];
    combo.probability = product.Decode(o, &chosen);
    for (const Alternative* alt : chosen) {
      for (const auto& [rel, tuples] : alt->tuples) {
        auto& dst = combo.tuples[rel];
        dst.insert(dst.end(), tuples.begin(), tuples.end());
      }
    }
  }
  return merged;
}

}  // namespace maybms::worlds
