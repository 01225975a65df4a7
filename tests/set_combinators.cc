#include "tests/set_combinators.h"

#include <map>

#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace maybms::worlds {

Table CombinePossible(const std::vector<std::pair<double, Table>>& entries) {
  Table out;
  bool first = true;
  for (const auto& [prob, table] : entries) {
    (void)prob;
    if (first) {
      out = table;
      first = false;
    } else {
      for (const Tuple& row : table.rows()) out.AppendUnchecked(row);
    }
  }
  out.DeduplicateRows();
  return out;
}

Table CombineCertain(const std::vector<std::pair<double, Table>>& entries) {
  if (entries.empty()) return Table();
  Table acc = entries[0].second.SortedDistinct();
  for (size_t i = 1; i < entries.size(); ++i) {
    Table next(acc.schema());
    for (const Tuple& row : acc.rows()) {
      if (entries[i].second.ContainsTuple(row)) next.AppendUnchecked(row);
    }
    acc = std::move(next);
  }
  return acc;
}

Table CombineConf(const std::vector<std::pair<double, Table>>& entries) {
  // 0-column answers: confidence that the answer is non-empty.
  bool zero_ary = true;
  for (const auto& [prob, table] : entries) {
    (void)prob;
    if (table.schema().num_columns() > 0) {
      zero_ary = false;
      break;
    }
  }
  if (zero_ary) {
    double conf = 0;
    for (const auto& [prob, table] : entries) {
      if (!table.empty()) conf += prob;
    }
    Schema schema;
    schema.AddColumn(Column("conf", DataType::kReal));
    Table out(std::move(schema));
    out.AppendUnchecked(Tuple({Value::Real(conf)}));
    return out;
  }

  // Distinct tuples across all worlds, each with the total probability of
  // the worlds whose answer contains it.
  std::map<Tuple, double> conf;
  Schema value_schema;
  for (const auto& [prob, table] : entries) {
    if (value_schema.num_columns() == 0 && table.schema().num_columns() > 0) {
      value_schema = table.schema();
    }
    Table distinct = table.SortedDistinct();
    for (const Tuple& row : distinct.rows()) conf[row] += prob;
  }
  Schema schema = value_schema;
  schema.AddColumn(Column("conf", DataType::kReal));
  Table out(std::move(schema));
  for (const auto& [row, p] : conf) {
    Tuple extended = row;
    extended.Append(Value::Real(p));
    out.AppendUnchecked(std::move(extended));
  }
  return out;
}

}  // namespace maybms::worlds
