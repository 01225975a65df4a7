#ifndef ISQLBENCH_WORKLOADS_H_
#define ISQLBENCH_WORKLOADS_H_

// The three workloads: their inputs, the generated SQL the program sees,
// and the check of every answer against the model (model.h).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isql/query_result.h"
#include "isql/session.h"
#include "model.h"

namespace isqlbench {

/// An answer in engine-neutral form: the single table of a
/// possible/certain/conf query, or the groups of `group worlds by`.
struct Answer {
  Rows rows;
  struct Group {
    double probability = 0;
    Rows key;
    Rows rows;
  };
  std::vector<Group> groups;
};

/// Converts an embedded session's result.
Answer FromResult(const maybms::isql::QueryResult& result);

/// Parses the server's rendering of a single-table answer. Returns false
/// when the text is not a table.
bool FromText(const std::string& text, Answer* out);

/// "" when the answer is right, else why it is wrong.
using Check = std::function<std::string(const Answer&)>;

enum class Op { kRead, kWrite };

/// How the decomposed engine answers a read: per alternative with a
/// closed form (no enumeration), or by enumerating a sub-product.
enum class Path { kClosedForm, kEnumerate };

struct Template {
  std::string name;
  std::string sql;
  Op op = Op::kRead;
  Path path = Path::kClosedForm;
  /// The statement without its world quantifier (combiner pass); empty
  /// when the statement has no select list to combine.
  std::string unquantified;
  /// The per-world SQL core, free of world operations (engine pass);
  /// empty when there is none.
  std::string core;
  /// log10 of the number of per-world answers the unquantified form has
  /// under the workload's engine (decides whether the combiner pass can
  /// enumerate them).
  double log10_answers = 0;
  Check check;  // reads only
};

/// Rows per key group of R, so alternatives per component of I. S (and
/// its repair J) always has two rows per key group.
inline constexpr int kRAlts = 3;
/// The engine thread count every workload pins.
inline constexpr size_t kThreads = 1;

struct WorkloadSpec {
  std::string name;
  maybms::isql::EngineMode engine = maybms::isql::EngineMode::kDecomposed;
  bool server = false;
  int r_keys = 0;  // key groups of R
  int i_keys = 0;  // key groups of R repaired into I (the first ones)
  int s_keys = 0;  // key groups of S (and of its repair J); 0 = no J
};

/// The named workload, or false.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

struct Inputs {
  Relation r;
  Relation i;  // the key groups of R that I repairs
  Relation s;
  int64_t sum_bound = 0;  // c in `c > (select sum(V) from J)`
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Statements that create and load R and S and build I and J.
std::vector<std::string> LoadStatements(const Inputs& in);

/// One round of an embedded session: reads, then writes that leave the
/// session exactly as they found it.
std::vector<Template> SessionRound(const WorkloadSpec& spec,
                                   const Inputs& in);

/// The R digest query and its check against the model's base state;
/// `extra_rows`/`extra_sum` also admit the state a writer's insert leaves.
Template DigestRead(const Inputs& in, bool admit_inserted);

/// The point reads of one server reader round, for key `k`.
std::vector<Template> ServerReads(const Inputs& in, int64_t k);

/// The writer round of the server workload: insert, then undo.
std::vector<Template> ServerWrites();

/// What the durable-server writer inserts (and deletes again).
inline constexpr int64_t kInsertedV = 7;

/// The expected world-set shape: log10 of the world count, components,
/// and the largest component (explicit: one component of every world).
struct Shape {
  double log10_worlds = 0;
  uint64_t components = 0;
  uint64_t largest = 0;
};
Shape ExpectedShape(const WorkloadSpec& spec, const Inputs& in);
Shape MeasureShape(const maybms::worlds::WorldSet& ws);

}  // namespace isqlbench

#endif  // ISQLBENCH_WORKLOADS_H_
