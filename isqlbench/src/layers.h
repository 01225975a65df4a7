#ifndef ISQLBENCH_LAYERS_H_
#define ISQLBENCH_LAYERS_H_

// The traced run's per-layer passes. Every timer wraps a call into one of
// the program's modules (sql, isql, worlds, engine, storage) made from the
// benchmark's own code; nothing inside the program is instrumented.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "isql/session.h"
#include "storage/store.h"
#include "trace.h"
#include "workloads.h"

namespace isqlbench {

/// Whether the run's answers were right, and its first problem.
class Verdict {
 public:
  /// An answer or invariant check failed: the run is not correct.
  void Wrong(const std::string& what);
  /// A statement returned an error (counted in `failed`).
  void Failed(const std::string& what);
  bool correct() const;
  uint64_t failed() const;
  std::string first_problem() const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  uint64_t failed_ = 0;
  std::string first_;
};

struct LayerStats {
  std::vector<double> parse_us, format_us;
  // Per round.
  std::vector<double> read_ms, write_ms, evaluate_ms, closed_form_ms,
      enumerate_ms, clone_ms;
  Shape shape;
  // Once per run.
  double combine_ms = 0;
  double combine_feeds = 0;
  std::vector<double> select_per_world_us, dml_per_world_us;
  // Per replayed commit.
  std::vector<double> to_snapshot_ms, commit_ms, load_ms, from_snapshot_ms,
      bytes_per_commit, pool_hits, pool_misses, evictions, flushes;
  // Per server request.
  std::vector<double> roundtrip_us, execute_us;
};

/// Replays the four calls Session::PersistAndReload makes, on a clone of
/// the live world-set, into a store the benchmark owns.
class StorageReplay {
 public:
  /// Opens (creating) the store file at `path`.
  static std::unique_ptr<StorageReplay> Open(const std::string& path,
                                             Verdict* verdict);
  void AfterWrite(const maybms::worlds::WorldSet& live, Tracer* tracer,
                  LayerStats* stats);

 private:
  std::string path_;
  std::unique_ptr<maybms::storage::PagedStore> store_;
  Verdict* verdict_ = nullptr;
};

/// One traced round on an embedded session: every statement parsed,
/// executed pre-parsed and (reads) formatted and checked; then each read
/// evaluated directly on the world-set, and the set cloned. `replay` may
/// be null.
void TracedRound(maybms::isql::Session* session,
                 const std::vector<Template>& round, Tracer* tracer,
                 StorageReplay* replay, LayerStats* stats, Verdict* verdict);

/// The per-world engine pass: each template's SQL core on one
/// materialized world, and each DML write on a copy of that world.
void EnginePass(const maybms::isql::Session& session,
                const std::vector<Template>& round, Tracer* tracer,
                LayerStats* stats, Verdict* verdict);

/// The combiner pass: QuantifierCombiner over the per-world answers of
/// each quantified read whose unquantified form has at most
/// 10^max_log10 answers.
void CombinePass(const maybms::isql::Session& session,
                 const std::vector<Template>& round, double max_log10,
                 Tracer* tracer, LayerStats* stats, Verdict* verdict);

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// The q-quantile (0..1) by linear interpolation.
double Quantile(std::vector<double> v, double q);

}  // namespace isqlbench

#endif  // ISQLBENCH_LAYERS_H_
