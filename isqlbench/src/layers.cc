#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "engine/dml.h"
#include "engine/executor.h"
#include "isql/formatter.h"
#include "sql/parser.h"
#include "worlds/combiner.h"

namespace isqlbench {

namespace mb = maybms;

void Verdict::Wrong(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (correct_ && first_.empty()) first_ = what;
  correct_ = false;
}

void Verdict::Failed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (first_.empty()) first_ = "statement failed: " + what;
  ++failed_;
}

bool Verdict::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

uint64_t Verdict::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string Verdict::first_problem() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

const mb::sql::SelectStatement* AsSelect(const mb::sql::StatementPtr& stmt) {
  return stmt->kind == mb::sql::StatementKind::kSelect
             ? static_cast<const mb::sql::SelectStatement*>(stmt.get())
             : nullptr;
}

mb::sql::StatementPtr MustParse(const std::string& sql, Verdict* verdict) {
  auto parsed = mb::sql::Parser::ParseStatement(sql);
  if (!parsed.ok()) {
    verdict->Failed(sql + ": " + parsed.status().ToString());
    return nullptr;
  }
  return std::move(parsed).value();
}

bool IsDml(const mb::sql::Statement& stmt) {
  return stmt.kind == mb::sql::StatementKind::kInsert ||
         stmt.kind == mb::sql::StatementKind::kUpdate ||
         stmt.kind == mb::sql::StatementKind::kDelete;
}

}  // namespace

std::unique_ptr<StorageReplay> StorageReplay::Open(const std::string& path,
                                                   Verdict* verdict) {
  auto store = mb::storage::PagedStore::Open(path, 1024);
  if (!store.ok()) {
    verdict->Failed("replay store: " + store.status().ToString());
    return nullptr;
  }
  auto replay = std::make_unique<StorageReplay>();
  replay->path_ = path;
  replay->store_ = std::move(store).value();
  replay->verdict_ = verdict;
  return replay;
}

void StorageReplay::AfterWrite(const mb::worlds::WorldSet& live,
                               Tracer* tracer, LayerStats* stats) {
  std::unique_ptr<mb::worlds::WorldSet> clone = live.Clone();
  ScopedSpan to(tracer, "storage.to_snapshot");
  auto snapshot = clone->ToSnapshot();
  stats->to_snapshot_ms.push_back(to.Close());
  if (!snapshot.ok()) return verdict_->Failed(snapshot.status().ToString());

  const auto pool_before = store_->pool()->stats();
  std::error_code ec;
  const auto bytes_before = std::filesystem::file_size(path_, ec);
  ScopedSpan commit(tracer, "storage.commit");
  mb::Status committed = store_->Commit(*snapshot);
  stats->commit_ms.push_back(commit.Close());
  if (!committed.ok()) return verdict_->Failed(committed.ToString());
  const auto bytes_after = std::filesystem::file_size(path_, ec);
  stats->bytes_per_commit.push_back(
      static_cast<double>(bytes_after) - static_cast<double>(bytes_before));

  ScopedSpan load(tracer, "storage.load");
  auto loaded = store_->Load();
  stats->load_ms.push_back(load.Close());
  if (!loaded.ok()) return verdict_->Failed(loaded.status().ToString());
  ScopedSpan from(tracer, "storage.from_snapshot");
  mb::Status restored = clone->FromSnapshot(*loaded);
  stats->from_snapshot_ms.push_back(from.Close());
  if (!restored.ok()) return verdict_->Failed(restored.ToString());

  const auto pool_after = store_->pool()->stats();
  stats->pool_hits.push_back(static_cast<double>(pool_after.hits - pool_before.hits));
  stats->pool_misses.push_back(
      static_cast<double>(pool_after.misses - pool_before.misses));
  stats->evictions.push_back(
      static_cast<double>(pool_after.evictions - pool_before.evictions));
  stats->flushes.push_back(
      static_cast<double>(pool_after.flushes - pool_before.flushes));
}

void TracedRound(mb::isql::Session* session, const std::vector<Template>& round,
                 Tracer* tracer, StorageReplay* replay, LayerStats* stats,
                 Verdict* verdict) {
  static int64_t next_stmt = 0;
  {
    ScopedSpan span(tracer, "worlds.introspect");
    stats->shape = MeasureShape(session->world_set());
  }
  double read_ms = 0, write_ms = 0;
  std::vector<std::pair<const Template*, mb::sql::StatementPtr>> reads;
  for (const Template& t : round) {
    const int64_t id = next_stmt++;
    ScopedSpan parse(tracer, "sql.parse", id);
    mb::sql::StatementPtr stmt = MustParse(t.sql, verdict);
    const double parse_ms = parse.Close();
    stats->parse_us.push_back(parse_ms * 1e3);
    if (stmt == nullptr) continue;

    const bool is_read = t.op == Op::kRead;
    const mb::sql::Statement& parsed = *stmt;
    if (is_read) reads.emplace_back(&t, std::move(stmt));
    ScopedSpan exec(tracer, is_read ? "isql.read" : "isql.write", id);
    auto result = session->ExecuteStatement(parsed);
    (is_read ? read_ms : write_ms) += parse_ms + exec.Close();
    if (!result.ok()) {
      verdict->Failed(t.name + ": " + result.status().ToString());
      continue;
    }
    if (is_read) {
      ScopedSpan format(tracer, "isql.format", id);
      std::string text = mb::isql::FormatQueryResult(*result);
      stats->format_us.push_back(format.Close() * 1e3);
      std::string wrong = t.check(FromResult(*result));
      if (!wrong.empty()) verdict->Wrong(t.name + ": " + wrong);
    } else if (replay != nullptr) {
      replay->AfterWrite(session->world_set(), tracer, stats);
    }
  }
  stats->read_ms.push_back(read_ms);
  stats->write_ms.push_back(write_ms);

  double evaluate = 0, closed = 0, enumerate = 0;
  for (const auto& [t, stmt] : reads) {
    ScopedSpan span(tracer, "worlds.evaluate");
    auto eval = session->world_set().EvaluateSelect(
        *AsSelect(stmt), session->options().max_display_worlds);
    const double ms = span.Close();
    if (!eval.ok()) verdict->Failed(t->name + ": " + eval.status().ToString());
    evaluate += ms;
    (t->path == Path::kClosedForm ? closed : enumerate) += ms;
  }
  stats->evaluate_ms.push_back(evaluate);
  stats->closed_form_ms.push_back(closed);
  stats->enumerate_ms.push_back(enumerate);

  ScopedSpan clone(tracer, "worlds.clone");
  std::unique_ptr<mb::worlds::WorldSet> copy = session->world_set().Clone();
  stats->clone_ms.push_back(clone.Close());
}

void EnginePass(const mb::isql::Session& session,
                const std::vector<Template>& round, Tracer* tracer,
                LayerStats* stats, Verdict* verdict) {
  constexpr int kReps = 5;
  auto worlds = session.world_set().MaterializeWorlds(1);
  if (!worlds.ok() || worlds->empty()) {
    return verdict->Failed("materialize one world");
  }
  const mb::Database& world = worlds->front().db;
  for (const Template& t : round) {
    if (t.core.empty()) continue;
    mb::sql::StatementPtr stmt = MustParse(t.core, verdict);
    if (stmt == nullptr) continue;
    for (int rep = 0; rep < kReps; ++rep) {
      ScopedSpan span(tracer, "engine.select");
      auto table = mb::engine::ExecuteSelect(*AsSelect(stmt), world);
      stats->select_per_world_us.push_back(span.Close() * 1e3);
      if (!table.ok()) verdict->Failed(t.name + ": " + table.status().ToString());
    }
  }
  std::vector<mb::sql::StatementPtr> writes;
  for (const Template& t : round) {
    if (t.op != Op::kWrite) continue;
    mb::sql::StatementPtr stmt = MustParse(t.sql, verdict);
    if (stmt != nullptr && IsDml(*stmt)) writes.push_back(std::move(stmt));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    mb::Database copy = world;
    for (const mb::sql::StatementPtr& stmt : writes) {
      ScopedSpan span(tracer, "engine.dml");
      auto prepared = mb::engine::PreparedDml::Prepare(*stmt, copy,
                                                       &session.catalog());
      mb::Status done = prepared.ok() ? prepared->Execute(&copy)
                                      : prepared.status();
      stats->dml_per_world_us.push_back(span.Close() * 1e3);
      if (!done.ok()) verdict->Failed("engine dml: " + done.ToString());
    }
  }
}

void CombinePass(const mb::isql::Session& session,
                 const std::vector<Template>& round, double max_log10,
                 Tracer* tracer, LayerStats* stats, Verdict* verdict) {
  for (const Template& t : round) {
    if (t.op != Op::kRead || t.unquantified.empty() ||
        t.log10_answers > max_log10) {
      continue;
    }
    mb::sql::StatementPtr quantified = MustParse(t.sql, verdict);
    mb::sql::StatementPtr plain = MustParse(t.unquantified, verdict);
    if (quantified == nullptr || plain == nullptr) continue;
    auto eval = session.world_set().EvaluateSelect(*AsSelect(plain),
                                                   static_cast<size_t>(1) << 30);
    if (!eval.ok()) {
      verdict->Failed(t.name + " unquantified: " + eval.status().ToString());
      continue;
    }
    ScopedSpan span(tracer, "worlds.combine");
    auto combiner =
        mb::worlds::QuantifierCombiner::Create(AsSelect(quantified)->quantifier);
    if (!combiner.ok()) {
      verdict->Failed(t.name + ": " + combiner.status().ToString());
      continue;
    }
    for (const auto& [p, table] : eval->per_world) combiner->Feed(p, table);
    auto combined = combiner->Finish();
    stats->combine_ms += span.Close();
    stats->combine_feeds += static_cast<double>(eval->per_world.size());
    if (!combined.ok()) verdict->Failed(t.name + ": " + combined.status().ToString());
  }
}

}  // namespace isqlbench
