// maybms-lint-fixture: src/engine/executor.cc
// Known-bad fixture: forbidden-API call sites outside src/base/. The
// fixture pretends to live in src/engine/, where the thread/RNG bans apply.
#include <thread>

namespace maybms {

class Table;
class Database;

void Violations(Database* db, const Table* t) {
  // Deleted in PR 5; the accessor that made silent cross-world mutation
  // possible.
  db->GetMutableRelation("r");  // expect-lint: forbidden-api

  // Casting away const on storage types bypasses the COW write protocol.
  auto* w = const_cast<Table*>(t);          // expect-lint: forbidden-api
  auto* d = const_cast<Database*>(          // expect-lint: forbidden-api
      static_cast<const Database*>(db));

  // Raw threading outside base/: bypasses deterministic chunk geometry.
  std::thread worker([] {});  // expect-lint: forbidden-api
  worker.join();

  // std::mt19937 outside base/: O(n) seeding per sample killed the
  // sampling bench before SplitMix64.
  std::mt19937 rng(42);  // expect-lint: forbidden-api
  (void)rng();

  // Environment knobs outside the sanctioned config sites: configuration
  // goes through SessionOptions.
  const char* knob = std::getenv("KNOB");  // expect-lint: forbidden-api
  (void)knob;
  (void)w;
  (void)d;
}

void Sanctioned(const Table* t) {
  // hardware_concurrency is a query, not a thread spawn: allowed.
  unsigned n = std::thread::hardware_concurrency();
  (void)n;

  // The documented escape hatch, mirroring MutableRelation's sole
  // sanctioned cast.
  // maybms-lint: allow(forbidden-api)
  auto* w = const_cast<Table*>(t);
  (void)w;

  // Mentions inside comments and strings never count: GetMutableRelation,
  // std::thread, std::mt19937, getenv("X").
  const char* msg = "GetMutableRelation was removed; std::mt19937 too; getenv(";
  (void)msg;
}

}  // namespace maybms
