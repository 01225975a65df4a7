// Debug-build death tests for the invariant-enforcement layer
// (base/dcheck.h): prove that violating a documented storage/concurrency
// invariant aborts with an attributable message instead of corrupting
// sibling worlds.
//
// Covered traps:
//  * storage/catalog.h parallel-region invariant — mutating a Database
//    the executing thread did not create inside the current ParallelFor
//    region (the live world vector, a commit target) traps; mutating a
//    worker-private copy does not.
//  * storage/table.h COW invariant — mutating a Table instance shared
//    between worlds (or marked shared by a borrowed handle) traps;
//    MutableRelation's clone-on-unshared-write path does not.
//
// In Release builds (NDEBUG, e.g. the tier-1 RelWithDebInfo build) the
// traps compile out and every test here skips: the suite is exercised by
// the Debug sanitizer CI jobs (asan/ubsan/tsan).

#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "base/parallel_region.h"
#include "base/thread_pool.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

#if MAYBMS_DEBUG_INVARIANTS
constexpr bool kTrapsArmed = true;
#else
constexpr bool kTrapsArmed = false;
#endif

Schema OneIntColumn() {
  Schema schema;
  schema.AddColumn(Column("a", DataType::kInteger));
  return schema;
}

Table OneRowTable() {
  Table t(OneIntColumn());
  Tuple row;
  row.Append(Value::Integer(1));
  EXPECT_TRUE(t.Append(std::move(row)).ok());
  return t;
}

class InvariantTrapsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kTrapsArmed) {
      GTEST_SKIP() << "MAYBMS_DCHECK is compiled out in Release builds";
    }
    // Death tests fork; the shared pool owns background threads, so the
    // threadsafe style (re-exec) is required for reliable behavior.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

// --------------------------------------------------------------------------
// Parallel-region write traps.
// --------------------------------------------------------------------------

TEST_F(InvariantTrapsTest, PutRelationOnSharedDatabaseInRegionTraps) {
  auto violate = [] {
    Database live;  // created OUTSIDE the region: shared by definition
    live.PutRelation("r", OneRowTable());
    base::ThreadPool& pool = base::ThreadPool::Shared();
    MAYBMS_IGNORE_STATUS(
        pool.ParallelFor(256, 4, [&](size_t, size_t, size_t) -> Status {
          live.PutRelation("r", OneRowTable());  // write to shared state
          return Status::OK();
        }));
  };
  EXPECT_DEATH(violate(), "Database mutated during a parallel region");
}

TEST_F(InvariantTrapsTest, MutableRelationOnSharedDatabaseInRegionTraps) {
  auto violate = [] {
    Database live;
    live.PutRelation("r", OneRowTable());
    base::ThreadPool& pool = base::ThreadPool::Shared();
    MAYBMS_IGNORE_STATUS(
        pool.ParallelFor(256, 4, [&](size_t, size_t, size_t) -> Status {
          MAYBMS_ASSIGN_OR_RETURN(Table* t, live.MutableRelation("r"));
          t->Clear();
          return Status::OK();
        }));
  };
  EXPECT_DEATH(violate(), "Database mutated during a parallel region");
}

TEST_F(InvariantTrapsTest, TrapIsThreadCountInvariant) {
  // The inline threads:1 path carries a region token too, so the same
  // violation traps without any real concurrency.
  auto violate = [] {
    Database live;
    live.PutRelation("r", OneRowTable());
    base::ThreadPool& pool = base::ThreadPool::Shared();
    MAYBMS_IGNORE_STATUS(
        pool.ParallelFor(8, 1, [&](size_t, size_t, size_t) -> Status {
          live.PutRelation("r", OneRowTable());
          return Status::OK();
        }));
  };
  EXPECT_DEATH(violate(), "Database mutated during a parallel region");
}

TEST_F(InvariantTrapsTest, WorkerPrivateCopyMayMutate) {
  // The sanctioned writer pattern (ApplyDml's snapshot/commit-log): copy
  // the shared world inside the body, mutate the copy, scatter it into a
  // pre-sized commit log, swap after the join. None of that traps.
  Database live;
  live.PutRelation("r", OneRowTable());
  base::ThreadPool& pool = base::ThreadPool::Shared();
  std::vector<Database> commit_log(64);
  ASSERT_TRUE(pool.ParallelFor(64, 4,
                               [&](size_t i, size_t, size_t) -> Status {
                                 Database snapshot = live;  // handle bumps
                                 MAYBMS_ASSIGN_OR_RETURN(
                                     Table* t, snapshot.MutableRelation("r"));
                                 Tuple row;
                                 row.Append(Value::Integer(
                                     static_cast<int64_t>(i)));
                                 MAYBMS_RETURN_NOT_OK(
                                     t->Append(std::move(row)));
                                 commit_log[i] = std::move(snapshot);
                                 return Status::OK();
                               })
                  .ok());
  ASSERT_FALSE(base::InParallelRegion());
  for (size_t i = 0; i < commit_log.size(); ++i) {
    auto r = commit_log[i].GetRelation("r");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->num_rows(), 2u);
  }
  // Committing after the join is a plain single-threaded mutation.
  live = std::move(commit_log[0]);
  ASSERT_TRUE(live.MutableRelation("r").ok());
}

TEST_F(InvariantTrapsTest, RegionTokenLifecycle) {
  EXPECT_FALSE(base::InParallelRegion());
  EXPECT_EQ(base::CurrentRegionToken(), 0u);
  base::ThreadPool& pool = base::ThreadPool::Shared();
  ASSERT_TRUE(pool.ParallelFor(128, 4,
                               [&](size_t, size_t, size_t) -> Status {
                                 if (!base::InParallelRegion()) {
                                   return Status::RuntimeError(
                                       "no region token inside body");
                                 }
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_FALSE(base::InParallelRegion());
}

// --------------------------------------------------------------------------
// COW shared-table traps.
// --------------------------------------------------------------------------

TEST_F(InvariantTrapsTest, MutatingTableSharedBetweenWorldsTraps) {
  auto violate = [] {
    auto instance = std::make_shared<Table>(OneRowTable());
    Database a;
    Database b;
    a.PutRelation("r", Database::TableHandle(instance));
    b.PutRelation("r", Database::TableHandle(instance));
    // Mutating the instance both worlds see — exactly what a
    // clone-on-unshared-write bug would do.
    instance->AppendUnchecked(Tuple());
  };
  EXPECT_DEATH(violate(), "Table mutated while shared between worlds");
}

TEST_F(InvariantTrapsTest, MutatingBorrowedHandleInstanceTraps) {
  auto violate = [] {
    Database a;
    a.PutRelation("r", OneRowTable());
    Database b = a;  // copy: every instance is now shared
    auto handle = a.GetRelationHandle("r");
    ASSERT_TRUE(handle.ok());
    const_cast<Table*>(handle->get())->Clear();
  };
  EXPECT_DEATH(violate(), "Table mutated while shared between worlds");
}

TEST_F(InvariantTrapsTest, MutableRelationClonesInsteadOfTrapping) {
  Database a;
  a.PutRelation("r", OneRowTable());
  Database b = a;  // shares the instance
  auto before_a = a.GetRelation("r");
  ASSERT_TRUE(before_a.ok());
  const Table* shared_instance = *before_a;

  // COW write through the sanctioned accessor: clones, no trap.
  auto mut = a.MutableRelation("r");
  ASSERT_TRUE(mut.ok());
  (*mut)->Clear();

  auto after_a = a.GetRelation("r");
  auto after_b = b.GetRelation("r");
  ASSERT_TRUE(after_a.ok());
  ASSERT_TRUE(after_b.ok());
  EXPECT_NE(*after_a, shared_instance);  // a cloned
  EXPECT_EQ(*after_b, shared_instance);  // b untouched
  EXPECT_EQ((*after_a)->num_rows(), 0u);
  EXPECT_EQ((*after_b)->num_rows(), 1u);
}

TEST_F(InvariantTrapsTest, SoleOwnerMutatesInPlaceAfterHandleDropped) {
  Database a;
  a.PutRelation("r", OneRowTable());
  {
    auto handle = a.GetRelationHandle("r");  // marks shared
    ASSERT_TRUE(handle.ok());
  }  // borrowed handle dies: sole owner again
  auto before = a.GetRelation("r");
  ASSERT_TRUE(before.ok());
  const Table* instance = *before;
  auto mut = a.MutableRelation("r");  // clears the marker, no clone
  ASSERT_TRUE(mut.ok());
  (*mut)->Clear();
  auto after = a.GetRelation("r");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, instance);
}

TEST_F(InvariantTrapsTest, TableCopyIsUnsharedAndMutable) {
  auto instance = std::make_shared<Table>(OneRowTable());
  Database a;
  Database b;
  a.PutRelation("r", Database::TableHandle(instance));
  b.PutRelation("r", Database::TableHandle(instance));
  Table copy = *instance;  // a fresh value: mutating it is fine
  copy.Clear();
  EXPECT_EQ(copy.num_rows(), 0u);
  auto r = a.GetRelation("r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 1u);
}

}  // namespace
}  // namespace maybms
