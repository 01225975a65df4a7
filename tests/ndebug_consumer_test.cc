// A consumer of maybms_core compiled without NDEBUG (see CMakeLists.txt),
// whatever the library's build type. Table and Database carry debug-only
// members; if their layout followed the consumer's NDEBUG rather than the
// library's, the session below would read and write objects of the wrong
// size and crash. It must instead behave exactly like any other consumer.

#ifdef NDEBUG
#error "ndebug_consumer_test must be compiled without NDEBUG"
#endif

#include <gtest/gtest.h>

#include "isql/session.h"
#include "tests/test_util.h"

namespace maybms {
namespace {

TEST(NdebugConsumerTest, CreateInsertSelect) {
  for (isql::EngineMode engine :
       {isql::EngineMode::kDecomposed, isql::EngineMode::kExplicit}) {
    isql::SessionOptions options;
    options.engine = engine;
    isql::Session session(options);
    testing::ExecScript(session, R"sql(
      create table R (K integer, V text);
      insert into R values (1, 'a'), (2, 'b'), (2, 'c');
    )sql");
    isql::QueryResult all = testing::Exec(session, "select * from R;");
    ASSERT_EQ(all.kind(), isql::QueryResult::Kind::kWorlds);
    ASSERT_EQ(all.worlds().size(), 1u);
    testing::ExpectRows(all.worlds()[0].second,
                        {"(1, a)", "(2, b)", "(2, c)"});
    testing::Exec(session,
                  "create table I as select * from R repair by key K;");
    isql::QueryResult conf = testing::Exec(session, "select conf, V from I;");
    testing::ExpectRows(conf.table(), {"(a, 1)", "(b, 0.5)", "(c, 0.5)"});
  }
}

}  // namespace
}  // namespace maybms
