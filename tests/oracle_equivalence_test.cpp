// Oracle acceleration equivalence suite.
//
// The indexed executor path (LCE_ORACLE_INDEX=1) must be an exact drop-in for
// the naive bitmap path: every count it produces is an integer computed from
// the same filtered row sets, so results are bit-identical — not merely
// close — with the index on or off, at any thread count, and at any bitmap
// cache capacity. A randomized query zoo over skewed + correlated datasets
// (0-4 joins, 0-3 predicates per table) pins that contract.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/exec/oracle_index.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace lce {
namespace exec {
namespace {

struct ZooCase {
  const char* name;
  storage::datagen::DatabaseGenSpec spec;
  int max_joins;
  int queries;
};

std::vector<ZooCase> ZooCases() {
  std::vector<ZooCase> cases;
  // Skewed + correlated single table: exercises multi-predicate filters where
  // candidate ranges overlap heavily.
  cases.push_back({"synthetic_skew_corr",
                   storage::datagen::SyntheticPairSpec(6000, 30, 1.2, 0.8), 0,
                   30});
  // Snowflake schemas: 0-4 join edges with Zipf FK fanout.
  cases.push_back({"imdb_like", storage::datagen::ImdbLikeSpec(0.02), 4, 25});
  cases.push_back({"stats_like", storage::datagen::StatsLikeSpec(0.02), 4, 25});
  return cases;
}

/// Cardinality and (for join queries) two SubsetCardinality probes, computed
/// under whatever oracle-index / thread-count configuration is active.
std::vector<double> Evaluate(const storage::Database& db,
                             const std::vector<query::Query>& zoo) {
  Executor ex(&db);
  std::vector<double> out;
  for (const query::Query& q : zoo) {
    out.push_back(ex.Cardinality(q));
    if (q.tables.size() > 1) {
      out.push_back(ex.SubsetCardinality(q, {q.tables[0]}));
      out.push_back(
          ex.SubsetCardinality(q, {q.tables[0], q.tables[1]}));
    }
  }
  return out;
}

TEST(OracleEquivalenceTest, IndexedPathIsBitIdenticalAcrossThreadCounts) {
  for (const ZooCase& zc : ZooCases()) {
    SCOPED_TRACE(zc.name);
    auto db = storage::datagen::Generate(zc.spec, 42);

    workload::WorkloadOptions wopts;
    wopts.max_joins = zc.max_joins;
    wopts.min_predicates = 0;
    wopts.max_predicates = 3;
    wopts.min_cardinality = 0;
    workload::WorkloadGenerator gen(db.get(), wopts);
    Rng rng(1234);
    std::vector<query::Query> zoo;
    for (int i = 0; i < zc.queries; ++i) {
      zoo.push_back(gen.GenerateQuery(&rng));
      ASSERT_TRUE(query::Validate(zoo.back(), *db).ok());
    }
    // Ensure subsets picked in Evaluate() are connected: drop to the first
    // table only when {t0, t1} is not adjacent.
    for (query::Query& q : zoo) {
      if (q.tables.size() > 1 &&
          !db->IsConnected({q.tables[0], q.tables[1]})) {
        q.tables.resize(1);
        q.join_edges.clear();
        std::vector<query::Predicate> kept;
        for (const query::Predicate& p : q.predicates) {
          if (p.col.table == q.tables[0]) kept.push_back(p);
        }
        q.predicates = std::move(kept);
      }
    }

    SetOracleIndexEnabledForTesting(0);
    parallel::SetThreadCountForTesting(1);
    std::vector<double> reference = Evaluate(*db, zoo);

    struct Config {
      int oracle_index;
      int threads;
      int cache_capacity;  // -1 = the default
    };
    for (const Config& cfg : std::vector<Config>{{0, 4, -1},
                                                 {1, 1, -1},
                                                 {1, 4, -1},
                                                 {1, 4, 2},
                                                 {1, 4, 0}}) {
      SCOPED_TRACE("index=" + std::to_string(cfg.oracle_index) +
                   " threads=" + std::to_string(cfg.threads) +
                   " cache=" + std::to_string(cfg.cache_capacity));
      SetOracleIndexEnabledForTesting(cfg.oracle_index);
      SetBitmapCacheCapacityForTesting(cfg.cache_capacity);
      parallel::SetThreadCountForTesting(cfg.threads);
      std::vector<double> got = Evaluate(*db, zoo);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        // EXPECT_EQ, not NEAR: exact integer counts must match bitwise.
        EXPECT_EQ(got[i], reference[i]) << "result " << i;
      }
    }

    SetOracleIndexEnabledForTesting(-1);
    SetBitmapCacheCapacityForTesting(-1);
    parallel::SetThreadCountForTesting(0);
  }
}

TEST(OracleEquivalenceTest, AppendedRowsAreVisibleThroughTheIndex) {
  // After AppendShifted-style growth, both paths must agree on the new data:
  // the index rebuilds transparently off Table::version().
  auto spec = storage::datagen::SyntheticPairSpec(3000, 20, 0.9, 0.5);
  auto db = storage::datagen::Generate(spec, 7);
  Executor ex(db.get());
  query::Query q;
  q.tables = {0};
  q.predicates = {{{0, 0}, 3, 9}, {{0, 1}, 0, 12}};

  SetOracleIndexEnabledForTesting(1);
  double before = ex.Cardinality(q);
  storage::datagen::AppendShifted(db.get(), spec, 0.25, 0.3, 0.2, 8);
  double after_indexed = ex.Cardinality(q);
  SetOracleIndexEnabledForTesting(0);
  double after_naive = ex.Cardinality(q);
  SetOracleIndexEnabledForTesting(-1);

  EXPECT_EQ(after_indexed, after_naive);
  EXPECT_GE(after_indexed, before);  // appends can only add qualifying rows
}

}  // namespace
}  // namespace exec
}  // namespace lce
