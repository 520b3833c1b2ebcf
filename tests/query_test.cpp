#include "src/query/query.h"

#include <gtest/gtest.h>

#include "src/storage/datagen.h"

namespace lce {
namespace query {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
  }
  std::unique_ptr<storage::Database> db_;
};

Query TitleCompaniesQuery() {
  Query q;
  q.tables = {0, 1};  // title, movie_companies
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 2, 5}};  // title.kind_id BETWEEN 2 AND 5
  return q;
}

TEST_F(QueryTest, ToSqlRendersJoinsAndPredicates) {
  std::string sql = ToSql(TitleCompaniesQuery(), db_->schema());
  EXPECT_NE(sql.find("SELECT COUNT(*) FROM title, movie_companies"),
            std::string::npos);
  EXPECT_NE(sql.find("title.id = movie_companies.movie_id"),
            std::string::npos);
  EXPECT_NE(sql.find("title.kind_id BETWEEN 2 AND 5"), std::string::npos);
}

TEST_F(QueryTest, ToSqlRendersEqualityAsEquals) {
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 1}, 3, 3}};
  std::string sql = ToSql(q, db_->schema());
  EXPECT_NE(sql.find("title.kind_id = 3"), std::string::npos);
  EXPECT_EQ(sql.find("BETWEEN"), std::string::npos);
}

TEST_F(QueryTest, ValidateAcceptsWellFormedQuery) {
  EXPECT_TRUE(Validate(TitleCompaniesQuery(), *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsEmptyTables) {
  Query q;
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsUnsortedTables) {
  Query q = TitleCompaniesQuery();
  std::swap(q.tables[0], q.tables[1]);
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsMissingJoinEdge) {
  Query q = TitleCompaniesQuery();
  q.join_edges.clear();
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsDisconnectedTables) {
  Query q;
  q.tables = {1, 2};  // movie_companies, movie_info: both FK to title only
  q.join_edges = {0};
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsInvertedRange) {
  Query q = TitleCompaniesQuery();
  q.predicates[0].lo = 10;
  q.predicates[0].hi = 2;
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsPredicateOnUnusedTable) {
  Query q = TitleCompaniesQuery();
  q.predicates.push_back({{3, 1}, 0, 1});  // movie_keyword not in query
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, RestrictKeepsInducedStructure) {
  Query q;
  q.tables = {0, 1, 2};
  q.join_edges = {0, 1};
  q.predicates = {{{0, 1}, 1, 3}, {{2, 1}, 0, 10}};
  Query sub = Restrict(q, {0, 1}, db_->schema());
  EXPECT_EQ(sub.tables, (std::vector<int>{0, 1}));
  EXPECT_EQ(sub.join_edges, (std::vector<int>{0}));
  ASSERT_EQ(sub.predicates.size(), 1u);
  EXPECT_EQ(sub.predicates[0].col.table, 0);
  EXPECT_TRUE(Validate(sub, *db_).ok());
}

TEST_F(QueryTest, RestrictToSingleTableDropsJoins) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  Query sub = Restrict(q, {1}, db_->schema());
  EXPECT_TRUE(sub.join_edges.empty());
  EXPECT_TRUE(Validate(sub, *db_).ok());
}

}  // namespace
}  // namespace query
}  // namespace lce
