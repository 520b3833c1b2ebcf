#include <gtest/gtest.h>

#include "src/storage/database.h"
#include "src/storage/table.h"

namespace lce {
namespace storage {
namespace {

TableSchema TwoColSchema() {
  return TableSchema{"t", {{"id", true}, {"v", false}}};
}

TEST(TableTest, AppendRowAndStats) {
  Table t(TwoColSchema());
  t.AppendRow({0, 5});
  t.AppendRow({1, 5});
  t.AppendRow({2, 9});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_FALSE(t.finalized());
  t.Finalize();
  EXPECT_TRUE(t.finalized());
  EXPECT_EQ(t.stats(1).min, 5);
  EXPECT_EQ(t.stats(1).max, 9);
  EXPECT_EQ(t.stats(1).distinct, 2u);
  EXPECT_EQ(t.stats(0).distinct, 3u);
}

TEST(TableTest, AppendColumnsBulk) {
  Table t(TwoColSchema());
  t.AppendColumns({{0, 1, 2}, {10, 20, 30}});
  t.AppendColumns({{3}, {40}});
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.Row(3), (std::vector<Value>{3, 40}));
  EXPECT_EQ(t.SizeBytes(), 4u * 2u * sizeof(Value));
}

TEST(TableTest, AppendInvalidatesFinalize) {
  Table t(TwoColSchema());
  t.AppendRow({0, 1});
  t.Finalize();
  t.AppendRow({1, 100});
  EXPECT_FALSE(t.finalized());
  t.Finalize();
  EXPECT_EQ(t.stats(1).max, 100);
}

TEST(TableTest, ColumnIndexLookup) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.ColumnIndex("v").ok());
  EXPECT_EQ(t.ColumnIndex("v").value(), 1);
  EXPECT_FALSE(t.ColumnIndex("missing").ok());
  EXPECT_EQ(t.ColumnIndex("missing").status().code(), StatusCode::kNotFound);
}

DatabaseSchema ChainSchema() {
  DatabaseSchema s;
  s.name = "chain";
  s.tables = {TableSchema{"a", {{"ak", true}, {"av", false}}},
              TableSchema{"b", {{"bk", true}, {"a_fk", false}}},
              TableSchema{"c", {{"b_fk", false}, {"cv", false}}}};
  s.joins = {{"a", "ak", "b", "a_fk"}, {"b", "bk", "c", "b_fk"}};
  return s;
}

TEST(DatabaseTest, JoinNavigation) {
  Database db(ChainSchema());
  EXPECT_EQ(db.JoinBetween(0, 1), 0);
  EXPECT_EQ(db.JoinBetween(1, 2), 1);
  EXPECT_EQ(db.JoinBetween(0, 2), -1);
}

TEST(DatabaseTest, ConnectivityOnChain) {
  Database db(ChainSchema());
  EXPECT_TRUE(db.IsConnected({0}));
  EXPECT_TRUE(db.IsConnected({0, 1}));
  EXPECT_TRUE(db.IsConnected({0, 1, 2}));
  EXPECT_FALSE(db.IsConnected({0, 2}));  // a and c are not adjacent
  EXPECT_FALSE(db.IsConnected({}));
}

TEST(DatabaseTest, FindTable) {
  Database db(ChainSchema());
  ASSERT_TRUE(db.FindTable("b").ok());
  EXPECT_EQ(db.FindTable("b").value()->name(), "b");
  EXPECT_FALSE(db.FindTable("zzz").ok());
}

TEST(DatabaseSchemaTest, GlobalColumnIndex) {
  DatabaseSchema s = ChainSchema();
  EXPECT_EQ(s.TotalColumns(), 6);
  EXPECT_EQ(s.GlobalColumnIndex("a", "ak"), 0);
  EXPECT_EQ(s.GlobalColumnIndex("b", "a_fk"), 3);
  EXPECT_EQ(s.GlobalColumnIndex("c", "cv"), 5);
  EXPECT_EQ(s.GlobalColumnIndex("c", "nope"), -1);
  EXPECT_EQ(s.GlobalColumnIndex("nope", "cv"), -1);
}

}  // namespace
}  // namespace storage
}  // namespace lce
