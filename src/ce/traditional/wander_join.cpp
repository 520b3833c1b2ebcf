#include "src/ce/traditional/wander_join.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/telemetry/stage_timer.h"

namespace lce {
namespace ce {

Status WanderJoinEstimator::Build(
    const storage::Database& db,
    const std::vector<query::LabeledQuery>& training) {
  (void)training;
  return UpdateWithData(db);
}

Status WanderJoinEstimator::UpdateWithData(const storage::Database& db) {
  db_ = &db;
  indexes_.clear();
  const storage::DatabaseSchema& schema = db.schema();
  for (const storage::JoinEdge& e : schema.joins) {
    for (const auto& [table_name, column_name] :
         {std::make_pair(e.left_table, e.left_column),
          std::make_pair(e.right_table, e.right_column)}) {
      int t = schema.TableIndex(table_name);
      int c = schema.tables[t].ColumnIndex(column_name);
      auto key = std::make_pair(t, c);
      if (indexes_.count(key) == 0) {
        if (!db.table(t).finalized()) {
          return Status::FailedPrecondition("table not finalized");
        }
        indexes_[key].Build(db.table(t), c);
      }
    }
  }
  return Status::OK();
}

bool WanderJoinEstimator::RowPasses(const query::Query& q, int table,
                                    uint32_t row) const {
  for (const query::Predicate& p : q.predicates) {
    if (p.col.table != table) continue;
    storage::Value v = db_->table(table).column(p.col.column)[row];
    if (v < p.lo || v > p.hi) return false;
  }
  return true;
}

double WanderJoinEstimator::EstimateImpl(const query::Query& q,
                                         ExplainRecord*) const {
  LCE_CHECK_MSG(db_ != nullptr, "Build() before EstimateCardinality()");
  // encode = walk-order planning; traverse = the random walks themselves.
  telemetry::StageTimer::Mark("encode");
  const storage::DatabaseSchema& schema = db_->schema();

  // Walk order: BFS over the query's join tree from its first table. Each
  // step records (child table, child column, parent table, parent column).
  struct Step {
    int table;
    int column;         // child-side join key
    int parent;         // table whose chosen row provides the key
    int parent_column;  // parent-side join key
  };
  std::vector<Step> steps;
  std::vector<int> order = {q.tables[0]};
  std::vector<int> pending = q.join_edges;
  while (!pending.empty()) {
    bool progressed = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      const storage::JoinEdge& e = schema.joins[pending[i]];
      int lt = schema.TableIndex(e.left_table);
      int rt = schema.TableIndex(e.right_table);
      bool has_l = std::find(order.begin(), order.end(), lt) != order.end();
      bool has_r = std::find(order.begin(), order.end(), rt) != order.end();
      if (has_l == has_r) continue;  // both placed (impossible on a tree) or neither
      int parent = has_l ? lt : rt;
      int child = has_l ? rt : lt;
      Step step;
      step.table = child;
      step.parent = parent;
      step.column = schema.tables[child].ColumnIndex(
          has_l ? e.right_column : e.left_column);
      step.parent_column = schema.tables[parent].ColumnIndex(
          has_l ? e.left_column : e.right_column);
      steps.push_back(step);
      order.push_back(child);
      pending.erase(pending.begin() + i);
      progressed = true;
      break;
    }
    LCE_CHECK_MSG(progressed, "query join edges do not form a tree");
  }

  const storage::Table& first = db_->table(q.tables[0]);
  if (first.num_rows() == 0) return 1.0;
  telemetry::StageTimer::Mark("traverse");
  // One walk stream per query, seeded from the query itself: the estimate is
  // a pure function of (build, query), whatever ran before it and on
  // whichever thread.
  Rng rng(parallel::ChunkSeed(options_.seed, query::Fingerprint(q)));
  double total = 0;
  std::vector<uint32_t> chosen_row(db_->num_tables(), 0);
  for (int w = 0; w < options_.num_walks; ++w) {
    uint32_t row = static_cast<uint32_t>(rng.UniformInt(
        0, static_cast<int64_t>(first.num_rows()) - 1));
    if (!RowPasses(q, q.tables[0], row)) continue;
    chosen_row[q.tables[0]] = row;
    double walk = static_cast<double>(first.num_rows());
    bool dead = false;
    for (const Step& step : steps) {
      storage::Value key =
          db_->table(step.parent).column(step.parent_column)
              [chosen_row[step.parent]];
      auto it = indexes_.find({step.table, step.column});
      LCE_CHECK(it != indexes_.end());
      const std::vector<uint32_t>* bucket = it->second.Lookup(key);
      if (bucket == nullptr || bucket->empty()) {
        dead = true;
        break;
      }
      walk *= static_cast<double>(bucket->size());
      uint32_t pick = (*bucket)[rng.Below(
          static_cast<uint32_t>(bucket->size()))];
      if (!RowPasses(q, step.table, pick)) {
        dead = true;
        break;
      }
      chosen_row[step.table] = pick;
    }
    if (!dead) total += walk;
  }
  return std::max(1.0, total / options_.num_walks);
}

uint64_t WanderJoinEstimator::SizeBytes() const {
  uint64_t bytes = 0;
  for (const auto& [key, index] : indexes_) bytes += index.SizeBytes();
  return bytes;
}

}  // namespace ce
}  // namespace lce
