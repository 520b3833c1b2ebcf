// Exact query execution for ground truth.
//
// Cardinalities of acyclic equi-join queries are computed without
// materializing intermediate results: each query's join edges form a spanning
// tree, so a bottom-up weighted count (message passing over join keys) yields
// the exact COUNT(*) in O(rows) per table. This is the oracle every estimator
// is scored against, and the engine behind the optimizer's true-cost replay.

#ifndef LCE_EXEC_EXECUTOR_H_
#define LCE_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/exec/oracle_index.h"
#include "src/query/query.h"
#include "src/storage/database.h"

namespace lce {
namespace exec {

/// Bitmap (1 byte per row) of rows in `table_index` satisfying the query's
/// predicates on that table. Rows of tables without predicates are all 1.
std::vector<uint8_t> FilterBitmap(const storage::Database& db,
                                  const query::Query& q, int table_index);

/// Number of set bits. Bytes must be 0 or 1 (the FilterBitmap contract);
/// counts eight bytes per step via a word-wide byte sum.
uint64_t CountSet(const std::vector<uint8_t>& bitmap);

class Executor {
 public:
  /// `db` must outlive the executor.
  explicit Executor(const storage::Database* db)
      : db_(db), accel_(std::make_unique<OracleIndex>(db)) {}

  /// Opts this executor into query records: every Cardinality call appends a
  /// kind="exec" record (exact count + latency) to the flight recorder, and
  /// so to the LCE_QUERY_LOG file. Off by default so auxiliary executors —
  /// the sampling estimator's sample-level executor, the workload
  /// generator's bulk labeler — don't flood them; bench harnesses enable it
  /// on their ground-truth executor.
  void EnableQueryLog(bool on = true) { log_queries_ = on; }

  /// Exact COUNT(*) of the query. Returned as double: exact for counts below
  /// 2^53, which covers every configuration in the study.
  double Cardinality(const query::Query& q) const;

  /// Exact COUNT(*) restricted to a connected subset of the query's tables
  /// (with the query's predicates and the induced join edges). Used by the
  /// optimizer to cost intermediate results under true cardinalities.
  double SubsetCardinality(const query::Query& q,
                           const std::vector<int>& tables) const;

  const storage::Database& db() const { return *db_; }

 private:
  /// One TreeCount over `tables`/`edges`, dispatched to the indexed path
  /// (LCE_ORACLE_INDEX, default) or the naive row-by-row scan. The two are
  /// exact-integer-identical (asserted by tests/oracle_equivalence_test.cpp).
  double Count(const query::Query& q, const std::vector<int>& tables,
               const std::vector<int>& edges) const;

  const storage::Database* db_;
  std::unique_ptr<OracleIndex> accel_;
  bool log_queries_ = false;
};

}  // namespace exec
}  // namespace lce

#endif  // LCE_EXEC_EXECUTOR_H_
