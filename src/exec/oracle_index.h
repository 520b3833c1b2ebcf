// Oracle acceleration layer for the exact executor (see DESIGN.md §8).
//
// Wraps the Database-level indexes (src/storage/column_index.h) with the
// query-facing machinery the oracle hot path needs:
//
//   * indexed filter evaluation — a table's per-query predicate list becomes
//     binary-searched candidate ranges on the sorted column indexes; only
//     the shortest range is scanned, against the remaining predicates, so
//     selective filters cost O(selected) instead of O(rows x predicates);
//   * an LRU cache of filtered row sets keyed on (table, data version,
//     canonical predicate list) — the workload generator's rejection loop and
//     the optimizer's subset replay re-filter the same per-table predicate
//     lists many times per labeling run;
//   * block-parallel candidate scans on the src/util/parallel.h pool with
//     chunk-order reassembly, so results are bit-identical at any thread
//     count (LCE_THREADS=1 included).
//
// The whole layer is toggled by LCE_ORACLE_INDEX (default on; "0" restores
// the naive row-by-row oracle for A/B verification) and instrumented with
// exec.index_probes / exec.bitmap_cache_{hit,miss} counters.

#ifndef LCE_EXEC_ORACLE_INDEX_H_
#define LCE_EXEC_ORACLE_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/query/query.h"
#include "src/storage/database.h"

namespace lce {
namespace exec {

/// True when the oracle acceleration layer is active: LCE_ORACLE_INDEX on
/// (the default).
bool OracleIndexEnabled();

/// Overrides LCE_ORACLE_INDEX (tests, A/B benches). on < 0 restores the
/// env-derived value.
void SetOracleIndexEnabledForTesting(int on);

/// Default capacity (entries) of each executor's filtered-set cache.
inline constexpr int kBitmapCacheCapacity = 64;

/// The capacity in effect: kBitmapCacheCapacity unless a test set another
/// (0 disables caching).
int BitmapCacheCapacity();

/// Overrides the capacity (tests); capacity < 0 restores the default.
void SetBitmapCacheCapacityForTesting(int capacity);

/// The rows of one table passing a query's predicates on that table.
struct FilteredTable {
  uint64_t count = 0;
  /// True when the table has no predicates in the query: every row passes
  /// and `rows` is left empty rather than materializing 0..n-1.
  bool all_rows = false;
  /// Passing row ids in the deterministic order of the leading predicate's
  /// sorted-column index (value-ascending, row-id tiebreak) — NOT ascending
  /// by row. Consumers only sum exact integers per row, so iteration order
  /// never affects results, and skipping the sort keeps Build() linear.
  std::vector<uint32_t> rows;  // unused when all_rows
};

/// Per-executor acceleration state. Thread-safe: parallel labeling workers
/// share the executor's instance. The heavyweight structures (sorted columns,
/// join-key remaps) live on the Database and are shared across executors.
class OracleIndex {
 public:
  /// `db` must outlive the index.
  explicit OracleIndex(const storage::Database* db);

  /// Releases the cache's MemoryTracker bytes along with the entries.
  ~OracleIndex();

  /// Exact number of rows of `table` passing q's predicates on it, without
  /// materializing the row set: two binary searches for a single predicate,
  /// a shortest-candidate-range scan otherwise.
  uint64_t CountFiltered(const query::Query& q, int table);

  /// The passing row set of `table`, served from the LRU cache when the same
  /// (table, predicate list) was filtered before.
  std::shared_ptr<const FilteredTable> Filter(const query::Query& q,
                                              int table);

 private:
  std::shared_ptr<const FilteredTable> Build(const query::Query& q, int table);

  const storage::Database* db_;
  // LRU over canonical filter keys, most recent at the front.
  struct CacheEntry {
    std::string key;
    std::shared_ptr<const FilteredTable> filtered;
  };
  std::mutex mu_;
  std::list<CacheEntry> lru_;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> by_key_;
};

}  // namespace exec
}  // namespace lce

#endif  // LCE_EXEC_ORACLE_INDEX_H_
