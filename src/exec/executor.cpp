#include "src/exec/executor.h"

#include <cstring>
#include <deque>
#include <unordered_map>

#include "src/ce/explain.h"
#include "src/storage/column_index.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/flight_recorder.h"
#include "src/util/telemetry/telemetry.h"
#include "src/util/timer.h"

namespace lce {
namespace exec {

namespace {

// Work counters (LCE_METRICS). Bulk-added once per loop, never per row, so
// the enabled overhead stays negligible next to the scans themselves.
telemetry::Counter& RowsScanned() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.rows_scanned");
  return c;
}

telemetry::Counter& FilterBitmaps() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.filter_bitmaps");
  return c;
}

telemetry::Counter& JoinRowsVisited() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.join_rows_visited");
  return c;
}

telemetry::Counter& CardinalityQueries() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.cardinality_queries");
  return c;
}

}  // namespace

std::vector<uint8_t> FilterBitmap(const storage::Database& db,
                                  const query::Query& q, int table_index) {
  const storage::Table& table = db.table(table_index);
  std::vector<uint8_t> bitmap(table.num_rows(), 1);
  FilterBitmaps().Increment();
  for (const query::Predicate& p : q.predicates) {
    if (p.col.table != table_index) continue;
    const std::vector<storage::Value>& col = table.column(p.col.column);
    for (uint64_t r = 0; r < col.size(); ++r) {
      if (col[r] < p.lo || col[r] > p.hi) bitmap[r] = 0;
    }
    RowsScanned().Add(col.size());
  }
  return bitmap;
}

uint64_t CountSet(const std::vector<uint8_t>& bitmap) {
  // Bytes are 0/1, so a word's byte sum fits in one byte and
  // (word * 0x0101...01) >> 56 adds all eight lanes without carrying out.
  uint64_t n = 0;
  const uint8_t* data = bitmap.data();
  size_t i = 0;
  for (; i + 8 <= bitmap.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    n += (word * 0x0101010101010101ULL) >> 56;
  }
  for (; i < bitmap.size(); ++i) n += data[i];
  return n;
}

namespace {

// The column of `table` participating in join edge `e`.
int EdgeColumn(const storage::DatabaseSchema& schema,
               const storage::JoinEdge& e, int table) {
  if (schema.TableIndex(e.left_table) == table) {
    return schema.tables[table].ColumnIndex(e.left_column);
  }
  LCE_CHECK(schema.TableIndex(e.right_table) == table);
  return schema.tables[table].ColumnIndex(e.right_column);
}

// Weighted-count message passing over the query's join tree restricted to
// `tables` with join edges `edges` (which must span `tables`).
double TreeCount(const storage::Database& db, const query::Query& q,
                 const std::vector<int>& tables,
                 const std::vector<int>& edges) {
  const storage::DatabaseSchema& schema = db.schema();
  if (tables.size() == 1) {
    return static_cast<double>(CountSet(FilterBitmap(db, q, tables[0])));
  }

  // Adjacency over the induced tree.
  std::unordered_map<int, std::vector<std::pair<int, int>>> adj;  // t -> (nbr, edge)
  for (int e : edges) {
    const storage::JoinEdge& je = schema.joins[e];
    int lt = schema.TableIndex(je.left_table);
    int rt = schema.TableIndex(je.right_table);
    adj[lt].push_back({rt, e});
    adj[rt].push_back({lt, e});
  }

  // Iterative post-order DFS from the first table.
  int root = tables[0];
  struct Frame {
    int table;
    int parent;
    int parent_edge;  // -1 for root
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root, -1, -1, 0});

  // Messages: for a non-root table t with parent edge e, W[t] maps each join-
  // key value of t's side of e to the weighted count of t's subtree.
  std::unordered_map<int, std::unordered_map<storage::Value, double>> messages;
  double result = 0;

  while (!stack.empty()) {
    Frame& f = stack.back();
    auto& neighbors = adj[f.table];
    if (f.next_child < neighbors.size()) {
      auto [nbr, edge] = neighbors[f.next_child++];
      if (nbr != f.parent) stack.push_back({nbr, f.table, edge, 0});
      continue;
    }

    // All children processed: compute this table's message (or the result).
    const storage::Table& table = db.table(f.table);
    std::vector<uint8_t> bitmap = FilterBitmap(db, q, f.table);

    // Child edges and their key columns in this table.
    std::vector<std::pair<const std::unordered_map<storage::Value, double>*,
                          const std::vector<storage::Value>*>>
        child_inputs;
    for (auto [nbr, edge] : neighbors) {
      if (nbr == f.parent) continue;
      int col = EdgeColumn(schema, schema.joins[edge], f.table);
      LCE_CHECK(col >= 0);
      child_inputs.push_back({&messages[nbr], &table.column(col)});
    }

    JoinRowsVisited().Add(table.num_rows());
    if (f.parent < 0) {
      double total = 0;
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        if (!bitmap[r]) continue;
        double w = 1;
        for (auto& [msg, col] : child_inputs) {
          auto it = msg->find((*col)[r]);
          if (it == msg->end()) {
            w = 0;
            break;
          }
          w *= it->second;
        }
        total += w;
      }
      result = total;
    } else {
      int pcol = EdgeColumn(schema, schema.joins[f.parent_edge], f.table);
      LCE_CHECK(pcol >= 0);
      const std::vector<storage::Value>& parent_keys = table.column(pcol);
      std::unordered_map<storage::Value, double>& out = messages[f.table];
      for (uint64_t r = 0; r < table.num_rows(); ++r) {
        if (!bitmap[r]) continue;
        double w = 1;
        for (auto& [msg, col] : child_inputs) {
          auto it = msg->find((*col)[r]);
          if (it == msg->end()) {
            w = 0;
            break;
          }
          w *= it->second;
        }
        if (w > 0) out[parent_keys[r]] += w;
      }
    }
    // Free child messages no longer needed.
    for (auto [nbr, edge] : neighbors) {
      (void)edge;
      if (nbr != f.parent) messages.erase(nbr);
    }
    stack.pop_back();
  }
  return result;
}

// Message buffers reused across TreeCountIndexed calls on each thread:
// capacity is retained, so a query pays a memset of warm pages instead of a
// fresh multi-hundred-KB allocation per message (edge domains run to ~10^5
// dense ids). Deque keeps references stable while the pool grows; calls on
// one thread never nest, so per-call slot numbering starting at 0 is safe.
std::vector<double>* AcquireMessageBuffer(size_t slot, size_t domain) {
  thread_local std::deque<std::vector<double>> pool;
  while (slot >= pool.size()) pool.emplace_back();
  pool[slot].assign(domain, 0.0);
  return &pool[slot];
}

// Indexed analogue of TreeCount (LCE_ORACLE_INDEX, default on). Three
// changes, each exact-integer-identical to the naive path:
//   * per-table row sets come from OracleIndex::Filter — binary-searched
//     candidate ranges on the sorted column indexes, LRU-cached across
//     queries — instead of full-column scans;
//   * join messages are flat std::vector<double> accumulators indexed by the
//     edge's dense join-key ids (storage::JoinKeyIndex) instead of per-query
//     unordered_maps. The dense domain covers both endpoint columns, so an
//     id is always valid and a 0 entry means exactly "key absent below";
//   * unfiltered tables skip row iteration where the message is known in
//     closed form: a leaf's message is its side's precomputed per-id
//     histogram, and a one-child root total is the histogram/message dot
//     product over the dense domain;
//   * the root table's total is a block-parallel ParallelReduce with chunk
//     partial sums combined in index order. All weights are nonnegative
//     integers bounded by the final count, so every partial sum is exactly
//     representable and the summation order cannot change the result (the
//     determinism argument of DESIGN.md §8).
double TreeCountIndexed(const storage::Database& db, OracleIndex* accel,
                        const query::Query& q, const std::vector<int>& tables,
                        const std::vector<int>& edges) {
  const storage::DatabaseSchema& schema = db.schema();
  if (tables.size() == 1) {
    FilterBitmaps().Increment();
    return static_cast<double>(accel->CountFiltered(q, tables[0]));
  }
  const storage::DatabaseIndex& dbi = db.index();

  std::unordered_map<int, std::vector<std::pair<int, int>>> adj;  // t -> (nbr, edge)
  for (int e : edges) {
    const storage::JoinEdge& je = schema.joins[e];
    int lt = schema.TableIndex(je.left_table);
    int rt = schema.TableIndex(je.right_table);
    adj[lt].push_back({rt, e});
    adj[rt].push_back({lt, e});
  }

  int root = tables[0];
  struct Frame {
    int table;
    int parent;
    int parent_edge;  // -1 for root
    size_t next_child = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root, -1, -1, 0});

  // The dense-id side of a table in one of its edges, and that side's
  // precomputed per-id row histogram.
  auto edge_ids = [&](int edge, int table) -> const std::vector<uint32_t>& {
    const storage::JoinKeyIndex& jk = dbi.Edge(edge);
    const storage::JoinEdge& je = schema.joins[edge];
    return schema.TableIndex(je.left_table) == table ? jk.left_ids
                                                     : jk.right_ids;
  };
  auto edge_counts = [&](int edge, int table) -> const std::vector<double>& {
    const storage::JoinKeyIndex& jk = dbi.Edge(edge);
    const storage::JoinEdge& je = schema.joins[edge];
    return schema.TableIndex(je.left_table) == table ? jk.left_counts
                                                     : jk.right_counts;
  };

  // Messages: for a non-root table t with parent edge e, (*messages[t])[id]
  // is the weighted count of t's subtree for dense key id of e's domain. The
  // pointee is either a pooled accumulation buffer or, for an unfiltered
  // leaf, the edge's precomputed histogram itself (never copied).
  std::unordered_map<int, const std::vector<double>*> messages;
  size_t pool_slots = 0;
  double result = 0;

  constexpr int64_t kRootGrain = 4096;
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto& neighbors = adj[f.table];
    if (f.next_child < neighbors.size()) {
      auto [nbr, edge] = neighbors[f.next_child++];
      if (nbr != f.parent) stack.push_back({nbr, f.table, edge, 0});
      continue;
    }

    const storage::Table& table = db.table(f.table);
    std::shared_ptr<const FilteredTable> filtered = accel->Filter(q, f.table);

    std::vector<std::pair<const std::vector<double>*, const uint32_t*>>
        child_inputs;
    std::vector<int> child_edges;
    for (auto [nbr, edge] : neighbors) {
      if (nbr == f.parent) continue;
      child_inputs.push_back({messages[nbr], edge_ids(edge, f.table).data()});
      child_edges.push_back(edge);
    }

    // Product of child message entries at row r; 0 as soon as any child
    // subtree has no match (the dense analogue of a failed map lookup).
    auto weight = [&child_inputs](uint64_t r) {
      double w = 1;
      for (auto& [msg, ids] : child_inputs) {
        double m = (*msg)[ids[r]];
        if (m == 0) return 0.0;
        w *= m;
      }
      return w;
    };

    // Unfiltered tables can skip row iteration entirely in two shapes. Both
    // substitutions are sums/products of the same nonnegative integers the
    // row loop would produce (all < 2^53), so the results are bit-identical;
    // exec.join_rows_visited counts only rows actually iterated.
    if (f.parent < 0) {
      if (filtered->all_rows && child_inputs.size() == 1) {
        // Root with one child and no predicates: the total is the dot product
        // of the root side's per-id histogram with the child message —
        // O(domain) instead of O(rows). (More than one child needs the joint
        // per-row id combination, so it stays a row loop.)
        const std::vector<double>& hist =
            edge_counts(child_edges[0], f.table);
        const std::vector<double>& msg = *child_inputs[0].first;
        result = parallel::ParallelReduce<double>(
            0, static_cast<int64_t>(hist.size()), kRootGrain, 0.0,
            [&](int64_t b, int64_t e) {
              double s = 0;
              for (int64_t i = b; i < e; ++i) {
                s += hist[static_cast<uint64_t>(i)] *
                     msg[static_cast<uint64_t>(i)];
              }
              return s;
            },
            [](double a, double b) { return a + b; });
      } else {
        auto sum_rows = [&](int64_t b, int64_t e) {
          double s = 0;
          if (filtered->all_rows) {
            for (int64_t r = b; r < e; ++r) {
              s += weight(static_cast<uint64_t>(r));
            }
          } else {
            for (int64_t i = b; i < e; ++i) {
              s += weight(filtered->rows[static_cast<uint64_t>(i)]);
            }
          }
          return s;
        };
        int64_t n = filtered->all_rows ? static_cast<int64_t>(table.num_rows())
                                       : static_cast<int64_t>(filtered->count);
        JoinRowsVisited().Add(static_cast<uint64_t>(n));
        result = parallel::ParallelReduce<double>(
            0, n, kRootGrain, 0.0, sum_rows,
            [](double a, double b) { return a + b; });
      }
    } else if (filtered->all_rows && child_inputs.empty()) {
      // Unfiltered leaf: its message is exactly its side's per-id histogram,
      // already built with the edge index — no rows to visit, no copy.
      messages[f.table] = &edge_counts(f.parent_edge, f.table);
    } else {
      const std::vector<uint32_t>& parent_ids =
          edge_ids(f.parent_edge, f.table);
      std::vector<double>& out = *AcquireMessageBuffer(
          pool_slots++, dbi.Edge(f.parent_edge).domain);
      messages[f.table] = &out;
      auto accumulate = [&](uint64_t r) {
        double w = weight(r);
        if (w > 0) out[parent_ids[r]] += w;
      };
      if (filtered->all_rows) {
        JoinRowsVisited().Add(table.num_rows());
        for (uint64_t r = 0; r < table.num_rows(); ++r) accumulate(r);
      } else if (child_inputs.empty()) {
        // Filtered leaf: every weight is 1.
        JoinRowsVisited().Add(filtered->count);
        for (uint32_t r : filtered->rows) out[parent_ids[r]] += 1.0;
      } else {
        JoinRowsVisited().Add(filtered->count);
        for (uint32_t r : filtered->rows) accumulate(r);
      }
    }
    for (auto [nbr, edge] : neighbors) {
      (void)edge;
      if (nbr != f.parent) messages.erase(nbr);
    }
    stack.pop_back();
  }
  return result;
}

}  // namespace

double Executor::Count(const query::Query& q, const std::vector<int>& tables,
                       const std::vector<int>& edges) const {
  if (OracleIndexEnabled()) {
    return TreeCountIndexed(*db_, accel_.get(), q, tables, edges);
  }
  return TreeCount(*db_, q, tables, edges);
}

double Executor::Cardinality(const query::Query& q) const {
  CardinalityQueries().Increment();
  if (!log_queries_ || !telemetry::QueryRecordsWanted()) {
    return Count(q, q.tables, q.join_edges);
  }
  Timer timer;
  double card = Count(q, q.tables, q.join_edges);
  // Oracle records give postmortems the ground-truth context around an
  // estimator's bad estimate: kind 'x', estimate == truth by definition.
  telemetry::ForensicRecord fr = ce::MakeForensicRecord(
      "exec.oracle", q, card, card, /*qerror=*/1.0, timer.ElapsedMicros(),
      /*diag=*/nullptr);
  fr.kind = 'x';
  // Oracle latency is a different population from estimator latency; keep
  // these records out of the latency trigger's rolling window.
  telemetry::FlightRecorder::Global().Append(fr, /*trigger_eligible=*/false);
  return card;
}

double Executor::SubsetCardinality(const query::Query& q,
                                   const std::vector<int>& tables) const {
  // Checked before the tables.size() - 1 below: an empty subset would
  // underflow the unsigned size and read as a huge edge requirement.
  LCE_CHECK_MSG(!tables.empty(),
                "SubsetCardinality requires a non-empty table subset");
  // Induced edges: those of q with both endpoints inside `tables`.
  const storage::DatabaseSchema& schema = db_->schema();
  std::vector<int> edges;
  auto in_subset = [&](int t) {
    for (int x : tables) {
      if (x == t) return true;
    }
    return false;
  };
  for (int e : q.join_edges) {
    const storage::JoinEdge& je = schema.joins[e];
    if (in_subset(schema.TableIndex(je.left_table)) &&
        in_subset(schema.TableIndex(je.right_table))) {
      edges.push_back(e);
    }
  }
  LCE_CHECK_MSG(edges.size() == tables.size() - 1,
                "SubsetCardinality requires a connected subset of the query");
  return Count(q, tables, edges);
}

}  // namespace exec
}  // namespace lce
