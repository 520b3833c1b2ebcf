// Query intermediate representation.
//
// The study targets the SPJ class every query-driven CE model supports:
// conjunctive equi-join queries with per-attribute range predicates. A Query
// is a connected set of tables, a spanning set of join edges, and inclusive
// range predicates [lo, hi] on non-key attributes.

#ifndef LCE_QUERY_QUERY_H_
#define LCE_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/database.h"
#include "src/storage/types.h"

namespace lce {
namespace query {

/// A (table, column) reference; both are indexes into the DatabaseSchema.
struct ColumnRef {
  int table = 0;
  int column = 0;

  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }
};

/// Inclusive range predicate `lo <= col <= hi`.
struct Predicate {
  ColumnRef col;
  storage::Value lo = 0;
  storage::Value hi = 0;
};

/// An SPJ query. `tables` is sorted ascending; `join_edges` index into
/// DatabaseSchema::joins and form a spanning tree over `tables`.
struct Query {
  std::vector<int> tables;
  std::vector<int> join_edges;
  std::vector<Predicate> predicates;

  int num_joins() const { return static_cast<int>(join_edges.size()); }

  bool UsesTable(int table_index) const {
    for (int t : tables) {
      if (t == table_index) return true;
    }
    return false;
  }
};

/// A query paired with its ground-truth cardinality (training/test example).
struct LabeledQuery {
  Query q;
  double cardinality = 0;
};

/// Renders the query as SQL text (SELECT COUNT(*) ... ) for logs and examples.
std::string ToSql(const Query& q, const storage::DatabaseSchema& schema);

/// Validates structural invariants: tables sorted & unique, join edges connect
/// only used tables and span them, predicates reference used non-key columns
/// with lo <= hi.
Status Validate(const Query& q, const storage::Database& db);

/// FNV-1a hash of the query IR: tables, join edges and predicates, in their
/// stored order. Equal IRs hash equal on every platform and run. Sampling
/// estimators seed each query's Rng from it, so their estimates are a pure
/// function of (build, query).
uint64_t Fingerprint(const Query& q);

/// The query restricted to a subset of its tables: keeps the predicates on
/// those tables and the induced join edges. `tables` must be a connected
/// subset of q.tables (as produced by the planner).
Query Restrict(const Query& q, const std::vector<int>& tables,
               const storage::DatabaseSchema& schema);

}  // namespace query
}  // namespace lce

#endif  // LCE_QUERY_QUERY_H_
