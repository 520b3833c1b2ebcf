#include "src/query/query.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"

namespace lce {
namespace query {

std::string ToSql(const Query& q, const storage::DatabaseSchema& schema) {
  std::ostringstream oss;
  oss << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << schema.tables[q.tables[i]].name;
  }
  bool first = true;
  auto conj = [&]() -> std::ostream& {
    oss << (first ? " WHERE " : " AND ");
    first = false;
    return oss;
  };
  for (int j : q.join_edges) {
    const storage::JoinEdge& e = schema.joins[j];
    conj() << e.left_table << "." << e.left_column << " = " << e.right_table
           << "." << e.right_column;
  }
  for (const Predicate& p : q.predicates) {
    const auto& t = schema.tables[p.col.table];
    const std::string col = t.name + "." + t.columns[p.col.column].name;
    if (p.lo == p.hi) {
      conj() << col << " = " << p.lo;
    } else {
      conj() << col << " BETWEEN " << p.lo << " AND " << p.hi;
    }
  }
  oss << ";";
  return oss.str();
}

Status Validate(const Query& q, const storage::Database& db) {
  const storage::DatabaseSchema& schema = db.schema();
  if (q.tables.empty()) return Status::InvalidArgument("query has no tables");
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (q.tables[i] < 0 || q.tables[i] >= db.num_tables()) {
      return Status::InvalidArgument("table index out of range");
    }
    if (i > 0 && q.tables[i] <= q.tables[i - 1]) {
      return Status::InvalidArgument("tables must be sorted and unique");
    }
  }
  if (q.join_edges.size() != q.tables.size() - 1) {
    return Status::InvalidArgument("join edges must form a spanning tree");
  }
  for (int j : q.join_edges) {
    if (j < 0 || j >= static_cast<int>(schema.joins.size())) {
      return Status::InvalidArgument("join edge index out of range");
    }
    const storage::JoinEdge& e = schema.joins[j];
    int lt = schema.TableIndex(e.left_table);
    int rt = schema.TableIndex(e.right_table);
    if (!q.UsesTable(lt) || !q.UsesTable(rt)) {
      return Status::InvalidArgument("join edge touches a table not in query");
    }
  }
  if (!db.IsConnected(q.tables)) {
    return Status::InvalidArgument("query tables are not join-connected");
  }
  for (const Predicate& p : q.predicates) {
    if (!q.UsesTable(p.col.table)) {
      return Status::InvalidArgument("predicate on table not in query");
    }
    const auto& tschema = schema.tables[p.col.table];
    if (p.col.column < 0 ||
        p.col.column >= static_cast<int>(tschema.columns.size())) {
      return Status::InvalidArgument("predicate column out of range");
    }
    if (p.lo > p.hi) {
      return Status::InvalidArgument("predicate lo > hi");
    }
  }
  return Status::OK();
}

Query Restrict(const Query& q, const std::vector<int>& tables,
               const storage::DatabaseSchema& schema) {
  Query sub;
  sub.tables = tables;
  std::sort(sub.tables.begin(), sub.tables.end());
  auto in_subset = [&](int t) {
    return std::find(sub.tables.begin(), sub.tables.end(), t) !=
           sub.tables.end();
  };
  for (int e : q.join_edges) {
    const storage::JoinEdge& je = schema.joins[e];
    if (in_subset(schema.TableIndex(je.left_table)) &&
        in_subset(schema.TableIndex(je.right_table))) {
      sub.join_edges.push_back(e);
    }
  }
  for (const Predicate& p : q.predicates) {
    if (in_subset(p.col.table)) sub.predicates.push_back(p);
  }
  return sub;
}

uint64_t Fingerprint(const Query& q) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;  // FNV-1a prime
    }
  };
  // Each list is prefixed by its length, so no two IRs share a byte stream.
  mix(q.tables.size());
  for (int t : q.tables) mix(static_cast<uint64_t>(t));
  mix(q.join_edges.size());
  for (int e : q.join_edges) mix(static_cast<uint64_t>(e));
  mix(q.predicates.size());
  for (const Predicate& p : q.predicates) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(p.col.table)) << 32 |
        static_cast<uint32_t>(p.col.column));
    mix(static_cast<uint64_t>(p.lo));
    mix(static_cast<uint64_t>(p.hi));
  }
  return h;
}

}  // namespace query
}  // namespace lce
