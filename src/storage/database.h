// A Database bundles the tables of a schema with its join graph and exposes
// the navigation helpers the executor, workload generator, and estimators
// share (join-edge lookup, connected-subgraph checks).

#ifndef LCE_STORAGE_DATABASE_H_
#define LCE_STORAGE_DATABASE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/schema.h"
#include "src/storage/table.h"
#include "src/util/status.h"

namespace lce {
namespace storage {

class DatabaseIndex;

class Database {
 public:
  explicit Database(DatabaseSchema schema);
  ~Database();

  const DatabaseSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }
  int num_tables() const { return static_cast<int>(tables_.size()); }

  Table& table(int index);
  const Table& table(int index) const;

  /// Table lookup by name; Status::NotFound if absent.
  Result<Table*> FindTable(const std::string& name);
  Result<const Table*> FindTable(const std::string& name) const;

  /// Finalizes all tables (recomputes statistics).
  void FinalizeAll();

  /// The join edge connecting two tables, or -1 if they are not adjacent.
  int JoinBetween(int table_a, int table_b) const;

  /// True if the given table set induces a connected subgraph of the join
  /// graph (a requirement for valid join queries).
  bool IsConnected(const std::vector<int>& table_indexes) const;

  /// Total data footprint across tables.
  uint64_t SizeBytes() const;

  /// The oracle acceleration indexes over this database (sorted columns,
  /// dense join-key remappings; see src/storage/column_index.h). Created on
  /// first use and shared by every executor, so the build cost is paid once
  /// per database no matter how many oracles replay against it.
  const DatabaseIndex& index() const;

 private:
  DatabaseSchema schema_;
  std::vector<std::unique_ptr<Table>> tables_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<DatabaseIndex> index_;
};

}  // namespace storage
}  // namespace lce

#endif  // LCE_STORAGE_DATABASE_H_
