#include "src/exec/oracle_index.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "src/storage/column_index.h"
#include "src/util/knobs.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/telemetry/memory.h"
#include "src/util/telemetry/telemetry.h"

namespace lce {
namespace exec {

namespace {

std::atomic<int> g_cache_capacity{kBitmapCacheCapacity};

telemetry::Counter& IndexProbes() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.index_probes");
  return c;
}

telemetry::Counter& CacheHits() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.bitmap_cache_hit");
  return c;
}

telemetry::Counter& CacheMisses() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.bitmap_cache_miss");
  return c;
}

telemetry::Counter& CandidateRowsScanned() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.rows_scanned");
  return c;
}

// Same counter name the naive FilterBitmap path bumps, so "filter sets
// built" reads continuously across LCE_ORACLE_INDEX settings.
telemetry::Counter& FilterSetsBuilt() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().counter("exec.filter_bitmaps");
  return c;
}

/// One predicate resolved against the sorted column index: the candidate
/// positions [first, last) plus the column data for membership re-checks.
struct ResolvedPredicate {
  const storage::SortedColumnIndex* index = nullptr;
  const std::vector<storage::Value>* column = nullptr;
  storage::Value lo = 0;
  storage::Value hi = 0;
  uint64_t first = 0;
  uint64_t last = 0;

  uint64_t width() const { return last - first; }
  bool Test(uint32_t row) const {
    storage::Value v = (*column)[row];
    return v >= lo && v <= hi;
  }
};

/// Binary-searches every predicate of `q` on `table`; returns them with the
/// shortest candidate range first (stable on ties, so the choice is a
/// deterministic function of the query).
std::vector<ResolvedPredicate> Resolve(const storage::Database& db,
                                       const query::Query& q, int table) {
  std::vector<ResolvedPredicate> out;
  const storage::DatabaseIndex& dbi = db.index();
  for (const query::Predicate& p : q.predicates) {
    if (p.col.table != table) continue;
    ResolvedPredicate r;
    r.index = &dbi.Column(table, p.col.column);
    r.column = &db.table(table).column(p.col.column);
    r.lo = p.lo;
    r.hi = p.hi;
    auto [first, last] = r.index->EqualRange(p.lo, p.hi);
    r.first = first;
    r.last = last;
    IndexProbes().Increment();
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ResolvedPredicate& a, const ResolvedPredicate& b) {
                     return a.width() < b.width();
                   });
  return out;
}

constexpr int64_t kScanGrain = 8192;

// A candidate-range scan touches rows in value order (random access); a full
// sequential scan touches every row but streams each column. The random scan
// only wins while the lead range is a small fraction of the table, so wide
// filters take the sequential path. The choice is a deterministic function
// of the query and data, and both paths produce identical exact counts.
bool PreferSequentialScan(uint64_t lead_width, uint64_t num_rows) {
  return lead_width * 4 > num_rows;
}

// Streams every predicate column over [b, e), writing 0/1 bytes into `pass`
// (length e - b). Column-major and branch-free, so the compiler vectorizes
// each predicate sweep.
void EvalPredicatesChunk(const std::vector<ResolvedPredicate>& preds,
                         int64_t b, int64_t e, uint8_t* pass) {
  std::fill(pass, pass + (e - b), uint8_t{1});
  for (const ResolvedPredicate& p : preds) {
    const storage::Value* col = p.column->data();
    for (int64_t r = b; r < e; ++r) {
      pass[r - b] = static_cast<uint8_t>(
          pass[r - b] & static_cast<uint8_t>(col[r] >= p.lo) &
          static_cast<uint8_t>(col[r] <= p.hi));
    }
  }
}

// Byte sum of a 0/1 buffer, eight lanes per multiply (see exec::CountSet).
uint64_t WordSum(const uint8_t* data, int64_t len) {
  uint64_t n = 0;
  int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    n += (word * 0x0101010101010101ULL) >> 56;
  }
  for (; i < len; ++i) n += data[i];
  return n;
}

}  // namespace

bool OracleIndexEnabled() { return knobs::Bool(knobs::kOracleIndex); }

void SetOracleIndexEnabledForTesting(int on) {
  knobs::Override(knobs::kOracleIndex, on);
}

int BitmapCacheCapacity() {
  return g_cache_capacity.load(std::memory_order_relaxed);
}

void SetBitmapCacheCapacityForTesting(int capacity) {
  g_cache_capacity.store(capacity < 0 ? kBitmapCacheCapacity : capacity,
                         std::memory_order_relaxed);
}

namespace {

// Approximate heap footprint of one cache entry: the key string, the row-id
// vector, and the bookkeeping structs. Feeds the MemoryTracker "cache"
// subsystem so manifests show how much the LRU actually holds.
int64_t CacheEntryBytes(const std::string& key, const FilteredTable& f) {
  return static_cast<int64_t>(sizeof(FilteredTable) + key.size() +
                              f.rows.capacity() * sizeof(uint32_t));
}

}  // namespace

OracleIndex::OracleIndex(const storage::Database* db) : db_(db) {}

OracleIndex::~OracleIndex() {
  // Return this executor's cached bytes to the global accounting; entries
  // die with the LRU list.
  std::lock_guard<std::mutex> lock(mu_);
  for (const CacheEntry& e : lru_) {
    telemetry::MemoryTracker::Global().Add(
        "cache", -CacheEntryBytes(e.key, *e.filtered));
  }
}

uint64_t OracleIndex::CountFiltered(const query::Query& q, int table) {
  std::vector<ResolvedPredicate> preds = Resolve(*db_, q, table);
  const uint64_t num_rows = db_->table(table).num_rows();
  if (preds.empty()) return num_rows;
  const ResolvedPredicate& lead = preds[0];
  if (preds.size() == 1) return lead.width();
  if (PreferSequentialScan(lead.width(), num_rows)) {
    CandidateRowsScanned().Add(num_rows);
    return parallel::ParallelReduce<uint64_t>(
        0, static_cast<int64_t>(num_rows), kScanGrain, 0,
        [&](int64_t b, int64_t e) {
          thread_local std::vector<uint8_t> pass;
          pass.resize(static_cast<size_t>(e - b));
          EvalPredicatesChunk(preds, b, e, pass.data());
          return WordSum(pass.data(), e - b);
        },
        [](uint64_t a, uint64_t b) { return a + b; });
  }
  CandidateRowsScanned().Add(lead.width());
  return parallel::ParallelReduce<uint64_t>(
      static_cast<int64_t>(lead.first), static_cast<int64_t>(lead.last),
      kScanGrain, 0,
      [&](int64_t b, int64_t e) {
        uint64_t n = 0;
        for (int64_t i = b; i < e; ++i) {
          uint32_t row = lead.index->rows[static_cast<uint64_t>(i)];
          bool pass = true;
          for (size_t p = 1; p < preds.size(); ++p) {
            if (!preds[p].Test(row)) {
              pass = false;
              break;
            }
          }
          n += pass ? 1 : 0;
        }
        return n;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

std::shared_ptr<const FilteredTable> OracleIndex::Build(const query::Query& q,
                                                        int table) {
  auto out = std::make_shared<FilteredTable>();
  FilterSetsBuilt().Increment();
  std::vector<ResolvedPredicate> preds = Resolve(*db_, q, table);
  if (preds.empty()) {
    out->all_rows = true;
    out->count = db_->table(table).num_rows();
    return out;
  }
  const ResolvedPredicate& lead = preds[0];
  const uint64_t num_rows = db_->table(table).num_rows();
  if (PreferSequentialScan(lead.width(), num_rows)) {
    // Wide filter: stream every row through all predicates. Chunks partition
    // [0, rows) in order, so the concatenation is ascending row ids.
    CandidateRowsScanned().Add(num_rows);
    const int64_t num_chunks =
        (static_cast<int64_t>(num_rows) + kScanGrain - 1) / kScanGrain;
    std::vector<std::vector<uint32_t>> parts(static_cast<size_t>(num_chunks));
    parallel::ParallelForChunks(
        0, static_cast<int64_t>(num_rows), kScanGrain,
        [&](int64_t chunk, int64_t b, int64_t e) {
          thread_local std::vector<uint8_t> pass;
          pass.resize(static_cast<size_t>(e - b));
          EvalPredicatesChunk(preds, b, e, pass.data());
          std::vector<uint32_t>& rows = parts[static_cast<size_t>(chunk)];
          for (int64_t r = b; r < e; ++r) {
            if (pass[r - b]) rows.push_back(static_cast<uint32_t>(r));
          }
        });
    for (const std::vector<uint32_t>& part : parts) {
      out->rows.insert(out->rows.end(), part.begin(), part.end());
    }
  } else if (preds.size() == 1) {
    out->rows.assign(lead.index->rows.begin() + lead.first,
                     lead.index->rows.begin() + lead.last);
  } else {
    CandidateRowsScanned().Add(lead.width());
    // Per-chunk row collection reassembled in chunk order. Chunks partition
    // the candidate range in order, so the concatenation is exactly the
    // sequential scan order (deterministic at every thread count) and no
    // sort is needed.
    const int64_t begin = static_cast<int64_t>(lead.first);
    const int64_t end = static_cast<int64_t>(lead.last);
    const int64_t num_chunks = (end - begin + kScanGrain - 1) / kScanGrain;
    std::vector<std::vector<uint32_t>> parts(static_cast<size_t>(num_chunks));
    parallel::ParallelForChunks(
        begin, end, kScanGrain, [&](int64_t chunk, int64_t b, int64_t e) {
          std::vector<uint32_t>& rows = parts[static_cast<size_t>(chunk)];
          for (int64_t i = b; i < e; ++i) {
            uint32_t row = lead.index->rows[static_cast<uint64_t>(i)];
            bool pass = true;
            for (size_t p = 1; p < preds.size(); ++p) {
              if (!preds[p].Test(row)) {
                pass = false;
                break;
              }
            }
            if (pass) rows.push_back(row);
          }
        });
    for (const std::vector<uint32_t>& part : parts) {
      out->rows.insert(out->rows.end(), part.begin(), part.end());
    }
  }
  out->count = out->rows.size();
  return out;
}

std::shared_ptr<const FilteredTable> OracleIndex::Filter(const query::Query& q,
                                                         int table) {
  // Canonical key: table, data version, and the predicate list sorted by
  // (column, lo, hi) — the same filter reached through differently ordered
  // predicate lists shares one entry, and appends invalidate implicitly.
  std::vector<std::tuple<int, storage::Value, storage::Value>> preds;
  for (const query::Predicate& p : q.predicates) {
    if (p.col.table == table) preds.push_back({p.col.column, p.lo, p.hi});
  }
  if (preds.empty() || BitmapCacheCapacity() == 0) return Build(q, table);
  std::sort(preds.begin(), preds.end());
  std::string key = std::to_string(table) + '@' +
                    std::to_string(db_->table(table).version());
  for (const auto& [col, lo, hi] : preds) {
    key += '|';
    key += std::to_string(col);
    key += ':';
    key += std::to_string(lo);
    key += ':';
    key += std::to_string(hi);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      CacheHits().Increment();
      return it->second->filtered;
    }
  }
  CacheMisses().Increment();
  // Built outside the lock: concurrent misses on one key build twice and the
  // last insert wins — value-identical, so correctness is unaffected.
  std::shared_ptr<const FilteredTable> filtered = Build(q, table);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->filtered;
  }
  telemetry::MemoryTracker::Global().Add("cache",
                                         CacheEntryBytes(key, *filtered));
  lru_.push_front({key, filtered});
  by_key_[key] = lru_.begin();
  int capacity = BitmapCacheCapacity();
  while (static_cast<int>(lru_.size()) > capacity) {
    const CacheEntry& victim = lru_.back();
    telemetry::MemoryTracker::Global().Add(
        "cache", -CacheEntryBytes(victim.key, *victim.filtered));
    by_key_.erase(victim.key);
    lru_.pop_back();
  }
  return filtered;
}

}  // namespace exec
}  // namespace lce
