// Lane workspaces allocate nothing (DESIGN.md §6, "Who allocates"). The
// calling thread grows a lane's workspace to each block before the block
// runs (ReserveWorkspace); the lane's Encode, Forward and, in training,
// BackwardChain then reshape it in place. A shape the reservation misses
// would make the lane allocate again, growing the pool workers' heaps
// without failing anything else, so this binary counts every heap
// allocation per thread and checks that a lane running a block makes none.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/ce/query_driven/flat_models.h"
#include "src/ce/query_driven/recurrent_models.h"
#include "src/ce/query_driven/set_models.h"
#include "src/storage/datagen.h"
#include "src/util/parallel.h"
#include "src/workload/generator.h"

namespace {
thread_local int64_t t_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++t_allocations;
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lce {
namespace ce {
namespace {

struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::vector<query::Query> queries;
};

const Fixture& JoinFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    fx->db =
        storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.05), 41);
    workload::WorkloadOptions opts;
    opts.max_joins = 2;
    workload::WorkloadGenerator gen(fx->db.get(), opts);
    Rng rng(42);
    for (auto& lq : gen.GenerateLabeled(160, &rng)) {
      fx->queries.push_back(lq.q);
    }
    return fx;
  }();
  return *f;
}

NeuralOptions SmallOptions() {
  NeuralOptions o;
  o.hidden_dim = 16;
  return o;
}

// Runs blocks the way training and batched inference do: the calling
// thread reserves one workspace for each block in turn, then a lane of a
// parallel region encodes the block, runs the forward and, in training,
// the backward chain. Returns the heap allocations each block's lane made.
template <typename Est>
class LaneProbe : public Est {
 public:
  LaneProbe() : Est(SmallOptions()) {}

  std::vector<int64_t> LaneAllocations(const std::vector<int>& block_rows,
                                       bool training) {
    const std::vector<query::Query>& all = JoinFixture().queries;
    std::vector<const query::Query*> queries;
    for (const query::Query& q : all) queries.push_back(&q);
    std::unique_ptr<typename Est::Workspace> ws = this->NewWorkspace();
    std::vector<int64_t> allocations;
    for (size_t b = 0; b < block_rows.size(); ++b) {
      const int rows = block_rows[b];
      const size_t first = b * 13 % (queries.size() - 64);
      const typename Est::QueryBatch block(queries.data() + first,
                                           static_cast<size_t>(rows));
      this->ReserveWorkspace(block, training, ws.get());
      ws->dpred.Reserve(rows, 1);
      int64_t lane_allocations = -1;
      // Two chunks open a region; the lane that claims chunk 0 runs the
      // block with its kernels inline, as a lane of phase A does.
      parallel::ParallelForChunks(0, 2, 1, [&](int64_t chunk, int64_t,
                                               int64_t) {
        if (chunk != 0) return;
        const int64_t before = t_allocations;
        this->Encode(block, ws.get());
        const nn::Matrix& pred = this->Forward(ws.get(), training);
        if (training) {
          ws->dpred.Resize(rows, 1);
          for (int i = 0; i < rows; ++i) {
            ws->dpred.At(i, 0) = pred.At(i, 0) - 0.5f;
          }
          this->BackwardChain(ws.get());
        }
        lane_allocations = t_allocations - before;
      });
      allocations.push_back(lane_allocations);
    }
    return allocations;
  }
};

template <typename Est>
class LaneWorkspaceTest : public ::testing::Test {
 protected:
  void SetUp() override { parallel::SetThreadCountForTesting(4); }
  void TearDown() override { parallel::SetThreadCountForTesting(0); }
};

using Families =
    ::testing::Types<LinearEstimator, FcnEstimator, FcnPoolEstimator,
                     MscnEstimator, RnnEstimator, LstmEstimator>;
TYPED_TEST_SUITE(LaneWorkspaceTest, Families);

// Blocks larger and smaller than the one before, so a workspace is both
// grown and reused at a smaller shape.
const std::vector<int> kBlockRows = {16, 5, 16, 1, 64, 7, 64};

TYPED_TEST(LaneWorkspaceTest, TrainingLaneAllocatesNothing) {
  LaneProbe<TypeParam> est;
  ASSERT_TRUE(est.Prepare(*JoinFixture().db).ok());
  const std::vector<int64_t> allocations =
      est.LaneAllocations(kBlockRows, /*training=*/true);
  EXPECT_EQ(allocations, std::vector<int64_t>(kBlockRows.size(), 0))
      << est.Name();
}

TYPED_TEST(LaneWorkspaceTest, InferenceLaneAllocatesNothing) {
  LaneProbe<TypeParam> est;
  ASSERT_TRUE(est.Prepare(*JoinFixture().db).ok());
  const std::vector<int64_t> allocations =
      est.LaneAllocations(kBlockRows, /*training=*/false);
  EXPECT_EQ(allocations, std::vector<int64_t>(kBlockRows.size(), 0))
      << est.Name();
}

}  // namespace
}  // namespace ce
}  // namespace lce
