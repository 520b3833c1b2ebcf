#include "src/nn/grad_sums.h"

#include <algorithm>

#include "src/util/parallel.h"

namespace lce {
namespace nn {

void GradSums::Clear() {
  blocks_.clear();
  sums_.clear();
  tasks_.clear();
}

void GradSums::Add(Matrix* grad, std::span<const GradBlock> blocks) {
  sums_.push_back({grad, blocks_.size(), blocks.size(), -1, false});
  blocks_.insert(blocks_.end(), blocks.begin(), blocks.end());
}

void GradSums::AddBias(Matrix* grad, std::span<const GradBlock> blocks) {
  LCE_CHECK(grad->rows() == 1);
  sums_.push_back({grad, blocks_.size(), blocks.size(), -1, true});
  blocks_.insert(blocks_.end(), blocks.begin(), blocks.end());
}

void GradSums::Run() {
  const int64_t lanes = parallel::ThreadCount();
  // Work per sum, in multiply-adds, to split the rows into similar tasks.
  std::vector<int64_t> work(sums_.size(), 0);
  int64_t total_work = 0;
  int segmented = 0;
  for (size_t s = 0; s < sums_.size(); ++s) {
    Sum& sum = sums_[s];
    bool grouped = false;
    for (size_t b = 0; b < sum.num_blocks; ++b) {
      const GradBlock& block = blocks_[sum.first_block + b];
      work[s] += block.rows() * sum.grad->cols();
      if (!sum.bias && block.x != nullptr) {
        grouped = grouped ||
                  SegmentsNeedPartial(block.segments, block.x->rows());
      }
    }
    work[s] *= sum.grad->rows();
    total_work += work[s];
    if (grouped) {
      if (static_cast<int>(partials_.size()) <= segmented) {
        partials_.emplace_back();
      }
      partials_[segmented].Resize(sum.grad->rows(), sum.grad->cols());
      sum.partial = segmented++;
    }
  }
  // About four tasks per lane; one task per sum, all on the calling thread,
  // at one lane or below kMinLaneWork. A bias sum is one row, so it is one
  // task.
  const bool fan_out = lanes > 1 && total_work >= kMinLaneWork;
  const int64_t target = std::max<int64_t>(1, total_work / (4 * lanes));
  for (size_t s = 0; s < sums_.size(); ++s) {
    const int rows = sums_[s].grad->rows();
    const int64_t pieces =
        !fan_out ? 1
                 : std::clamp<int64_t>((work[s] + target - 1) / target, 1,
                                       std::max(rows, 1));
    for (int64_t p = 0; p < pieces; ++p) {
      tasks_.push_back({s, static_cast<int>(rows * p / pieces),
                        static_cast<int>(rows * (p + 1) / pieces)});
    }
  }
  const int64_t num_tasks = static_cast<int64_t>(tasks_.size());
  parallel::ParallelFor(
      0, num_tasks, fan_out ? 1 : num_tasks, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const Task& task = tasks_[static_cast<size_t>(t)];
          const Sum& sum = sums_[task.sum];
          Matrix* partial =
              sum.partial >= 0 ? &partials_[static_cast<size_t>(sum.partial)]
                               : nullptr;
          for (size_t b = 0; b < sum.num_blocks; ++b) {
            const GradBlock& block = blocks_[sum.first_block + b];
            if (block.dy == nullptr) {
              if (sum.bias) {
                AccumulateGatheredRows(block.dy_rows, sum.grad);
              } else {
                MatMulTransAAccumulateGatheredRows(
                    block.x_rows, block.dy_rows, task.row_begin,
                    task.row_end, sum.grad);
              }
            } else if (sum.bias) {
              AccumulateRows(*block.dy, sum.grad);
            } else {
              MatMulTransAAccumulateRows(*block.x, *block.dy, block.segments,
                                         task.row_begin, task.row_end,
                                         partial, sum.grad);
            }
          }
        }
      });
}

}  // namespace nn
}  // namespace lce
