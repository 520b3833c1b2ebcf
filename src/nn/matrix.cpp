// Kernel layer for the dense math core (DESIGN.md §10).
//
// Two implementations live side by side and dispatch on
// lce::simd::SimdEnabled() (LCE_SIMD, default on):
//
//   * The vectorized path: 4-row register-blocked panels over a k-blocked
//     (cache-tiled) loop nest with `#pragma omp simd` inner loops on aligned,
//     padded rows, and a fused bias+activation epilogue applied while each
//     output row is still cache-hot.
//   * The naive reference path: the plain triple loops, kept as the
//     correctness oracle for the equivalence tests and A/B benches.
//
// Exactness contract: per output element, both paths accumulate the k-terms
// in the same ascending order into a single accumulator, so they are
// bit-identical on every input — the fast path only reorganizes which
// *independent* elements progress together (rows of a panel, lanes of a
// vector).
//
// Threading: all kernels are row-blocked over the global thread pool; output
// rows are disjoint and per-element accumulation order never depends on the
// chunking, so results are bit-identical at any thread count.

#include "src/nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/nn/activation.h"
#include "src/util/parallel.h"
#include "src/util/status.h"
#include "src/util/telemetry/trace.h"

#define LCE_RESTRICT __restrict__

namespace lce {
namespace nn {

namespace {

// Minimum multiply-add operations per parallel chunk; cheaper chunks are not
// worth a task dispatch.
constexpr int64_t kFlopsPerChunk = 1 << 15;

// k-tile for the blocked MatMul: a tile of B (kKc x N floats) is streamed
// against each 4-row panel of A, so it stays resident in L2 while the panel's
// C rows stay in L1. Per output element the k-accumulation order is still
// globally ascending (tiles are visited in order with a single accumulator).
constexpr int kKc = 128;

// A*B^T calls with at least this many A rows transpose B once into a padded
// scratch matrix and reuse the blocked MatMul kernel; below it (e.g. the
// batch-1 backward passes) the packing traffic would rival the compute, so a
// 4-way-unrolled dot kernel runs directly on the unpacked rows.
constexpr int kPackMinRows = 8;

// Rows per chunk for a kernel whose output rows are independent. One lane
// gets a single chunk (the exact sequential loop); multiple lanes get ~4
// chunks per lane for load balance, floored so chunks stay coarse enough.
// Matmul results never depend on the chunking, so the lane-aware grain is
// safe (see the determinism notes on each kernel).
int64_t RowGrain(int64_t total_rows, int64_t flops_per_row) {
  int64_t lanes = parallel::ThreadCount();
  if (lanes <= 1 || total_rows <= 1) return std::max<int64_t>(1, total_rows);
  int64_t by_lanes = (total_rows + 4 * lanes - 1) / (4 * lanes);
  int64_t by_work = kFlopsPerChunk / std::max<int64_t>(1, flops_per_row);
  int64_t grain = std::max<int64_t>(1, std::max(by_lanes, by_work));
  // Round up to the 4-row SIMD panel height. Without this, a small multi-row
  // matmul (a serving micro-batch, an MSCN token block) shatters into 1-row
  // chunks that all take the GEMV tail and re-stream B once per row; whole
  // panels share each streamed B row 4 ways. Chunk boundaries never change
  // the results, so the rounding is determinism-safe.
  return (grain + 3) & ~int64_t{3};
}

Status ShapeError(const char* op, const Matrix& a, const Matrix& b) {
  std::ostringstream oss;
  oss << op << " shape mismatch: " << a.rows() << "x" << a.cols() << " * "
      << b.rows() << "x" << b.cols();
  return Status::InvalidArgument(oss.str());
}

// Fused epilogue over one finished output row: add the bias (when present),
// then apply the activation — element-wise, so the result is bit-identical
// to separate AddBiasRow + ApplyActivation passes. The activation formulas
// must stay in sync with activation.h.
void EpilogueRow(float* LCE_RESTRICT row, const float* LCE_RESTRICT bias,
                 int n, Activation act) {
  if (bias != nullptr) {
#pragma omp simd
    for (int j = 0; j < n; ++j) row[j] += bias[j];
  }
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
#pragma omp simd
      for (int j = 0; j < n; ++j) row[j] = row[j] > 0 ? row[j] : 0.0f;
      break;
    case Activation::kSigmoid:
      for (int j = 0; j < n; ++j) row[j] = 1.0f / (1.0f + std::exp(-row[j]));
      break;
    case Activation::kTanh:
      for (int j = 0; j < n; ++j) row[j] = std::tanh(row[j]);
      break;
  }
}

// ---------------------------------------------------------------------------
// Naive reference kernels: the plain loops (zero-skip removed — the old
// `av == 0.0f` shortcut defeated vectorization on dense inputs and silently
// suppressed NaN/Inf propagation from the corresponding B row).
// ---------------------------------------------------------------------------

// C = A * B over a row block of A. Per output element the k-accumulation
// order matches the sequential kernel, so blocking never changes the result.
void MatMulRowsNaive(const Matrix& a, const Matrix& b, Matrix* c, int64_t r0,
                     int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(static_cast<int>(i));
    float* crow = c->RowPtr(static_cast<int>(i));
    for (int k = 0; k < a.cols(); ++k) {
      float av = arow[k];
      const float* brow = b.RowPtr(k);
      for (int j = 0; j < b.cols(); ++j) crow[j] += av * brow[j];
    }
  }
}

// C += A^T * B over an output-row block (columns of A) and the k-range
// [k0, k1) of rows of A and B. The loop stays k-outer like the sequential
// kernel (streaming rows of A and B), and element (i, j) accumulates
// a(k, i) * b(k, j) in ascending k no matter how the i-range is blocked, so
// output is bit-identical at any thread count.
template <typename RowOfA, typename RowOfB>
void TransARowsNaive(RowOfA a_row, RowOfB b_row, Matrix* c, int64_t i0,
                     int64_t i1, int64_t k0, int64_t k1) {
  for (int64_t k = k0; k < k1; ++k) {
    const float* arow = a_row(k);
    const float* brow = b_row(k);
    for (int64_t i = i0; i < i1; ++i) {
      float av = arow[i];
      float* crow = c->RowPtr(static_cast<int>(i));
      for (int j = 0; j < c->cols(); ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransARowsNaive(const Matrix& a, const Matrix& b, Matrix* c,
                           int64_t i0, int64_t i1, int k0, int k1) {
  TransARowsNaive([&a](int64_t k) { return a.RowPtr(static_cast<int>(k)); },
                  [&b](int64_t k) { return b.RowPtr(static_cast<int>(k)); },
                  c, i0, i1, k0, k1);
}

// The same with row k of A and of B at a_rows[k], b_rows[k].
void MatMulTransAGatheredRowsNaive(const float* const* a_rows,
                                   const float* const* b_rows, Matrix* c,
                                   int64_t i0, int64_t i1, int64_t k0,
                                   int64_t k1) {
  TransARowsNaive([a_rows](int64_t k) { return a_rows[k]; },
                  [b_rows](int64_t k) { return b_rows[k]; }, c, i0, i1, k0,
                  k1);
}

// C = A * B^T over a row block of A; each element is an independent dot.
void MatMulTransBRowsNaive(const Matrix& a, const Matrix& b, Matrix* c,
                           int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(static_cast<int>(i));
    float* crow = c->RowPtr(static_cast<int>(i));
    for (int j = 0; j < b.rows(); ++j) {
      const float* brow = b.RowPtr(j);
      float dot = 0;
      for (int k = 0; k < a.cols(); ++k) dot += arow[k] * brow[k];
      crow[j] = dot;
    }
  }
}

// ---------------------------------------------------------------------------
// Vectorized kernels.
//
// LCE_KERNEL_CLONES compiles each kernel once per ISA level (baseline,
// AVX2, AVX-512) and picks the widest the CPU supports at load time via the
// resolver the compiler emits. The clones come from identical source with
// fp-contract pinned off (CMakeLists), so every lane executes the same
// mul-then-add sequence as the scalar reference — wider vectors change how
// many elements move per instruction, never a result bit. This matters most
// for the serving micro-batches: the 4-row panel is compute-bound at
// baseline vector width, so batching could never amortize the streamed B
// traffic without the wide clones.
// ---------------------------------------------------------------------------

// ThreadSanitizer builds go without clones: the clones' ifunc resolvers run
// during relocation, before the TSan runtime is initialized, and crash every
// binary that links these kernels at start-up.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define LCE_KERNEL_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef LCE_KERNEL_CLONES
#define LCE_KERNEL_CLONES
#endif

// C = A * B over a row block of A: 4-row panels share each streamed B row
// (one load, four multiply-adds per lane), the k loop is tiled by kKc so a B
// tile stays in L2 and unrolled by 4 inside the tile so each C vector makes
// one load/store round trip per four k-terms (the un-unrolled form is
// store-port-bound: one C store per k per row caps the panel at roughly a
// third of its ALU throughput). The unroll chains the four adds on the same
// accumulator in ascending k, so element values are unchanged — identical op
// sequence, fewer memory round trips. The j loop vectorizes over the aligned
// padded rows. Each C element keeps a single accumulator fed in ascending-k
// order, so the result is bit-identical to MatMulRowsNaive. The epilogue
// (bias + activation) runs once per finished row, while it is still
// cache-hot.
LCE_KERNEL_CLONES
void MatMulRowsSimd(const Matrix& a, const Matrix& b, const Matrix* bias,
                    Activation act, Matrix* c, int64_t r0, int64_t r1) {
  const int K = a.cols();
  const int N = b.cols();
  const int ldb = b.ld();
  const float* bp = b.raw();
  const float* bias_row = bias != nullptr ? bias->RowPtr(0) : nullptr;
  const bool epilogue = bias_row != nullptr || act != Activation::kIdentity;
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* LCE_RESTRICT a0 = a.RowPtr(static_cast<int>(i));
    const float* LCE_RESTRICT a1 = a.RowPtr(static_cast<int>(i) + 1);
    const float* LCE_RESTRICT a2 = a.RowPtr(static_cast<int>(i) + 2);
    const float* LCE_RESTRICT a3 = a.RowPtr(static_cast<int>(i) + 3);
    float* LCE_RESTRICT c0 = c->RowPtr(static_cast<int>(i));
    float* LCE_RESTRICT c1 = c->RowPtr(static_cast<int>(i) + 1);
    float* LCE_RESTRICT c2 = c->RowPtr(static_cast<int>(i) + 2);
    float* LCE_RESTRICT c3 = c->RowPtr(static_cast<int>(i) + 3);
    for (int kb = 0; kb < K; kb += kKc) {
      const int ke = std::min(K, kb + kKc);
      int k = kb;
      for (; k + 4 <= ke; k += 4) {
        const float* LCE_RESTRICT b0 = bp + static_cast<size_t>(k) * ldb;
        const float* LCE_RESTRICT b1 = b0 + ldb;
        const float* LCE_RESTRICT b2 = b1 + ldb;
        const float* LCE_RESTRICT b3 = b2 + ldb;
        const float a00 = a0[k], a01 = a0[k + 1], a02 = a0[k + 2],
                    a03 = a0[k + 3];
        const float a10 = a1[k], a11 = a1[k + 1], a12 = a1[k + 2],
                    a13 = a1[k + 3];
        const float a20 = a2[k], a21 = a2[k + 1], a22 = a2[k + 2],
                    a23 = a2[k + 3];
        const float a30 = a3[k], a31 = a3[k + 1], a32 = a3[k + 2],
                    a33 = a3[k + 3];
#pragma omp simd
        for (int j = 0; j < N; ++j) {
          const float b0j = b0[j], b1j = b1[j], b2j = b2[j], b3j = b3[j];
          c0[j] = (((c0[j] + a00 * b0j) + a01 * b1j) + a02 * b2j) + a03 * b3j;
          c1[j] = (((c1[j] + a10 * b0j) + a11 * b1j) + a12 * b2j) + a13 * b3j;
          c2[j] = (((c2[j] + a20 * b0j) + a21 * b1j) + a22 * b2j) + a23 * b3j;
          c3[j] = (((c3[j] + a30 * b0j) + a31 * b1j) + a32 * b2j) + a33 * b3j;
        }
      }
      for (; k < ke; ++k) {
        const float* LCE_RESTRICT brow = bp + static_cast<size_t>(k) * ldb;
        const float av0 = a0[k];
        const float av1 = a1[k];
        const float av2 = a2[k];
        const float av3 = a3[k];
#pragma omp simd
        for (int j = 0; j < N; ++j) {
          c0[j] += av0 * brow[j];
          c1[j] += av1 * brow[j];
          c2[j] += av2 * brow[j];
          c3[j] += av3 * brow[j];
        }
      }
    }
    if (epilogue) {
      EpilogueRow(c0, bias_row, N, act);
      EpilogueRow(c1, bias_row, N, act);
      EpilogueRow(c2, bias_row, N, act);
      EpilogueRow(c3, bias_row, N, act);
    }
  }
  // Tail rows (and the M=1 GEMV shape of per-query inference): one streamed
  // pass over B with a vectorized j loop.
  for (; i < r1; ++i) {
    const float* LCE_RESTRICT arow = a.RowPtr(static_cast<int>(i));
    float* LCE_RESTRICT crow = c->RowPtr(static_cast<int>(i));
    for (int k = 0; k < K; ++k) {
      const float* LCE_RESTRICT brow = bp + static_cast<size_t>(k) * ldb;
      const float av = arow[k];
#pragma omp simd
      for (int j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
    if (epilogue) EpilogueRow(crow, bias_row, N, act);
  }
}

// C += A^T * B over an output-row block and the k-range [k0, k1): k-outer
// like the naive kernel (B's row stays in L1 across the whole i-range), 4
// output rows per step sharing it, vectorized over j. Ascending-k single
// accumulators — bit-identical to MatMulTransARowsNaive.
template <typename RowOfA, typename RowOfB>
[[gnu::always_inline]] inline void TransARowsSimd(RowOfA a_row, RowOfB b_row,
                                                  Matrix* c, int64_t i0,
                                                  int64_t i1, int64_t k0,
                                                  int64_t k1) {
  const int N = c->cols();
  for (int64_t k = k0; k < k1; ++k) {
    const float* LCE_RESTRICT arow = a_row(k);
    const float* LCE_RESTRICT brow = b_row(k);
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float av0 = arow[i];
      const float av1 = arow[i + 1];
      const float av2 = arow[i + 2];
      const float av3 = arow[i + 3];
      float* LCE_RESTRICT c0 = c->RowPtr(static_cast<int>(i));
      float* LCE_RESTRICT c1 = c->RowPtr(static_cast<int>(i) + 1);
      float* LCE_RESTRICT c2 = c->RowPtr(static_cast<int>(i) + 2);
      float* LCE_RESTRICT c3 = c->RowPtr(static_cast<int>(i) + 3);
#pragma omp simd
      for (int j = 0; j < N; ++j) {
        c0[j] += av0 * brow[j];
        c1[j] += av1 * brow[j];
        c2[j] += av2 * brow[j];
        c3[j] += av3 * brow[j];
      }
    }
    for (; i < i1; ++i) {
      const float av = arow[i];
      float* LCE_RESTRICT crow = c->RowPtr(static_cast<int>(i));
#pragma omp simd
      for (int j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
}

LCE_KERNEL_CLONES
void MatMulTransARowsSimd(const Matrix& a, const Matrix& b, Matrix* c,
                          int64_t i0, int64_t i1, int k0, int k1) {
  TransARowsSimd([&a](int64_t k) { return a.RowPtr(static_cast<int>(k)); },
                 [&b](int64_t k) { return b.RowPtr(static_cast<int>(k)); },
                 c, i0, i1, k0, k1);
}

// The same with row k of A and of B at a_rows[k], b_rows[k].
LCE_KERNEL_CLONES
void MatMulTransAGatheredRowsSimd(const float* const* a_rows,
                                  const float* const* b_rows, Matrix* c,
                                  int64_t i0, int64_t i1, int64_t k0,
                                  int64_t k1) {
  TransARowsSimd([a_rows](int64_t k) { return a_rows[k]; },
                 [b_rows](int64_t k) { return b_rows[k]; }, c, i0, i1, k0,
                 k1);
}

// Small-M A * B^T: independent dot products, 4 B rows unrolled per step so
// four scalar accumulator chains run in parallel. Each chain sums ascending
// k — bit-identical to the naive dot loop.
LCE_KERNEL_CLONES
void MatMulTransBRowsDot(const Matrix& a, const Matrix& b, Matrix* c,
                         int64_t r0, int64_t r1) {
  const int K = a.cols();
  const int Nb = b.rows();
  for (int64_t i = r0; i < r1; ++i) {
    const float* LCE_RESTRICT arow = a.RowPtr(static_cast<int>(i));
    float* LCE_RESTRICT crow = c->RowPtr(static_cast<int>(i));
    int j = 0;
    for (; j + 4 <= Nb; j += 4) {
      const float* LCE_RESTRICT b0 = b.RowPtr(j);
      const float* LCE_RESTRICT b1 = b.RowPtr(j + 1);
      const float* LCE_RESTRICT b2 = b.RowPtr(j + 2);
      const float* LCE_RESTRICT b3 = b.RowPtr(j + 3);
      float d0 = 0, d1 = 0, d2 = 0, d3 = 0;
      for (int k = 0; k < K; ++k) {
        const float av = arow[k];
        d0 += av * b0[k];
        d1 += av * b1[k];
        d2 += av * b2[k];
        d3 += av * b3[k];
      }
      crow[j] = d0;
      crow[j + 1] = d1;
      crow[j + 2] = d2;
      crow[j + 3] = d3;
    }
    for (; j < Nb; ++j) {
      const float* LCE_RESTRICT brow = b.RowPtr(j);
      float dot = 0;
      for (int k = 0; k < K; ++k) dot += arow[k] * brow[k];
      crow[j] = dot;
    }
  }
}

// B transposed into `bt` (16x16 tiles for cache-friendly strided reads).
// Lets large-M A * B^T reuse the blocked MatMul kernel. Every logical
// element of `bt` is written, so its stale contents never show.
void TransposePackedInto(const Matrix& b, Matrix* bt) {
  bt->Resize(b.cols(), b.rows());
  constexpr int kTile = 16;
  parallel::ParallelFor(
      0, b.cols(), RowGrain(b.cols(), b.rows()),
      [&](int64_t i0, int64_t i1) {
        for (int64_t it = i0; it < i1; it += kTile) {
          const int ie = static_cast<int>(std::min<int64_t>(i1, it + kTile));
          for (int jt = 0; jt < b.rows(); jt += kTile) {
            const int je = std::min(b.rows(), jt + kTile);
            for (int i = static_cast<int>(it); i < ie; ++i) {
              float* btrow = bt->RowPtr(i);
              for (int j = jt; j < je; ++j) btrow[j] = b.At(j, i);
            }
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

// C = act(A * B + bias) into *c; bias may be null, act may be identity. The
// kernels accumulate into C, so rows are zeroed first unless C was just
// constructed (`zeroed`).
void MatMulInto(const Matrix& a, const Matrix& b, const Matrix* bias,
                Activation act, Matrix* c, bool zeroed) {
  if (!zeroed) c->Resize(a.rows(), b.cols());
  const int64_t grain =
      RowGrain(a.rows(), static_cast<int64_t>(a.cols()) * b.cols());
  const bool simd = simd::SimdEnabled();
  parallel::ParallelFor(0, a.rows(), grain, [&](int64_t r0, int64_t r1) {
    if (!zeroed) {
      for (int64_t r = r0; r < r1; ++r) c->ZeroRow(static_cast<int>(r));
    }
    if (simd) {
      MatMulRowsSimd(a, b, bias, act, c, r0, r1);
    } else {
      MatMulRowsNaive(a, b, c, r0, r1);
    }
  });
  if (simd) return;
  // Reference path: the unfused two extra passes.
  if (bias != nullptr) AddBiasRow(c, *bias);
  *c = ApplyActivation(act, std::move(*c));
}

Matrix MatMulImpl(const Matrix& a, const Matrix& b, const Matrix* bias,
                  Activation act) {
  Matrix c(a.rows(), b.cols());
  MatMulInto(a, b, bias, act, &c, /*zeroed=*/true);
  return c;
}

// Rows [i0, i1) of C += A^T * B, per segment as MatMulTransAAccumulate
// documents. Segments of more than one row sum into `partial` (zeroed per
// segment over the rows) before C adds them.
void TransARows(const Matrix& a, const Matrix& b,
                const std::vector<int>* segments, bool grouped, int64_t i0,
                int64_t i1, Matrix* partial, Matrix* c) {
  const bool simd = simd::SimdEnabled();
  auto rows = [simd, &a, &b](Matrix* out, int64_t r0, int64_t r1, int k0,
                             int k1) {
    if (simd) {
      MatMulTransARowsSimd(a, b, out, r0, r1, k0, k1);
    } else {
      MatMulTransARowsNaive(a, b, out, r0, r1, k0, k1);
    }
  };
  if (!grouped) {
    rows(c, i0, i1, 0, a.rows());
    return;
  }
  const int n = c->cols();
  int k = 0;
  for (int len : *segments) {
    if (len == 1) {
      rows(c, i0, i1, k, k + 1);
    } else if (len > 1) {
      for (int64_t i = i0; i < i1; ++i) partial->ZeroRow(static_cast<int>(i));
      rows(partial, i0, i1, k, k + len);
      for (int64_t i = i0; i < i1; ++i) {
        const float* LCE_RESTRICT p = partial->RowPtr(static_cast<int>(i));
        float* LCE_RESTRICT crow = c->RowPtr(static_cast<int>(i));
#pragma omp simd
        for (int j = 0; j < n; ++j) crow[j] += p[j];
      }
    }
    k += len;
  }
}

// C += A^T * B over every row of C, chunks owning disjoint rows of C and of
// the partial-sum scratch.
void MatMulTransAAccumulateImpl(const Matrix& a, const Matrix& b,
                                const std::vector<int>* segments, Matrix* c) {
  const bool grouped = SegmentsNeedPartial(segments, a.rows());
  Matrix partial = grouped ? Matrix(c->rows(), c->cols()) : Matrix();
  const int64_t grain =
      RowGrain(a.cols(), static_cast<int64_t>(a.rows()) * b.cols());
  parallel::ParallelFor(0, a.cols(), grain, [&](int64_t i0, int64_t i1) {
    TransARows(a, b, segments, grouped, i0, i1, &partial, c);
  });
}

Matrix MatMulTransAImpl(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  MatMulTransAAccumulateImpl(a, b, nullptr, &c);
  return c;
}

// C = A * B^T into *c (`zeroed` as for MatMulInto).
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c,
                      Matrix* packed, bool zeroed) {
  if (simd::SimdEnabled() && a.rows() >= kPackMinRows) {
    // Pack once, then run the blocked j-vectorized kernel: each element
    // still accumulates ascending k, so this matches the naive dot loop
    // bit for bit while streaming B contiguously.
    TransposePackedInto(b, packed);
    MatMulInto(a, *packed, nullptr, Activation::kIdentity, c, zeroed);
    return;
  }
  // The dot kernels assign every element, so C needs no zeroing.
  if (!zeroed) c->Resize(a.rows(), b.rows());
  const int64_t grain =
      RowGrain(a.rows(), static_cast<int64_t>(b.rows()) * a.cols());
  const bool simd = simd::SimdEnabled();
  parallel::ParallelFor(0, a.rows(), grain, [&](int64_t r0, int64_t r1) {
    if (simd) {
      MatMulTransBRowsDot(a, b, c, r0, r1);
    } else {
      MatMulTransBRowsNaive(a, b, c, r0, r1);
    }
  });
}

Matrix MatMulTransBImpl(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  Matrix packed;
  MatMulTransBInto(a, b, &c, &packed, /*zeroed=*/true);
  return c;
}

}  // namespace

void Matrix::Add(const Matrix& other) {
  LCE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  // Flat vectorized pass over the padded buffers (same ld by construction):
  // padding is zero on both sides, so 0 + 0 keeps the invariant.
  float* LCE_RESTRICT dst = data_.data();
  const float* LCE_RESTRICT src = other.data_.data();
  const int64_t n = static_cast<int64_t>(data_.size());
#pragma omp simd
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) LCE_CHECK_OK(ShapeError("MatMul", a, b));
  // Kernel span: with LCE_PROFILE on, the collapsed-stack hot paths name the
  // actual dense kernels under their stage/epoch spans. Work-thresholded so
  // batch-1 training micro-GEMMs don't drown in span overhead.
  telemetry::KernelSpan span(
      "MatMul", int64_t{a.rows()} * a.cols() * b.cols());
  return MatMulImpl(a, b, nullptr, Activation::kIdentity);
}

Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix& bias,
                     Activation act) {
  if (a.cols() != b.rows()) LCE_CHECK_OK(ShapeError("MatMulBiasAct", a, b));
  telemetry::KernelSpan span(
      "MatMulBiasAct", int64_t{a.rows()} * a.cols() * b.cols());
  if (bias.empty()) return MatMulImpl(a, b, nullptr, act);
  LCE_CHECK(bias.rows() == 1 && bias.cols() == b.cols());
  return MatMulImpl(a, b, &bias, act);
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  if (a.cols() != b.rows()) LCE_CHECK_OK(ShapeError("MatMul", a, b));
  telemetry::KernelSpan span(
      "MatMul", int64_t{a.rows()} * a.cols() * b.cols());
  MatMulInto(a, b, nullptr, Activation::kIdentity, c, /*zeroed=*/false);
}

void MatMulBiasActInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                       Activation act, Matrix* c) {
  if (a.cols() != b.rows()) LCE_CHECK_OK(ShapeError("MatMulBiasAct", a, b));
  telemetry::KernelSpan span(
      "MatMulBiasAct", int64_t{a.rows()} * a.cols() * b.cols());
  if (bias.empty()) {
    MatMulInto(a, b, nullptr, act, c, /*zeroed=*/false);
    return;
  }
  LCE_CHECK(bias.rows() == 1 && bias.cols() == b.cols());
  MatMulInto(a, b, &bias, act, c, /*zeroed=*/false);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c,
                      Matrix* packed) {
  if (a.cols() != b.cols()) LCE_CHECK_OK(ShapeError("MatMulTransB", a, b));
  telemetry::KernelSpan span(
      "MatMulTransB", int64_t{a.rows()} * a.cols() * b.rows());
  MatMulTransBInto(a, b, c, packed, /*zeroed=*/false);
}

bool SegmentsNeedPartial(const std::vector<int>* segments, int rows) {
  if (segments == nullptr) return false;
  bool grouped = false;
  int total = 0;
  for (int len : *segments) {
    LCE_CHECK(len >= 0);
    total += len;
    grouped = grouped || len > 1;
  }
  LCE_CHECK_MSG(total == rows,
                "segments cover " << total << " of " << rows << " rows");
  return grouped;
}

void MatMulTransAAccumulateRows(const Matrix& a, const Matrix& b,
                                const std::vector<int>* segments, int64_t i0,
                                int64_t i1, Matrix* partial, Matrix* c) {
  if (a.rows() != b.rows()) LCE_CHECK_OK(ShapeError("MatMulTransA", a, b));
  LCE_CHECK(c->rows() == a.cols() && c->cols() == b.cols());
  LCE_CHECK(i0 >= 0 && i0 <= i1 && i1 <= c->rows());
  const bool grouped = SegmentsNeedPartial(segments, a.rows());
  if (grouped) {
    LCE_CHECK(partial != nullptr && partial->rows() == c->rows() &&
              partial->cols() == c->cols());
  }
  TransARows(a, b, segments, grouped, i0, i1, partial, c);
}

void MatMulTransAAccumulateGatheredRows(std::span<const float* const> a_rows,
                                        std::span<const float* const> b_rows,
                                        int64_t i0, int64_t i1, Matrix* c) {
  LCE_CHECK(a_rows.size() == b_rows.size());
  LCE_CHECK(i0 >= 0 && i0 <= i1 && i1 <= c->rows());
  const int64_t n = static_cast<int64_t>(a_rows.size());
  if (simd::SimdEnabled()) {
    MatMulTransAGatheredRowsSimd(a_rows.data(), b_rows.data(), c, i0, i1, 0,
                                 n);
  } else {
    MatMulTransAGatheredRowsNaive(a_rows.data(), b_rows.data(), c, i0, i1, 0,
                                  n);
  }
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) LCE_CHECK_OK(ShapeError("MatMulTransA", a, b));
  telemetry::KernelSpan span(
      "MatMulTransA", int64_t{a.cols()} * a.rows() * b.cols());
  return MatMulTransAImpl(a, b);
}

void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* c,
                            const std::vector<int>* segments) {
  if (a.rows() != b.rows()) LCE_CHECK_OK(ShapeError("MatMulTransA", a, b));
  LCE_CHECK(c->rows() == a.cols() && c->cols() == b.cols());
  telemetry::KernelSpan span(
      "MatMulTransA", int64_t{a.cols()} * a.rows() * b.cols());
  MatMulTransAAccumulateImpl(a, b, segments, c);
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) LCE_CHECK_OK(ShapeError("MatMulTransB", a, b));
  telemetry::KernelSpan span(
      "MatMulTransB", int64_t{a.rows()} * a.cols() * b.rows());
  return MatMulTransBImpl(a, b);
}

void AddBiasRow(Matrix* x, const Matrix& bias) {
  AddBiasRowActivate(x, bias, Activation::kIdentity);
}

void AddBiasRowActivate(Matrix* x, const Matrix& bias, Activation act) {
  LCE_CHECK(bias.rows() == 1 && bias.cols() == x->cols());
  // Element-wise: one fused pass is bit-identical to bias-then-activation
  // passes regardless of LCE_SIMD, so there is no reference variant.
  parallel::ParallelFor(
      0, x->rows(), RowGrain(x->rows(), x->cols()),
      [&](int64_t r0, int64_t r1) {
        const float* b = bias.RowPtr(0);
        for (int64_t r = r0; r < r1; ++r) {
          EpilogueRow(x->RowPtr(static_cast<int>(r)), b, x->cols(), act);
        }
      });
}

void AccumulateRows(const Matrix& x, Matrix* sum) {
  LCE_CHECK(sum->rows() == 1 && sum->cols() == x.cols());
  float* LCE_RESTRICT out = sum->RowPtr(0);
  for (int r = 0; r < x.rows(); ++r) {
    const float* LCE_RESTRICT row = x.RowPtr(r);
#pragma omp simd
    for (int c = 0; c < x.cols(); ++c) out[c] += row[c];
  }
}

void AccumulateGatheredRows(std::span<const float* const> rows, Matrix* sum) {
  LCE_CHECK(sum->rows() == 1);
  float* LCE_RESTRICT out = sum->RowPtr(0);
  const int n = sum->cols();
  for (const float* src : rows) {
    const float* LCE_RESTRICT row = src;
#pragma omp simd
    for (int c = 0; c < n; ++c) out[c] += row[c];
  }
}

}  // namespace nn
}  // namespace lce
