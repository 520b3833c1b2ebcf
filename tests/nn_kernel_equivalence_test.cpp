// Randomized equivalence of the vectorized kernel layer against the naive
// reference path (LCE_SIMD=0), asserting the DESIGN.md §10 exactness
// contract: the default build is BIT-identical to the reference on every
// input, at every thread count, for every shape — including degenerate ones
// (1xN, Nx1, odd tails past the 4-row panels and 16-float padding). The
// batched-training tests below hold the layers to the same contract: one
// backward over a minibatch accumulates exactly the gradients of one
// backward per example (or per query's token segment) in order.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/activation.h"
#include "src/nn/adam.h"
#include "src/nn/grad_sums.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/nn/recurrent.h"
#include "src/util/parallel.h"
#include "src/util/simd.h"

namespace lce {
namespace nn {
namespace {

// Restores the kernel knob and the pool size on scope exit, so a failing
// assertion cannot leak state into later tests.
struct KernelEnvGuard {
  ~KernelEnvGuard() {
    simd::SetSimdEnabledForTesting(-1);
    parallel::SetThreadCountForTesting(0);
  }
};

// Bit pattern of every logical element; NaNs compare equal to themselves.
std::vector<uint32_t> Bits(const Matrix& m) {
  std::vector<float> flat = m.ToFlat();
  std::vector<uint32_t> bits(flat.size());
  static_assert(sizeof(float) == sizeof(uint32_t));
  std::memcpy(bits.data(), flat.data(), flat.size() * sizeof(float));
  return bits;
}

// Dense Gaussian values with a sprinkle of exact zeros (the removed
// `av == 0.0f` skip must not resurface as a behavioral difference).
Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m = Matrix::Randn(rows, cols, 1.0f, rng);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng->UniformInt(0, 9) == 0) m.At(r, c) = 0.0f;
    }
  }
  return m;
}

struct Shape {
  int m, k, n;
};

// Panel multiples, odd tails, vectors, and padding-boundary sizes.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {7, 1, 7},    {1, 384, 48}, {48, 384, 1},
    {4, 16, 16}, {5, 17, 19},  {8, 33, 15},  {16, 16, 16}, {13, 64, 31},
    {64, 48, 9}, {33, 47, 63}, {96, 96, 96},
};

const int kThreadCounts[] = {1, 4};

template <typename Op>
void ExpectBitIdenticalAcrossPaths(const char* what, const Op& op) {
  KernelEnvGuard guard;
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    simd::SetSimdEnabledForTesting(0);
    Matrix reference = op();
    simd::SetSimdEnabledForTesting(1);
    Matrix fast = op();
    ASSERT_EQ(reference.rows(), fast.rows()) << what;
    ASSERT_EQ(reference.cols(), fast.cols()) << what;
    EXPECT_EQ(Bits(reference), Bits(fast))
        << what << " diverges at " << threads << " threads";
  }
}

TEST(KernelEquivalenceTest, MatMulMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 10007 + s.k * 101 + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectBitIdenticalAcrossPaths("MatMul", [&] { return MatMul(a, b); });
  }
}

TEST(KernelEquivalenceTest, MatMulTransAMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 7919 + s.k * 211 + s.n);
    Matrix a = RandomMatrix(s.k, s.m, &rng);  // A^T is m x k
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectBitIdenticalAcrossPaths("MatMulTransA",
                                  [&] { return MatMulTransA(a, b); });
  }
}

TEST(KernelEquivalenceTest, MatMulTransBMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 6007 + s.k * 307 + s.n);
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);  // B^T is k x n
    ExpectBitIdenticalAcrossPaths("MatMulTransB",
                                  [&] { return MatMulTransB(a, b); });
  }
}

TEST(KernelEquivalenceTest, FusedBiasActivationMatchesUnfusedBitwise) {
  const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kSigmoid, Activation::kTanh};
  for (const Shape& s : kShapes) {
    for (Activation act : kActs) {
      Rng rng(s.m * 31 + s.k * 17 + s.n * 13 + static_cast<int>(act));
      Matrix a = RandomMatrix(s.m, s.k, &rng);
      Matrix b = RandomMatrix(s.k, s.n, &rng);
      Matrix bias = RandomMatrix(1, s.n, &rng);
      // Fused vs the three separate passes, under the same kernel path.
      KernelEnvGuard guard;
      for (int simd_on : {0, 1}) {
        simd::SetSimdEnabledForTesting(simd_on);
        Matrix fused = MatMulBiasAct(a, b, bias, act);
        Matrix unfused = MatMul(a, b);
        AddBiasRow(&unfused, bias);
        unfused = ApplyActivation(act, std::move(unfused));
        EXPECT_EQ(Bits(fused), Bits(unfused))
            << "fused epilogue diverges, simd=" << simd_on;
      }
      // And the fused op itself across paths.
      ExpectBitIdenticalAcrossPaths(
          "MatMulBiasAct", [&] { return MatMulBiasAct(a, b, bias, act); });
    }
  }
}

TEST(KernelEquivalenceTest, AddBiasRowActivateMatchesSeparatePasses) {
  Rng rng(99);
  Matrix x = RandomMatrix(9, 37, &rng);
  Matrix bias = RandomMatrix(1, 37, &rng);
  for (Activation act : {Activation::kRelu, Activation::kTanh}) {
    Matrix fused = x;
    AddBiasRowActivate(&fused, bias, act);
    Matrix unfused = x;
    AddBiasRow(&unfused, bias);
    unfused = ApplyActivation(act, std::move(unfused));
    EXPECT_EQ(Bits(fused), Bits(unfused));
  }
}

TEST(KernelEquivalenceTest, AddPreservesPaddingAndValues) {
  Rng rng(7);
  // Odd width: 2 padding floats per row behind the 14 logical columns.
  Matrix a = RandomMatrix(5, 14, &rng);
  Matrix b = RandomMatrix(5, 14, &rng);
  std::vector<float> expected(a.size());
  {
    std::vector<float> fa = a.ToFlat(), fb = b.ToFlat();
    for (size_t i = 0; i < fa.size(); ++i) expected[i] = fa[i] + fb[i];
  }
  a.Add(b);
  EXPECT_EQ(a.ToFlat(), expected);
  // Padding must still be zero everywhere (checksum stability contract).
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = a.cols(); c < a.ld(); ++c) {
      EXPECT_EQ(a.RowPtr(r)[c], 0.0f) << "padding dirtied at " << r;
    }
  }
}

TEST(KernelEquivalenceTest, RowsAre64ByteAligned) {
  Matrix m(3, 5);
  for (int r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(r)) % 64, 0u);
  }
  EXPECT_EQ(m.ld(), 16);
  EXPECT_EQ(m.padded_size(), 48u);
  EXPECT_EQ(m.size(), 15u);
}

TEST(KernelEquivalenceTest, NanPropagatesThroughZeroWeights) {
  // The old kernels skipped av == 0.0f and silently dropped NaN rows of B;
  // both paths must now agree AND propagate (0 * NaN == NaN).
  Matrix a = Matrix::FromFlat(1, 2, {0.0f, 1.0f});
  Matrix b = Matrix::FromFlat(
      2, 2, {std::numeric_limits<float>::quiet_NaN(), 2.0f, 3.0f, 4.0f});
  KernelEnvGuard guard;
  for (int simd_on : {0, 1}) {
    simd::SetSimdEnabledForTesting(simd_on);
    Matrix c = MatMul(a, b);
    EXPECT_TRUE(std::isnan(c.At(0, 0))) << "simd=" << simd_on;
    EXPECT_FLOAT_EQ(c.At(0, 1), 4.0f);  // 0*2 + 1*4
  }
}

// End-to-end: a full training run (forward, backward, Adam) lands on
// bit-identical weights with the vectorized and reference kernels, at 1 and
// 4 threads — the estimator-zoo guarantee in miniature.
TEST(KernelEquivalenceTest, MlpTrainingIsBitIdenticalAcrossPaths) {
  KernelEnvGuard guard;
  auto train = [] {
    Rng rng(42);
    Mlp mlp({7, 16, 5, 1}, Activation::kRelu, Activation::kSigmoid, &rng);
    Adam adam(1e-2f);
    Matrix x = Matrix::Randn(12, 7, 1.0f, &rng);
    MlpTape tape;
    for (int step = 0; step < 10; ++step) {
      Matrix y = mlp.Forward(x, &tape);
      Matrix dy(y.rows(), y.cols(), 1.0f);
      mlp.Backward(x, &tape, dy, /*dx=*/nullptr);
      adam.Step(mlp.Params());
    }
    std::vector<uint32_t> bits;
    for (Param* p : mlp.Params()) {
      std::vector<uint32_t> b = Bits(p->value);
      bits.insert(bits.end(), b.begin(), b.end());
    }
    return bits;
  };
  simd::SetSimdEnabledForTesting(0);
  parallel::SetThreadCountForTesting(1);
  std::vector<uint32_t> reference = train();
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    simd::SetSimdEnabledForTesting(1);
    EXPECT_EQ(reference, train()) << "threads=" << threads;
    simd::SetSimdEnabledForTesting(0);
    EXPECT_EQ(reference, train()) << "naive threads=" << threads;
  }
}

// Rows [r0, r0 + n) of `m` as their own matrix.
Matrix Rows(const Matrix& m, int r0, int n) {
  Matrix out(n, m.cols());
  for (int r = 0; r < n; ++r) {
    std::copy(m.RowPtr(r0 + r), m.RowPtr(r0 + r) + m.cols(), out.RowPtr(r));
  }
  return out;
}

// C += A^T B as one MatMulTransA + Add per group of `lengths` rows: the sums
// that training one example at a time adds into its gradients.
Matrix AddPerGroup(const Matrix& a, const Matrix& b, Matrix c,
                   const std::vector<int>& lengths) {
  int r0 = 0;
  for (int len : lengths) {
    c.Add(MatMulTransA(Rows(a, r0, len), Rows(b, r0, len)));
    r0 += len;
  }
  return c;
}

TEST(KernelEquivalenceTest, MatMulTransAAccumulateMatchesPerGroupSums) {
  // Segments of one and of several rows, summing to the 17 rows of A and B.
  const std::vector<int> segments = {3, 1, 1, 5, 2, 4, 1};
  const std::vector<int> single_rows(17, 1);
  KernelEnvGuard guard;
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 4001 + s.n * 13);
    Matrix a = RandomMatrix(17, s.m, &rng);
    Matrix b = RandomMatrix(17, s.n, &rng);
    Matrix c0 = RandomMatrix(s.m, s.n, &rng);
    for (int threads : kThreadCounts) {
      parallel::SetThreadCountForTesting(threads);
      for (int simd_on : {0, 1}) {
        simd::SetSimdEnabledForTesting(simd_on);
        Matrix by_row = c0;
        MatMulTransAAccumulate(a, b, &by_row);
        EXPECT_EQ(Bits(by_row), Bits(AddPerGroup(a, b, c0, single_rows)))
            << "rows, simd=" << simd_on << " threads=" << threads;
        Matrix by_segment = c0;
        MatMulTransAAccumulate(a, b, &by_segment, &segments);
        EXPECT_EQ(Bits(by_segment), Bits(AddPerGroup(a, b, c0, segments)))
            << "segments, simd=" << simd_on << " threads=" << threads;
      }
    }
  }
}

// The gathered TransA kernel reads row k of A and B through pointers: rows
// taken from two separate matrices, in order, must give the bits of the
// stacked kernel over the same rows, for every output-row range, on both
// paths; the gathered row sum likewise.
TEST(KernelEquivalenceTest, GatheredTransAMatchesStackedRows) {
  KernelEnvGuard guard;
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 7919 + s.n * 31);
    const int rows = 17;
    const int cut = 6;
    Matrix a = RandomMatrix(rows, s.m, &rng);
    Matrix b = RandomMatrix(rows, s.n, &rng);
    Matrix c0 = RandomMatrix(s.m, s.n, &rng);
    const Matrix a_parts[2] = {Rows(a, 0, cut), Rows(a, cut, rows - cut)};
    const Matrix b_parts[2] = {Rows(b, 0, cut), Rows(b, cut, rows - cut)};
    std::vector<const float*> a_rows, b_rows;
    for (int p = 0; p < 2; ++p) {
      for (int r = 0; r < a_parts[p].rows(); ++r) {
        a_rows.push_back(a_parts[p].RowPtr(r));
        b_rows.push_back(b_parts[p].RowPtr(r));
      }
    }
    for (int simd_on : {0, 1}) {
      simd::SetSimdEnabledForTesting(simd_on);
      for (int i0 : {0, s.m / 2}) {
        Matrix stacked = c0;
        MatMulTransAAccumulateRows(a, b, nullptr, i0, s.m, nullptr, &stacked);
        Matrix gathered = c0;
        MatMulTransAAccumulateGatheredRows(a_rows, b_rows, i0, s.m,
                                           &gathered);
        EXPECT_EQ(Bits(gathered), Bits(stacked))
            << s.m << "x" << s.n << " i0=" << i0 << " simd=" << simd_on;
      }
      Matrix sum = Rows(c0, 0, 1);
      Matrix gathered_sum = sum;
      AccumulateRows(b, &sum);
      AccumulateGatheredRows(b_rows, &gathered_sum);
      EXPECT_EQ(Bits(gathered_sum), Bits(sum))
          << s.m << "x" << s.n << " simd=" << simd_on;
    }
  }
}

// Bits of every parameter gradient, in Params() order.
std::vector<uint32_t> GradBits(const std::vector<Param*>& params) {
  std::vector<uint32_t> bits;
  for (const Param* p : params) {
    std::vector<uint32_t> b = Bits(p->grad);
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

void ZeroGrads(const std::vector<Param*>& params) {
  for (Param* p : params) p->ZeroGrad();
}

// 13 rows: more than the 8 rows at which MatMulTransB packs B, with a tail
// past the 4-row panels.
TEST(KernelEquivalenceTest, MlpBatchedBackwardMatchesOneRowBackwards) {
  KernelEnvGuard guard;
  Rng rng(21);
  Mlp mlp({9, 24, 6, 3}, Activation::kRelu, Activation::kSigmoid, &rng);
  const int rows = 13;
  Matrix x = RandomMatrix(rows, 9, &rng);
  Matrix dy = RandomMatrix(rows, 3, &rng);
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    ZeroGrads(mlp.Params());
    MlpTape tape;
    Matrix y = mlp.Forward(x, &tape);
    Matrix dx;
    mlp.Backward(x, &tape, dy, &dx);
    std::vector<uint32_t> batched = GradBits(mlp.Params());

    ZeroGrads(mlp.Params());
    for (int r = 0; r < rows; ++r) {
      Matrix xr = Rows(x, r, 1);
      MlpTape row_tape;
      Matrix yr = mlp.Forward(xr, &row_tape);
      EXPECT_EQ(Bits(yr), Bits(Rows(y, r, 1))) << "output row " << r;
      Matrix dxr;
      mlp.Backward(xr, &row_tape, Rows(dy, r, 1), &dxr);
      EXPECT_EQ(Bits(dxr), Bits(Rows(dx, r, 1))) << "dx row " << r;
    }
    EXPECT_EQ(batched, GradBits(mlp.Params())) << "threads=" << threads;
  }
}

// The set models' token MLPs: rows are tokens and each query owns a segment.
// Trained one query at a time, each query's backward sums its tokens' weight
// terms from zero before adding them (its rows as one segment) and adds its
// bias terms row by row; one backward over all queries' segments must land on
// the same bits.
TEST(KernelEquivalenceTest, MlpSegmentedBackwardMatchesOneBackwardPerSegment) {
  KernelEnvGuard guard;
  Rng rng(22);
  Mlp mlp({11, 20, 20}, Activation::kRelu, Activation::kRelu, &rng);
  const std::vector<int> segments = {3, 1, 4, 2, 1, 5, 1, 2};
  const int rows = 19;
  Matrix x = RandomMatrix(rows, 11, &rng);
  Matrix dy = RandomMatrix(rows, 20, &rng);
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    ZeroGrads(mlp.Params());
    MlpTape tape;
    mlp.Forward(x, &tape);
    mlp.Backward(x, &tape, dy, /*dx=*/nullptr, &segments);
    std::vector<uint32_t> batched = GradBits(mlp.Params());

    ZeroGrads(mlp.Params());
    int r0 = 0;
    for (int len : segments) {
      Matrix xs = Rows(x, r0, len);
      MlpTape seg_tape;
      mlp.Forward(xs, &seg_tape);
      const std::vector<int> one_segment = {len};
      mlp.Backward(xs, &seg_tape, Rows(dy, r0, len), /*dx=*/nullptr,
                   &one_segment);
      r0 += len;
    }
    EXPECT_EQ(batched, GradBits(mlp.Params())) << "threads=" << threads;
  }
}

// Row-block training's split MLP backward: the batch cut into two blocks at
// every row (at every segment boundary for a token MLP's segments), each
// block's forward and BackwardChain run on its own, then one phase-B
// GradSums over the blocks in order, must give the one-call backward's
// outputs, dL/dx rows and gradients, bit for bit.
TEST(KernelEquivalenceTest, MlpSplitBackwardMatchesOneCallBackward) {
  KernelEnvGuard guard;
  Rng rng(25);
  Mlp mlp({11, 20, 6, 3}, Activation::kRelu, Activation::kSigmoid, &rng);
  const std::vector<int> segments = {3, 1, 4, 2, 1, 5, 1, 2};
  const int rows = 19;
  Matrix x = RandomMatrix(rows, 11, &rng);
  Matrix dy = RandomMatrix(rows, 3, &rng);
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    for (bool segmented : {false, true}) {
      ZeroGrads(mlp.Params());
      MlpTape whole;
      Matrix y = mlp.Forward(x, &whole);
      Matrix dx;
      mlp.Backward(x, &whole, dy, &dx, segmented ? &segments : nullptr);
      const std::vector<uint32_t> one_call = GradBits(mlp.Params());

      // (first row of the second block, segments in the first block)
      std::vector<std::pair<int, size_t>> cuts;
      if (segmented) {
        int r = 0;
        for (size_t k = 1; k < segments.size(); ++k) {
          r += segments[k - 1];
          cuts.push_back({r, k});
        }
      } else {
        for (int r = 1; r < rows; ++r) cuts.push_back({r, 0});
      }
      for (const auto& [cut, k] : cuts) {
        ZeroGrads(mlp.Params());
        const std::vector<int> parts[2] = {
            std::vector<int>(segments.begin(), segments.begin() + k),
            std::vector<int>(segments.begin() + k, segments.end())};
        const Matrix xs[2] = {Rows(x, 0, cut), Rows(x, cut, rows - cut)};
        MlpTape tapes[2];
        MlpBlock blocks[2];
        for (int b = 0; b < 2; ++b) {
          const int r0 = b == 0 ? 0 : cut;
          const int n = xs[b].rows();
          EXPECT_EQ(Bits(mlp.Forward(xs[b], &tapes[b])), Bits(Rows(y, r0, n)))
              << "cut " << cut << " block " << b;
          Matrix dxb;
          mlp.BackwardChain(Rows(dy, r0, n), &tapes[b], &dxb);
          EXPECT_EQ(Bits(dxb), Bits(Rows(dx, r0, n)))
              << "cut " << cut << " block " << b;
          blocks[b] = {&xs[b], &tapes[b], segmented ? &parts[b] : nullptr};
        }
        GradSums sums;
        mlp.AddGradSums(blocks, &sums);
        sums.Run();
        EXPECT_EQ(GradBits(mlp.Params()), one_call)
            << "cut " << cut << " segmented=" << segmented
            << " threads=" << threads;
      }
    }
  }
}

// Mixed, unsorted lengths with ties and more than 8 sequences (the packed
// A * B^T path): one batched BPTT equals one-sequence calls in input order,
// for the final hidden states and for every gradient.
template <typename Cell>
void ExpectBatchedBpttMatchesOneSequenceCalls(int in_dim, int hidden) {
  KernelEnvGuard guard;
  Rng rng(23);
  Cell cell(in_dim, hidden, &rng);
  const std::vector<int> lengths = {3, 7, 1, 7, 4, 2, 5, 1, 6};
  std::vector<Matrix> seqs;
  for (int len : lengths) seqs.push_back(RandomMatrix(len, in_dim, &rng));
  const int n = static_cast<int>(seqs.size());
  Matrix dh = RandomMatrix(n, hidden, &rng);
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    ZeroGrads(cell.Params());
    typename Cell::Tape tape;
    Matrix h = cell.Forward(seqs, &tape);
    cell.Backward(seqs, &tape, dh);
    std::vector<uint32_t> batched = GradBits(cell.Params());

    ZeroGrads(cell.Params());
    for (int i = 0; i < n; ++i) {
      typename Cell::Tape one_tape;
      const std::vector<Matrix> one = {seqs[i]};
      Matrix hi = cell.Forward(one, &one_tape);
      EXPECT_EQ(Bits(hi), Bits(Rows(h, i, 1))) << "sequence " << i;
      cell.Backward(one, &one_tape, Rows(dh, i, 1));
    }
    EXPECT_EQ(batched, GradBits(cell.Params())) << "threads=" << threads;
  }
}

// Row-block training's split backward: the batch cut into two blocks at
// every point, each block's forward and BackwardChain run on its own, then
// one phase-B GradSums over the blocks in order, must give the gradients of
// the one-call backward over the whole batch, bit for bit. Inference
// (no recorded steps) gives the recorded forward's hidden states.
template <typename Cell>
void ExpectSplitBpttMatchesOneCall(int in_dim, int hidden) {
  KernelEnvGuard guard;
  Rng rng(24);
  Cell cell(in_dim, hidden, &rng);
  const std::vector<int> lengths = {3, 7, 1, 7, 4, 2, 5, 1, 6};
  std::vector<Matrix> seqs;
  for (int len : lengths) seqs.push_back(RandomMatrix(len, in_dim, &rng));
  const int n = static_cast<int>(seqs.size());
  Matrix dh = RandomMatrix(n, hidden, &rng);
  for (int threads : kThreadCounts) {
    parallel::SetThreadCountForTesting(threads);
    ZeroGrads(cell.Params());
    typename Cell::Tape whole;
    Matrix h = cell.Forward(seqs, &whole);
    cell.Backward(seqs, &whole, dh);
    const std::vector<uint32_t> one_call = GradBits(cell.Params());

    typename Cell::Tape inference;
    Matrix h_inference;
    cell.Forward(seqs, &inference, /*record=*/false, &h_inference);
    EXPECT_EQ(Bits(h_inference), Bits(h)) << "threads=" << threads;

    for (int cut = 1; cut < n; ++cut) {
      ZeroGrads(cell.Params());
      const std::span<const Matrix> parts[2] = {
          std::span<const Matrix>(seqs.data(), cut),
          std::span<const Matrix>(seqs.data() + cut, n - cut)};
      typename Cell::Tape tapes[2];
      Matrix hs[2];
      for (int b = 0; b < 2; ++b) {
        cell.Forward(parts[b], &tapes[b], /*record=*/true, &hs[b]);
        const int r0 = b == 0 ? 0 : cut;
        EXPECT_EQ(Bits(hs[b]), Bits(Rows(h, r0, hs[b].rows())))
            << "cut " << cut << " block " << b;
        cell.BackwardChain(parts[b], Rows(dh, r0, hs[b].rows()), &tapes[b]);
      }
      GradSums sums;
      const typename Cell::Tape* blocks[2] = {&tapes[0], &tapes[1]};
      cell.AddGradSums(blocks, &sums);
      sums.Run();
      EXPECT_EQ(GradBits(cell.Params()), one_call)
          << "cut " << cut << " threads=" << threads;
    }
  }
}

TEST(KernelEquivalenceTest, RnnSplitBpttMatchesOneCallBackward) {
  ExpectSplitBpttMatchesOneCall<RnnCell>(5, 12);
}

TEST(KernelEquivalenceTest, LstmSplitBpttMatchesOneCallBackward) {
  ExpectSplitBpttMatchesOneCall<LstmCell>(5, 12);
}

TEST(KernelEquivalenceTest, RnnBatchedBpttMatchesOneSequenceCalls) {
  ExpectBatchedBpttMatchesOneSequenceCalls<RnnCell>(5, 12);
}

TEST(KernelEquivalenceTest, LstmBatchedBpttMatchesOneSequenceCalls) {
  ExpectBatchedBpttMatchesOneSequenceCalls<LstmCell>(5, 12);
}

}  // namespace
}  // namespace nn
}  // namespace lce
