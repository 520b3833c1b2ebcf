// Dense row-major float matrix: the tensor type of the NN substrate.
//
// Storage is the kernel layer's contract (DESIGN.md §10): every row starts on
// a 64-byte boundary (one cache line, one full SSE/AVX/AVX-512 vector) and
// the leading dimension ld() is cols() rounded up to 16 floats, so the
// vectorized kernels can issue aligned full-width loads with no scalar tail
// handling across rows. The padding floats between cols() and ld() are an
// invariant zero: constructors zero them and every kernel writes only the
// logical region, so flat checksums over RowPtr(r)[0..cols) are stable and
// Add/Scale over whole padded rows cannot leak garbage.
//
// The multiply kernels dispatch on lce::simd::SimdEnabled() (LCE_SIMD,
// default on) between a blocked/vectorized path and the naive reference
// loops. Both paths accumulate every output element's k-terms in the same
// ascending order, so they are bit-identical to each other and at any thread
// count (output rows are disjoint across parallel chunks). LCE_FASTMATH=1
// additionally permits multi-accumulator reductions in the dot-product
// kernels — faster, but no longer bit-identical; see DESIGN.md §10 for the
// exactness contract.

#ifndef LCE_NN_MATRIX_H_
#define LCE_NN_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/status.h"

namespace lce {
namespace nn {

/// Allocator returning 64-byte-aligned blocks, so row 0 (and via the padded
/// leading dimension every later row) sits on a cache-line boundary.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(kAlignment));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const {
    return false;
  }
};

using AlignedFloats = std::vector<float, AlignedAllocator<float>>;

/// Element-wise activations; the functions live in activation.h, the enum
/// lives here so the fused matmul epilogue can name it.
enum class Activation { kIdentity, kRelu, kSigmoid, kTanh };

class Matrix {
 public:
  /// Floats per 64-byte cache line; ld() is cols() rounded up to this.
  static constexpr int kRowAlignFloats = 16;

  static int PaddedLd(int cols) {
    return (cols + kRowAlignFloats - 1) / kRowAlignFloats * kRowAlignFloats;
  }

  Matrix() : rows_(0), cols_(0), ld_(0) {}
  Matrix(int rows, int cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), ld_(PaddedLd(cols)),
        data_(static_cast<size_t>(rows) * ld_, 0.0f) {
    LCE_CHECK(rows >= 0 && cols >= 0);
    if (fill != 0.0f) Fill(fill);
  }

  static Matrix Zeros(int rows, int cols) { return Matrix(rows, cols, 0.0f); }

  /// He-style Gaussian init scaled by 1/sqrt(fan_in). Draws one Gaussian per
  /// logical element in row-major order (padding is untouched), so the weight
  /// stream for a given seed is independent of the padded layout.
  static Matrix Randn(int rows, int cols, float scale, Rng* rng) {
    Matrix m(rows, cols);
    for (int r = 0; r < rows; ++r) {
      float* row = m.RowPtr(r);
      for (int c = 0; c < cols; ++c) {
        row[c] = static_cast<float>(rng->Gaussian()) * scale;
      }
    }
    return m;
  }

  /// Builds a rows x cols matrix from rows*cols values in row-major order.
  static Matrix FromFlat(int rows, int cols, const std::vector<float>& flat) {
    LCE_CHECK(flat.size() == static_cast<size_t>(rows) * cols);
    Matrix m(rows, cols);
    for (int r = 0; r < rows; ++r) {
      const float* src = flat.data() + static_cast<size_t>(r) * cols;
      float* dst = m.RowPtr(r);
      for (int c = 0; c < cols; ++c) dst[c] = src[c];
    }
    return m;
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Row stride in floats: cols() rounded up to a 64-byte multiple.
  int ld() const { return ld_; }
  /// Logical element count (excludes padding).
  size_t size() const { return static_cast<size_t>(rows_) * cols_; }
  /// Allocated element count (rows() * ld(), includes padding).
  size_t padded_size() const { return data_.size(); }
  bool empty() const { return size() == 0; }

  float& At(int r, int c) {
    return data_[static_cast<size_t>(r) * ld_ + c];
  }
  float At(int r, int c) const {
    return data_[static_cast<size_t>(r) * ld_ + c];
  }

  float* RowPtr(int r) { return data_.data() + static_cast<size_t>(r) * ld_; }
  const float* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * ld_;
  }

  /// The padded backing buffer (rows() * ld() floats, 64-byte aligned).
  /// Padding floats are zero by invariant; writers must keep them so.
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  /// Fills the logical region; padding stays zero.
  void Fill(float v) {
    for (int r = 0; r < rows_; ++r) {
      float* row = RowPtr(r);
      for (int c = 0; c < cols_; ++c) row[c] = v;
    }
  }

  /// Reshapes to rows x cols in place. With cols() unchanged, the leading
  /// min(old, new) rows keep their values and added rows are zero; a new
  /// cols() zeroes every element. Padding stays zero. Allocates only when
  /// rows * PaddedLd(cols) floats exceed the capacity, so a matrix its owner
  /// reserved (Reserve) can be reshaped on any thread without allocating.
  void Resize(int rows, int cols) {
    LCE_CHECK(rows >= 0 && cols >= 0);
    const size_t n = static_cast<size_t>(rows) * PaddedLd(cols);
    if (cols == cols_) {
      data_.resize(n, 0.0f);
    } else {
      data_.assign(n, 0.0f);
      cols_ = cols;
      ld_ = PaddedLd(cols);
    }
    rows_ = rows;
  }

  /// Grows the capacity to hold a rows x cols shape; the shape is unchanged.
  void Reserve(int rows, int cols) {
    data_.reserve(static_cast<size_t>(rows) * PaddedLd(cols));
  }

  /// Sets every logical element of row r to zero.
  void ZeroRow(int r) {
    float* row = RowPtr(r);
    for (int c = 0; c < cols_; ++c) row[c] = 0.0f;
  }

  /// In-place element-wise operations (vectorized over padded rows; the
  /// all-zero padding is add/scale-invariant, so the invariant holds).
  void Add(const Matrix& other);
  void Scale(float s);

  /// One row as a copy.
  std::vector<float> RowVector(int r) const {
    return std::vector<float>(RowPtr(r), RowPtr(r) + cols_);
  }

  /// All logical elements (row-major, padding excluded) as a copy. Inverse
  /// of FromFlat; for tests and whole-matrix inspection, not hot paths.
  std::vector<float> ToFlat() const {
    std::vector<float> flat;
    flat.reserve(size());
    for (int r = 0; r < rows_; ++r) {
      flat.insert(flat.end(), RowPtr(r), RowPtr(r) + cols_);
    }
    return flat;
  }

 private:
  int rows_;
  int cols_;
  int ld_;
  AlignedFloats data_;
};

/// C = A * B. The abort-on-mismatch forms are for internally-guaranteed
/// shapes (layer wiring); the Try* forms return InvalidArgument with the
/// same diagnostic for callers that can recover.
Matrix MatMul(const Matrix& a, const Matrix& b);
Result<Matrix> TryMatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
Result<Matrix> TryMatMulTransA(const Matrix& a, const Matrix& b);
/// C += A^T * B: the weight-gradient kernel of batched training. Each
/// element of C adds its k-terms a(k,i) * b(k,j) in ascending k, directly
/// into C — the sums a run of one-row MatMulTransA + Add calls, one per row
/// in order, produces. With `segments` (row counts summing to A.rows()),
/// the terms of each segment are first summed from zero and C adds the
/// segment sums in order: the sums of one MatMulTransA + Add per segment.
/// A segment of one row is added directly, which yields the same bits.
void MatMulTransAAccumulate(const Matrix& a, const Matrix& b, Matrix* c,
                            const std::vector<int>* segments = nullptr);
/// C = A * B^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);
Result<Matrix> TryMatMulTransB(const Matrix& a, const Matrix& b);

/// In-place forms: each writes its result into *c, reshaped with
/// Matrix::Resize, so an output reserved by its owner never allocates. `c`
/// must not alias an input. Same bits as the allocating forms.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
void MatMulBiasActInto(const Matrix& a, const Matrix& b, const Matrix& bias,
                       Activation act, Matrix* c);
/// C = A * B^T; `packed` is scratch for B transposed, used when A has 8 or
/// more rows.
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c,
                      Matrix* packed);

/// Rows [i0, i1) of MatMulTransAAccumulate(a, b, c, segments), with
/// `partial` (C's shape, rows [i0, i1) overwritten) as the scratch of the
/// segment sums; it may be null when no segment has more than one row.
/// Runs on the calling thread: phase B of row-block training
/// (grad_sums.h) splits one gradient across lanes by these rows.
void MatMulTransAAccumulateRows(const Matrix& a, const Matrix& b,
                                const std::vector<int>* segments, int64_t i0,
                                int64_t i1, Matrix* partial, Matrix* c);

/// Rows [i0, i1) of C += A^T B on the calling thread, where row k of A is
/// a_rows[k] and row k of B is b_rows[k] (C's rows and cols floats), k
/// ascending: the bits of MatMulTransAAccumulateRows over those rows
/// stacked into two matrices, without stacking them.
void MatMulTransAAccumulateGatheredRows(std::span<const float* const> a_rows,
                                        std::span<const float* const> b_rows,
                                        int64_t i0, int64_t i1, Matrix* c);

/// True when MatMulTransAAccumulate with `segments` needs a partial-sum
/// scratch (some segment has more than one row); checks that the segments
/// cover exactly `rows` rows.
bool SegmentsNeedPartial(const std::vector<int>* segments, int rows);

/// C = act(A * B + bias): the fused Dense forward. The bias row and the
/// activation are applied in the matmul epilogue while each output row is
/// still cache-hot, instead of two further passes over C. `bias` may be
/// empty (no bias). Bit-identical to MatMul + AddBiasRow + ApplyActivation:
/// per element, all k-terms accumulate first (ascending), then + bias, then
/// the activation — the same operation sequence the unfused calls perform.
Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix& bias,
                     Activation act);

/// y = x + broadcast(bias row) for every row of x (in place).
void AddBiasRow(Matrix* x, const Matrix& bias);

/// x = act(x + broadcast(bias row)) in one pass (the fused epilogue for
/// callers that already hold the matmul result, e.g. the RNN cell).
void AddBiasRowActivate(Matrix* x, const Matrix& bias, Activation act);

/// sum (1 x cols) += every row of x, rows in ascending order: the bias
/// gradient of a batch, added as one-row backwards in row order would.
void AccumulateRows(const Matrix& x, Matrix* sum);
/// AccumulateRows over rows[0], rows[1], ... (sum's cols floats each).
void AccumulateGatheredRows(std::span<const float* const> rows, Matrix* sum);

}  // namespace nn
}  // namespace lce

#endif  // LCE_NN_MATRIX_H_
