// Kernel-level tests for linalg/packed_basis.h, the library's only block
// kernels: the single-column kernels must reproduce their vector_ops
// counterparts bit for bit; the blocked BCGS2 kernels must reproduce
// golden bit patterns and panel counters (recorded from the unpacked
// VectorBlock kernels they replaced), remove the basis subspace, detect
// rank across panel boundaries, and stay byte-identical across pool sizes.
// Exact comparisons are EXPECT_EQ on doubles or on bit-pattern hashes,
// never near-equality.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/packed_basis.h"
#include "linalg/vector_ops.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace spectral {
namespace {

Vector RandomVector(int64_t n, Rng& rng) {
  Vector v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian();
  return v;
}

VectorBlock RandomBlock(int64_t n, int64_t cols, Rng& rng) {
  VectorBlock block;
  block.reserve(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) block.push_back(RandomVector(n, rng));
  return block;
}

// Packs `block` into columns [c0, c0 + block.size()) of `v`.
void PackInto(const VectorBlock& block, PackedBasis& v, int64_t c0) {
  for (size_t c = 0; c < block.size(); ++c) {
    v.CopyColumnIn(block[c], c0 + static_cast<int64_t>(c));
  }
}

// A fresh basis of exactly block.size() columns holding `block`.
PackedBasis Packed(const VectorBlock& block) {
  PackedBasis v;
  v.Reset(static_cast<int64_t>(block.front().size()),
          static_cast<int64_t>(block.size()));
  PackInto(block, v, 0);
  return v;
}

VectorBlock Unpacked(const PackedBasis& v, int64_t c0, int64_t cols) {
  VectorBlock block(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    v.CopyColumnOut(c0 + c, block[static_cast<size_t>(c)]);
  }
  return block;
}

// `cols` orthonormal columns of length n, built by the packed kernel.
VectorBlock OrthonormalBasis(int64_t n, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  PackedBasis v = Packed(RandomBlock(n, cols, rng));
  EXPECT_EQ(OrthonormalizeColumns(v, 0, cols), cols);
  return Unpacked(v, 0, cols);
}

// Bit-pattern hash of packed columns [c0, c0 + cols), column by column in
// ascending row order.
std::string ColumnsHash(const PackedBasis& v, int64_t c0, int64_t cols) {
  Hasher h;
  for (int64_t c = c0; c < c0 + cols; ++c) {
    for (int64_t r = 0; r < v.rows(); ++r) h.MixDouble(v.at(r, c));
  }
  return h.Finish().ToHex();
}

void ExpectColumnEq(const PackedBasis& v, int64_t c, const Vector& expect) {
  ASSERT_EQ(v.rows(), static_cast<int64_t>(expect.size()));
  for (int64_t r = 0; r < v.rows(); ++r) {
    EXPECT_EQ(v.at(r, c), expect[static_cast<size_t>(r)])
        << "col " << c << " row " << r;
  }
}

void ExpectOrthonormalColumns(const PackedBasis& v, int64_t c0, int64_t cols,
                              double tol) {
  for (int64_t i = c0; i < c0 + cols; ++i) {
    for (int64_t j = i; j < c0 + cols; ++j) {
      EXPECT_NEAR(DotColumns(v, i, v, j), i == j ? 1.0 : 0.0, tol)
          << "cols " << i << "," << j;
    }
  }
}

TEST(PackedBasis, CopyRoundTripAndColumnCopy) {
  Rng rng(11);
  const int64_t n = 37;
  PackedBasis v;
  v.Reset(n, 5);
  const Vector a = RandomVector(n, rng);
  const Vector b = RandomVector(n, rng);
  v.CopyColumnIn(a, 1);
  v.CopyColumnIn(b, 4);
  Vector out;
  v.CopyColumnOut(1, out);
  EXPECT_EQ(out, a);
  v.CopyColumn(4, 0);
  ExpectColumnEq(v, 0, b);
  ExpectColumnEq(v, 4, b);
  // Reset with the same geometry keeps contents.
  v.Reset(n, 5);
  ExpectColumnEq(v, 1, a);
}

TEST(PackedBasis, DotAxpyNormalizeMatchScalarKernels) {
  Rng rng(22);
  const int64_t n = 101;
  Vector a = RandomVector(n, rng);
  Vector b = RandomVector(n, rng);
  PackedBasis v;
  v.Reset(n, 3);
  v.CopyColumnIn(a, 0);
  v.CopyColumnIn(b, 2);

  EXPECT_EQ(DotColumns(v, 0, v, 2), Dot(a, b));

  const double alpha = -0.37251;
  Axpy(alpha, a, b);
  AxpyColumn(alpha, v, 0, 2);
  ExpectColumnEq(v, 2, b);

  const double expect_norm = Normalize(b);
  EXPECT_EQ(NormalizeColumn(v, 2), expect_norm);
  ExpectColumnEq(v, 2, b);
}

TEST(PackedBasis, NormalizeColumnTinySemantics) {
  PackedBasis v;
  v.Reset(4, 2);
  for (int64_t r = 0; r < 4; ++r) v.at(r, 1) = 1e-200;
  Vector twin(4, 1e-200);
  EXPECT_EQ(NormalizeColumn(v, 1, /*tiny=*/1e-150),
            Normalize(twin, 1e-150));
  // Below `tiny`: untouched, returns 0.
  ExpectColumnEq(v, 1, Vector(4, 1e-200));
}

TEST(PackedBasis, OrthogonalizeVectorAgainstColumnsMatchesMgs) {
  Rng rng(33);
  const int64_t n = 64;
  VectorBlock basis = RandomBlock(n, 3, rng);
  for (Vector& q : basis) Normalize(q);
  Vector x = RandomVector(n, rng);
  Vector x_packed = x;

  PackedBasis v;
  v.Reset(n, 3);
  PackInto(basis, v, 0);
  OrthogonalizeAgainst(basis, x);
  OrthogonalizeVectorAgainstColumns(v, 3, x_packed);
  EXPECT_EQ(x_packed, x);
}

// Golden panel counters and bit patterns, recorded from the unpacked
// OrthogonalizeBlockAgainst on the same seeded inputs, serial and pooled,
// across basis sizes that exercise partial panels.
TEST(PackedBasis, OrthogonalizeColumnsAgainstBlockMatchesGolden) {
  const struct {
    int64_t basis_size;
    int64_t panels;
    const char* hash;
  } kGolden[] = {
      {1, 10, "4f5a23c8474aecbd6baff36b293559d9"},
      {7, 10, "255e348f47372094f131359c9a6923fd"},
      {8, 10, "a6d8a756c8e34707807286b24e881549"},
      {9, 20, "f84a372f0aed02bbe984aa521af70f62"},
      {17, 30, "939d2a1bbfd9c727ba1055698372419f"},
  };
  ThreadPool pool(4);
  for (const auto& golden : kGolden) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      Rng rng(1000 + static_cast<uint64_t>(golden.basis_size));
      VectorBlock basis = RandomBlock(400, golden.basis_size, rng);
      for (Vector& q : basis) Normalize(q);
      const VectorBlock block = RandomBlock(400, 5, rng);

      PackedBasis v;
      v.Reset(400, 8);
      PackInto(block, v, 2);
      int64_t panels = 0;
      int64_t flops = 0;
      OrthogonalizeColumnsAgainstBlock(basis, v, 2, 5, p, &panels, &flops);
      EXPECT_EQ(panels, golden.panels) << "basis=" << golden.basis_size;
      EXPECT_EQ(flops, 8 * 400 * golden.basis_size * 5);
      EXPECT_EQ(ColumnsHash(v, 2, 5), golden.hash)
          << "basis=" << golden.basis_size;
    }
  }
}

TEST(PackedBasis, OrthogonalizeColumnsAgainstColumnsMatchesGolden) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Rng rng(44);
    const int64_t n = 300;
    VectorBlock basis = RandomBlock(n, 10, rng);
    for (Vector& q : basis) Normalize(q);
    const VectorBlock block = RandomBlock(n, 4, rng);

    PackedBasis v;
    v.Reset(n, 14);
    PackInto(basis, v, 0);
    PackInto(block, v, 10);
    int64_t panels = 0;
    OrthogonalizeColumnsAgainstColumns(v, 0, 10, 10, 4, p, &panels, nullptr);
    EXPECT_EQ(panels, 16);
    EXPECT_EQ(ColumnsHash(v, 10, 4), "318c13f37c91a72452117db8005e1b88");
  }
}

TEST(PackedBasis, OrthonormalizeColumnsMatchesGoldenIncludingDrops) {
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Rng rng(55);
    const int64_t n = 256;
    // 11 columns with two exact duplicates: rank must drop to 9 with the
    // golden survivor set and compaction.
    VectorBlock block = RandomBlock(n, 9, rng);
    block.insert(block.begin() + 3, block[1]);
    block.push_back(block[5]);
    ASSERT_EQ(block.size(), 11u);

    PackedBasis v = Packed(block);
    int64_t panels = 0;
    const int64_t rank =
        OrthonormalizeColumns(v, 0, 11, 1e-10, p, &panels, nullptr);
    EXPECT_EQ(rank, 9);
    EXPECT_EQ(panels, 6);
    EXPECT_EQ(ColumnsHash(v, 0, rank), "4ee3f72210455d3710114951e41c3bfe");
  }
}

TEST(PackedBasis, OrthonormalizeColumnsRespectsOffset) {
  Rng rng(66);
  const int64_t n = 128;
  const VectorBlock block = RandomBlock(n, 6, rng);
  const Vector sentinel = RandomVector(n, rng);

  PackedBasis v;
  v.Reset(n, 8);
  v.CopyColumnIn(sentinel, 0);
  PackInto(block, v, 2);

  const int64_t rank = OrthonormalizeColumns(v, 2, 6);
  EXPECT_EQ(rank, 6);
  ExpectColumnEq(v, 0, sentinel);  // columns outside [b0, b0+count) untouched
  EXPECT_EQ(ColumnsHash(v, 2, rank), "94e7f8faa66bc5eb4e0a95cfd1cda72d");
}

TEST(PackedBasis, OrthonormalizeDropsDependentColumns) {
  const VectorBlock block = {{1.0, 0.0, 0.0},
                             {2.0, 0.0, 0.0},  // parallel to the first
                             {0.0, 1.0, 0.0}};
  PackedBasis v = Packed(block);
  EXPECT_EQ(OrthonormalizeColumns(v, 0, 3), 2);
  EXPECT_NEAR(std::fabs(v.at(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::fabs(v.at(1, 1)), 1.0, 1e-12);
}

TEST(PackedBasis, OrthonormalizeFactorsAcrossPanelBoundaries) {
  // 12 incoming columns span two panels; plant dependencies that cross the
  // panel boundary so the second panel must be cleaned against survivors
  // of the first.
  Rng rng(33);
  const int64_t n = 96;
  VectorBlock block = RandomBlock(n, 12, rng);
  block[9] = block[0];                       // duplicate from panel 1
  Scale(2.0, block[9]);
  block[10].assign(block[10].size(), 0.0);   // combination across panels
  Axpy(1.0, block[2], block[10]);
  Axpy(-3.0, block[8], block[10]);
  PackedBasis v = Packed(block);
  int64_t panels = 0;
  const int64_t rank =
      OrthonormalizeColumns(v, 0, 12, /*drop_tol=*/1e-10, nullptr, &panels);
  EXPECT_EQ(rank, 10);
  EXPECT_GT(panels, 0);
  ExpectOrthonormalColumns(v, 0, rank, 1e-10);
}

TEST(PackedBasis, OrthogonalizeRemovesAllBasisComponents) {
  const int64_t n = 200;
  const VectorBlock basis = OrthonormalBasis(n, 19, 11);  // panels 8,8,3
  Rng rng(22);
  const VectorBlock block = RandomBlock(n, 5, rng);

  // Against a contiguous basis...
  PackedBasis v = Packed(block);
  OrthogonalizeColumnsAgainstBlock(basis, v, 0, 5);
  // ...and against the same basis packed in front of the block.
  PackedBasis w;
  w.Reset(n, 24);
  PackInto(basis, w, 0);
  PackInto(block, w, 19);
  OrthogonalizeColumnsAgainstColumns(w, 0, 19, 19, 5);
  for (int64_t c = 0; c < 5; ++c) {
    for (const Vector& b : basis) {
      PackedBasis q = Packed({b});
      EXPECT_NEAR(DotColumns(q, 0, v, c), 0.0, 1e-12);
      EXPECT_NEAR(DotColumns(q, 0, w, 19 + c), 0.0, 1e-12);
    }
  }
}

TEST(PackedBasis, PanelCounterCountsApplications) {
  const int64_t n = 64;
  const VectorBlock basis = OrthonormalBasis(n, 20, 5);  // 3 panels
  Rng rng(6);
  const VectorBlock block = RandomBlock(n, 4, rng);

  PackedBasis v = Packed(block);
  int64_t panels = 0;
  OrthogonalizeColumnsAgainstBlock(basis, v, 0, 4, nullptr, &panels);
  // 2 passes x 3 panels x 4 columns.
  EXPECT_EQ(panels, 24);

  PackedBasis w;
  w.Reset(n, 24);
  PackInto(basis, w, 0);
  PackInto(block, w, 20);
  panels = 0;
  OrthogonalizeColumnsAgainstColumns(w, 0, 20, 20, 4, nullptr, &panels);
  EXPECT_EQ(panels, 24);
}

TEST(PackedBasis, OrthogonalizeSingleVectorMatchesScalarMgs) {
  // One basis vector makes block and modified Gram-Schmidt the same
  // arithmetic, so the blocked kernel must equal the scalar one exactly.
  Rng rng(7);
  Vector b = RandomVector(16, rng);
  Normalize(b);
  const VectorBlock basis = {b};
  VectorBlock scalar = RandomBlock(16, 3, rng);
  PackedBasis v = Packed(scalar);
  OrthogonalizeColumnsAgainstBlock(basis, v, 0, 3);
  for (int64_t c = 0; c < 3; ++c) {
    Vector& col = scalar[static_cast<size_t>(c)];
    OrthogonalizeAgainst(basis, col);
    ExpectColumnEq(v, c, col);
    EXPECT_NEAR(Dot(col, b), 0.0, 1e-12);
  }
}

TEST(PackedBasis, OrthogonalizeMatchesScalarReferenceSubspace) {
  // The blocked kernel and the scalar MGS reference differ in rounding but
  // must remove the same subspace: the blocked result reconstructs the
  // scalar one.
  const int64_t n = 128;
  const VectorBlock basis = OrthonormalBasis(n, 10, 44);
  Rng rng(55);
  VectorBlock scalar = RandomBlock(n, 3, rng);
  PackedBasis v = Packed(scalar);
  OrthogonalizeColumnsAgainstBlock(basis, v, 0, 3);
  for (int64_t c = 0; c < 3; ++c) {
    Vector& col = scalar[static_cast<size_t>(c)];
    for (int pass = 0; pass < 2; ++pass) OrthogonalizeAgainst(basis, col);
    Vector diff;
    v.CopyColumnOut(c, diff);
    Axpy(-1.0, col, diff);
    EXPECT_NEAR(Norm2(diff), 0.0, 1e-11);
  }
}

// The byte-identity contract: pool parallelism is across independent
// columns only, so every pool size reproduces the serial result exactly.
// n * cols clears kMinParallelWork so the pooled path actually engages.
TEST(PackedBasis, OrthogonalizeByteIdenticalAcrossPoolSizes) {
  const int64_t n = 8192;
  const VectorBlock basis = OrthonormalBasis(n, 12, 66);
  Rng rng(77);
  const VectorBlock input = RandomBlock(n, 6, rng);
  ASSERT_GE(n * 6, kMinParallelWork);

  PackedBasis serial = Packed(input);
  int64_t serial_panels = 0;
  OrthogonalizeColumnsAgainstBlock(basis, serial, 0, 6, nullptr,
                                   &serial_panels);
  PackedBasis serial_cols;
  serial_cols.Reset(n, 18);
  PackInto(basis, serial_cols, 0);
  PackInto(input, serial_cols, 12);
  OrthogonalizeColumnsAgainstColumns(serial_cols, 0, 12, 12, 6);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    PackedBasis pooled = Packed(input);
    int64_t pooled_panels = 0;
    OrthogonalizeColumnsAgainstBlock(basis, pooled, 0, 6, &pool,
                                     &pooled_panels);
    EXPECT_EQ(pooled_panels, serial_panels);
    EXPECT_EQ(ColumnsHash(pooled, 0, 6), ColumnsHash(serial, 0, 6))
        << "threads=" << threads;

    PackedBasis pooled_cols;
    pooled_cols.Reset(n, 18);
    PackInto(basis, pooled_cols, 0);
    PackInto(input, pooled_cols, 12);
    OrthogonalizeColumnsAgainstColumns(pooled_cols, 0, 12, 12, 6, &pool);
    EXPECT_EQ(ColumnsHash(pooled_cols, 12, 6), ColumnsHash(serial_cols, 12, 6))
        << "threads=" << threads;
  }
}

TEST(PackedBasis, OrthonormalizeByteIdenticalAcrossPoolSizes) {
  const int64_t n = 8192;
  Rng rng(88);
  const VectorBlock input = RandomBlock(n, 10, rng);

  PackedBasis serial = Packed(input);
  int64_t serial_panels = 0;
  const int64_t serial_rank =
      OrthonormalizeColumns(serial, 0, 10, 1e-10, nullptr, &serial_panels);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    PackedBasis pooled = Packed(input);
    int64_t pooled_panels = 0;
    const int64_t pooled_rank =
        OrthonormalizeColumns(pooled, 0, 10, 1e-10, &pool, &pooled_panels);
    EXPECT_EQ(pooled_rank, serial_rank);
    EXPECT_EQ(pooled_panels, serial_panels);
    EXPECT_EQ(ColumnsHash(pooled, 0, pooled_rank),
              ColumnsHash(serial, 0, serial_rank))
        << "threads=" << threads;
  }
}

TEST(PackedBasis, ProjectedRowMultiDotMatchesScalarDotPairs) {
  Rng rng(77);
  const int64_t n = 222;
  for (int64_t m : {1, 2, 7, 8, 9, 13}) {
    VectorBlock vb = RandomBlock(n, m, rng);
    VectorBlock avb = RandomBlock(n, m, rng);
    PackedBasis v, av;
    v.Reset(n, m);
    av.Reset(n, m);
    PackInto(vb, v, 0);
    PackInto(avb, av, 0);
    for (int64_t i = 0; i < m; ++i) {
      std::vector<double> out(static_cast<size_t>(m - i), 0.0);
      ProjectedRowMultiDot(v, av, i, i, m - i, out.data());
      for (int64_t j = i; j < m; ++j) {
        const double expect = (Dot(vb[static_cast<size_t>(i)],
                                   avb[static_cast<size_t>(j)]) +
                               Dot(vb[static_cast<size_t>(j)],
                                   avb[static_cast<size_t>(i)])) /
                              2.0;
        EXPECT_EQ(out[static_cast<size_t>(j - i)], expect)
            << "m=" << m << " i=" << i << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace spectral
