// Kernel-level tests for linalg/packed_basis.h, the library's only block
// kernels: the single-column kernels must reproduce their vector_ops
// counterparts bit for bit; the blocked BCGS2 kernels must reproduce
// golden bit patterns and panel counters (recorded from the unpacked
// VectorBlock kernels they replaced) and a per-column reference bit for
// bit, remove the basis subspace, and detect rank across panel boundaries.
// Exact comparisons are EXPECT_EQ on doubles or on bit-pattern hashes,
// never near-equality.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/packed_basis.h"
#include "linalg/vector_ops.h"
#include "util/hash.h"
#include "util/random.h"

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

// Per-column reference for the fused projections: each target column on
// its own, panel by panel, with the arithmetic of the single-column BCGS2
// panel kernel (Gram sums in ascending row order, the update subtracting
// in ascending panel-lane order). basis(r, c) reads basis column c.
template <class Basis>
void ReferenceProjectColumn(const Basis& basis, int64_t basis_cols,
                            PackedBasis& v, int64_t xc) {
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t p0 = 0; p0 < basis_cols; p0 += kReorthPanelWidth) {
      const int64_t pw = std::min(kReorthPanelWidth, basis_cols - p0);
      double coeffs[kReorthPanelWidth] = {};
      for (int64_t r = 0; r < v.rows(); ++r) {
        const double xi = v.at(r, xc);
        for (int64_t c = 0; c < pw; ++c) coeffs[c] += basis(r, p0 + c) * xi;
      }
      for (int64_t r = 0; r < v.rows(); ++r) {
        double acc = v.at(r, xc);
        for (int64_t c = 0; c < pw; ++c) acc -= coeffs[c] * basis(r, p0 + c);
        v.at(r, xc) = acc;
      }
    }
  }
}

// The unfused OrthonormalizeColumns: per-column panel projection, then the
// in-panel two-pass MGS as separate DotColumns / AxpyColumn /
// NormalizeColumn sweeps.
int64_t ReferenceOrthonormalize(PackedBasis& v, int64_t b0, int64_t count,
                                double drop_tol) {
  int64_t kept = 0;
  int64_t next = 0;
  while (next < count) {
    const int64_t pw = std::min(kReorthPanelWidth, count - next);
    if (kept != next) {
      for (int64_t c = 0; c < pw; ++c) {
        v.CopyColumn(b0 + next + c, b0 + kept + c);
      }
    }
    next += pw;
    const auto prefix = [&](int64_t r, int64_t c) { return v.at(r, b0 + c); };
    for (int64_t c = 0; c < pw; ++c) {
      ReferenceProjectColumn(prefix, kept, v, b0 + kept + c);
    }
    int64_t panel_kept = kept;
    for (int64_t j = kept; j < kept + pw; ++j) {
      for (int pass = 0; pass < 2; ++pass) {
        for (int64_t i = kept; i < panel_kept; ++i) {
          const double coeff = DotColumns(v, b0 + i, v, b0 + j);
          AxpyColumn(-coeff, v, b0 + i, b0 + j);
        }
      }
      if (NormalizeColumn(v, b0 + j) <= drop_tol) continue;
      v.CopyColumn(b0 + j, b0 + panel_kept);
      ++panel_kept;
    }
    kept = panel_kept;
  }
  return kept;
}

// Every element of every column of `a` and `b`, compared bit for bit.
void ExpectBitIdentical(const PackedBasis& a, const PackedBasis& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.ld(), b.ld());
  int64_t mismatches = 0;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.ld(); ++c) {
      if (a.at(r, c) != b.at(r, c)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << what;
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
// OrthogonalizeBlockAgainst on the same seeded inputs, across basis sizes
// that exercise partial panels.
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
  for (const auto& golden : kGolden) {
    Rng rng(1000 + static_cast<uint64_t>(golden.basis_size));
    VectorBlock basis = RandomBlock(400, golden.basis_size, rng);
    for (Vector& q : basis) Normalize(q);
    const VectorBlock block = RandomBlock(400, 5, rng);

    PackedBasis v;
    v.Reset(400, 8);
    PackInto(block, v, 2);
    int64_t panels = 0;
    int64_t flops = 0;
    OrthogonalizeColumnsAgainstBlock(basis, v, 2, 5, &panels, &flops);
    EXPECT_EQ(panels, golden.panels) << "basis=" << golden.basis_size;
    EXPECT_EQ(flops, 8 * 400 * golden.basis_size * 5);
    EXPECT_EQ(ColumnsHash(v, 2, 5), golden.hash)
        << "basis=" << golden.basis_size;
  }
}

TEST(PackedBasis, OrthogonalizeColumnsAgainstColumnsMatchesGolden) {
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
  OrthogonalizeColumnsAgainstColumns(v, 0, 10, 10, 4, &panels, nullptr);
  EXPECT_EQ(panels, 16);
  EXPECT_EQ(ColumnsHash(v, 10, 4), "318c13f37c91a72452117db8005e1b88");
}

TEST(PackedBasis, OrthonormalizeColumnsMatchesGoldenIncludingDrops) {
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
      OrthonormalizeColumns(v, 0, 11, 1e-10, &panels, nullptr);
  EXPECT_EQ(rank, 9);
  EXPECT_EQ(panels, 6);
  EXPECT_EQ(ColumnsHash(v, 0, rank), "4ee3f72210455d3710114951e41c3bfe");
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
      OrthonormalizeColumns(v, 0, 12, /*drop_tol=*/1e-10, &panels);
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
  OrthogonalizeColumnsAgainstBlock(basis, v, 0, 4, &panels);
  // 2 passes x 3 panels x 4 columns.
  EXPECT_EQ(panels, 24);

  PackedBasis w;
  w.Reset(n, 24);
  PackInto(basis, w, 0);
  PackInto(block, w, 20);
  panels = 0;
  OrthogonalizeColumnsAgainstColumns(w, 0, 20, 20, 4, &panels);
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

// The fused projections serve every block column from one row sweep per
// panel step; per element they must equal the per-column reference bit for
// bit. Block widths 1-9 cover the two-lane Gram tiles and their odd tail,
// basis widths 0-17 cover empty, partial and multiple panels, ld leaves
// spare lanes, and the target lanes start at lane 6 of a row so most
// blocks straddle a 64-byte line.
TEST(PackedBasis, FusedProjectionsMatchPerColumnReference) {
  const int64_t n = 67;
  for (int64_t block_cols = 1; block_cols <= 9; ++block_cols) {
    for (int64_t basis_cols = 0; basis_cols <= 17; ++basis_cols) {
      const std::string what = "block=" + std::to_string(block_cols) +
                               " basis=" + std::to_string(basis_cols);
      Rng rng(static_cast<uint64_t>(100 * block_cols + basis_cols));
      VectorBlock basis = RandomBlock(n, basis_cols, rng);
      for (Vector& q : basis) Normalize(q);
      const VectorBlock block = RandomBlock(n, block_cols, rng);
      // Basis at [0, basis_cols), targets from the next lane that is 6
      // modulo 8, then three spare lanes.
      const int64_t block0 = basis_cols + (6 - basis_cols % 8 + 8) % 8;
      const int64_t ld = block0 + block_cols + 3;

      PackedBasis fused;
      fused.Reset(n, ld);
      for (int64_t r = 0; r < n; ++r) {
        for (int64_t c = 0; c < ld; ++c) fused.at(r, c) = rng.Gaussian();
      }
      PackInto(basis, fused, 0);
      PackInto(block, fused, block0);
      PackedBasis reference = fused;

      // Against packed columns of the same buffer.
      int64_t panels = 0;
      int64_t flops = 0;
      OrthogonalizeColumnsAgainstColumns(fused, 0, basis_cols, block0,
                                         block_cols, &panels, &flops);
      const auto packed = [&](int64_t r, int64_t c) {
        return reference.at(r, c);
      };
      for (int64_t j = 0; j < block_cols; ++j) {
        ReferenceProjectColumn(packed, basis_cols, reference, block0 + j);
      }
      ExpectBitIdentical(fused, reference, "columns " + what);
      const int64_t num_panels =
          (basis_cols + kReorthPanelWidth - 1) / kReorthPanelWidth;
      EXPECT_EQ(panels, basis_cols == 0 ? 0 : 2 * num_panels * block_cols)
          << what;
      EXPECT_EQ(flops, 8 * n * basis_cols * block_cols) << what;

      // Against a contiguous Vector basis.
      OrthogonalizeColumnsAgainstBlock(basis, fused, block0, block_cols);
      const auto vectors = [&](int64_t r, int64_t c) {
        return basis[static_cast<size_t>(c)][static_cast<size_t>(r)];
      };
      for (int64_t j = 0; j < block_cols; ++j) {
        ReferenceProjectColumn(vectors, basis_cols, reference, block0 + j);
      }
      ExpectBitIdentical(fused, reference, "block " + what);
    }
  }
}

// The pipelined in-panel MGS against the unfused sweeps, through rank
// drops on both sides of panel boundaries, at the growth loop's two drop
// tolerances: rank, survivors, compaction and the dropped columns' lanes
// all match bit for bit.
TEST(PackedBasis, PipelinedMgsMatchesUnfusedThroughRankDrops) {
  const int64_t n = 90;
  Rng rng(2024);
  VectorBlock block = RandomBlock(n, 21, rng);
  for (Vector& col : block) Normalize(col);
  block[3] = block[1];                  // exact duplicate inside panel 1
  Scale(-2.0, block[3]);
  block[9].assign(static_cast<size_t>(n), 0.0);  // combination across panels
  Axpy(1.0, block[2], block[9]);
  Axpy(0.5, block[7], block[9]);
  for (int64_t c : {11, 17}) {          // mostly an earlier column: keeps
    Vector& col = block[static_cast<size_t>(c)];  // ~0.3 of its mass
    Scale(0.3, col);
    Axpy(0.95, block[static_cast<size_t>(c - 6)], col);
  }
  block[16] = block[15];                // duplicate on the panel boundary
  block[20].assign(static_cast<size_t>(n), 0.0);  // exactly zero column

  for (double drop_tol : {1e-10, 0.5}) {
    for (int64_t b0 : {0, 3}) {
      const std::string what = "drop_tol=" + std::to_string(drop_tol) +
                               " b0=" + std::to_string(b0);
      PackedBasis fused;
      fused.Reset(n, b0 + 21 + 2);
      for (int64_t r = 0; r < n; ++r) {
        for (int64_t c = 0; c < fused.ld(); ++c) {
          fused.at(r, c) = rng.Gaussian();
        }
      }
      PackInto(block, fused, b0);
      PackedBasis reference = fused;
      const int64_t rank = OrthonormalizeColumns(fused, b0, 21, drop_tol);
      EXPECT_EQ(rank, ReferenceOrthonormalize(reference, b0, 21, drop_tol))
          << what;
      EXPECT_LT(rank, drop_tol > 0.1 ? 16 : 19) << what;
      ExpectBitIdentical(fused, reference, what);
      ExpectOrthonormalColumns(fused, b0, rank, 1e-10);
    }
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
