// A flat, cache-friendly collection of d-dimensional integer points — the
// "set of multi-dimensional points P" of the paper's algorithm input.

#ifndef SPECTRAL_LPM_SPACE_POINT_SET_H_
#define SPECTRAL_LPM_SPACE_POINT_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "space/grid.h"

namespace spectral {

/// Most axes a point set read from untrusted input (a wire POINTS/GRID
/// payload, a point file) may carry: no curve key holds more than 63 axes.
/// Parsers check it before allocating per-point storage.
constexpr int kMaxPointDims = 63;

/// Stores points contiguously (dims coordinates per point). Points keep
/// their insertion index; duplicates are allowed at insertion and can be
/// detected via BuildIndex + Find.
class PointSet {
 public:
  explicit PointSet(int dims);

  /// Every cell of `grid`, enumerated in row-major (Flatten) order, so the
  /// point with insertion index i is exactly the cell with Flatten id i.
  static PointSet FullGrid(const GridSpec& grid);

  int dims() const { return dims_; }
  int64_t size() const {
    return static_cast<int64_t>(coords_.size()) / dims_;
  }
  bool empty() const { return coords_.empty(); }

  /// Appends a point; returns its index.
  int64_t Add(std::span<const Coord> p);

  /// Coordinates of point `i`.
  std::span<const Coord> operator[](int64_t i) const;

  /// Coordinate of point `i` along `axis`.
  Coord At(int64_t i, int axis) const;

  /// Builds the lookup index used by Find (O(n log n)). Call once after the
  /// set is fully populated; Add invalidates it.
  void BuildIndex();
  bool has_index() const { return !sorted_.empty() || size() == 0; }

  /// Index of the point equal to `p`, or -1 if absent. Requires BuildIndex.
  /// If duplicates exist, returns the lowest insertion index.
  int64_t Find(std::span<const Coord> p) const;

  /// Componentwise bounding box; requires a non-empty set.
  void Bounds(std::vector<Coord>* lo, std::vector<Coord>* hi) const;

  /// Manhattan distance between points i and j.
  int64_t Distance(int64_t i, int64_t j) const;

  /// Centered coordinate functions: vector a holds coordinate `axis` of
  /// every point, mean-subtracted. Used to canonicalize degenerate Fiedler
  /// eigenspaces.
  std::vector<std::vector<double>> CenteredAxisFunctions() const;

 private:
  bool LexLess(int64_t a, int64_t b) const;
  bool LexLessThanPoint(int64_t a, std::span<const Coord> p) const;

  int dims_;
  std::vector<Coord> coords_;
  std::vector<int64_t> sorted_;  // insertion indices in lexicographic order
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_SPACE_POINT_SET_H_
