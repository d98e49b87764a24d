// Space-Time Transformation (Section II of the paper).
//
// A 3x3 full-rank integer matrix T maps a selected triple of loop iterators
// x = (i1,i2,i3) to hardware coordinates (p1, p2, t): two PE-array axes and
// a cycle timestamp. Full rank gives a one-to-one mapping between loop
// points and space-time points; we additionally track unimodularity
// (|det| == 1), which guarantees the inverse is integral so every occupied
// (PE, cycle) pair maps back to a unique loop iteration.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"
#include "tensor/algebra.hpp"

namespace tensorlib::stt {

/// The ordered triple of loops selected for space-time mapping. The order
/// defines the iterator basis for the transform and the selection part of
/// dataflow labels ("MNK-", "KCX-", ...). Remaining loops run sequentially.
class LoopSelection {
 public:
  LoopSelection(const tensor::TensorAlgebra& algebra,
                std::vector<std::size_t> loopIndices);

  /// Builds a selection from loop names (paper-style, e.g. {"x","p","q"}).
  static LoopSelection byNames(const tensor::TensorAlgebra& algebra,
                               const std::vector<std::string>& names);

  const std::vector<std::size_t>& indices() const { return indices_; }
  /// Extents of the three selected loops, in selection order.
  const linalg::IntVector& extents() const { return extents_; }
  /// Loop indices NOT selected (sequential/outer loops), in nest order.
  const std::vector<std::size_t>& outerIndices() const { return outer_; }

  /// Uppercased initials of the selected loops, e.g. "MNK".
  std::string label() const { return label_; }

 private:
  std::vector<std::size_t> indices_;
  std::vector<std::size_t> outer_;
  linalg::IntVector extents_;
  std::string label_;
};

/// A validated space-time transform over a 3-loop selection.
class SpaceTimeTransform {
 public:
  /// Throws if T is not 3x3 full-rank.
  explicit SpaceTimeTransform(linalg::IntMatrix t);

  const linalg::IntMatrix& matrix() const { return t_; }
  std::int64_t det() const { return det_; }
  bool isUnimodular() const { return det_ == 1 || det_ == -1; }

  /// Space rows (first two) and time row (third).
  linalg::IntVector spaceRow(std::size_t which) const { return t_.row(which); }
  linalg::IntVector timeRow() const { return t_.row(2); }

  /// Maps a selected-loop iteration (size 3) to (p1, p2, t).
  linalg::IntVector apply(const linalg::IntVector& x) const;

  /// Inverse map; nullopt when (p1,p2,t) is not the image of an integer
  /// iteration (possible only for non-unimodular transforms).
  std::optional<linalg::IntVector> invert(const linalg::IntVector& spaceTime) const;

  std::string str() const { return t_.str(); }

 private:
  linalg::IntMatrix t_;
  linalg::IntMatrix adj_;  ///< adj(T), so T⁻¹ == adj_ / det_
  std::int64_t det_ = 0;
};

}  // namespace tensorlib::stt
