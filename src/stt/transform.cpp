#include "stt/transform.hpp"

#include <cctype>

#include "support/error.hpp"

namespace tensorlib::stt {

LoopSelection::LoopSelection(const tensor::TensorAlgebra& algebra,
                             std::vector<std::size_t> loopIndices)
    : indices_(std::move(loopIndices)) {
  TL_CHECK(indices_.size() == 3, "LoopSelection must pick exactly 3 loops");
  std::vector<bool> used(algebra.loopCount(), false);
  for (std::size_t idx : indices_) {
    TL_CHECK(idx < algebra.loopCount(), "LoopSelection: loop index out of range");
    TL_CHECK(!used[idx], "LoopSelection: duplicate loop");
    used[idx] = true;
  }
  for (std::size_t i = 0; i < algebra.loopCount(); ++i)
    if (!used[i]) outer_.push_back(i);
  extents_.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& loop = algebra.loops()[indices_[i]];
    extents_[i] = loop.extent;
    label_ += static_cast<char>(std::toupper(static_cast<unsigned char>(loop.name[0])));
  }
}

LoopSelection LoopSelection::byNames(const tensor::TensorAlgebra& algebra,
                                     const std::vector<std::string>& names) {
  TL_CHECK(names.size() == 3, "LoopSelection::byNames needs 3 names");
  std::vector<std::size_t> idx;
  idx.reserve(3);
  for (const auto& n : names) idx.push_back(algebra.loopIndex(n));
  return LoopSelection(algebra, std::move(idx));
}

SpaceTimeTransform::SpaceTimeTransform(linalg::IntMatrix t) : t_(std::move(t)) {
  TL_CHECK(t_.rows() == 3 && t_.cols() == 3, "STT matrix must be 3x3");
  det_ = linalg::determinant(t_);
  TL_CHECK(det_ != 0, "STT matrix must be full rank (paper Section II): " + t_.str());
  adj_ = linalg::adjugate(t_);
}

linalg::IntVector SpaceTimeTransform::apply(const linalg::IntVector& x) const {
  TL_CHECK(x.size() == 3, "STT apply: iteration must have 3 components");
  return t_ * x;
}

std::optional<linalg::IntVector> SpaceTimeTransform::invert(
    const linalg::IntVector& spaceTime) const {
  TL_CHECK(spaceTime.size() == 3, "STT invert: vector must have 3 components");
  // x = T⁻¹·(p,t) = adj(T)·(p,t) / det: integral iff det divides each row.
  linalg::IntVector out(3);
  for (std::size_t i = 0; i < 3; ++i) {
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < 3; ++j)
      acc = linalg::checkedAdd(acc, linalg::checkedMul(adj_.at(i, j), spaceTime[j]));
    const auto x = linalg::exactQuotient(acc, det_);
    if (!x) return std::nullopt;
    out[i] = *x;
  }
  return out;
}

}  // namespace tensorlib::stt
