#include "stt/reuse.hpp"

#include "support/error.hpp"

namespace tensorlib::stt {

ReuseAnalysis analyzeReuse(const linalg::IntMatrix& loopBasis,
                           const SpaceTimeTransform& t) {
  TL_CHECK(loopBasis.rows() == 3, "analyzeReuse expects a 3-row loop basis");
  ReuseAnalysis out;
  out.loopBasis = loopBasis;
  out.rank = out.loopBasis.cols();

  out.spaceTimeBasis = linalg::IntMatrix(3, out.rank);
  out.latticeBasis = linalg::IntMatrix(3, out.rank);
  for (std::size_t j = 0; j < out.rank; ++j) {
    const linalg::IntVector exact = t.matrix() * out.loopBasis.col(j);
    const linalg::IntVector mapped = linalg::primitive(exact);
    TL_CHECK(!linalg::isZeroVector(mapped),
             "full-rank T mapped a nonzero reuse vector to zero");
    for (std::size_t i = 0; i < 3; ++i) {
      out.spaceTimeBasis.at(i, j) = mapped[i];
      out.latticeBasis.at(i, j) = exact[i];
    }
  }
  return out;
}

}  // namespace tensorlib::stt
