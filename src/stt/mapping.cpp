#include "stt/mapping.hpp"

#include "stt/block.hpp"

namespace tensorlib::stt {

std::int64_t TileMapping::totalMacs() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.macs;
  return total * outerIterations;
}

std::int64_t TileMapping::totalTrafficWords() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.trafficWords;
  return total * outerIterations;
}

std::int64_t TileMapping::serialComputeCycles() const {
  std::int64_t total = 0;
  for (const auto& t : tiles) total += t.count * t.computeCycles;
  return total * outerIterations;
}

TileMapping computeMapping(const DataflowSpec& spec, const ArrayConfig& config) {
  return computeMappingPacked(*packSpec(spec), 0, config);
}

}  // namespace tensorlib::stt
