// All-pairs test oracle for redistribution_volumes: enumerates every
// (src task, dst task) pair and sums the volumes of their exact overlap
// boxes through the public overlap_boxes. It shares none of the
// per-dimension adjacency code redistribution_volumes is built on.
#pragma once

#include <optional>
#include <vector>

#include "geometry/redistribution.hpp"

namespace cods {
namespace testing {

/// Same contract and order as redistribution_volumes: ascending src rank,
/// then ascending dst rank, zero-volume pairs skipped.
inline std::vector<TransferVolume> redistribution_volumes_allpairs(
    const Decomposition& src, const Decomposition& dst,
    const std::optional<Box>& region = std::nullopt) {
  std::vector<TransferVolume> out;
  for (i32 sa = 0; sa < src.ntasks(); ++sa) {
    for (i32 db = 0; db < dst.ntasks(); ++db) {
      u64 cells = 0;
      for (const Box& box : overlap_boxes(src, sa, dst, db, region)) {
        cells += box.volume();
      }
      if (cells > 0) out.push_back(TransferVolume{sa, db, cells});
    }
  }
  return out;
}

}  // namespace testing
}  // namespace cods
