// A FrameList's frames as owned byte vectors, sorted: the form in which
// tests compare the delivered multisets of two runs, since planes that
// shard or pipeline may reorder frames across flows.
#pragma once

#include <algorithm>
#include <vector>

#include "packet/frame_list.hpp"

namespace nfp::test_support {

inline std::vector<std::vector<u8>> sorted_frames(const FrameList& frames) {
  std::vector<std::vector<u8>> out;
  out.reserve(frames.size());
  for (const std::span<const u8> frame : frames) {
    out.emplace_back(frame.begin(), frame.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nfp::test_support
