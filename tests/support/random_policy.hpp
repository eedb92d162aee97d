// Random acyclic policies for property tests: the compiler's structural
// checks (orch/compiler_property_test.cpp) and the cross-executor
// differential test (e2e/differential_test.cpp) draw from the same
// generator, each over its own NF universe.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "policy/policy.hpp"

namespace nfp::test_support {

// Draws a random acyclic policy over 3-6 distinct NFs of `universe`.
inline Policy random_policy(Rng& rng,
                            const std::vector<std::string>& universe) {
  std::vector<std::string> nfs = universe;
  // Fisher-Yates prefix shuffle.
  for (std::size_t i = 0; i < nfs.size(); ++i) {
    std::swap(nfs[i], nfs[i + rng.bounded(nfs.size() - i)]);
  }
  nfs.resize(3 + rng.bounded(4));

  Policy policy("random");
  for (std::size_t i = 0; i < nfs.size(); ++i) {
    for (std::size_t j = i + 1; j < nfs.size(); ++j) {
      // Forward-only edges keep the Order relation acyclic.
      if (rng.uniform() < 0.45) policy.add_order(nfs[i], nfs[j]);
    }
  }
  if (rng.uniform() < 0.3) policy.add_position(nfs.front(), Placement::kFirst);
  if (rng.uniform() < 0.3) policy.add_position(nfs.back(), Placement::kLast);
  for (const auto& nf : nfs) policy.add_free_nf(nf);  // ensure all appear
  return policy;
}

}  // namespace nfp::test_support
