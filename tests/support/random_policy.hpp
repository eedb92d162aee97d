// Random acyclic policies for property tests: the compiler's structural
// checks (orch/compiler_property_test.cpp) and the cross-plane
// differential test (e2e/differential_test.cpp) draw from the same
// generator, each over its own NF universe.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "policy/policy.hpp"

namespace nfp::test_support {

// Draws a random acyclic policy over 3-6 distinct NFs of `universe`
// (which must hold at least 6). With `priority_rules`, order rules are
// sparser, and priority(a > b) rules follow between NFs that no order or
// earlier priority rule connects, in either direction. Those draws come
// last and the order draws are the same draws, so a policy drawn without
// priority rules is unchanged.
inline Policy random_policy(Rng& rng,
                            const std::vector<std::string>& universe,
                            bool priority_rules = false) {
  std::vector<std::string> nfs = universe;
  // Fisher-Yates prefix shuffle.
  for (std::size_t i = 0; i < nfs.size(); ++i) {
    std::swap(nfs[i], nfs[i + rng.bounded(nfs.size() - i)]);
  }
  nfs.resize(3 + rng.bounded(4));
  const std::size_t n = nfs.size();

  Policy policy("random");
  // Sparser order rules leave pairs free for priority rules.
  const double order_rate = priority_rules ? 0.3 : 0.45;
  // reach[i][j]: a chain of rules runs from nfs[i] to nfs[j].
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Forward-only edges keep the Order relation acyclic.
      if (rng.uniform() < order_rate) {
        policy.add_order(nfs[i], nfs[j]);
        reach[i][j] = true;
      }
    }
  }
  if (rng.uniform() < 0.3) policy.add_position(nfs.front(), Placement::kFirst);
  if (rng.uniform() < 0.3) policy.add_position(nfs.back(), Placement::kLast);
  for (const auto& nf : nfs) policy.add_free_nf(nf);  // ensure all appear
  if (!priority_rules) return policy;

  const auto close = [&] {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
        }
      }
    }
  };
  close();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (reach[i][j] || reach[j][i] || rng.uniform() >= 0.5) continue;
      // The compiler orients a priority rule low -> high; keep that edge
      // in the closure so later rules cannot close a cycle through it.
      const bool i_high = rng.uniform() < 0.5;
      const std::size_t high = i_high ? i : j;
      const std::size_t low = i_high ? j : i;
      policy.add_priority(nfs[high], nfs[low]);
      reach[low][high] = true;
      close();
    }
  }
  return policy;
}

}  // namespace nfp::test_support
