// The benchmark's four named workloads and the inputs it owns: seeded
// frames, the policies each compiles, the firewall's ACL, the
// Classification Table rules and the control thread's rule stream. The
// plane only ever sees the generated frames and rules.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "acl/acl.hpp"
#include "common/types.hpp"
#include "dataplane/sharded_dataplane.hpp"

namespace perfbench {

using nfp::u16;
using nfp::u32;
using nfp::u64;
using nfp::u8;

// Frames back to back in one buffer, so the inputs cost one allocation and
// no per-frame heap header.
struct Frames {
  std::vector<u8> bytes;
  std::vector<u32> offsets{0};  // frame i is [offsets[i], offsets[i+1])

  std::size_t size() const noexcept { return offsets.size() - 1; }
  std::span<const u8> frame(std::size_t i) const noexcept {
    return {bytes.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  void push(std::span<const u8> frame);
};

struct Workload {
  std::string name;
  std::size_t shards = 3;
  // The workload's loop: open at rate_pps when set, closed (send as fast
  // as the blocking director accepts) otherwise. Closed-loop workloads
  // also run paced episodes at rate_pps, well below their closed-loop
  // throughput, for latency that is per-packet cost rather than queueing
  // (which would amplify the host's speed swings).
  bool paced = false;
  double rate_pps = 0;
  std::size_t paced_frames = 0;  // a paced episode sends input(true)[0, this)
  // Policy text per service graph, compiled during set-up.
  std::vector<std::string> policies;
  std::vector<nfp::CtRule> ct_rules;     // preloaded during set-up
  std::vector<nfp::CtRule> churn_rules;  // control thread, one per point
  // add_rule calls per paced episode, evenly spaced over its frames. Closed
  // loops run without them: a rebuild beside a saturated plane moved
  // ct-churn throughput by 22 % between runs, against 7 % without.
  std::size_t churn_points = 0;
  nfp::AclTable acl;                     // the firewall's rules
  Frames frames;  // one episode's input, replayed by every episode
  Frames latency_frames;  // the paced loop's input, when not empty

  const Frames& input(bool paced) const noexcept {
    return paced && latency_frames.size() > 0 ? latency_frames : frames;
  }
};

// Builds the named workload from `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, u64 seed);

// Instantiates NFs as make_builtin_nf does, except that the firewall uses
// the workload's ACL.
nfp::ShardedDataplane::NfFactory make_factory(const Workload& w);

}  // namespace perfbench
