// Isolated per-layer replays for the traced run. Each replay drives one
// layer's public functions over the workload's own frames on the bench
// thread alone (no plane threads running) and records spans named after
// the layer, each carrying the number of operations it covers:
//
//   parse                parse_five_tuple + hash_five_tuple (director)
//   packet.alloc_copy    PacketPool alloc + frame memcpy + release
//   ring.hop             SpscRing push + pop of one packet pointer
//   classifier.hit       MicroflowCache::classify on cached flows
//   classifier.miss      LiveClassificationTable::classify (tuple walk)
//   classifier.add_rule  LiveClassificationTable::add_rule at the
//                        workload's rule count (snapshot rebuild)
//   executor             rtc LivePipeline::feed, frames routed by CT verdict
//   merge                apply_merge_operations on each parallel segment
//   packet.header_copy   PacketPool::clone_header_only + release
//   packet.full_copy     PacketPool::clone_full + release
//   nfs.<type>           PacketView parse + NetworkFunction::process
#pragma once

#include <string>
#include <vector>

#include "graph/service_graph.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

// NF types whose per-packet cost the traced run reports (the union of the
// workloads' graphs).
const std::vector<std::string>& reported_nf_types();

// Runs every replay above; `graphs` are the workload's compiled graphs.
// `isolate_add_rule` is false when the live run already timed add_rule
// from its control thread.
void replay_layers(const Workload& w,
                   const std::vector<nfp::ServiceGraph>& graphs,
                   bool isolate_add_rule, Tracer& tr);

}  // namespace perfbench
