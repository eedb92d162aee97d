// One frame set through one compiled graph on one plane: the simulated
// NfpDataplane or a live LivePipeline in either execution mode. Shared by
// the tests that compare planes (e2e/differential_test.cpp,
// dataplane/drop_resolution_test.cpp); every run also checks that no
// packet reference leaked, and a live run that its per-reason drop
// counters sum to its drop total.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "dataplane/live_pipeline.hpp"
#include "dataplane/nfp_dataplane.hpp"

namespace nfp::test_support {

struct PlaneRun {
  std::vector<std::vector<u8>> outputs;  // in delivery order
  u64 dropped = 0;
  std::array<u64, telemetry::kDropReasonCount> by_reason{};  // live only
};

// Injects frame i at i * 10 us, with one merger instance: with several,
// inter-packet order across flows is not kept, which perturbs
// order-sensitive NF state (NAT ports, AH sequence numbers).
inline PlaneRun run_simulated(ServiceGraph graph,
                              const std::vector<std::vector<u8>>& frames,
                              const NfFactory& factory) {
  sim::Simulator sim;
  DataplaneConfig cfg;
  cfg.merger_instances = 1;
  cfg.factory = factory;
  NfpDataplane dp(sim, std::move(graph), std::move(cfg));
  PlaneRun run;
  dp.set_sink([&](Packet* p, SimTime) {
    run.outputs.emplace_back(p->data(), p->data() + p->length());
    dp.pool().release(p);
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    sim.schedule_at(i * 10'000, [&dp, &frames, i] {
      Packet* p = dp.pool().alloc(frames[i].size());
      ASSERT_NE(p, nullptr);
      std::memcpy(p->data(), frames[i].data(), frames[i].size());
      dp.inject(p);
    });
  }
  sim.run();
  EXPECT_EQ(dp.stats().dropped_pool, 0u);
  EXPECT_EQ(dp.pool().in_use(), 0u) << "leaked packet references";
  run.dropped = dp.stats().dropped_by_nf;
  return run;
}

inline PlaneRun run_live(const ServiceGraph& graph,
                         const std::vector<std::vector<u8>>& frames,
                         ExecMode mode, const NfFactory& factory) {
  SCOPED_TRACE(exec_mode_name(mode));
  LivePipelineOptions opts;
  opts.exec_mode = mode;
  LivePipeline pipe(ServiceGraph(graph), factory, opts);
  LiveResult result = pipe.run(frames);
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(pipe.refcnt_underflows(), 0u);
  EXPECT_EQ(pipe.pool_in_use(), 0u) << "leaked packet references";
  PlaneRun run;
  run.outputs = std::move(result.outputs);
  run.dropped = result.dropped;
  u64 sum = 0;
  for (std::size_t r = 0; r < telemetry::kDropReasonCount; ++r) {
    run.by_reason[r] = pipe.dropped_by(static_cast<telemetry::DropReason>(r));
    sum += run.by_reason[r];
  }
  EXPECT_EQ(sum, run.dropped) << "sum(dropped_by) == dropped";
  return run;
}

}  // namespace nfp::test_support
