#include "baseline/onv_dataplane.hpp"

namespace nfp::baseline {

namespace {
constexpr char kPlane[] = "onv";
}  // namespace

OnvDataplane::OnvDataplane(sim::Simulator& sim,
                           std::vector<std::string> chain,
                           DataplaneConfig config)
    : sim_(sim),
      config_(std::move(config)),
      pool_(std::make_unique<PacketPool>(config_.pool_packets)) {
  int id = 0;
  for (auto& type : chain) {
    NfInstance inst;
    inst.type = type;
    if (config_.factory) {
      StageNf meta{type, id, 1, 0, false};
      inst.impl = config_.factory(meta);
    } else {
      inst.impl = make_builtin_nf(type, static_cast<u64>(id) + 1);
    }
    inst.component = "nf:" + type + "#" + std::to_string(id);
    inst.service = &metrics_.histogram(
        "nf_service_ns", {{"plane", kPlane}, {"nf", inst.component}});
    ++id;
    nfs_.push_back(std::move(inst));
  }
  m_injected_ = &metrics_.counter("packets_injected_total", {{"plane", kPlane}});
  m_delivered_ =
      &metrics_.counter("packets_delivered_total", {{"plane", kPlane}});
  m_dropped_nf_ = &metrics_.counter("packets_dropped_total",
                                    {{"plane", kPlane}, {"reason", "nf"}});
  m_latency_ = &metrics_.histogram("packet_latency_ns", {{"plane", kPlane}});
  m_pool_in_use_ = &metrics_.gauge("pool_in_use", {{"plane", kPlane}});
  metrics_.gauge("pool_capacity", {{"plane", kPlane}})
      .set(static_cast<double>(pool_->capacity()));
  if (config_.trace_every > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(config_.trace_every,
                                                  config_.trace_capacity);
  }
}

void OnvDataplane::trace(u64 pid, telemetry::SpanKind kind, SimTime at,
                         const char* component) {
  if (tracer_ != nullptr && tracer_->sampled(pid)) {
    tracer_->record(pid, kind, at, component);
  }
}

void OnvDataplane::snapshot_metrics() {
  const auto busy = [this](const std::string& component, SimTime ns) {
    metrics_
        .gauge("core_busy_ns", {{"plane", kPlane}, {"component", component}})
        .set(static_cast<double>(ns));
  };
  metrics_.gauge("sim_now_ns", {{"plane", kPlane}})
      .set(static_cast<double>(sim_.now()));
  busy("switch", switch_core_.busy_time());
  busy("rx-link", rx_link_.busy_time());
  busy("tx-link", tx_link_.busy_time());
  for (NfInstance& inst : nfs_) busy(inst.component, inst.core.busy_time());
  m_pool_in_use_->set(static_cast<double>(pool_->in_use()));
}

void OnvDataplane::inject(Packet* pkt) {
  ++stats_.injected;
  m_injected_->inc();
  m_pool_in_use_->set(static_cast<double>(pool_->in_use()));
  pkt->set_inject_time(sim_.now());
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  trace(pkt->meta().pid(), telemetry::SpanKind::kInject, sim_.now(),
        "rx-link");
  const SimTime link_free =
      rx_link_.execute(sim_.now(), config_.costs.wire_ns(pkt->length()));
  const SimTime ready = link_free + config_.costs.nic_delay_ns;
  sim_.schedule_at(ready, [this, pkt, ready] {
    switch_forward(pkt, 0, ready, /*first_crossing=*/true);
  });
}

void OnvDataplane::switch_forward(Packet* pkt, std::size_t next_nf, SimTime t,
                                  bool first_crossing) {
  const sim::OpCost crossing = config_.costs.switch_crossing;
  SimTime occ = crossing.occ;
  if (first_crossing) occ += config_.costs.switch_manager.occ;
  const SimTime free = switch_core_.execute(t, occ);
  const SimTime done = free + crossing.delay;
  trace(pkt->meta().pid(), telemetry::SpanKind::kClassify, free, "switch");

  if (next_nf >= nfs_.size()) {
    sim_.schedule_at(done, [this, pkt] { output(pkt, sim_.now()); });
    return;
  }
  sim_.schedule_at(done, [this, next_nf, pkt, done] {
    run_nf(next_nf, pkt, done);
  });
}

void OnvDataplane::run_nf(std::size_t idx, Packet* pkt, SimTime ready) {
  NfInstance& inst = nfs_[idx];
  const sim::OpCost deq = config_.costs.nf_dequeue;
  const sim::OpCost nf_cost = config_.costs.nf_cost(
      inst.type, pkt->length(), config_.delaynf_cycles);
  trace(pkt->meta().pid(), telemetry::SpanKind::kNfEnter, ready,
        inst.component.c_str());

  const NfVerdict verdict = process_packet(*inst.impl, *pkt);

  const SimTime free = inst.core.execute(ready, deq.occ + nf_cost.occ);
  const SimTime done = inst.out.stamp(free + deq.delay + nf_cost.delay);
  inst.service->record(static_cast<u64>(free - ready));
  trace(pkt->meta().pid(), telemetry::SpanKind::kNfExit, done,
        inst.component.c_str());
  if (verdict == NfVerdict::kDrop) {
    ++stats_.dropped_by_nf;
    m_dropped_nf_->inc();
    trace(pkt->meta().pid(), telemetry::SpanKind::kDrop, done,
          inst.component.c_str());
    pool_->release(pkt);
    return;
  }
  sim_.schedule_at(done, [this, idx, pkt, done] {
    switch_forward(pkt, idx + 1, done, /*first_crossing=*/false);
  });
}

void OnvDataplane::output(Packet* pkt, SimTime t) {
  const SimTime done =
      tx_link_.execute(t, config_.costs.wire_ns(pkt->length())) +
      config_.costs.nic_delay_ns;
  ++stats_.delivered;
  m_delivered_->inc();
  m_latency_->record(static_cast<u64>(done - pkt->inject_time()));
  trace(pkt->meta().pid(), telemetry::SpanKind::kOutput, done, "tx-link");
  if (sink_) {
    sink_(pkt, done);
  } else {
    pool_->release(pkt);
  }
}

}  // namespace nfp::baseline
