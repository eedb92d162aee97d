#include "baseline/rtc_dataplane.hpp"

#include "common/hash.hpp"
#include "packet/packet_view.hpp"

namespace nfp::baseline {

namespace {
constexpr char kPlane[] = "rtc";
}  // namespace

RtcDataplane::RtcDataplane(sim::Simulator& sim, std::vector<std::string> chain,
                           std::size_t cores, DataplaneConfig config)
    : sim_(sim),
      chain_(std::move(chain)),
      config_(std::move(config)),
      pool_(std::make_unique<PacketPool>(config_.pool_packets)) {
  replicas_.resize(cores == 0 ? 1 : cores);
  int id = 0;
  for (Replica& replica : replicas_) {
    for (const std::string& type : chain_) {
      if (config_.factory) {
        StageNf meta{type, id, 1, 0, false};
        replica.nfs.push_back(config_.factory(meta));
      } else {
        replica.nfs.push_back(
            make_builtin_nf(type, static_cast<u64>(id) + 1));
      }
      ++id;
    }
  }
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    m_service_.push_back(&metrics_.histogram(
        "nf_service_ns",
        {{"plane", kPlane},
         {"nf", "nf:" + chain_[i] + "@" + std::to_string(i)}}));
  }
  m_injected_ = &metrics_.counter("packets_injected_total", {{"plane", kPlane}});
  m_delivered_ =
      &metrics_.counter("packets_delivered_total", {{"plane", kPlane}});
  m_dropped_nf_ = &metrics_.counter("packets_dropped_total",
                                    {{"plane", kPlane}, {"reason", "nf"}});
  m_latency_ = &metrics_.histogram("packet_latency_ns", {{"plane", kPlane}});
  metrics_.gauge("pool_capacity", {{"plane", kPlane}})
      .set(static_cast<double>(pool_->capacity()));
  if (config_.trace_every > 0) {
    tracer_ = std::make_unique<telemetry::Tracer>(config_.trace_every,
                                                  config_.trace_capacity);
  }
}

void RtcDataplane::snapshot_metrics() {
  metrics_.gauge("sim_now_ns", {{"plane", kPlane}})
      .set(static_cast<double>(sim_.now()));
  metrics_.gauge("pool_in_use", {{"plane", kPlane}})
      .set(static_cast<double>(pool_->in_use()));
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    metrics_
        .gauge("core_busy_ns", {{"plane", kPlane},
                                {"component", "replica#" + std::to_string(r)}})
        .set(static_cast<double>(replicas_[r].core.busy_time()));
  }
}

void RtcDataplane::inject(Packet* pkt) {
  ++stats_.injected;
  m_injected_->inc();
  pkt->set_inject_time(sim_.now());
  pkt->meta().set_pid(next_pid_++ & Metadata::kMaxPid);
  if (tracer_ != nullptr && tracer_->sampled(pkt->meta().pid())) {
    tracer_->record(pkt->meta().pid(), telemetry::SpanKind::kInject,
                    sim_.now(), "rx-link");
  }
  const SimTime ready =
      rx_link_.execute(sim_.now(), config_.costs.wire_ns(pkt->length()));

  // NIC RSS: flows hash onto replicas.
  PacketView view(*pkt);
  const std::size_t replica =
      view.valid()
          ? static_cast<std::size_t>(hash_five_tuple(view.five_tuple()) %
                                     replicas_.size())
          : 0;
  sim_.schedule_at(ready, [this, replica, pkt, ready] {
    run_chain(replica, pkt, ready);
  });
}

void RtcDataplane::run_chain(std::size_t replica_idx, Packet* pkt,
                             SimTime ready) {
  Replica& replica = replicas_[replica_idx];

  // The replica core runs RX, every NF, and TX back-to-back.
  const u64 pid = pkt->meta().pid();
  const bool traced = tracer_ != nullptr && tracer_->sampled(pid);
  std::vector<std::pair<std::size_t, SimTime>> nf_occ;  // (chain pos, occ)
  SimTime occ = config_.costs.rtc_rx.occ;
  SimTime delay = config_.costs.rtc_rx.delay;
  NfVerdict verdict = NfVerdict::kPass;
  for (std::size_t i = 0; i < replica.nfs.size(); ++i) {
    const sim::OpCost nf_cost = config_.costs.nf_cost(
        chain_[i], pkt->length(), config_.delaynf_cycles);
    // Run-to-completion executes the NF logic in place: the compute cost is
    // the occupancy (which already contributes to latency); pipelining-mode
    // batching delays do not apply.
    occ += nf_cost.occ + config_.costs.rtc_call_ns;
    if (traced) {
      nf_occ.emplace_back(i, nf_cost.occ + config_.costs.rtc_call_ns);
    }
    m_service_[i]->record(static_cast<u64>(nf_cost.occ));
    verdict = process_packet(*replica.nfs[i], *pkt);
    if (verdict == NfVerdict::kDrop) break;
  }
  occ += config_.costs.rtc_tx.occ;
  delay += config_.costs.rtc_tx.delay;

  const SimTime free = replica.core.execute(ready, occ);
  const SimTime done = free + delay;
  if (traced) {
    // Synthesize per-NF enter/exit spans from the fused occupancy block:
    // the block ran [free - occ, free]; RX occupies the first slice, then
    // each NF its own occupancy share.
    SimTime cursor = free - occ + config_.costs.rtc_rx.occ;
    for (const auto& [i, nf_ns] : nf_occ) {
      const std::string component =
          "nf:" + chain_[i] + "@" + std::to_string(i);
      tracer_->record(pid, telemetry::SpanKind::kNfEnter, cursor, component);
      cursor += nf_ns;
      tracer_->record(pid, telemetry::SpanKind::kNfExit, cursor, component);
    }
  }
  if (verdict == NfVerdict::kDrop) {
    ++stats_.dropped_by_nf;
    m_dropped_nf_->inc();
    if (traced) {
      tracer_->record(pid, telemetry::SpanKind::kDrop, free, "rtc-chain");
    }
    pool_->release(pkt);
    return;
  }
  sim_.schedule_at(done, [this, pkt] { output(pkt, sim_.now()); });
}

void RtcDataplane::output(Packet* pkt, SimTime t) {
  const SimTime done =
      tx_link_.execute(t, config_.costs.wire_ns(pkt->length()));
  ++stats_.delivered;
  m_delivered_->inc();
  m_latency_->record(static_cast<u64>(done - pkt->inject_time()));
  if (tracer_ != nullptr && tracer_->sampled(pkt->meta().pid())) {
    tracer_->record(pkt->meta().pid(), telemetry::SpanKind::kOutput, done,
                    "tx-link");
  }
  if (sink_) {
    sink_(pkt, done);
  } else {
    pool_->release(pkt);
  }
}

}  // namespace nfp::baseline
