#include "telemetry/flow_observatory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/json.hpp"

namespace nfp::telemetry {

namespace {

constexpr std::array<const char*, kDropReasonCount> kReasonNames = {
    "ring_full",     "pool_exhausted", "nf_verdict",
    "classifier_miss", "merge_overflow", "shutdown_drain",
    "malformed",
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string tuple_str(const FiveTuple& t, bool valid) {
  if (!valid) return "(non-ip)";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u:%u->%u.%u.%u.%u:%u/%u",
                t.src_ip >> 24, (t.src_ip >> 16) & 0xff,
                (t.src_ip >> 8) & 0xff, t.src_ip & 0xff, t.src_port,
                t.dst_ip >> 24, (t.dst_ip >> 16) & 0xff,
                (t.dst_ip >> 8) & 0xff, t.dst_ip & 0xff, t.dst_port,
                t.proto);
  return buf;
}

}  // namespace

const char* drop_reason_name(DropReason r) noexcept {
  const auto i = static_cast<std::size_t>(r);
  return i < kReasonNames.size() ? kReasonNames[i] : "unknown";
}

// ---------------------------------------------------------------------------
// Space-Saving.

SpaceSaving::SpaceSaving(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  entries_.reserve(capacity_);
  heap_.reserve(capacity_);
  pos_.reserve(capacity_);
  // 16 slots per entry. A home is the tag's top log2(slots) bits, which
  // its 32 bits cover up to 2^28 entries.
  index_.assign(std::bit_ceil(capacity_ * 16), Slot{});
  mask_ = index_.size() - 1;
  shift_ = 32 - std::countr_zero(index_.size());
}

bool SpaceSaving::record(const FiveTuple& tuple, u64 hash, u64 packets,
                         u64 bytes) {
  if (packets == 0) return false;
  if (increment(hash, packets, bytes)) return false;
  insert({tuple, hash, packets, bytes});
  return true;
}

void SpaceSaving::insert(const Candidate& c) {
  if (entries_.size() < capacity_) {
    const auto e = static_cast<u32>(entries_.size());
    Entry& fresh = entries_.emplace_back();
    fresh.tuple = c.tuple;
    fresh.hash = c.hash;
    fresh.count = {c.packets, c.bytes};
    place(tag_of(c.hash), e);
    heap_.push_back({c.packets, e});
    pos_.push_back(e);
    sift_up(heap_.size() - 1);
    return;
  }
  // Classic replacement: the newcomer takes over the minimum entry, and
  // the minimum's count becomes its error bound.
  const u32 e = heap_.front().entry;
  Entry& victim = entries_[e];
  erase_slot(tag_of(victim.hash), e);
  victim.tuple = c.tuple;
  victim.hash = c.hash;
  victim.error = victim.count.packets;
  victim.count.packets += c.packets;
  victim.count.bytes += c.bytes;
  place(tag_of(c.hash), e);
  heap_.front().packets = victim.count.packets;
  sift_down(0);
}

// Puts `entry` in the first free slot of its probe sequence.
void SpaceSaving::place(u32 tag, u32 entry) {
  std::size_t i = home(tag);
  while (index_[i].entry != kNil) i = (i + 1) & mask_;
  index_[i] = Slot{tag, entry};
}

// Backward-shift deletion: close the hole by sliding back every slot of
// the cluster that had probed past it, so lookups need no tombstones.
void SpaceSaving::erase_slot(u32 tag, u32 entry) {
  std::size_t hole = home(tag);
  while (index_[hole].entry != entry) hole = (hole + 1) & mask_;
  for (std::size_t j = (hole + 1) & mask_; index_[j].entry != kNil;
       j = (j + 1) & mask_) {
    const std::size_t h = home(index_[j].tag);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = Slot{};
}

void SpaceSaving::sift_down(std::size_t pos) noexcept {
  const HeapNode x = heap_[pos];
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    // The lesser child, chosen without a branch: sifts through a table
    // of near-equal churning counts are unpredictable.
    child += static_cast<std::size_t>(child + 1 < n &&
                                      heap_[child + 1].packets <
                                          heap_[child].packets);
    if (heap_[child].packets >= x.packets) break;
    heap_[pos] = heap_[child];
    pos_[heap_[pos].entry] = static_cast<u32>(pos);
    pos = child;
  }
  heap_[pos] = x;
  pos_[x.entry] = static_cast<u32>(pos);
}

void SpaceSaving::sift_up(std::size_t pos) noexcept {
  const HeapNode x = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (heap_[parent].packets <= x.packets) break;
    heap_[pos] = heap_[parent];
    pos_[heap_[pos].entry] = static_cast<u32>(pos);
    pos = parent;
  }
  heap_[pos] = x;
  pos_[x.entry] = static_cast<u32>(pos);
}

std::vector<SpaceSaving::Entry> merge_topk(
    std::span<const std::vector<SpaceSaving::Entry>> tables,
    std::size_t capacity) {
  std::unordered_map<u64, SpaceSaving::Entry> merged;
  for (const auto& table : tables) {
    for (const SpaceSaving::Entry& e : table) {
      auto [it, inserted] = merged.emplace(e.hash, e);
      if (!inserted) {
        it->second.count += e.count;
        it->second.error += e.error;
      }
    }
  }
  std::vector<SpaceSaving::Entry> out;
  out.reserve(merged.size());
  for (const auto& [hash, e] : merged) out.push_back(e);
  std::sort(out.begin(), out.end(),
            [](const SpaceSaving::Entry& a, const SpaceSaving::Entry& b) {
              if (a.count.packets != b.count.packets) {
                return a.count.packets > b.count.packets;
              }
              return a.hash < b.hash;  // deterministic tie-break
            });
  if (capacity != 0 && out.size() > capacity) out.resize(capacity);
  return out;
}

// ---------------------------------------------------------------------------
// HyperLogLog estimate.

double HyperLogLog::estimate(const Registers& regs) noexcept {
  constexpr double m = static_cast<double>(kRegisters);
  constexpr double alpha = 0.7213 / (1.0 + 1.079 / m);  // m >= 128
  double inv_sum = 0;
  std::size_t zeros = 0;
  for (const u8 r : regs) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  const double raw = alpha * m * m / inv_sum;
  if (raw <= 2.5 * m && zeros != 0) {
    return m * std::log(m / static_cast<double>(zeros));  // linear counting
  }
  return raw;
}

// ---------------------------------------------------------------------------
// Drop exemplars.

void DropExemplarRing::record(DropReason reason, const char* stage,
                              const FlowRef* flow, u64 when_ns) {
  const std::scoped_lock lock(mu_);
  DropExemplar& slot = ring_[next_];
  slot.reason = reason;
  slot.stage = stage != nullptr ? stage : "";
  slot.when_ns = when_ns;
  if (flow != nullptr) {
    slot.tuple = flow->tuple;
    slot.tuple_valid = flow->valid;
  } else {
    slot.tuple = FiveTuple{};
    slot.tuple_valid = false;
  }
  next_ = (next_ + 1) % ring_.size();
  ++total_;
}

std::vector<DropExemplar> DropExemplarRing::snapshot() const {
  const std::scoped_lock lock(mu_);
  std::vector<DropExemplar> out;
  const std::size_t n = std::min<u64>(total_, ring_.size());
  out.reserve(n);
  // Oldest-first: with a full ring the oldest slot is `next_`.
  const std::size_t start = total_ >= ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shard accountant.

ShardFlowAccountant::ShardFlowAccountant(std::size_t topk_capacity,
                                         std::size_t graph_count)
    : topk_(topk_capacity),
      graphs_(std::max<std::size_t>(1, graph_count)),
      exemplars_(kExemplarCapacity) {}

void ShardFlowAccountant::record_burst(std::span<const FlowSample> samples) {
  if (samples.empty()) return;
  const std::scoped_lock lock(mu_);
  folded_samples_ += samples.size();
  for (const FlowSample& s : samples) {
    if (s.packets == 0) continue;
    packets_ += s.packets;
    bytes_ += s.bytes;
    if (s.graph != FlowSample::kNoGraph && s.graph < graphs_.size()) {
      graphs_[s.graph].packets += s.packets;
      graphs_[s.graph].bytes += s.bytes;
    }
    hll_.add(s.hash);
    if (topk_.record(s.tuple, s.hash, s.packets, s.bytes)) ++new_flows_;
  }
}

u64 ShardFlowAccountant::folded_samples() const {
  const std::scoped_lock lock(mu_);
  return folded_samples_;
}

void ShardFlowAccountant::record_drop(DropReason reason, const char* stage,
                                      const FlowRef* flow, u64 when_ns) {
  drops_[static_cast<std::size_t>(reason)].fetch_add(
      1, std::memory_order_relaxed);
  exemplars_.record(reason, stage, flow, when_ns);
}

ShardFlowSnapshot ShardFlowAccountant::snapshot() const {
  ShardFlowSnapshot snap;
  {
    const std::scoped_lock lock(mu_);
    snap.topk = topk_.entries();
    snap.topk_capacity = topk_.capacity();
    snap.hll = hll_.registers();
    snap.packets = packets_;
    snap.bytes = bytes_;
    snap.new_flows = new_flows_;
    snap.graphs.resize(graphs_.size());
    for (std::size_t g = 0; g < graphs_.size(); ++g) {
      snap.graphs[g].traffic = graphs_[g];
    }
  }
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    snap.drops[r] = drops_[r].load(std::memory_order_relaxed);
  }
  snap.exemplars = exemplars_.snapshot();
  return snap;
}

void FlowAccumulator::flush(ShardFlowAccountant& acct) {
  if (samples_.empty()) return;
  acct.record_burst(samples_);
  for (const u32 idx : used_) index_[idx] = Slot{};
  samples_.clear();
  used_.clear();
  pending_ = 0;
}

// ---------------------------------------------------------------------------
// Snapshot merge.

u64 ShardFlowSnapshot::total_drops() const noexcept {
  u64 total = 0;
  for (const u64 d : drops) total += d;
  return total;
}

ShardFlowSnapshot& ShardFlowSnapshot::operator+=(
    const ShardFlowSnapshot& other) {
  const std::array<std::vector<SpaceSaving::Entry>, 2> tables = {
      std::move(topk), other.topk};
  topk_capacity = std::max(topk_capacity, other.topk_capacity);
  topk = merge_topk(tables, topk_capacity);
  for (std::size_t i = 0; i < HyperLogLog::kRegisters; ++i) {
    hll[i] = std::max(hll[i], other.hll[i]);
  }
  packets += other.packets;
  bytes += other.bytes;
  new_flows += other.new_flows;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    drops[r] += other.drops[r];
  }
  exemplars.insert(exemplars.end(), other.exemplars.begin(),
                   other.exemplars.end());
  if (graphs.size() < other.graphs.size()) {
    graphs.resize(other.graphs.size());
  }
  for (std::size_t g = 0; g < other.graphs.size(); ++g) {
    graphs[g] += other.graphs[g];
  }
  return *this;
}

ShardFlowSnapshot flow_delta(ShardFlowSnapshot now,
                             const ShardFlowSnapshot& then, u64 since_ns) {
  now.packets = sat_sub(now.packets, then.packets);
  now.bytes = sat_sub(now.bytes, then.bytes);
  now.new_flows = sat_sub(now.new_flows, then.new_flows);
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    now.drops[r] = sat_sub(now.drops[r], then.drops[r]);
  }
  for (std::size_t g = 0; g < now.graphs.size() && g < then.graphs.size();
       ++g) {
    GraphFlowCounters& cur = now.graphs[g];
    const GraphFlowCounters& base = then.graphs[g];
    cur.traffic.packets = sat_sub(cur.traffic.packets, base.traffic.packets);
    cur.traffic.bytes = sat_sub(cur.traffic.bytes, base.traffic.bytes);
    cur.drops = sat_sub(cur.drops, base.drops);
    cur.latency = hdr_delta(cur.latency, base.latency);
  }
  std::erase_if(now.exemplars, [since_ns](const DropExemplar& e) {
    return e.when_ns < since_ns;
  });
  return now;
}

// ---------------------------------------------------------------------------
// Report rendering.

void FlowReport::add_shard(std::string name, ShardFlowSnapshot d) {
  total += d;
  shards.push_back({std::move(name), std::move(d)});
}

double FlowReport::hh_top1_share() const noexcept {
  if (total.topk.empty() || total.packets == 0) return 0.0;
  const double share =
      static_cast<double>(total.topk.front().count.packets) /
      static_cast<double>(total.packets);
  return share > 1.0 ? 1.0 : share;
}

namespace {

void topk_json(std::ostringstream& out,
               const std::vector<SpaceSaving::Entry>& entries, u64 packets,
               std::size_t k) {
  out << "[";
  const std::size_t n = std::min(entries.size(), k);
  for (std::size_t i = 0; i < n; ++i) {
    const SpaceSaving::Entry& e = entries[i];
    if (i > 0) out << ",";
    const double share =
        packets > 0 ? static_cast<double>(e.count.packets) /
                          static_cast<double>(packets)
                    : 0.0;
    out << "{\"flow\":\"" << tuple_str(e.tuple, true)
        << "\",\"packets\":" << e.count.packets
        << ",\"bytes\":" << e.count.bytes << ",\"error\":" << e.error
        << ",\"share\":" << fmt_double(share) << "}";
  }
  out << "]";
}

void drops_json(std::ostringstream& out,
                const std::array<u64, kDropReasonCount>& drops) {
  out << "{";
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    if (r > 0) out << ",";
    out << "\"" << kReasonNames[r] << "\":" << drops[r];
  }
  out << "}";
}

}  // namespace

std::string FlowReport::to_json() const {
  std::ostringstream out;
  out << "{\"wall_seconds\":" << fmt_double(wall_seconds)
      << ",\"flows_active\":" << fmt_double(flows_active())
      << ",\"new_flows\":" << total.new_flows
      << ",\"flow_new_rate\":" << fmt_double(new_flow_rate())
      << ",\"hh_top1_share\":" << fmt_double(hh_top1_share())
      << ",\"packets\":" << total.packets << ",\"bytes\":" << total.bytes
      << ",\"dropped\":" << total_drops()
      << ",\"topk_capacity\":" << total.topk_capacity
      << ",\"error_bound\":\"space-saving: entry over-counts by at most its "
         "error; hll cardinality standard error 6.5%\",\"top\":";
  topk_json(out, total.topk, total.packets, top_k);
  out << ",\"drops\":";
  drops_json(out, total.drops);
  out << ",\"graphs\":[";
  for (std::size_t g = 0; g < total.graphs.size(); ++g) {
    const GraphFlowCounters& gc = total.graphs[g];
    if (g > 0) out << ",";
    out << "{\"graph\":" << g << ",\"packets\":" << gc.traffic.packets
        << ",\"bytes\":" << gc.traffic.bytes << ",\"drops\":" << gc.drops
        << ",\"p99_us\":"
        << fmt_double(static_cast<double>(gc.latency.quantile(0.99)) / 1e3)
        << ",\"latency_samples\":" << gc.latency.count() << "}";
  }
  out << "],\"exemplars\":[";
  for (std::size_t i = 0; i < total.exemplars.size(); ++i) {
    const DropExemplar& e = total.exemplars[i];
    if (i > 0) out << ",";
    out << "{\"flow\":\"" << tuple_str(e.tuple, e.tuple_valid)
        << "\",\"stage\":\"" << json::escape(e.stage) << "\",\"reason\":\""
        << drop_reason_name(e.reason) << "\",\"when_ns\":" << e.when_ns
        << "}";
  }
  out << "],\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Shard& sh = shards[s];
    if (s > 0) out << ",";
    out << "{\"name\":\"" << json::escape(sh.name)
        << "\",\"packets\":" << sh.d.packets << ",\"bytes\":" << sh.d.bytes
        << ",\"new_flows\":" << sh.d.new_flows
        << ",\"dropped\":" << sh.d.total_drops() << ",\"drops\":";
    drops_json(out, sh.d.drops);
    out << ",\"top\":";
    topk_json(out, sh.d.topk, sh.d.packets, top_k);
    out << "}";
  }
  out << "]}";
  return out.str();
}

std::string FlowReport::to_text() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "flows_active=%.0f new_flows=%llu (%.1f/s) packets=%llu "
                "bytes=%llu dropped=%llu top1_share=%.1f%%\n",
                flows_active(),
                static_cast<unsigned long long>(total.new_flows),
                new_flow_rate(),
                static_cast<unsigned long long>(total.packets),
                static_cast<unsigned long long>(total.bytes),
                static_cast<unsigned long long>(total_drops()),
                hh_top1_share() * 100.0);
  out << line;
  std::snprintf(line, sizeof(line), "%-4s %-34s %12s %14s %8s %7s\n", "#",
                "flow", "packets", "bytes", "share%", "err");
  out << line;
  const std::size_t n = std::min(total.topk.size(), top_k);
  for (std::size_t i = 0; i < n; ++i) {
    const SpaceSaving::Entry& e = total.topk[i];
    const double share =
        total.packets > 0 ? 100.0 * static_cast<double>(e.count.packets) /
                                static_cast<double>(total.packets)
                          : 0.0;
    std::snprintf(line, sizeof(line), "%-4zu %-34s %12llu %14llu %8.2f %7llu\n",
                  i + 1, tuple_str(e.tuple, true).c_str(),
                  static_cast<unsigned long long>(e.count.packets),
                  static_cast<unsigned long long>(e.count.bytes), share,
                  static_cast<unsigned long long>(e.error));
    out << line;
  }
  out << "drops by reason:";
  bool any = false;
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    if (total.drops[r] == 0) continue;
    any = true;
    std::snprintf(line, sizeof(line), " %s=%llu", kReasonNames[r],
                  static_cast<unsigned long long>(total.drops[r]));
    out << line;
  }
  out << (any ? "\n" : " none\n");
  if (total.graphs.size() > 1 ||
      (total.graphs.size() == 1 && total.graphs[0].drops > 0)) {
    for (std::size_t g = 0; g < total.graphs.size(); ++g) {
      const GraphFlowCounters& gc = total.graphs[g];
      std::snprintf(line, sizeof(line),
                    "graph%-3zu packets=%-10llu bytes=%-12llu drops=%-8llu "
                    "p99=%.1fus\n",
                    g, static_cast<unsigned long long>(gc.traffic.packets),
                    static_cast<unsigned long long>(gc.traffic.bytes),
                    static_cast<unsigned long long>(gc.drops),
                    static_cast<double>(gc.latency.quantile(0.99)) / 1e3);
      out << line;
    }
  }
  for (const DropExemplar& e : total.exemplars) {
    std::snprintf(line, sizeof(line), "exemplar %-34s stage=%s reason=%s\n",
                  tuple_str(e.tuple, e.tuple_valid).c_str(),
                  e.stage.c_str(), drop_reason_name(e.reason));
    out << line;
  }
  return out.str();
}

}  // namespace nfp::telemetry
