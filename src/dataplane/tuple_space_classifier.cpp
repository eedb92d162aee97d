#include "dataplane/tuple_space_classifier.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>

#include "common/rng.hpp"

namespace nfp {

namespace {

// Prefix length when `mask` is contiguous (e.g. /24 = 0xFFFFFF00), else -1.
i8 prefix_len_of(u32 mask) noexcept {
  const int ones = std::popcount(mask);
  const u32 contiguous =
      ones == 0 ? 0u : (0xFFFFFFFFu << (32 - static_cast<unsigned>(ones)));
  return mask == contiguous ? static_cast<i8>(ones) : i8{-1};
}

}  // namespace

void LinearCtScan::add_exact(const FiveTuple& flow, std::size_t graph) {
  exact_[flow] = clamp_graph(graph);
}

void LinearCtScan::add_rule(CtRule rule) {
  rule.graph = clamp_graph(rule.graph);
  rules_.push_back(rule);
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const CtRule& a, const CtRule& b) {
                     return a.priority > b.priority;
                   });
}

void LinearCtScan::add_rules(const std::vector<CtRule>& rules) {
  rules_.reserve(rules_.size() + rules.size());
  for (CtRule rule : rules) {
    rule.graph = clamp_graph(rule.graph);
    rules_.push_back(rule);
  }
  std::stable_sort(rules_.begin(), rules_.end(),
                   [](const CtRule& a, const CtRule& b) {
                     return a.priority > b.priority;
                   });
}

std::size_t LinearCtScan::classify(const FiveTuple& flow) const {
  const auto it = exact_.find(flow);
  if (it != exact_.end()) return it->second;
  for (const CtRule& rule : rules_) {  // sorted by descending priority
    if (rule.matches(flow)) return rule.graph;
  }
  return 0;
}

std::shared_ptr<const TupleSpaceClassifier> TupleSpaceClassifier::build(
    const ExactCtMap& exact, std::span<const CtRule> rules,
    std::size_t graph_count) {
  auto snap = std::shared_ptr<TupleSpaceClassifier>(
      new TupleSpaceClassifier(graph_count));
  snap->rule_count_ = rules.size();

  // Rank every rule by (priority desc, insertion order asc): the verdict is
  // the matching cell of lowest rank, one u32 compare per candidate.
  std::vector<u64> order(rules.size());
  for (std::size_t seq = 0; seq < rules.size(); ++seq) {
    const u32 biased = static_cast<u32>(rules[seq].priority) ^ 0x80000000u;
    order[seq] = (static_cast<u64>(~biased) << 32) | seq;
  }
  std::sort(order.begin(), order.end());
  std::vector<u32> rank(rules.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[static_cast<u32>(order[r])] = static_cast<u32>(r);
  }

  // Group rules by mask signature, counting each tuple's rules and its
  // best rank.
  std::map<std::tuple<u32, u32, u8>, u32> index_of;
  std::vector<Tuple> tuples;
  std::vector<u32> counts;
  std::vector<u32> tuple_of(rules.size());
  for (std::size_t seq = 0; seq < rules.size(); ++seq) {
    const CtRule& rule = rules[seq];
    const u8 flags = static_cast<u8>((rule.match_src_port ? 1u : 0u) |
                                     (rule.match_dst_port ? 2u : 0u) |
                                     (rule.match_proto ? 4u : 0u));
    const auto [it, fresh] = index_of.try_emplace(
        std::make_tuple(rule.src_mask, rule.dst_mask, flags),
        static_cast<u32>(tuples.size()));
    if (fresh) {
      Tuple t;
      t.src_mask = rule.src_mask;
      t.dst_mask = rule.dst_mask;
      t.src_port_mask = rule.match_src_port ? u16{0xFFFF} : u16{0};
      t.dst_port_mask = rule.match_dst_port ? u16{0xFFFF} : u16{0};
      t.proto_mask = rule.match_proto ? u8{0xFF} : u8{0};
      tuples.push_back(t);
      counts.push_back(0);
    }
    const u32 id = it->second;
    tuple_of[seq] = id;
    ++counts[id];
    tuples[id].min_rank = std::min(tuples[id].min_rank, rank[seq]);
  }

  // Each tuple's run of cells: a power of two at least twice its rule
  // count, so it stays at most half full.
  std::size_t total = 0;
  for (std::size_t t = 0; t < tuples.size(); ++t) {
    tuples[t].first = static_cast<u32>(total);
    tuples[t].slot_mask = std::bit_ceil(counts[t] * 2) - 1;
    total += tuples[t].slot_mask + 1u;
  }
  snap->exact_.src_mask = snap->exact_.dst_mask = 0xFFFFFFFFu;
  snap->exact_.src_port_mask = snap->exact_.dst_port_mask = 0xFFFF;
  snap->exact_.proto_mask = 0xFF;
  snap->exact_.first = static_cast<u32>(total);
  if (!exact.empty()) {
    snap->exact_.slot_mask =
        static_cast<u32>(std::bit_ceil(exact.size() * 2) - 1);
    total += snap->exact_.slot_mask + 1u;
  }
  snap->cells_.resize(total);

  for (const auto& [flow, graph] : exact) {
    snap->insert(snap->exact_, flow, 0, snap->clamp_graph(graph));
  }
  for (std::size_t seq = 0; seq < rules.size(); ++seq) {
    const CtRule& rule = rules[seq];
    snap->insert(tuples[tuple_of[seq]],
                 {rule.src_ip, rule.dst_ip, rule.src_port, rule.dst_port,
                  rule.proto},
                 rank[seq], snap->clamp_graph(rule.graph));
    const i8 src_len = prefix_len_of(rule.src_mask);
    if (src_len > 0) {
      snap->src_prefixes_.insert(rule.src_ip, static_cast<u8>(src_len), 1);
    }
    const i8 dst_len = prefix_len_of(rule.dst_mask);
    if (dst_len > 0) {
      snap->dst_prefixes_.insert(rule.dst_ip, static_cast<u8>(dst_len), 1);
    }
  }

  // Ascending min_rank lets classify() stop the walk once the best verdict
  // so far outranks everything a later tuple holds. Each tuple keeps its
  // run of cells, so the order is free.
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    return a.min_rank < b.min_rank;
  });
  snap->tuples_ = std::move(tuples);

  const std::size_t words = (snap->tuples_.size() + 63) / 64;
  snap->words_ = words;
  snap->src_by_len_.assign(33 * words, 0);
  snap->dst_by_len_.assign(33 * words, 0);
  snap->src_any_.assign(words, 0);
  snap->dst_any_.assign(words, 0);
  for (std::size_t t = 0; t < snap->tuples_.size(); ++t) {
    const u64 bit = u64{1} << (t % 64);
    const std::size_t w = t / 64;
    const i8 src_len = prefix_len_of(snap->tuples_[t].src_mask);
    const i8 dst_len = prefix_len_of(snap->tuples_[t].dst_mask);
    (src_len > 0 ? snap->src_by_len_[src_len * words + w] : snap->src_any_[w]) |=
        bit;
    (dst_len > 0 ? snap->dst_by_len_[dst_len * words + w] : snap->dst_any_[w]) |=
        bit;
  }
  return snap;
}

void TupleSpaceClassifier::insert(const Tuple& tuple, const FiveTuple& rule,
                                  u32 rank, std::size_t graph) {
  const FiveTuple key = masked(tuple, rule);
  for (u32 i = home(tuple, key);; i = (i + 1) & tuple.slot_mask) {
    Cell& cell = cells_[tuple.first + i];
    if (cell.rank == kEmptyRank) {
      cell.key = key;
    } else if (!(cell.key == key)) {
      continue;
    } else if (cell.rank < rank) {
      return;  // the incumbent outranks this rule
    }
    cell.rank = rank;
    cell.graph = graph == kCtDropGraph ? kDropCell : static_cast<u32>(graph);
    return;
  }
}

const TupleSpaceClassifier::Cell* TupleSpaceClassifier::find(
    const Tuple& tuple, const FiveTuple& flow) const noexcept {
  const FiveTuple key = masked(tuple, flow);
  for (u32 i = home(tuple, key);; i = (i + 1) & tuple.slot_mask) {
    const Cell& cell = cells_[tuple.first + i];
    if (cell.rank == kEmptyRank) return nullptr;
    if (cell.key == key) return &cell;
  }
}

std::size_t TupleSpaceClassifier::classify(const FiveTuple& flow) const {
  if (exact_.slot_mask != 0) {
    if (const Cell* hit = find(exact_, flow)) return verdict(*hit);
  }

  // One prefix query per direction yields, for every prefix length at
  // once, whether this address lies under some rule prefix of that length;
  // the lengths that hit select the tuples worth probing.
  const u64 src_bits = src_prefixes_.match_length_mask(flow.src_ip);
  const u64 dst_bits = dst_prefixes_.match_length_mask(flow.dst_ip);

  const Cell* best = nullptr;
  u32 best_rank = kEmptyRank;
  for (std::size_t w = 0; w < words_; ++w) {
    u64 src_ok = src_any_[w];
    for (u64 b = src_bits; b != 0; b &= b - 1) {
      src_ok |= src_by_len_[std::countr_zero(b) * words_ + w];
    }
    u64 dst_ok = dst_any_[w];
    for (u64 b = dst_bits; b != 0; b &= b - 1) {
      dst_ok |= dst_by_len_[std::countr_zero(b) * words_ + w];
    }
    for (u64 eligible = src_ok & dst_ok; eligible != 0;
         eligible &= eligible - 1) {
      const Tuple& tuple = tuples_[w * 64 + std::countr_zero(eligible)];
      // Tuples are in ascending min_rank: none from here on can win.
      if (best_rank < tuple.min_rank) return verdict(*best);
      const Cell* cell = find(tuple, flow);
      if (cell != nullptr && cell->rank < best_rank) {
        best = cell;
        best_rank = cell->rank;
      }
    }
  }
  return best != nullptr ? verdict(*best) : 0;
}

std::vector<CtRule> synthetic_ct_rules(std::size_t count, u64 seed,
                                       std::size_t graph_count) {
  static constexpr u8 kSrcLens[] = {8, 12, 16, 20, 24, 28, 32};
  static constexpr int kDstLens[] = {0, 12, 16, 24};  // 0 = wildcard dst
  std::vector<CtRule> rules;
  rules.reserve(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    CtRule r;
    const u8 src_len = kSrcLens[i % std::size(kSrcLens)];
    r.src_mask = 0xFFFFFFFFu << (32 - src_len);
    r.src_ip = (0x0A000000u |  // 10.0.0.0/8
                (static_cast<u32>(rng.next()) & 0x00FFFFFFu)) &
               r.src_mask;
    const int dst_len = kDstLens[i % std::size(kDstLens)];
    if (dst_len > 0) {
      r.dst_mask = 0xFFFFFFFFu << (32 - dst_len);
      r.dst_ip = (0xAC100000u |  // 172.16.0.0/12
                  (static_cast<u32>(rng.next()) & 0x000FFFFFu)) &
                 r.dst_mask;
    }
    r.match_dst_port = (i % 8) < 2;
    if (r.match_dst_port) {
      r.dst_port = static_cast<u16>(80 + rng.bounded(1024));
    }
    r.match_proto = (i % 8) >= 4;
    if (r.match_proto) r.proto = (rng.next() & 1) != 0 ? u8{6} : u8{17};
    r.priority = static_cast<int>(rng.bounded(16));
    r.graph = rng.bounded(100) == 0 ? kCtDropGraph
                                    : static_cast<std::size_t>(
                                          rng.bounded(graph_count));
    rules.push_back(r);
  }
  return rules;
}

}  // namespace nfp
