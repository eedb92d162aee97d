// Tuple-space search classifier for the live Classification Table.
//
// The compiler's CT holds masked 5-tuple rules; at 100k rules the old
// priority-ordered linear scan costs O(rules) per microflow-cache miss. This
// is the same wall OVS hit, and we adopt the same answer (its megaflow
// classifier): group rules by *mask signature* — the (src_mask, dst_mask,
// match_src_port, match_dst_port, match_proto) quintuple — into one
// exact-match hash table per distinct signature. A lookup masks the packet's
// 5-tuple with each signature and probes once per table, so cost is
// O(distinct masks), not O(rules); real rule sets reuse a handful of mask
// shapes no matter how many rules they hold.
//
// Storage is flat. Every rule is ranked once at build by (priority desc,
// insertion order asc), so the verdict is the matching cell of lowest rank.
// Each tuple owns a power-of-two run of 24-byte cells in one shared array,
// sized from its rule count to stay at most half full; a cell holds the
// masked key, the rank and the graph inline, so a probe is a masked hash
// and a linear scan of adjacent cells — no node, no modulo. The snapshot's
// exact-match entries live in one more run of cells, probed first.
//
// Two prunes keep the tuple walk short:
//  - Priority: tuples are sorted by their best (lowest) rank, so the walk
//    stops as soon as the best verdict found so far outranks every rule a
//    remaining tuple holds.
//  - Prefix (OVS's staged-lookup trick, via src/lpm): all contiguous
//    src/dst prefixes live in two LpmTables; one walk per lookup yields a
//    bitmask of prefix lengths under which this address matches *some*
//    rule. Per prefix length, the snapshot keeps a bitset of the tuples
//    with that length, so the lengths that missed rule out their tuples
//    with a few word ORs, and the walk visits only tuples still eligible.
//    Non-contiguous and wildcard masks opt out of the prune (always
//    probed) — pruning is conservative-only.
//
// A TupleSpaceClassifier is an immutable snapshot: build() constructs one
// from the authoritative rule list, classify() is const and touches no
// shared mutable state, so readers need no lock — LiveClassificationTable
// publishes snapshots through an atomic pointer under epoch protection.
//
// LinearCtScan is the original scan kept verbatim as the differential-
// testing reference: the tuple-space verdict must match it bit-for-bit,
// including priority tie-breaks (earliest-inserted wins), drop verdicts and
// the graph-0 default.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "lpm/lpm_table.hpp"

namespace nfp {

// One masked Classification Table rule (the live analogue of the compiler's
// CtEntry match spec): every enabled predicate must hold. mask == 0
// wildcards an address; the port/proto predicates are opt-in flags.
struct CtRule {
  u32 src_ip = 0;
  u32 src_mask = 0;
  u32 dst_ip = 0;
  u32 dst_mask = 0;
  u16 src_port = 0;
  bool match_src_port = false;
  u16 dst_port = 0;
  bool match_dst_port = false;
  u8 proto = 0;
  bool match_proto = false;
  int priority = 0;          // higher wins among matching rules
  std::size_t graph = 0;     // verdict: index of the service graph

  bool matches(const FiveTuple& t) const noexcept {
    if ((t.src_ip & src_mask) != (src_ip & src_mask)) return false;
    if ((t.dst_ip & dst_mask) != (dst_ip & dst_mask)) return false;
    if (match_src_port && t.src_port != src_port) return false;
    if (match_dst_port && t.dst_port != dst_port) return false;
    if (match_proto && t.proto != proto) return false;
    return true;
  }
};

using ExactCtMap = std::unordered_map<FiveTuple, std::size_t, FiveTupleHash>;

// Sentinel verdict: drop the flow at classification time (a CT drop rule —
// the DDoS-scrubbing use in the paper's policy examples).
inline constexpr std::size_t kCtDropGraph = static_cast<std::size_t>(-1);

// The pre-tuple-space classifier, preserved as the semantic reference for
// differential tests and the baseline side of bench_classifier_scale. Not
// thread-safe; single-owner use only.
class LinearCtScan {
 public:
  explicit LinearCtScan(std::size_t graph_count = 1)
      : graph_count_(graph_count == 0 ? 1 : graph_count) {}

  void add_exact(const FiveTuple& flow, std::size_t graph);
  void add_rule(CtRule rule);
  // Bulk append with a single stable sort (per-insert re-sorting is
  // quadratic at benchmark scale).
  void add_rules(const std::vector<CtRule>& rules);

  // Exact match, else best (priority desc, insertion order asc) masked
  // rule, else graph 0.
  std::size_t classify(const FiveTuple& flow) const;

  std::size_t graph_count() const noexcept { return graph_count_; }
  std::size_t rule_entries() const noexcept { return rules_.size(); }

 private:
  std::size_t clamp_graph(std::size_t g) const noexcept {
    if (g == kCtDropGraph) return g;
    return g < graph_count_ ? g : 0;
  }

  const std::size_t graph_count_;
  ExactCtMap exact_;
  std::vector<CtRule> rules_;  // kept stable-sorted by descending priority
};

// Immutable tuple-space snapshot. Thread-safe for concurrent classify()
// because nothing mutates after build().
class TupleSpaceClassifier {
 public:
  // Builds a snapshot from the authoritative state. `rules` must be in
  // insertion order — the index is the priority tie-break. Out-of-range
  // graphs clamp to 0 (kCtDropGraph survives clamping).
  static std::shared_ptr<const TupleSpaceClassifier> build(
      const ExactCtMap& exact, std::span<const CtRule> rules,
      std::size_t graph_count);

  std::size_t classify(const FiveTuple& flow) const;

  std::size_t graph_count() const noexcept { return graph_count_; }
  // Distinct mask signatures — the number a miss-path lookup is linear in.
  std::size_t tuple_count() const noexcept { return tuples_.size(); }
  std::size_t rule_count() const noexcept { return rule_count_; }

 private:
  static constexpr u32 kEmptyRank = 0xFFFFFFFFu;
  static constexpr u32 kDropCell = 0xFFFFFFFFu;

  // One slot of a tuple's table: a canonically masked key and the winning
  // rule for it. Rules sharing a (tuple, masked key) have identical match
  // predicates, so only the lowest rank is reachable and build() keeps it.
  struct Cell {
    FiveTuple key;
    u32 rank = kEmptyRank;  // kEmptyRank = empty slot
    u32 graph = 0;          // kDropCell = kCtDropGraph
  };
  static_assert(sizeof(Cell) == 24, "cells stay compact: RSS at 100k rules");

  // One distinct mask signature: what a probe reads. Port and proto masks
  // are all-ones when the signature matches the field, else zero.
  struct Tuple {
    u32 src_mask = 0;
    u32 dst_mask = 0;
    u16 src_port_mask = 0;
    u16 dst_port_mask = 0;
    u8 proto_mask = 0;
    u32 min_rank = kEmptyRank;  // walk-pruning bound over its cells
    u32 first = 0;              // offset of its run in cells_
    u32 slot_mask = 0;          // run length - 1 (a power of two)
  };

  explicit TupleSpaceClassifier(std::size_t graph_count)
      : graph_count_(graph_count == 0 ? 1 : graph_count) {}

  std::size_t clamp_graph(std::size_t g) const noexcept {
    if (g == kCtDropGraph) return g;
    return g < graph_count_ ? g : 0;
  }

  // Canonical key of `flow` under a tuple's signature: masked addresses and
  // zeroed port/proto fields the signature does not match, so a stored rule
  // and a probing packet collapse to the same key.
  static FiveTuple masked(const Tuple& tuple, const FiveTuple& flow) noexcept {
    return {flow.src_ip & tuple.src_mask, flow.dst_ip & tuple.dst_mask,
            static_cast<u16>(flow.src_port & tuple.src_port_mask),
            static_cast<u16>(flow.dst_port & tuple.dst_port_mask),
            static_cast<u8>(flow.proto & tuple.proto_mask)};
  }
  static u32 home(const Tuple& tuple, const FiveTuple& key) noexcept {
    return static_cast<u32>(hash_five_tuple(key)) & tuple.slot_mask;
  }
  // Build only: stores (rank, graph) under the rule's masked key unless a
  // lower rank already holds it.
  void insert(const Tuple& tuple, const FiveTuple& rule, u32 rank,
              std::size_t graph);
  const Cell* find(const Tuple& tuple, const FiveTuple& flow) const noexcept;
  static std::size_t verdict(const Cell& cell) noexcept {
    return cell.graph == kDropCell ? kCtDropGraph : cell.graph;
  }

  std::size_t graph_count_;
  std::size_t rule_count_ = 0;
  std::vector<Cell> cells_;    // every tuple's run, then the exact run
  Tuple exact_;                // full masks; empty when slot_mask == 0
  std::vector<Tuple> tuples_;  // sorted by ascending min_rank
  // Eligibility bitsets, `words_` u64 per row: bit t of row L is set when
  // tuple t's src (dst) mask is the /L prefix; the `any` rows hold the
  // tuples whose mask is a wildcard or non-contiguous and so always probe.
  std::size_t words_ = 0;
  std::vector<u64> src_by_len_;  // 33 rows
  std::vector<u64> dst_by_len_;
  std::vector<u64> src_any_;
  std::vector<u64> dst_any_;
  // All contiguous rule prefixes, for the staged-lookup prune. The stored
  // next-hop value is unused; only "does a prefix of length L cover this
  // address" matters (LpmTable::match_length_mask).
  LpmTable src_prefixes_;
  LpmTable dst_prefixes_;
};

// Deterministic synthetic rule set for benchmarks and stress tests: `count`
// rules cycling through ~56 mask signatures. Every rule constrains src to a
// prefix of at least /8 inside 10.0.0.0/8, so traffic from e.g. 192.168/16
// is guaranteed to miss every rule and exercise the full walk. Priorities
// collide heavily (0..15) to stress the tie-break; ~1% of rules are drop
// rules (graph == kCtDropGraph).
std::vector<CtRule> synthetic_ct_rules(std::size_t count, u64 seed,
                                       std::size_t graph_count);

}  // namespace nfp
