// Access control list: first-match rule evaluation over the 5-tuple.
//
// Substrate for the Firewall NF (paper §6.1: "passes or drops packets
// according to the Access Control List (ACL) containing 100 rules",
// similar to the Click IPFilter element).
//
// Where Click compiles IPFilter into a decision tree, AclTable compiles its
// rules into the bit-vector classifier of Lakshman & Stiliadis (SIGCOMM
// '98). Each range field (source/destination address and port) is cut at
// the rules' bounds into elementary intervals, each with a bitmap holding
// bit i iff rule i covers it; the protocol has a bitmap per value. A lookup
// does four binary searches, ANDs five ⌈N/64⌉-word bitmaps and takes the
// lowest set bit, the first match; no set bit means the default action.
// Exact, since no interval straddles a rule's bound. Prefix lengths past 32
// read as /32 and an empty port range (lo > hi) matches nothing, as in
// AclRule::matches.
//
// With B <= 2N + 1 intervals per field, a lookup is O(log B + N/64) and a
// build O(N log N + N/64 · (4B + 256)). The index is built by the
// constructors and rebuilt by add(); evaluate() keeps no lazy state, and a
// copy carries the index. Memory, 8 · ⌈N/64⌉ · (ΣB + 256) + 4 · ΣB bytes,
// grows as N²: at most ~20 KB at 100 rules and ~1.1 MB at 1,000.
#pragma once

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace nfp {

enum class AclAction : u8 { kPass, kDrop };

struct AclRule {
  u32 src_prefix = 0;
  u8 src_prefix_len = 0;  // 0 = any
  u32 dst_prefix = 0;
  u8 dst_prefix_len = 0;
  u16 src_port_lo = 0;
  u16 src_port_hi = 0xffff;
  u16 dst_port_lo = 0;
  u16 dst_port_hi = 0xffff;
  std::optional<u8> proto;  // nullopt = any
  AclAction action = AclAction::kPass;

  // The definition of a match, checked field by field.
  bool matches(const FiveTuple& t) const noexcept;
};

class AclTable {
 public:
  AclTable() = default;
  explicit AclTable(std::vector<AclRule> rules, AclAction default_action);

  // Appends a rule below every earlier one and rebuilds the index.
  void add(AclRule rule);
  void set_default_action(AclAction action) { default_action_ = action; }

  // First matching rule wins; the default action applies otherwise.
  AclAction evaluate(const FiveTuple& t) const noexcept;

  std::size_t size() const noexcept { return rules_.size(); }
  const std::vector<AclRule>& rules() const noexcept { return rules_; }

  // Bytes of bounds and bitmaps in the compiled index.
  std::size_t index_bytes() const noexcept;

  // Deterministic synthetic ACL in the spirit of the paper's evaluation:
  // `count` rules, a `drop_fraction` of which drop, default pass.
  static AclTable with_synthetic_rules(std::size_t count,
                                       double drop_fraction = 0.5,
                                       u64 seed = 2);

 private:
  // One range field: interval k is [bounds[k], bounds[k + 1]), bounds[0]
  // is 0, and row k of `bits` (words_ words) holds the rules covering it.
  struct Field {
    std::vector<u32> bounds;
    std::vector<u64> bits;

    // `ranges[i]` is rule i's inclusive range within [0, top].
    void compile(const std::vector<std::pair<u32, u32>>& ranges, u32 top,
                 std::size_t words);
    const u64* row(u32 value, std::size_t words) const noexcept;
  };

  void build();

  std::vector<AclRule> rules_;
  AclAction default_action_ = AclAction::kPass;
  std::size_t words_ = 0;        // ⌈rules / 64⌉: the width of every bitmap
  std::array<Field, 4> fields_;  // src ip, dst ip, src port, dst port
  std::vector<u64> proto_bits_;  // 256 rows, one per protocol value
};

}  // namespace nfp
