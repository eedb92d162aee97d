// Aho–Corasick multi-pattern matcher, laid out as a compact DFA.
//
// Substrate for signature-based deep packet inspection: matches all
// signatures in a single pass over the payload, the way Snort's core
// matcher works (vs the naive per-signature scan). Used by the IDS/IPS NFs
// and benchmarked against the naive scan in bench_micro_components.
//
// Layout. A 256-entry map sends each byte to a class: every byte that occurs
// in some pattern has its own class, and all other bytes share one, so 100
// A–Z signatures need 27 classes. The automaton is one flat u32 array with
// a row per state and a column per class. An entry holds the target state's
// row offset (state × classes, premultiplied) plus a match bit, set when a
// pattern ends at the target state or on its fail chain. contains() thus
// costs one dependent load and one add per byte, over a table that for
// 100 IDS signatures (839 states × 27 classes) is 90 KB. find_all() reads
// the ids matched at each state (its own and its fail chain's) from one
// flat CSR array. The build works on class columns throughout and never
// makes a 256-wide row.
//
// Root skip. While the automaton is at the root, bytes whose root transition
// stays at the root are stepped over, one independent load each, without
// entering the dependent chain. Payloads that rarely start a signature
// spend most of their bytes there.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nfp {

class AhoCorasick {
 public:
  // Builds the automaton over `patterns` (indices into this vector are the
  // pattern ids reported by find_all). Empty patterns are ignored.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  // Returns true iff any pattern occurs in `text`.
  bool contains(std::span<const u8> text) const noexcept;

  // Returns the ids of all patterns occurring in `text` (deduplicated,
  // ascending).
  std::vector<std::size_t> find_all(std::span<const u8> text) const;

  std::size_t pattern_count() const noexcept { return pattern_count_; }
  std::size_t node_count() const noexcept { return table_.size() / classes_; }

 private:
  static constexpr u32 kMatch = 1u << 31;

  // Runs the automaton over `text` and calls on_match(row offset) wherever
  // a pattern ends; stops, returning true, once on_match returns true.
  template <typename OnMatch>
  bool scan(std::span<const u8> text, OnMatch on_match) const;

  std::array<u8, 256> class_of_{};
  std::array<bool, 256> root_stays_{};
  u32 classes_ = 0;
  std::vector<u32> table_;      // states × classes: row offset | kMatch
  std::vector<u32> out_begin_;  // state s owns out_ids_[out_begin_[s], [s+1])
  std::vector<u32> out_ids_;
  std::size_t pattern_count_ = 0;
};

}  // namespace nfp
