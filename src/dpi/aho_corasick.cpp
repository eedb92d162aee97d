#include "dpi/aho_corasick.hpp"

#include <algorithm>
#include <stdexcept>

namespace nfp {

namespace {

constexpr u32 kNoEdge = ~u32{0};  // trie edge not (yet) present

}  // namespace

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns) {
  // Byte classes: one per byte that occurs in a pattern, in byte order,
  // after one shared class 0 for all other bytes when any remain.
  std::array<bool, 256> used{};
  std::size_t max_states = 1;
  for (const std::string& pattern : patterns) {
    for (const char c : pattern) used[static_cast<u8>(c)] = true;
    max_states += pattern.size();
  }
  classes_ = std::find(used.begin(), used.end(), false) != used.end() ? 1 : 0;
  for (std::size_t b = 0; b < 256; ++b) {
    class_of_[b] = used[b] ? static_cast<u8>(classes_++) : u8{0};
  }
  if (max_states * classes_ > kMatch) {
    throw std::length_error("AhoCorasick: patterns overflow the row offsets");
  }

  // Phase 1: trie over class columns. Entries hold target state indices
  // until phase 3; `outputs[s]` starts as the ids of patterns ending at s.
  std::vector<std::vector<u32>> outputs(1);
  table_.assign(classes_, kNoEdge);
  for (std::size_t id = 0; id < patterns.size(); ++id) {
    if (patterns[id].empty()) continue;
    std::size_t state = 0;
    for (const char c : patterns[id]) {
      const std::size_t edge = state * classes_ + class_of_[static_cast<u8>(c)];
      if (table_[edge] == kNoEdge) {
        table_[edge] = static_cast<u32>(outputs.size());
        outputs.emplace_back();
        table_.resize(table_.size() + classes_, kNoEdge);
      }
      state = table_[edge];
    }
    outputs[state].push_back(static_cast<u32>(id));
    ++pattern_count_;
  }

  // Phase 2: BFS fail links. A state's fail state is shallower, so its row
  // is already complete when the state is reached: missing edges copy it,
  // and the state's outputs gain the fail state's (its fail chain's) ids.
  std::vector<u32> fail(outputs.size(), 0);
  std::vector<u32> queue;
  queue.reserve(outputs.size());
  for (u32 c = 0; c < classes_; ++c) {
    if (table_[c] == kNoEdge) {
      table_[c] = 0;
    } else {
      queue.push_back(table_[c]);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const u32 state = queue[head];
    const u32 f = fail[state];
    outputs[state].insert(outputs[state].end(), outputs[f].begin(),
                          outputs[f].end());
    u32* row = &table_[std::size_t{state} * classes_];
    const u32* fail_row = &table_[std::size_t{f} * classes_];
    for (u32 c = 0; c < classes_; ++c) {
      if (row[c] == kNoEdge) {
        row[c] = fail_row[c];
      } else {
        fail[row[c]] = fail_row[c];
        queue.push_back(row[c]);
      }
    }
  }

  // Phase 3: final encoding — row offsets with match bits, CSR outputs, and
  // the bytes the root skips.
  out_begin_.reserve(outputs.size() + 1);
  out_begin_.push_back(0);
  for (const std::vector<u32>& ids : outputs) {
    out_ids_.insert(out_ids_.end(), ids.begin(), ids.end());
    out_begin_.push_back(static_cast<u32>(out_ids_.size()));
  }
  for (u32& entry : table_) {
    entry = entry * classes_ | (outputs[entry].empty() ? 0 : kMatch);
  }
  for (std::size_t b = 0; b < 256; ++b) {
    root_stays_[b] = table_[class_of_[b]] == 0;
  }
}

template <typename OnMatch>
bool AhoCorasick::scan(std::span<const u8> text, OnMatch on_match) const {
  const u32* table = table_.data();
  const u8* t = text.data();
  const std::size_t n = text.size();
  const auto stays = [this, t](std::size_t i) { return root_stays_[t[i]]; };
  u32 row = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (row == 0) {
      // Eight skipped bytes per branch, then single bytes up to the first
      // byte that leaves the root.
      while (i + 8 <= n && (stays(i) & stays(i + 1) & stays(i + 2) &
                            stays(i + 3) & stays(i + 4) & stays(i + 5) &
                            stays(i + 6) & stays(i + 7))) {
        i += 8;
      }
      while (i < n && stays(i)) ++i;
      if (i == n) break;
    }
    row = table[row + class_of_[t[i]]];
    if ((row & kMatch) != 0) {
      row &= ~kMatch;
      if (on_match(row)) return true;
    }
  }
  return false;
}

bool AhoCorasick::contains(std::span<const u8> text) const noexcept {
  return scan(text, [](u32) { return true; });
}

std::vector<std::size_t> AhoCorasick::find_all(
    std::span<const u8> text) const {
  std::vector<std::size_t> hits;
  scan(text, [&](u32 row) {
    const std::size_t state = row / classes_;
    hits.insert(hits.end(), out_ids_.begin() + out_begin_[state],
                out_ids_.begin() + out_begin_[state + 1]);
    return false;
  });
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

}  // namespace nfp
