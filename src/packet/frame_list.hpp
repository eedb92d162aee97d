// Delivered frames, stored back to back in fixed-size blocks.
//
// A live pipeline's egress (LiveResult::outputs): a delivery is one memcpy
// into the last block plus one u32 end offset, so no frame gets a heap
// allocation of its own. A block is allocated once, by the push that does
// not fit the last one, and never moves or regrows: a span handed out
// stays valid for the list's life, and moving a list or appending one to
// another hands over whole blocks without copying a byte. One growing byte
// vector would instead copy everything delivered so far at each doubling,
// stalling its writer, and hold twice the memory while it did.
#pragma once

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "packet/packet.hpp"

namespace nfp {

class FrameList {
  struct Block {
    std::unique_ptr<u8[]> bytes;  // kBlockBytes, written front to back
    std::vector<u32> ends;        // each frame's end offset in `bytes`
    std::size_t first = 0;        // list index of the block's first frame

    u32 used() const noexcept { return ends.empty() ? 0 : ends.back(); }
    std::span<const u8> frame(std::size_t k) const noexcept {
      const u32 begin = k == 0 ? 0 : ends[k - 1];
      return {bytes.get() + begin, ends[k] - begin};
    }
  };

 public:
  static constexpr std::size_t kBlockBytes = 256 * 1024;
  // Every frame fits a fresh block, so no frame straddles two.
  static_assert(kBlockBytes >= Packet::kBufferSize);

  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;  // yields by value
    using value_type = std::span<const u8>;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    std::span<const u8> operator*() const { return block_->frame(k_); }
    Iterator& operator++() {
      if (++k_ == block_->ends.size()) {
        ++block_;
        k_ = 0;
      }
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator&, const Iterator&) = default;

   private:
    friend class FrameList;
    Iterator(const Block* block, std::size_t k) : block_(block), k_(k) {}
    const Block* block_ = nullptr;  // no block is ever empty
    std::size_t k_ = 0;
  };

  FrameList() = default;
  FrameList(FrameList&&) noexcept = default;
  FrameList& operator=(FrameList&&) noexcept = default;
  FrameList(const FrameList&) = delete;
  FrameList& operator=(const FrameList&) = delete;

  // `frame` is at most kBlockBytes long (a packet's bytes always are).
  void push(std::span<const u8> frame) {
    if (blocks_.empty() || kBlockBytes - blocks_.back().used() < frame.size()) {
      blocks_.push_back(
          {std::make_unique_for_overwrite<u8[]>(kBlockBytes), {}, size_});
    }
    Block& block = blocks_.back();
    const u32 begin = block.used();
    if (!frame.empty()) {
      std::memcpy(block.bytes.get() + begin, frame.data(), frame.size());
    }
    block.ends.push_back(begin + static_cast<u32>(frame.size()));
    ++size_;
  }

  // Moves `other`'s blocks behind this list's, leaving `other` empty.
  void append(FrameList&& other) {
    for (Block& block : other.blocks_) {
      block.first += size_;
      blocks_.push_back(std::move(block));
    }
    size_ += other.size_;
    other.blocks_.clear();
    other.size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  std::span<const u8> operator[](std::size_t i) const {
    const auto next = std::upper_bound(
        blocks_.begin(), blocks_.end(), i,
        [](std::size_t index, const Block& b) { return index < b.first; });
    const Block& block = *std::prev(next);
    return block.frame(i - block.first);
  }

  Iterator begin() const { return {blocks_.data(), 0}; }
  Iterator end() const { return {blocks_.data() + blocks_.size(), 0}; }

 private:
  std::vector<Block> blocks_;
  std::size_t size_ = 0;
};

}  // namespace nfp
