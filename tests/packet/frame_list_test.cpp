// Tests for FrameList, the block store behind LiveResult::outputs: frame
// bytes and order survive every size up to a full packet buffer, block
// boundaries (an exact fill, a frame that does not fit the remainder),
// indexing against iteration, and append; and no frame's bytes move when
// a list is appended or moved (the sharded drain copies no byte).
#include <gtest/gtest.h>

#include <iterator>
#include <type_traits>
#include <vector>

#include "packet/frame_list.hpp"

namespace nfp {
namespace {

static_assert(std::forward_iterator<FrameList::Iterator>);
static_assert(!std::is_copy_constructible_v<FrameList>);
static_assert(std::is_nothrow_move_constructible_v<FrameList>);

// A frame of `len` bytes whose content identifies it.
std::vector<u8> make_frame(std::size_t len, std::size_t seed) {
  std::vector<u8> frame(len);
  for (std::size_t i = 0; i < len; ++i) {
    frame[i] = static_cast<u8>(seed * 31 + i * 7);
  }
  return frame;
}

std::vector<u8> bytes_of(std::span<const u8> frame) {
  return {frame.begin(), frame.end()};
}

void push_all(FrameList& list, const std::vector<std::vector<u8>>& frames) {
  for (const auto& frame : frames) list.push(frame);
}

// Checks `list` against `expected` through both operator[] and iteration.
void expect_frames(const FrameList& list,
                   const std::vector<std::vector<u8>>& expected) {
  ASSERT_EQ(list.size(), expected.size());
  EXPECT_EQ(list.empty(), expected.empty());
  std::size_t i = 0;
  for (const std::span<const u8> frame : list) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(bytes_of(frame), expected[i]) << "iterated frame " << i;
    EXPECT_EQ(bytes_of(list[i]), expected[i]) << "indexed frame " << i;
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

// Sizes from empty to a whole packet buffer, in mixed order.
std::vector<std::vector<u8>> mixed_frames(std::size_t count,
                                          std::size_t seed = 0) {
  constexpr std::size_t kSizes[] = {724, 0,    64, Packet::kBufferSize,
                                    1,   1500, 60, 64};
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < count; ++i) {
    frames.push_back(make_frame(kSizes[i % std::size(kSizes)], seed + i));
  }
  return frames;
}

TEST(FrameList, EmptyListHasNoFrames) {
  FrameList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.begin() == list.end());

  FrameList other;
  list.append(std::move(other));
  EXPECT_TRUE(list.empty());
  EXPECT_TRUE(list.begin() == list.end());
}

TEST(FrameList, KeepsBytesAndOrderOfMixedSizes) {
  const auto frames = mixed_frames(15);
  FrameList list;
  push_all(list, frames);
  expect_frames(list, frames);
}

TEST(FrameList, ManyBlocksIndexAgreesWithIteration) {
  // ~1.7 MB of mixed frames: several blocks.
  const auto frames = mixed_frames(3'000);
  FrameList list;
  push_all(list, frames);
  expect_frames(list, frames);
}

TEST(FrameList, ExactBlockFillThenNewBlock) {
  constexpr std::size_t kPerBlock =
      FrameList::kBlockBytes / Packet::kBufferSize;
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i <= kPerBlock; ++i) {
    frames.push_back(make_frame(Packet::kBufferSize, i));
  }
  FrameList list;
  push_all(list, frames);
  expect_frames(list, frames);
  // Within a block frames lie back to back; the frame after the exact fill
  // opens the next block.
  for (std::size_t i = 1; i < kPerBlock; ++i) {
    EXPECT_EQ(list[i].data(), list[i - 1].data() + Packet::kBufferSize);
  }
  EXPECT_NE(list[kPerBlock].data(),
            list[kPerBlock - 1].data() + Packet::kBufferSize);
}

TEST(FrameList, FrameThatDoesNotFitTheRemainderOpensANewBlock) {
  constexpr std::size_t kFull = FrameList::kBlockBytes / 1500;  // 174 frames
  constexpr std::size_t kRemainder = FrameList::kBlockBytes - kFull * 1500;
  static_assert(kRemainder > 0 && kRemainder < 1500);
  std::vector<std::vector<u8>> frames;
  for (std::size_t i = 0; i < kFull; ++i) {
    frames.push_back(make_frame(1500, i));
  }
  frames.push_back(make_frame(kRemainder + 1, kFull));
  frames.push_back(make_frame(kRemainder, kFull + 1));  // fits the new block
  FrameList list;
  push_all(list, frames);
  expect_frames(list, frames);
  EXPECT_NE(list[kFull].data(), list[kFull - 1].data() + 1500);
  EXPECT_EQ(list[kFull + 1].data(), list[kFull].data() + kRemainder + 1);
}

TEST(FrameList, AppendKeepsOrderAndEmptiesItsSource) {
  const auto head = mixed_frames(700);
  const auto tail = mixed_frames(900, 5'000);
  FrameList list;
  push_all(list, head);
  FrameList other;
  push_all(other, tail);
  list.append(std::move(other));

  std::vector<std::vector<u8>> expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  expect_frames(list, expected);
  EXPECT_TRUE(other.empty());
  EXPECT_EQ(other.size(), 0u);
  EXPECT_TRUE(other.begin() == other.end());

  // The emptied source is a usable list, and the appended one keeps
  // taking frames behind the appended blocks.
  other.push(head[0]);
  expect_frames(other, {head[0]});
  list.push(tail[0]);
  expected.push_back(tail[0]);
  expect_frames(list, expected);
}

TEST(FrameList, AppendAndMoveCopyNoFrameBytes) {
  FrameList head;
  push_all(head, mixed_frames(400));
  FrameList tail;
  push_all(tail, mixed_frames(600, 9'000));
  std::vector<const u8*> where;
  for (const std::span<const u8> frame : head) where.push_back(frame.data());
  for (const std::span<const u8> frame : tail) where.push_back(frame.data());

  head.append(std::move(tail));
  ASSERT_EQ(head.size(), where.size());
  for (std::size_t i = 0; i < where.size(); ++i) {
    EXPECT_EQ(head[i].data(), where[i]) << "frame " << i << " after append";
  }

  FrameList moved(std::move(head));
  FrameList assigned;
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), where.size());
  std::size_t i = 0;
  for (const std::span<const u8> frame : assigned) {
    EXPECT_EQ(frame.data(), where[i]) << "frame " << i << " after move";
    ++i;
  }
}

}  // namespace
}  // namespace nfp
