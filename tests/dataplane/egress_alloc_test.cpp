// Pins "no heap allocation per delivered frame" on the live hot path.
//
// This file replaces every global operator new and delete for the whole
// test binary with malloc and free, counting the news made on the calling
// thread while that thread's counting switch is on. All twenty forms are
// replaced so that every allocation and its release meet in one allocator
// (a sanitizer that tracks operator new apart from malloc sees only
// malloc/free pairs). Every other thread, and this one with the switch
// off, allocates exactly as before.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "dataplane/live_pipeline.hpp"
#include "orch/compiler.hpp"
#include "packet/builder.hpp"
#include "policy/policy.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

// Null when out of memory.
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  return align > alignof(std::max_align_t)
             ? std::aligned_alloc(align, (size + align - 1) / align * align)
             : std::malloc(size);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n, kPlain); }
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nfp {
namespace {

// Counts operator new calls made by this thread while it is in scope.
class AllocationCount {
 public:
  AllocationCount() {
    t_allocations = 0;
    t_counting = true;
  }
  ~AllocationCount() { t_counting = false; }
  std::size_t value() const { return t_allocations; }
};

TEST(RtcExecutor, DeliversWithoutAHeapAllocationPerFrame) {
  // A parallel segment with a header copy (IDS || monitor || LB) that
  // passes every frame, fed 64-B frames of 16 flows.
  constexpr std::size_t kFrames = 10'000;
  const ActionTable table = ActionTable::with_builtin_nfs();
  auto graph = compile_policy(
      Policy::from_sequential_chain("egress", {"ids", "monitor", "lb"}),
      table);
  ASSERT_TRUE(graph.is_ok()) << graph.error();
  std::vector<std::vector<u8>> frames;
  PacketPool pool(2);
  for (std::size_t i = 0; i < 16; ++i) {
    PacketSpec spec;
    spec.tuple = FiveTuple{0x0A000001, 0x0A640001,
                           static_cast<u16>(20'000 + i), 80, kProtoTcp};
    spec.frame_size = 64;
    Packet* p = build_packet(pool, spec);
    frames.emplace_back(p->data(), p->data() + p->length());
    pool.release(p);
  }

  // The pipeline runs each fed frame on this thread.
  LivePipeline pipe(std::move(graph).take());
  ASSERT_TRUE(pipe.start().is_ok());
  std::size_t allocations = 0;
  {
    const AllocationCount count;
    for (std::size_t i = 0; i < kFrames; ++i) {
      pipe.feed(frames[i % frames.size()]);
    }
    allocations = count.value();
  }
  const LiveResult res = pipe.drain();
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_EQ(res.outputs.size(), kFrames);
  EXPECT_LT(allocations, kFrames / 100)
      << allocations << " heap allocations for " << kFrames << " frames";
}

}  // namespace
}  // namespace nfp
