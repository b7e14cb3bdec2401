#include "gpusim/allocator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <thread>
#include <vector>

#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"

namespace mcmm::gpusim {
namespace {

TEST(Allocator, AllocateAndFree) {
  DeviceAllocator a(1024);
  void* p = a.allocate(256);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.used_bytes(), 256u);
  EXPECT_EQ(a.live_allocations(), 1u);
  a.deallocate(p);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.live_allocations(), 0u);
}

TEST(Allocator, CapacityEnforced) {
  DeviceAllocator a(1024);
  void* p = a.allocate(1000);
  EXPECT_THROW((void)a.allocate(100), OutOfMemory);
  a.deallocate(p);
  // Memory freed -> allocation succeeds now.
  void* q = a.allocate(100);
  a.deallocate(q);
}

TEST(Allocator, OutOfMemoryReportsSizes) {
  DeviceAllocator a(512);
  try {
    (void)a.allocate(1024);
    FAIL() << "expected OutOfMemory";
  } catch (const OutOfMemory& e) {
    EXPECT_EQ(e.requested(), 1024u);
    EXPECT_EQ(e.available(), 512u);
  }
}

TEST(Allocator, ExactFitSucceeds) {
  DeviceAllocator a(512);
  void* p = a.allocate(512);
  EXPECT_EQ(a.used_bytes(), 512u);
  a.deallocate(p);
}

TEST(Allocator, ZeroByteAllocationGetsUniquePointer) {
  DeviceAllocator a(1024);
  void* p = a.allocate(0);
  void* q = a.allocate(0);
  EXPECT_NE(p, nullptr);
  EXPECT_NE(p, q);
  a.deallocate(p);
  a.deallocate(q);
}

TEST(Allocator, DoubleFreeThrows) {
  DeviceAllocator a(1024);
  void* p = a.allocate(16);
  a.deallocate(p);
  EXPECT_THROW(a.deallocate(p), InvalidPointer);
}

TEST(Allocator, ForeignPointerFreeThrows) {
  DeviceAllocator a(1024);
  int local = 0;
  EXPECT_THROW(a.deallocate(&local), InvalidPointer);
}

TEST(Allocator, OwnsInteriorPointers) {
  DeviceAllocator a(1024);
  auto* p = static_cast<std::byte*>(a.allocate(64));
  EXPECT_TRUE(a.owns(p));
  EXPECT_TRUE(a.owns(p + 32));
  EXPECT_TRUE(a.owns(p + 63));
  EXPECT_FALSE(a.owns(p + 64));
  int local = 0;
  EXPECT_FALSE(a.owns(&local));
  a.deallocate(p);
  EXPECT_FALSE(a.owns(p));
}

TEST(Allocator, CheckRangeAcceptsSubranges) {
  DeviceAllocator a(1024);
  auto* p = static_cast<std::byte*>(a.allocate(64));
  EXPECT_NO_THROW(a.check_range(p, 64));
  EXPECT_NO_THROW(a.check_range(p + 16, 48));
  EXPECT_NO_THROW(a.check_range(p + 63, 1));
  a.deallocate(p);
}

TEST(Allocator, CheckRangeRejectsOverruns) {
  DeviceAllocator a(1024);
  auto* p = static_cast<std::byte*>(a.allocate(64));
  EXPECT_THROW(a.check_range(p, 65), InvalidPointer);
  EXPECT_THROW(a.check_range(p + 32, 33), InvalidPointer);
  int local = 0;
  EXPECT_THROW(a.check_range(&local, 1), InvalidPointer);
  a.deallocate(p);
}

TEST(Allocator, PeakTracksHighWater) {
  DeviceAllocator a(1024);
  void* p = a.allocate(400);
  void* q = a.allocate(300);
  a.deallocate(p);
  void* r = a.allocate(100);
  EXPECT_EQ(a.peak_bytes(), 700u);
  EXPECT_EQ(a.used_bytes(), 400u);
  a.deallocate(q);
  a.deallocate(r);
}

TEST(Allocator, FaultInjectionFailsNthAllocation) {
  DeviceAllocator a(1 << 20);
  a.set_fault_plan(FaultPlan{2});  // third allocation from now fails
  void* p = a.allocate(16);
  void* q = a.allocate(16);
  EXPECT_THROW((void)a.allocate(16), OutOfMemory);
  // Fault is one-shot.
  void* r = a.allocate(16);
  a.deallocate(p);
  a.deallocate(q);
  a.deallocate(r);
}

TEST(Allocator, FaultCountdownAdvancesOnlyOnSuccess) {
  DeviceAllocator a(1024);
  a.set_fault_plan(FaultPlan{2});
  void* p = a.allocate(100);  // success 1 of 2
  // A capacity failure must not consume the countdown: the injected fault
  // has to land on the same logical allocation regardless of interleaved
  // out-of-memory conditions.
  EXPECT_THROW((void)a.allocate(4096), OutOfMemory);
  void* q = a.allocate(100);                         // success 2 of 2
  EXPECT_THROW((void)a.allocate(100), OutOfMemory);  // injected fault
  void* r = a.allocate(100);                         // one-shot: fine again
  a.deallocate(p);
  a.deallocate(q);
  a.deallocate(r);
}

TEST(Allocator, FaultInjectionFiresExactlyOnceUnderConcurrency) {
  DeviceAllocator a(1 << 22);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  a.set_fault_plan(FaultPlan{64});  // 64 successes, then one fault
  std::atomic<int> faults{0};
  std::atomic<int> successes{0};
  std::vector<std::vector<void*>> owned(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        try {
          owned[static_cast<std::size_t>(t)].push_back(a.allocate(16));
          successes.fetch_add(1, std::memory_order_relaxed);
        } catch (const OutOfMemory&) {
          faults.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // The countdown advances under the allocator mutex and only on success,
  // so exactly one of the 256 attempts faults no matter the interleaving.
  EXPECT_EQ(faults.load(), 1);
  EXPECT_EQ(successes.load(), kThreads * kPerThread - 1);
  for (const auto& ptrs : owned) {
    for (void* p : ptrs) a.deallocate(p);
  }
}

TEST(Allocator, GuardBandsClassifyAndAttributeRanges) {
  DeviceAllocator a(4096);
  a.set_guard_bytes(32);
  auto* p = static_cast<std::byte*>(a.allocate(64, "tagged"));
  EXPECT_EQ(a.query_range(p, 64).status, RangeStatus::Ok);
  EXPECT_EQ(a.query_range(p + 63, 1).status, RangeStatus::Ok);

  const RangeQuery past = a.query_range(p + 64, 1);  // back red zone
  EXPECT_EQ(past.status, RangeStatus::OutOfBounds);
  EXPECT_EQ(past.id, 1u);
  EXPECT_EQ(past.origin, "tagged");
  EXPECT_EQ(past.offset, 64);

  const RangeQuery before = a.query_range(p - 1, 1);  // front red zone
  EXPECT_EQ(before.status, RangeStatus::OutOfBounds);
  EXPECT_EQ(before.id, 1u);

  // Straddling the end is out of bounds even though it starts inside.
  EXPECT_EQ(a.query_range(p + 32, 64).status, RangeStatus::OutOfBounds);

  int local = 0;
  EXPECT_EQ(a.query_range(&local, 4).status, RangeStatus::Unknown);
  a.deallocate(p);
}

TEST(Allocator, CanaryCorruptionDetectedAndSided) {
  DeviceAllocator a(4096);
  a.set_guard_bytes(16);
  auto* p = static_cast<std::byte*>(a.allocate(64, "victim"));
  EXPECT_TRUE(a.verify_canaries().empty());

  p[64] = std::byte{0};  // stomp the first byte past the allocation
  const std::vector<CanaryViolation> v = a.verify_canaries();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_FALSE(v[0].front);
  EXPECT_EQ(v[0].offset, 64);
  EXPECT_EQ(v[0].origin, "victim");

  p[-1] = std::byte{0};  // and one before it
  const std::vector<CanaryViolation> v2 = a.verify_canaries();
  ASSERT_EQ(v2.size(), 2u);  // both zones reported on a fresh scan
  a.deallocate(p);
  // Corruption seen at deallocate time is queued for the next scan.
  EXPECT_FALSE(a.verify_canaries().empty());
}

TEST(Allocator, QuarantineAttributesUseAfterFree) {
  DeviceAllocator a(4096);
  a.set_guard_bytes(16);
  auto* p = static_cast<std::byte*>(a.allocate(32, "freed-block"));
  a.deallocate(p);
  const RangeQuery q = a.query_range(p, 4);
  EXPECT_EQ(q.status, RangeStatus::UseAfterFree);
  EXPECT_EQ(q.id, 1u);
  EXPECT_EQ(q.origin, "freed-block");
  EXPECT_EQ(q.offset, 0);
}

TEST(Allocator, ManySmallAllocations) {
  DeviceAllocator a(1 << 20);
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) ptrs.push_back(a.allocate(64));
  EXPECT_EQ(a.live_allocations(), 1000u);
  EXPECT_EQ(a.used_bytes(), 64000u);
  for (void* p : ptrs) a.deallocate(p);
  EXPECT_EQ(a.used_bytes(), 0u);
}

// ---- backing-store recycling --------------------------------------------
// The free list is process-wide, so these tests compare counter deltas and
// use block sizes no other test allocates.

constexpr std::size_t kMin = DeviceAllocator::kRecycleMinBytes;

struct StatsDelta {
  long long recycled, fresh;
};

[[nodiscard]] StatsDelta delta_since(const BackingStats& before) {
  const BackingStats now = DeviceAllocator::backing_stats();
  return {static_cast<long long>(now.recycled - before.recycled),
          static_cast<long long>(now.fresh - before.fresh)};
}

TEST(AllocatorRecycling, SameSizeFreeThenAllocateReusesTheBlock) {
  DeviceAllocator a(std::size_t{1} << 30);
  constexpr std::size_t kBytes = (std::size_t{1} << 20) + 3 * 4096;
  void* p = a.allocate(kBytes);
  a.deallocate(p);
  const BackingStats before = DeviceAllocator::backing_stats();
  void* q = a.allocate(kBytes);
  EXPECT_EQ(q, p);  // newest same-size block first
  const StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled, 1);
  EXPECT_EQ(d.fresh, 0);
  a.deallocate(q);
}

TEST(AllocatorRecycling, OtherSizesAndSmallBlocksAreNotReused) {
  DeviceAllocator a(std::size_t{1} << 30);
  constexpr std::size_t kBytes = kMin + 5 * 4096;
  a.deallocate(a.allocate(kBytes));

  // An exact-size match only: one byte more or less is a fresh block.
  BackingStats before = DeviceAllocator::backing_stats();
  void* larger = a.allocate(kBytes + 1);
  void* smaller = a.allocate(kBytes - 1);
  StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled, 0);
  EXPECT_EQ(d.fresh, 2);
  a.deallocate(larger);
  a.deallocate(smaller);

  // Under the threshold a block neither enters nor leaves the list, and
  // is not counted at all; exactly the threshold is eligible.
  before = DeviceAllocator::backing_stats();
  a.deallocate(a.allocate(kMin - 1));
  EXPECT_EQ(DeviceAllocator::backing_stats().pooled_blocks,
            before.pooled_blocks);
  a.deallocate(a.allocate(kMin - 1));
  d = delta_since(before);
  EXPECT_EQ(d.recycled, 0);
  EXPECT_EQ(d.fresh, 0);
  a.deallocate(a.allocate(kMin));
  before = DeviceAllocator::backing_stats();
  a.deallocate(a.allocate(kMin));
  EXPECT_EQ(delta_since(before).recycled, 1);
}

TEST(AllocatorRecycling, ListNeverExceedsItsBounds) {
  DeviceAllocator a(std::size_t{8} << 30);
  constexpr std::size_t kBytes = kMin + 7 * 4096;
  constexpr std::size_t kExtra = 5;
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < DeviceAllocator::kRecycleMaxBlocks + kExtra;
       ++i) {
    ptrs.push_back(a.allocate(kBytes));
  }
  for (void* p : ptrs) a.deallocate(p);
  BackingStats s = DeviceAllocator::backing_stats();
  EXPECT_EQ(s.pooled_blocks, DeviceAllocator::kRecycleMaxBlocks);
  EXPECT_LE(s.pooled_bytes, DeviceAllocator::kRecycleMaxBytes);

  // The oldest entries went to free: only kRecycleMaxBlocks come back.
  const BackingStats before = DeviceAllocator::backing_stats();
  for (void*& p : ptrs) p = a.allocate(kBytes);
  const StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled,
            static_cast<long long>(DeviceAllocator::kRecycleMaxBlocks));
  EXPECT_EQ(d.fresh, static_cast<long long>(kExtra));
  for (void* p : ptrs) a.deallocate(p);

  // The byte bound: two half-bound blocks fill the list, so a third
  // evicts the oldest, and a block over the bound is never pooled.
  // Nothing here touches the blocks, so they cost no resident memory.
  constexpr std::size_t kHalf = DeviceAllocator::kRecycleMaxBytes / 2;
  void* h1 = a.allocate(kHalf);
  void* h2 = a.allocate(kHalf);
  void* h3 = a.allocate(kHalf);
  void* over = a.allocate(DeviceAllocator::kRecycleMaxBytes + 4096);
  for (void* p : {h1, h2, h3, over}) a.deallocate(p);
  s = DeviceAllocator::backing_stats();
  EXPECT_LE(s.pooled_bytes, DeviceAllocator::kRecycleMaxBytes);
  EXPECT_LE(s.pooled_blocks, DeviceAllocator::kRecycleMaxBlocks);
  void* again = a.allocate(DeviceAllocator::kRecycleMaxBytes + 4096);
  void* half = a.allocate(kHalf);
  EXPECT_EQ(half, h3);
  a.deallocate(again);
  a.deallocate(half);
}

TEST(AllocatorRecycling, GuardedAllocationsBypassTheList) {
  DeviceAllocator plain(std::size_t{1} << 30);
  DeviceAllocator guarded(std::size_t{1} << 30);
  guarded.set_guard_bytes(64);
  constexpr std::size_t kBytes = kMin + 9 * 4096;
  plain.deallocate(plain.allocate(kBytes));  // one pooled kBytes block

  const BackingStats before = DeviceAllocator::backing_stats();
  auto* p = static_cast<std::byte*>(guarded.allocate(kBytes, "guarded"));
  EXPECT_EQ(DeviceAllocator::backing_stats().pooled_blocks,
            before.pooled_blocks);  // did not take the pooled block
  p[kBytes] = std::byte{0};         // red zones still catch overruns
  EXPECT_EQ(guarded.verify_canaries().size(), 1u);
  guarded.deallocate(p);
  EXPECT_EQ(DeviceAllocator::backing_stats().pooled_blocks,
            before.pooled_blocks);  // went to the quarantine instead
  EXPECT_EQ(guarded.query_range(p, 8).status, RangeStatus::UseAfterFree);
  const StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled, 0);
  EXPECT_EQ(d.fresh, 0);
}

TEST(AllocatorRecycling, AccountingIsUnchanged) {
  constexpr std::size_t kBytes = kMin + 11 * 4096;
  DeviceAllocator a(2 * kBytes);
  void* first = a.allocate(kBytes);
  void* second = a.allocate(kBytes);
  a.deallocate(first);  // two pooled blocks of this size
  a.deallocate(second);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.peak_bytes(), 2 * kBytes);
  EXPECT_EQ(a.live_allocations(), 0u);

  const BackingStats before = DeviceAllocator::backing_stats();
  a.set_fault_plan(FaultPlan{1});
  void* p = a.allocate(kBytes);
  EXPECT_THROW((void)a.allocate(kBytes), OutOfMemory);  // injected
  void* q = a.allocate(kBytes);
  // Capacity still binds although a pooled block of this size may exist.
  EXPECT_THROW((void)a.allocate(kBytes), OutOfMemory);
  EXPECT_EQ(a.used_bytes(), 2 * kBytes);
  EXPECT_EQ(a.peak_bytes(), 2 * kBytes);
  EXPECT_EQ(a.live_allocations(), 2u);
  EXPECT_TRUE(a.owns(p));
  a.check_range(q, kBytes);
  EXPECT_EQ(delta_since(before).recycled, 2);
  a.deallocate(p);
  a.deallocate(q);
  EXPECT_EQ(a.used_bytes(), 0u);
  EXPECT_EQ(a.live_allocations(), 0u);
  EXPECT_FALSE(a.owns(p));
}

TEST(AllocatorRecycling, ResetDeviceBlockBacksTheNewDevice) {
  Platform& platform = Platform::instance();
  const DeviceDescriptor desc = descriptor_for(Vendor::Intel);
  constexpr std::size_t kBytes = kMin + 13 * 4096;
  // Still live when reset_device destroys its device.
  void* leaked = platform.reset_device(Vendor::Intel, desc).allocate(kBytes);

  const BackingStats before = DeviceAllocator::backing_stats();
  Device& fresh = platform.reset_device(Vendor::Intel, desc);
  void* p = fresh.allocate(kBytes);
  EXPECT_EQ(p, leaked);
  const StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled, 1);
  EXPECT_EQ(d.fresh, 0);
  EXPECT_EQ(fresh.allocator().used_bytes(), kBytes);
  fresh.deallocate(p);
  (void)platform.reset_device(Vendor::Intel, desc);
}

TEST(AllocatorRecycling, ConcurrentAllocFreeStress) {
  // Four threads share one allocator and, through the free list, the
  // backing stores of a second one. Each block is stamped with its owner
  // while live; a block handed out twice would show a foreign stamp.
  DeviceAllocator shared(std::size_t{1} << 30);
  DeviceAllocator other(std::size_t{1} << 30);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  constexpr std::size_t kSizes[] = {kMin + 15 * 4096, kMin + 17 * 4096, 512};
  std::atomic<int> bad{0};
  const BackingStats before = DeviceAllocator::backing_stats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        DeviceAllocator& alloc = (i % 3 == 0) ? other : shared;
        const std::size_t bytes = kSizes[(i + t) % 3];
        auto* p = static_cast<unsigned char*>(alloc.allocate(bytes));
        std::memset(p, t + 1, 64);
        std::memset(p + bytes - 64, t + 1, 64);
        std::this_thread::yield();
        if (p[0] != t + 1 || p[bytes - 1] != t + 1) bad.fetch_add(1);
        alloc.deallocate(p);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(shared.used_bytes(), 0u);
  EXPECT_EQ(shared.live_allocations(), 0u);
  EXPECT_EQ(other.live_allocations(), 0u);
  // Two of every three allocations are eligible; each is recycled or
  // fresh, never both.
  const StatsDelta d = delta_since(before);
  EXPECT_EQ(d.recycled + d.fresh, kThreads * kIters * 2 / 3);
  EXPECT_GT(d.recycled, 0);
  const BackingStats s = DeviceAllocator::backing_stats();
  EXPECT_LE(s.pooled_blocks, DeviceAllocator::kRecycleMaxBlocks);
  EXPECT_LE(s.pooled_bytes, DeviceAllocator::kRecycleMaxBytes);
}

}  // namespace
}  // namespace mcmm::gpusim
