// The /proc-backed memory probes behind the out-of-core budget
// accounting (common/memprobe.h). The contract is deliberately loose —
// the probes may be unavailable (non-Linux, locked-down /proc) and then
// report 0 — so every test first checks availability and only then
// asserts the Linux behavior.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/memprobe.h"

namespace kf {
namespace {

/// Touches `bytes` of fresh heap so the allocation is actually resident
/// (RSS counts touched pages, not reservations). Returns the buffer so
/// the optimizer cannot drop the allocation.
std::unique_ptr<std::vector<char>> TouchBytes(size_t bytes) {
  auto buf = std::make_unique<std::vector<char>>(bytes);
  std::memset(buf->data(), 0x5a, bytes);
  return buf;
}

TEST(MemprobeTest, CurrentRssIsPositiveWhenAvailable) {
  const size_t rss = CurrentRssBytes();
  if (rss == 0) GTEST_SKIP() << "/proc RSS probe unavailable";
  // A running test binary holds at least a megabyte.
  EXPECT_GT(rss, 1u << 20);
}

TEST(MemprobeTest, PeakIsAtLeastCurrent) {
  const size_t current = CurrentRssBytes();
  const size_t peak = PeakRssBytes();
  if (current == 0 || peak == 0) GTEST_SKIP() << "probe unavailable";
  EXPECT_GE(peak, current);
}

TEST(MemprobeTest, PeakGrowsAcrossALargeAllocation) {
  if (PeakRssBytes() == 0) GTEST_SKIP() << "probe unavailable";
  const size_t before = PeakRssBytes();
  auto buf = TouchBytes(64u << 20);
  const size_t after = PeakRssBytes();
  // The high-water mark must have moved by a substantial part of the
  // 64 MiB (not all: pages already free in the heap may be reused).
  EXPECT_GE(after, before + (32u << 20));
}

TEST(MemprobeTest, TrackerReportsAPhasePeak) {
  PeakRssTracker tracker;
  auto buf = TouchBytes(48u << 20);
  tracker.Sample();
  const size_t peak = tracker.PeakBytes();
  if (peak == 0) GTEST_SKIP() << "no RSS probe works here";
  // Whichever probe backs the tracker, the phase peak must cover the
  // resident allocation made inside the phase.
  EXPECT_GE(peak, 48u << 20);
}

TEST(MemprobeTest, TrackerSampleIsMonotone) {
  PeakRssTracker tracker;
  tracker.Sample();
  const size_t first = tracker.PeakBytes();
  auto buf = TouchBytes(32u << 20);
  tracker.Sample();
  EXPECT_GE(tracker.PeakBytes(), first);
}

TEST(MemprobeTest, ResetPeakRebasesTheHighWater) {
  // After a large allocation is freed, a successful reset must bring
  // the reported peak down below the old high-water. The block is an
  // anonymous mapping returned with munmap, not heap: a sanitizer
  // allocator's quarantine would keep a freed heap block resident and
  // the rebased peak would never drop.
  const size_t inflated = [] {
    constexpr size_t kBytes = 96u << 20;
    void* block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) return size_t{0};
    std::memset(block, 0x5a, kBytes);
    const size_t peak = PeakRssBytes();
    munmap(block, kBytes);
    return peak;
  }();
  if (inflated == 0) GTEST_SKIP() << "probe unavailable";
  if (!ResetPeakRss()) GTEST_SKIP() << "clear_refs unsupported";
  const size_t rebased = PeakRssBytes();
  ASSERT_NE(rebased, 0u);
  EXPECT_LT(rebased, inflated);
}

}  // namespace
}  // namespace kf
