// Allocation guard for the deadlock search's hot loop. The engine reuses
// one simulator slot per live DFS level, keeps popped frames constructed
// (their request lists, odometers and assignment buffers stay warm) and
// swaps assignments between frames instead of copying them, so a warm
// search should allocate almost nothing per expanded state. A replaced
// global operator new counts every allocation made while the Figure-1 x2
// proof runs; a regression that reintroduces a per-state or per-transition
// allocation shows up as a ratio near or above 1.
//
// Lives in its own executable because the counting operator new is global.
// Skipped under sanitizers (they interpose the allocator) and in builds
// without NDEBUG, whose debug-only key cross-check allocates per state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "core/cyclic_family.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace wormsim::analysis {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kDebugChecks = false;
#else
constexpr bool kDebugChecks = true;
#endif

TEST(SearchAllocations, Fig1x2ProofAllocatesAlmostNothingPerState) {
  if (kSanitized) GTEST_SKIP() << "sanitizers interpose operator new";
  if (kDebugChecks) GTEST_SKIP() << "debug key cross-checks allocate";

  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs(base.begin(), base.end());
  specs.insert(specs.end(), base.begin(), base.end());
  SearchLimits limits;
  limits.build_witness = false;  // reduction off, one thread: the defaults

  const std::uint64_t before = g_allocations.load();
  const DeadlockSearchResult result = find_deadlock(
      family.algorithm(), specs, AdversaryModel::kSynchronous, limits);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_FALSE(result.deadlock_found);
  ASSERT_TRUE(result.exhausted);
  ASSERT_EQ(result.states_explored, 86016u);
  const double per_state = static_cast<double>(allocations) /
                           static_cast<double>(result.states_explored);
  // The search made 5.2 allocations per expanded state before simulator
  // slots and frame reuse, and measures 0.016 with them (about 1.4k in
  // total: memo-table growth and the first visit of each DFS depth). The
  // bound leaves 3x headroom over that.
  EXPECT_LT(per_state, 0.05) << allocations << " allocations";
  std::printf("[ alloc    ] %llu allocations, %.4f per expanded state\n",
              static_cast<unsigned long long>(allocations), per_state);
}

}  // namespace
}  // namespace wormsim::analysis
