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
// without NDEBUG: the bound is stated for the optimized engine.
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

/// Runs one search and returns the allocations it made, after checking the
/// verdict and state count it must reproduce.
std::uint64_t search_allocations(const core::CyclicFamily& family,
                                 const std::vector<sim::MessageSpec>& specs,
                                 AdversaryModel model,
                                 const SearchLimits& limits, bool deadlock,
                                 std::uint64_t states) {
  const std::uint64_t before = g_allocations.load();
  const DeadlockSearchResult result =
      find_deadlock(family.algorithm(), specs, model, limits);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(result.deadlock_found, deadlock);
  if (!deadlock) {
    EXPECT_TRUE(result.exhausted);
  }
  EXPECT_EQ(result.states_explored, states);
  std::printf("[ alloc    ] %llu allocations over %llu states\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(result.states_explored));
  return allocations;
}

double ratio(std::uint64_t allocations, std::uint64_t states) {
  return static_cast<double>(allocations) / static_cast<double>(states);
}

// The search made 5.2 allocations per expanded state before simulator slots
// and frame reuse, and measures 0.016 with them on Fig 1 x2 (about 1.4k in
// total: memo-table growth and the first visit of each DFS depth). The
// 0.05 bound leaves 3x headroom over that, and fails if the state key or
// the memo arena allocates once per state.

TEST(SearchAllocations, Fig1x2ProofAllocatesAlmostNothingPerState) {
  if (kSanitized) GTEST_SKIP() << "sanitizers interpose operator new";
  if (kDebugChecks) GTEST_SKIP() << "debug builds are not the measured case";

  const core::CyclicFamily family(core::fig1_spec());
  const auto base = family.message_specs();
  std::vector<sim::MessageSpec> specs(base.begin(), base.end());
  specs.insert(specs.end(), base.begin(), base.end());
  SearchLimits limits;
  limits.build_witness = false;  // reduction off, one thread: the defaults
  EXPECT_LT(ratio(search_allocations(family, specs,
                                     AdversaryModel::kSynchronous, limits,
                                     false, 86016),
                  86016),
            0.05);
}

TEST(SearchAllocations, Fig1Delay3SearchAllocatesAlmostNothingPerState) {
  // The bounded-delay key carries the spent-delay suffix, and this search
  // ends in a deadlock that is replayed into a witness. Its warm-up alone
  // (about a thousand allocations: a simulator slot and a frame per DFS
  // depth) exceeds 0.05 x 7,498, so the bound applies to what the states
  // beyond the same instance at budget 0 (1,140 states, exhausted) cost.
  if (kSanitized) GTEST_SKIP() << "sanitizers interpose operator new";
  if (kDebugChecks) GTEST_SKIP() << "debug builds are not the measured case";

  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.build_witness = false;
  const std::uint64_t warm_up =
      search_allocations(family, family.message_specs(),
                         AdversaryModel::kBoundedDelay, limits, false, 1140);
  limits.delay_budget = 3;
  const std::uint64_t full =
      search_allocations(family, family.message_specs(),
                         AdversaryModel::kBoundedDelay, limits, true, 7498);
  ASSERT_GE(full, warm_up);
  EXPECT_LT(ratio(full - warm_up, 7498 - 1140), 0.05);
}

TEST(SearchAllocations, SkewedTreeProofAllocatesAlmostNothingPerState) {
  if (kSanitized) GTEST_SKIP() << "sanitizers interpose operator new";
  if (kDebugChecks) GTEST_SKIP() << "debug builds are not the measured case";

  // Fig 1 plus three hold=1 stubs: the bench_search skewed tree.
  core::CyclicFamilySpec spec = core::fig1_spec();
  for (int i = 0; i < 3; ++i) spec.messages.push_back({2, 1, true});
  const core::CyclicFamily family(spec);
  SearchLimits limits;
  limits.build_witness = false;
  EXPECT_LT(ratio(search_allocations(family, family.message_specs(),
                                     AdversaryModel::kSynchronous, limits,
                                     false, 29716),
                  29716),
            0.05);
}

}  // namespace
}  // namespace wormsim::analysis
