// The StateTable's byte budget (SearchLimits::memo_budget_bytes): a strict
// ceiling on the accounted footprint, and an honest "not exhausted" from
// the search when the ceiling bites.
//
// An insert that would overflow the budget stores nothing and answers
// kOverBudget; the engine then ends the search non-exhausted, exactly like
// a max_states overflow, so a too-small budget can never masquerade as a
// proof of safety. CI runs this suite under ThreadSanitizer (the
// MemoBudget* filter in ci.yml) alongside the StateTable suite.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "analysis/deadlock_search.hpp"
#include "analysis/state_table.hpp"
#include "core/cyclic_family.hpp"

namespace wormsim::analysis {
namespace {

using Lookup = StateTable::Lookup;

std::string le64(std::uint64_t w) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &w, 8);
  return out;
}

TEST(MemoBudget, BudgetIsAStrictCeiling) {
  // Generous enough for the empty table, far too small for thousands of
  // 64-byte keys: inserts must start failing with kOverBudget, and the
  // accounted footprint must never exceed the cap (the charge loop either
  // reserves the bytes or stores nothing).
  constexpr std::uint64_t kBudget = 16 * 1024;
  StateTable table(StateTable::Config{1, kBudget});
  bool overflowed = false;
  for (int i = 0; i < 4096; ++i) {
    std::string key(56, static_cast<char>('a' + (i % 26)));
    key += le64(static_cast<std::uint64_t>(i));
    const Lookup verdict = table.lookup_or_insert(key);
    ASSERT_LE(table.resident_bytes(), kBudget);
    if (verdict == Lookup::kOverBudget) {
      overflowed = true;
      break;
    }
    ASSERT_EQ(verdict, Lookup::kFresh);
  }
  EXPECT_TRUE(overflowed);
  EXPECT_GT(table.resident_bytes(), 0u);
}

TEST(MemoBudget, BudgetBelowBaselineFailsEveryInsert) {
  // A budget smaller than the empty table's arrays is reported honestly:
  // every insert needs arena bytes it cannot charge, so it is kOverBudget
  // and nothing pretends to be recorded.
  StateTable table(StateTable::Config{1, 64});
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.size(), 0u);
}

// --- Engine level ----------------------------------------------------------

TEST(MemoBudget, OverflowReportsNonExhausted) {
  // A too-small byte budget must surface as "ran out of room", never as a
  // fake proof of safety — mirroring the max_states contract.
  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.memo_budget_bytes = 24 * 1024;
  const auto result = find_deadlock(family.algorithm(),
                                    family.message_specs(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_FALSE(result.exhausted);
  EXPECT_GT(result.profile.table_peak_resident_bytes, 0u);
  EXPECT_LE(result.profile.table_peak_resident_bytes,
            limits.memo_budget_bytes);
}

TEST(MemoBudget, GenerousBudgetStaysExhaustive) {
  const core::CyclicFamily family(core::fig1_spec());
  SearchLimits limits;
  limits.memo_budget_bytes = 256ull * 1024 * 1024;
  const auto result = find_deadlock(family.algorithm(),
                                    family.message_specs(),
                                    AdversaryModel::kSynchronous, limits);
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.profile.table_peak_resident_bytes, 0u);
  EXPECT_LE(result.profile.table_peak_resident_bytes,
            limits.memo_budget_bytes);
}

}  // namespace
}  // namespace wormsim::analysis
