// Two-tier StateTable (probation fingerprints + exact promotion) and the
// byte-budget cap: the soundness corners.
//
// The dangerous failure mode of fingerprint memoization is a false "seen"
// verdict on a 64-bit collision — that would silently prune a reachable
// subtree and turn "exhausted" into a lie. The table's contract
// (state_table.hpp) is that a fingerprint-only match NEVER prunes: the
// caller gets kReexplore, the full key is promoted to the exact tier, and
// only a byte-for-byte exact match returns kSeen. These tests force
// collisions two ways — real ones (two different keys with equal
// hash_bytes digests, built by inverting the fmix64 finalizer and the
// lane-FNV multiply) and
// injected ones (distinct keys passed with the same precomputed hash, the
// exact call shape the search engine uses) — and pin the verdict sequence.
//
// CI runs this suite under ThreadSanitizer (the Probation* filter in
// ci.yml) since promotion mutates both tiers under the stripe lock.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "analysis/deadlock_search.hpp"
#include "analysis/state_table.hpp"
#include "core/cyclic_family.hpp"

namespace wormsim::analysis {
namespace {

using Lookup = StateTable::Lookup;

StateTable::Config probation_config(std::uint64_t budget = 0) {
  StateTable::Config config;
  config.stripes = 1;
  config.probation = true;
  config.budget_bytes = budget;
  return config;
}

std::string le64(std::uint64_t w) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &w, 8);
  return out;
}

/// Multiplicative inverse of an odd constant mod 2^64 (Newton iteration:
/// each step doubles the valid low bits; five steps from an odd seed
/// cover all 64).
constexpr std::uint64_t inverse_of(std::uint64_t odd) {
  std::uint64_t inv = odd;
  for (int i = 0; i < 5; ++i) inv *= 2 - odd * inv;
  return inv;
}

/// Inverse of fmix64: each xor-shift by 33 is its own inverse on 64 bits
/// (the shifted-in half is shifted out again), and each multiply by an odd
/// constant is undone by its inverse — applied in reverse order.
constexpr std::uint64_t unfmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= inverse_of(0xc4ceb9fe1a85ec53ull);
  h ^= h >> 33;
  h *= inverse_of(0xff51afd7ed558ccdull);
  h ^= h >> 33;
  return h;
}
static_assert(unfmix64(fmix64(0x0123456789abcdefull)) == 0x0123456789abcdefull,
              "unfmix64 inverts fmix64");

/// A genuine hash_bytes collision: an 8-byte key A and a 16-byte key B with
/// equal digests. hash_bytes folds whole 8-byte lanes and then the length,
/// every fold a xor followed by a multiply by the (odd, hence invertible)
/// FNV prime, and finishes with the bijective fmix64 — so undoing fmix64
/// recovers A's lane-FNV state, and the second lane of B can be solved for
/// exactly, working that state backwards.
std::pair<std::string, std::string> colliding_keys() {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kInv = inverse_of(kPrime);
  static_assert(kInv * kPrime == 1, "inverse sanity");

  const std::uint64_t word_a = 0x0123456789abcdefull;
  const std::string a = le64(word_a);
  const std::uint64_t target = unfmix64(hash_bytes(a));

  // B = [w1][w2], so before fmix64 hash(B) = (((basis ^ w1)*p ^ w2)*p ^
  // 16)*p. Unwind:
  const std::uint64_t w1 = 0xfeedfacecafebeefull;
  const std::uint64_t x = (kBasis ^ w1) * kPrime;
  const std::uint64_t w2 = ((target * kInv ^ 16) * kInv) ^ x;
  const std::string b = le64(w1) + le64(w2);

  EXPECT_EQ(hash_bytes(b), hash_bytes(a));
  EXPECT_NE(a, b);
  return {a, b};
}

TEST(ProbationTable, SameKeyFreshThenReexploreThenSeen) {
  // The <=2-expansions ladder: first touch records the fingerprint, the
  // second promotes the exact key and re-explores, the third terminates.
  StateTable table(probation_config());
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert("alpha"), Lookup::kSeen);

  const auto stats = table.stats();
  EXPECT_EQ(stats.keys, 1u);            // promoted into the exact tier
  EXPECT_EQ(stats.probation_keys, 1u);  // fingerprint left in place
  EXPECT_EQ(stats.promotions, 1u);
}

TEST(ProbationTable, RealFingerprintCollisionNeverPrunes) {
  const auto [a, b] = colliding_keys();
  StateTable table(probation_config());

  EXPECT_EQ(table.lookup_or_insert(a), Lookup::kFresh);
  // B collides with A's fingerprint. A false kSeen here is exactly the bug
  // that would break exhaustion proofs — the contract demands kReexplore
  // (B's full key promoted, B's subtree explored).
  EXPECT_EQ(table.lookup_or_insert(b), Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert(b), Lookup::kSeen);
  // A second touch of A hits the shared fingerprint again; the exact tier
  // holds only B's bytes, so A still must not be pruned.
  EXPECT_EQ(table.lookup_or_insert(a), Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert(a), Lookup::kSeen);

  const auto stats = table.stats();
  EXPECT_EQ(stats.keys, 2u);  // both colliding keys ended up exact
  EXPECT_EQ(stats.promotions, 2u);
}

TEST(ProbationTable, InjectedEqualHashesNeverAliasAcrossDistinctKeys) {
  // Same scenario through the precomputed-hash entry point the engine
  // uses, with a hand-picked hash so the collision is under test control.
  StateTable table(probation_config());
  const std::uint64_t h = 0x5eed5eed5eed5eedull;
  EXPECT_EQ(table.lookup_or_insert_hashed("first-key", h), Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert_hashed("second-key", h),
            Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert_hashed("second-key", h), Lookup::kSeen);
  EXPECT_EQ(table.lookup_or_insert_hashed("first-key", h),
            Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert_hashed("first-key", h), Lookup::kSeen);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ProbationTable, ZeroHashRemapStillHonoursTierRules) {
  // Hash 0 is the empty-slot sentinel in both tiers; the remap must keep
  // the ladder intact rather than treating the key as always-absent.
  StateTable table(probation_config());
  EXPECT_EQ(table.lookup_or_insert_hashed("zero-hash-key", 0),
            Lookup::kFresh);
  EXPECT_EQ(table.lookup_or_insert_hashed("zero-hash-key", 0),
            Lookup::kReexplore);
  EXPECT_EQ(table.lookup_or_insert_hashed("zero-hash-key", 0), Lookup::kSeen);
}

TEST(ProbationTable, BudgetIsAStrictCeiling) {
  // Generous enough for the empty table, far too small for thousands of
  // 64-byte keys: inserts must start failing with kOverBudget, and the
  // accounted footprint must never exceed the cap (the charge loop either
  // reserves the bytes or stores nothing).
  constexpr std::uint64_t kBudget = 16 * 1024;
  StateTable table(StateTable::Config{1, false, kBudget});
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

TEST(ProbationTable, BudgetBelowBaselineFailsEveryExactInsert) {
  // A budget smaller than the empty table's arrays is reported honestly:
  // every exact-tier insert needs arena bytes it cannot charge, so it is
  // kOverBudget and nothing pretends to be recorded.
  StateTable table(StateTable::Config{1, false, 64});
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(table.size(), 0u);

  // With probation the fingerprint slot lives in the pre-charged baseline
  // array, so the first touch still records; the promotion (which needs
  // fresh arena bytes) is where the budget bites — and a kOverBudget
  // second touch ends the search non-exhausted, so soundness holds.
  StateTable tiered(StateTable::Config{1, true, 64});
  EXPECT_EQ(tiered.lookup_or_insert("anything"), Lookup::kFresh);
  EXPECT_EQ(tiered.lookup_or_insert("anything"), Lookup::kOverBudget);
  EXPECT_EQ(tiered.size(), 0u);
}

// --- Engine level ----------------------------------------------------------

TEST(ProbationSearch, VerdictsAndUniqueStatesMatchExactTable) {
  // Probation changes how many times states are EXPANDED (re-explorations
  // count), never WHICH states are reachable: verdicts, exhaustion and the
  // unique-state count (memo_misses) must match the exact table, and the
  // expansion count must decompose exactly into fresh + re-explored.
  for (const auto& spec : {core::fig1_spec(), core::fig2_spec()}) {
    const core::CyclicFamily family(spec);
    const auto specs = family.message_specs();
    SearchLimits exact;
    SearchLimits tiered;
    tiered.memo_probation = true;

    const auto off = find_deadlock(family.algorithm(), specs,
                                   AdversaryModel::kSynchronous, exact);
    const auto on = find_deadlock(family.algorithm(), specs,
                                  AdversaryModel::kSynchronous, tiered);
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(on.deadlock_found, off.deadlock_found);
    EXPECT_EQ(on.exhausted, off.exhausted);
    EXPECT_EQ(on.profile.memo_misses, off.profile.memo_misses);
    EXPECT_EQ(on.states_explored,
              on.profile.memo_misses + on.profile.reexplorations);
    if (off.exhausted && !off.deadlock_found) {
      // Exhausting a space with converging paths necessarily touches some
      // states twice; every such state is expanded exactly twice, so the
      // probation engine pays at most 2x the exact engine's expansions.
      // (A deadlock-positive search can stop before any second touch.)
      EXPECT_GT(on.profile.reexplorations, 0u);
      EXPECT_LE(on.states_explored, 2 * off.states_explored);
    }
    if (off.deadlock_found) {
      EXPECT_EQ(on.witness, off.witness);
      EXPECT_EQ(on.witness_grants, off.witness_grants);
    }
  }
}

TEST(ProbationSearch, ParallelTieredSearchStaysDeterministic) {
  // Tiering and stealing compose: the unique-state count stays pinned to
  // the serial exact engine across thread counts.
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  const auto exact = find_deadlock(family.algorithm(), specs,
                                   AdversaryModel::kSynchronous, {});
  for (const unsigned threads : {1u, 4u}) {
    SearchLimits limits;
    limits.memo_probation = true;
    limits.threads = threads;
    const auto result = find_deadlock(family.algorithm(), specs,
                                      AdversaryModel::kSynchronous, limits);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_EQ(result.deadlock_found, exact.deadlock_found);
    EXPECT_EQ(result.exhausted, exact.exhausted);
    EXPECT_EQ(result.profile.memo_misses, exact.profile.memo_misses);
  }
}

TEST(ProbationSearch, MemoBudgetOverflowReportsNonExhausted) {
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

TEST(ProbationSearch, GenerousBudgetStaysExhaustive) {
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
