// The search's per-state branch enumerator on hand-built request sets.
//
// Two behaviours are pinned here. At the branch cap the generator reports
// truncation only when another legal combo exists. And in the synchronous
// model a moving header with an uncontested candidate has no skip digit,
// which must leave the sequence of assignments unchanged. The differential
// suite checks both against ReferenceGenerator, a copy of the odometer
// filter before either change, on seeded random request sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/assignment_generator.hpp"
#include "util/rng.hpp"

namespace wormsim::analysis {
namespace {

constexpr std::size_t kChannels = 8;

sim::MessageRequests request(std::size_t message, bool moving,
                             std::vector<std::size_t> channels) {
  sim::MessageRequests r;
  r.message = MessageId{message};
  r.moving = moving;
  for (const std::size_t c : channels) r.channels.push_back(ChannelId{c});
  std::sort(r.channels.begin(), r.channels.end());
  return r;
}

/// The odometer filter as it was before the cap look-ahead and the dropped
/// skip digits: every digit has a skip option, and reaching the cap with
/// the odometer not yet wrapped counts as truncation.
class ReferenceGenerator {
 public:
  ReferenceGenerator(std::vector<sim::MessageRequests> requests,
                     std::vector<std::uint32_t> twin_next,
                     AdversaryModel model, std::size_t max_branches)
      : requests_(std::move(requests)),
        twin_next_(std::move(twin_next)),
        odometer_(requests_.size(), 0),
        model_(model),
        max_branches_(max_branches) {}

  bool next(Assignment& out, TakenSet& taken) {
    const std::size_t m = requests_.size();
    while (!done_) {
      if (yielded_ >= max_branches_) {
        truncated_ = true;
        return false;
      }
      bool valid = true;
      out.clear();
      taken.reset();
      for (std::size_t i = 0; i < m && valid; ++i) {
        if (is_skip(i)) continue;
        const ChannelId c = requests_[i].channels[odometer_[i]];
        if (!taken.try_take(c)) valid = false;
        else out.grants.emplace_back(c, requests_[i].message);
      }
      if (valid) {
        for (std::size_t i = 0; i < m && valid; ++i) {
          if (!is_skip(i) || !requests_[i].moving) continue;
          const bool has_free_alternative = std::any_of(
              requests_[i].channels.begin(), requests_[i].channels.end(),
              [&](ChannelId c) { return !taken.contains(c); });
          if (has_free_alternative) {
            if (model_ == AdversaryModel::kSynchronous)
              valid = false;
            else
              out.stalled_moving.push_back(requests_[i].message);
          }
        }
      }
      advance();
      if (valid) {
        ++yielded_;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool truncated() const { return truncated_; }
  [[nodiscard]] std::size_t yielded() const { return yielded_; }

 private:
  [[nodiscard]] bool is_skip(std::size_t i) const {
    return odometer_[i] == requests_[i].channels.size();
  }
  [[nodiscard]] std::size_t limit(std::size_t i) const {
    std::size_t cap = requests_[i].channels.size();
    if (!twin_next_.empty() && twin_next_[i] != kNoTwin)
      cap = std::min(cap, odometer_[twin_next_[i]]);
    return cap;
  }
  void advance() {
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (++odometer_[i] <= limit(i)) return;
      odometer_[i] = 0;
    }
    done_ = true;
  }

  std::vector<sim::MessageRequests> requests_;
  std::vector<std::uint32_t> twin_next_;
  std::vector<std::size_t> odometer_;
  AdversaryModel model_;
  std::size_t max_branches_;
  std::size_t yielded_ = 0;
  bool done_ = false;
  bool truncated_ = false;
};

/// What one enumeration produced.
struct Enumeration {
  std::vector<Assignment> assignments;
  std::size_t yielded = 0;
  bool truncated = false;
};

Enumeration enumerate(const std::vector<sim::MessageRequests>& requests,
                      const std::vector<std::uint32_t>& twin_next,
                      AdversaryModel model, std::size_t cap) {
  AssignmentGenerator gen;
  // Spare entries past the live count, as a reused DFS frame has them.
  gen.request_buffer() = requests;
  gen.request_buffer().push_back(request(99, true, {0}));
  gen.twin_next() = twin_next;
  gen.start(requests.size(), model, cap);
  TakenSet taken(kChannels);
  Enumeration out;
  Assignment a;
  while (gen.next(a, taken)) out.assignments.push_back(a);
  out.yielded = gen.yielded();
  out.truncated = gen.truncated();
  return out;
}

Enumeration enumerate_reference(
    const std::vector<sim::MessageRequests>& requests,
    const std::vector<std::uint32_t>& twin_next, AdversaryModel model,
    std::size_t cap) {
  ReferenceGenerator gen(requests, twin_next, model, cap);
  TakenSet taken(kChannels);
  Enumeration out;
  Assignment a;
  while (gen.next(a, taken)) out.assignments.push_back(a);
  out.yielded = gen.yielded();
  out.truncated = gen.truncated();
  return out;
}

TEST(AssignmentGenerator, CapReachedWithOnlyIllegalCombosLeftIsNotTruncation) {
  // m0 must take c2; m1 and m2 contend for c0 or stay pending. Exactly
  // three assignments are legal, and the odometer still holds illegal
  // combos (both pending headers on c0) after the third.
  const std::vector<sim::MessageRequests> requests = {
      request(0, true, {2}), request(1, false, {0}), request(2, false, {0})};
  const Enumeration at_three =
      enumerate(requests, {}, AdversaryModel::kSynchronous, 3);
  EXPECT_EQ(at_three.yielded, 3u);
  EXPECT_FALSE(at_three.truncated);
  const Enumeration at_four =
      enumerate(requests, {}, AdversaryModel::kSynchronous, 4);
  EXPECT_EQ(at_four.yielded, 3u);
  EXPECT_FALSE(at_four.truncated);
  const Enumeration at_two =
      enumerate(requests, {}, AdversaryModel::kSynchronous, 2);
  EXPECT_EQ(at_two.yielded, 2u);
  EXPECT_TRUE(at_two.truncated);
  // The pre-fix filter called the cap-3 run truncated.
  EXPECT_TRUE(
      enumerate_reference(requests, {}, AdversaryModel::kSynchronous, 3)
          .truncated);
}

TEST(AssignmentGenerator, ContestedMovingHeaderKeepsItsSkipAndCapIsExact) {
  // m0 may lose c0 to m1, so its skip stays legal; two assignments exist.
  // The combo left at the cap (both idle) is illegal: m0 sees c0 free.
  const std::vector<sim::MessageRequests> requests = {
      request(0, true, {0}), request(1, false, {0})};
  const Enumeration e =
      enumerate(requests, {}, AdversaryModel::kSynchronous, 2);
  ASSERT_EQ(e.assignments.size(), 2u);
  EXPECT_EQ(e.assignments[0].grants,
            (std::vector<std::pair<ChannelId, MessageId>>{
                {ChannelId{0}, MessageId{1}}}));
  EXPECT_EQ(e.assignments[1].grants,
            (std::vector<std::pair<ChannelId, MessageId>>{
                {ChannelId{0}, MessageId{0}}}));
  EXPECT_FALSE(e.truncated);
  EXPECT_TRUE(
      enumerate_reference(requests, {}, AdversaryModel::kSynchronous, 2)
          .truncated);
  const Enumeration capped =
      enumerate(requests, {}, AdversaryModel::kSynchronous, 1);
  EXPECT_EQ(capped.yielded, 1u);
  EXPECT_TRUE(capped.truncated);
}

/// Twin chains the way the engine builds them: pending requests with equal
/// candidate sets chain in request order.
std::vector<std::uint32_t> chain_twins(
    const std::vector<sim::MessageRequests>& requests) {
  std::vector<std::uint32_t> next(requests.size(), kNoTwin);
  bool any = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].moving) continue;
    for (std::size_t j = i + 1; j < requests.size(); ++j) {
      if (requests[j].moving || requests[j].channels != requests[i].channels)
        continue;
      next[i] = static_cast<std::uint32_t>(j);
      any = true;
      break;
    }
  }
  if (!any) next.clear();
  return next;
}

void expect_same_assignments(const Enumeration& got, const Enumeration& want,
                             const std::string& where) {
  ASSERT_EQ(got.assignments.size(), want.assignments.size()) << where;
  for (std::size_t k = 0; k < got.assignments.size(); ++k) {
    EXPECT_EQ(got.assignments[k].grants, want.assignments[k].grants)
        << where << " assignment " << k;
    EXPECT_EQ(got.assignments[k].stalled_moving,
              want.assignments[k].stalled_moving)
        << where << " assignment " << k;
  }
  EXPECT_EQ(got.yielded, want.yielded) << where;
}

TEST(AssignmentGenerator, MatchesReferenceOdometerOnRandomRequestSets) {
  util::Rng rng(20261020);
  const std::size_t caps[] = {1, 2, 3, 5, 8, 4096};
  std::size_t truncations = 0, spurious = 0, twin_sets = 0, delay_sets = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = 1 + rng.below(5);
    // A small channel pool makes contention and twins common.
    const std::size_t pool = 2 + rng.below(kChannels - 2);
    std::vector<sim::MessageRequests> requests;
    for (std::size_t i = 0; i < n; ++i) {
      const bool moving = rng.chance(0.5);
      std::vector<std::size_t> channels;
      const std::size_t want = 1 + rng.below(3);
      while (channels.size() < std::min(want, pool)) {
        const std::size_t c = rng.below(pool);
        if (std::find(channels.begin(), channels.end(), c) == channels.end())
          channels.push_back(c);
      }
      requests.push_back(request(i, moving, channels));
    }
    const std::vector<std::uint32_t> twins =
        rng.chance(0.5) ? chain_twins(requests) : std::vector<std::uint32_t>{};
    if (!twins.empty()) ++twin_sets;
    const AdversaryModel model = rng.chance(0.5)
                                     ? AdversaryModel::kSynchronous
                                     : AdversaryModel::kBoundedDelay;
    if (model == AdversaryModel::kBoundedDelay) ++delay_sets;
    const std::size_t cap = caps[rng.below(std::size(caps))];

    const std::string where = "trial " + std::to_string(trial);
    const Enumeration got = enumerate(requests, twins, model, cap);
    const Enumeration want = enumerate_reference(requests, twins, model, cap);
    expect_same_assignments(got, want, where);
    if (got.truncated) {
      EXPECT_TRUE(want.truncated) << where;
      ++truncations;
    } else if (want.truncated) {
      // Spurious in the reference: an uncapped run yields nothing more.
      EXPECT_EQ(enumerate_reference(requests, twins, model, 4096).yielded,
                cap)
          << where;
      ++spurious;
    }
  }
  // The sample covers what it claims to.
  EXPECT_GT(truncations, 100u);
  EXPECT_GT(spurious, 10u);
  EXPECT_GT(twin_sets, 100u);
  EXPECT_GT(delay_sets, 100u);
}

}  // namespace
}  // namespace wormsim::analysis
