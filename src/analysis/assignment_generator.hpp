// The deadlock search's per-state branch enumerator: the legal grant
// assignments of one state's request sets, produced one at a time.
//
// Internal to the search engine (deadlock_search.cpp); it has a header of
// its own so unit tests can drive it on hand-built request sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/deadlock_search.hpp"
#include "analysis/reduction.hpp"
#include "sim/simulator.hpp"

namespace wormsim::analysis {

/// One per-cycle adversary choice: which channel goes to which message, and
/// which in-flight headers idled beside a free candidate (delay model).
struct Assignment {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  std::vector<MessageId> stalled_moving;

  void clear() {
    grants.clear();
    stalled_moving.clear();
  }
};

/// Channel-indexed "granted this combo" membership with O(1) reset:
/// membership is stamp equality, so starting a new combo is one counter
/// increment instead of rebuilding a hash set per combo (which is what the
/// pre-generator enumeration did). reset() must be called before each
/// combo's first try_take/contains.
class TakenSet {
 public:
  explicit TakenSet(std::size_t channel_count) : stamp_(channel_count, 0) {}

  void reset() { ++current_; }

  /// Marks `c` taken; returns false when it already was this combo.
  bool try_take(ChannelId c) {
    std::uint64_t& s = stamp_[c.index()];
    if (s == current_) return false;
    s = current_;
    return true;
  }

  [[nodiscard]] bool contains(ChannelId c) const {
    return stamp_[c.index()] == current_;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t current_ = 0;
};

/// Lazily enumerates the legal grant assignments for one state's
/// per-message request sets, one at a time. A legal assignment gives each
/// requesting message at most one of its free candidate channels, with all
/// granted channels distinct. Synchronous model: a *moving* header must take
/// a channel whenever one of its candidates is left untaken — it may lose
/// every candidate to others (normal contention) but may not idle beside a
/// free channel; pending headers may always stay ungranted (the adversary
/// controls generation times). Delay model: moving headers may additionally
/// idle beside free candidates, which counts as a stall for the budget.
///
/// The generator is a mixed-radix odometer over per-message options
/// (option k < |channels| grants channel k; the LAST option is skip, so
/// depth-first exploration tries granting before idling — idle-heavy
/// prefixes explode the search). A DFS frame holds only this cursor, not a
/// materialized branch vector, so memory stays flat at high branch factors
/// and each branch is costed only when the DFS actually reaches it.
///
/// In the synchronous model a moving header with a candidate that no other
/// request wants can never skip legally: that candidate is always left
/// untaken. Its digit has no skip option at all. Skip is the digit's last
/// value, so dropping it removes only illegal combos and keeps the order
/// of the legal ones.
///
/// Reduction (DESIGN.md §12): the engine may fill the generator's twin
/// chains. They cap each twin's odometer digit at its next sibling's
/// current value, so only canonical (non-decreasing) option tuples within
/// each chain are enumerated — every pruned combo is the image of a
/// canonical one under a twin transposition, which is an automorphism of
/// the transition system.
class AssignmentGenerator {
 public:
  /// Buffers the caller fills before start(): the state's request list
  /// (entries past the count passed to start() are spare capacity from
  /// earlier states) and the twin chains (per request, kNoTwin when none;
  /// empty when no request has a twin). Both belong to the generator, so a
  /// DFS frame that is reused for state after state keeps their heap
  /// capacity and stops allocating once warm.
  std::vector<sim::MessageRequests>& request_buffer() { return requests_; }
  std::vector<std::uint32_t>& twin_next() { return twin_next_; }

  /// Starts enumerating over the first `count` entries of request_buffer()
  /// with twin_next() filled in for this state.
  void start(std::size_t count, AdversaryModel model,
             std::size_t max_branches) {
    count_ = count;
    odometer_.assign(count, 0);
    top_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      top_[i] = requests_[i].channels.size();  // the skip option
      if (model == AdversaryModel::kSynchronous && requests_[i].moving &&
          has_uncontested_candidate(i))
        --top_[i];
    }
    model_ = model;
    max_branches_ = max_branches;
    yielded_ = 0;
    done_ = false;
    truncated_ = false;
  }

  /// Fills `out` with the next legal assignment; returns false when the
  /// combos are exhausted or the branch cap was hit (see truncated()).
  /// `taken` is caller-owned scratch, reusable across generators.
  bool next(Assignment& out, TakenSet& taken) {
    if (yielded_ >= max_branches_) {
      // The cap cut the enumeration short only if a legal combo is left.
      if (!done_ && seek(out, taken)) truncated_ = true;
      done_ = true;
      return false;
    }
    if (!seek(out, taken)) return false;
    ++yielded_;
    return true;
  }

  /// True when enumeration stopped at the branch cap with legal combos
  /// remaining.
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// Legal assignments produced so far.
  [[nodiscard]] std::size_t yielded() const { return yielded_; }

 private:
  [[nodiscard]] bool is_skip(std::size_t i) const {
    return odometer_[i] == requests_[i].channels.size();
  }

  /// True when some candidate of request i appears in no other request of
  /// this state (candidate lists are sorted).
  [[nodiscard]] bool has_uncontested_candidate(std::size_t i) const {
    return std::any_of(
        requests_[i].channels.begin(), requests_[i].channels.end(),
        [&](ChannelId c) {
          for (std::size_t j = 0; j < count_; ++j)
            if (j != i && std::binary_search(requests_[j].channels.begin(),
                                             requests_[j].channels.end(), c))
              return false;
          return true;
        });
  }

  /// Highest option digit i may hold: its last option (skip, unless start()
  /// dropped it), further capped by the next twin sibling's current digit
  /// (canonical tuples are non-decreasing along each chain; equal grant
  /// digits collide and are filtered like any other collision).
  [[nodiscard]] std::size_t limit(std::size_t i) const {
    std::size_t cap = top_[i];
    if (!twin_next_.empty() && twin_next_[i] != kNoTwin)
      cap = std::min(cap, odometer_[twin_next_[i]]);
    return cap;
  }

  void advance() {
    const std::size_t m = count_;
    for (std::size_t i = 0; i < m; ++i) {
      if (++odometer_[i] <= limit(i)) return;
      odometer_[i] = 0;
    }
    done_ = true;  // the odometer wrapped around
  }

  /// Turns the odometer to the next legal combo and writes it to `out`;
  /// false once the odometer has wrapped.
  bool seek(Assignment& out, TakenSet& taken) {
    const std::size_t m = count_;
    while (!done_) {
      bool valid = true;
      out.clear();
      taken.reset();
      for (std::size_t i = 0; i < m && valid; ++i) {
        if (is_skip(i)) continue;
        const ChannelId c = requests_[i].channels[odometer_[i]];
        if (!taken.try_take(c)) valid = false;  // collision
        else out.grants.emplace_back(c, requests_[i].message);
      }
      if (valid) {
        for (std::size_t i = 0; i < m && valid; ++i) {
          if (!is_skip(i) || !requests_[i].moving) continue;
          // A moving skipper: does it still see an untaken candidate?
          const bool has_free_alternative = std::any_of(
              requests_[i].channels.begin(), requests_[i].channels.end(),
              [&](ChannelId c) { return !taken.contains(c); });
          if (has_free_alternative) {
            if (model_ == AdversaryModel::kSynchronous)
              valid = false;  // must progress
            else
              out.stalled_moving.push_back(requests_[i].message);
          }
        }
      }
      advance();
      if (valid) return true;
    }
    return false;
  }

  std::vector<sim::MessageRequests> requests_;
  std::size_t count_ = 0;  ///< live prefix of requests_
  std::vector<std::size_t> odometer_;
  std::vector<std::size_t> top_;  ///< last option of each digit
  std::vector<std::uint32_t> twin_next_;
  AdversaryModel model_ = AdversaryModel::kSynchronous;
  std::size_t max_branches_ = 0;
  std::size_t yielded_ = 0;
  bool done_ = true;
  bool truncated_ = false;
};

}  // namespace wormsim::analysis
