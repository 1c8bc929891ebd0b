#include "analysis/reduction.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wormsim::analysis {

namespace {

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void unite(std::vector<std::uint32_t>& parent, std::uint32_t a,
           std::uint32_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

const char* to_string(ReductionMode mode) {
  switch (mode) {
    case ReductionMode::kOff: return "off";
    case ReductionMode::kSafe: return "safe";
    case ReductionMode::kOn: return "on";
  }
  WORMSIM_UNREACHABLE("bad ReductionMode");
}

std::optional<ReductionMode> reduction_from_string(std::string_view text) {
  for (const ReductionMode m :
       {ReductionMode::kOff, ReductionMode::kSafe, ReductionMode::kOn}) {
    if (text == to_string(m)) return m;
  }
  return std::nullopt;
}

std::vector<std::uint32_t> twin_next_siblings(
    std::span<const sim::MessageRequests> requests,
    std::span<const sim::MessageSpec> specs,
    std::span<const std::uint32_t> spent) {
  std::vector<std::uint32_t> next;
  twin_next_siblings(requests, specs, spent, next);
  return next;
}

void twin_next_siblings(std::span<const sim::MessageRequests> requests,
                        std::span<const sim::MessageSpec> specs,
                        std::span<const std::uint32_t> spent,
                        std::vector<std::uint32_t>& next) {
  const std::size_t n = requests.size();
  next.assign(n, kNoTwin);

  const auto twins = [&](std::size_t i, std::size_t j) {
    const sim::MessageRequests& a = requests[i];
    const sim::MessageRequests& b = requests[j];
    // Only never-injected messages are interchangeable: once a header is in
    // the network the two copies' dynamic states (held channels, progress)
    // differ, and swapping them is no longer an automorphism.
    if (a.moving || b.moving) return false;
    const sim::MessageSpec& sa = specs[a.message.index()];
    const sim::MessageSpec& sb = specs[b.message.index()];
    if (sa.src != sb.src || sa.dst != sb.dst || sa.length != sb.length ||
        sa.release_time != sb.release_time ||
        sa.hop_stalls != sb.hop_stalls)
      return false;
    // Equal specs imply equal desired channels, but the free-channel filter
    // ran per message; require byte-equal candidate sets so the canonical
    // odometer constraint compares like with like.
    if (a.channels != b.channels) return false;
    if (!spent.empty() &&
        spent[a.message.index()] != spent[b.message.index()])
      return false;
    return true;
  };

  // O(n^2) pairing over this state's requests; request lists are small (one
  // per unfinished message at most), so this never shows up in profiles.
  // A request is claimed by an earlier chain iff its `next` entry is no
  // longer kNoTwin: claiming writes kChainEnd, which a later link
  // overwrites and the final sweep turns back into kNoTwin. (A separate
  // claimed-flag vector cost the search one allocation per state.)
  constexpr std::uint32_t kChainEnd = kNoTwin - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (next[i] != kNoTwin) continue;  // claimed
    std::size_t last = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (next[j] != kNoTwin || !twins(last, j)) continue;
      next[last] = static_cast<std::uint32_t>(j);
      next[j] = kChainEnd;
      last = j;
    }
  }
  for (std::uint32_t& v : next)
    if (v == kChainEnd) v = kNoTwin;
}

std::uint32_t request_components(
    std::span<const sim::MessageRequests> requests,
    std::span<const std::span<const ChannelId>> actives,
    std::size_t channel_count, ComponentScratch& scratch,
    std::vector<std::uint32_t>& comp_of) {
  const std::size_t m = actives.size();
  scratch.parent.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    scratch.parent[i] = static_cast<std::uint32_t>(i);
  if (scratch.claim.size() < channel_count) {
    scratch.claim.resize(channel_count, 0);
    scratch.claim_stamp.resize(channel_count, 0);
  }
  ++scratch.stamp;

  for (std::size_t i = 0; i < m; ++i) {
    for (const ChannelId c : actives[i]) {
      WORMSIM_ASSERT(c.index() < channel_count);
      if (scratch.claim_stamp[c.index()] == scratch.stamp) {
        unite(scratch.parent, static_cast<std::uint32_t>(i),
              scratch.claim[c.index()]);
      } else {
        scratch.claim_stamp[c.index()] = scratch.stamp;
        scratch.claim[c.index()] = static_cast<std::uint32_t>(i);
      }
    }
  }

  // Renumber request roots by first appearance so class ids are stable and
  // dense regardless of message-id gaps.
  comp_of.clear();
  comp_of.reserve(requests.size());
  std::uint32_t count = 0;
  for (const sim::MessageRequests& r : requests) {
    const std::uint32_t root = find_root(
        scratch.parent, static_cast<std::uint32_t>(r.message.index()));
    std::uint32_t id = count;
    for (std::size_t j = 0; j < comp_of.size(); ++j) {
      const std::uint32_t other_root = find_root(
          scratch.parent,
          static_cast<std::uint32_t>(requests[j].message.index()));
      if (other_root == root) {
        id = comp_of[j];
        break;
      }
    }
    if (id == count) ++count;
    comp_of.push_back(id);
  }
  return count;
}

}  // namespace wormsim::analysis
