// The state key is a function of the state alone: a simulator stepped
// through an arbitrary grant history serializes exactly the same key bytes
// as a fresh simulator replaying that history, and copies, idle cycles and
// the trusted step leave no trace in it.
//
// The key stores no channel records — channel ownership and occupancy are
// derived from the per-message segments — so StateKeySoundness walks
// random grant sequences and checks that equal keys really do pin the
// whole channel state and the next cycle's requests. It also decodes every
// key it sees as LEB128 fields and checks them against the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cyclic_family.hpp"
#include "core/paper_networks.hpp"
#include "routing/adaptive.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"
#include "topo/builders.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

/// Deterministic driver: grant every request its first free candidate,
/// first-come-first-served within the cycle. Exercises injection, header
/// advance, data shifts, delivery, and consumption.
std::vector<std::pair<ChannelId, MessageId>> greedy_grants(
    const WormholeSimulator& sim) {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  std::vector<std::uint8_t> taken(sim.net().channel_count(), 0);
  for (const MessageRequests& req : sim.peek_requests()) {
    for (const ChannelId c : req.channels) {
      if (taken[c.index()]) continue;
      taken[c.index()] = 1;
      grants.emplace_back(c, req.message);
      break;
    }
  }
  return grants;
}

/// Replays `history` (per-cycle grant lists, with message additions at the
/// recorded cycles) on a fresh simulator and returns its key — built from
/// scratch, since the fresh simulator never serialized before.
std::string replay_key(const routing::RoutingAlgorithm& alg, SimConfig config,
                       const std::vector<MessageSpec>& initial,
                       const std::vector<std::pair<std::size_t, MessageSpec>>&
                           late_messages,
                       std::span<const std::vector<
                           std::pair<ChannelId, MessageId>>> history) {
  WormholeSimulator fresh(alg, config);
  for (const MessageSpec& spec : initial) fresh.add_message(spec);
  for (std::size_t cycle = 0; cycle < history.size(); ++cycle) {
    for (const auto& [at, spec] : late_messages)
      if (at == cycle) fresh.add_message(spec);
    fresh.step_with_grants(history[cycle]);
  }
  return fresh.state_key();
}

TEST(StateKey, SteppedKeyMatchesFreshReplayEveryCycle) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator sim(family.algorithm(), config);
  for (const MessageSpec& spec : specs) sim.add_message(spec);

  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  for (int cycle = 0; cycle < 40 && !sim.all_consumed(); ++cycle) {
    // Serialize before every step, not just after the last one.
    const std::string incremental = sim.state_key();
    const std::string fresh = replay_key(family.algorithm(), config, specs,
                                         {}, history);
    ASSERT_EQ(incremental, fresh) << "cycle " << cycle;

    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
  }
  EXPECT_EQ(sim.state_key(),
            replay_key(family.algorithm(), config, specs, {}, history));
}

TEST(StateKey, IdleCyclesLeaveKeyUnchanged) {
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;
  WormholeSimulator sim(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    sim.add_message(spec);

  const std::string before = sim.state_key();
  sim.step_with_grants({});  // nobody granted: pending messages stay put
  EXPECT_EQ(sim.state_key(), before);
}

TEST(StateKey, AddMessageInvalidatesAfterFirstSerialization) {
  const core::CyclicFamily family(core::fig1_spec());
  const auto specs = family.message_specs();
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator sim(family.algorithm(), config);
  std::vector<MessageSpec> initial(specs.begin(), specs.begin() + 1);
  for (const MessageSpec& spec : initial) sim.add_message(spec);

  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  std::vector<std::pair<std::size_t, MessageSpec>> late;
  for (int cycle = 0; cycle < 12; ++cycle) {
    (void)sim.state_key();  // serialize between mutations
    if (cycle == 3 && specs.size() > 1) {
      sim.add_message(specs[1]);  // the key gains a segment
      late.emplace_back(static_cast<std::size_t>(cycle), specs[1]);
    }
    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
    ASSERT_EQ(sim.state_key(), replay_key(family.algorithm(), config,
                                          initial, late, history))
        << "cycle " << cycle;
  }
}

TEST(StateKey, TrustedStepMatchesCheckedStepEveryCycle) {
  // The deadlock search's forward exploration uses step_with_grants_trusted,
  // which skips the request re-derivation and arbitration bookkeeping of the
  // checked step. Under the search's scenario contract (release_time == 0,
  // no hop stalls) the two steps must be observationally identical: same
  // progress flag, same key bytes, same requests, every cycle.
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;

  WormholeSimulator checked(family.algorithm(), config);
  WormholeSimulator trusted(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs()) {
    checked.add_message(spec);
    trusted.add_message(spec);
  }

  for (int cycle = 0; cycle < 40 && !checked.all_consumed(); ++cycle) {
    const auto grants = greedy_grants(checked);
    const bool a = checked.step_with_grants(grants);
    const bool b = trusted.step_with_grants_trusted(grants);
    ASSERT_EQ(a, b) << "progress diverged at cycle " << cycle;
    ASSERT_EQ(checked.state_key(), trusted.state_key())
        << "state diverged at cycle " << cycle;
    // Next-cycle requests drive the search's branching; they must agree.
    const auto ra = checked.peek_requests();
    const auto rb = trusted.peek_requests();
    ASSERT_EQ(ra.size(), rb.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].message, rb[i].message) << "cycle " << cycle;
      EXPECT_EQ(ra[i].moving, rb[i].moving) << "cycle " << cycle;
      EXPECT_EQ(ra[i].channels, rb[i].channels) << "cycle " << cycle;
    }
  }
  EXPECT_TRUE(checked.all_consumed());
  EXPECT_TRUE(trusted.all_consumed());
}

TEST(StateKey, CopiedSimulatorKeysStayIndependent) {
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 1;
  WormholeSimulator parent(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    parent.add_message(spec);
  (void)parent.state_key_view();  // fill the key buffer, then fork


  WormholeSimulator child = parent;
  child.step_with_grants(greedy_grants(child));

  // Each simulator serializes its own state.
  WormholeSimulator pristine(family.algorithm(), config);
  for (const MessageSpec& spec : family.message_specs())
    pristine.add_message(spec);
  EXPECT_EQ(parent.state_key(), pristine.state_key());
  pristine.step_with_grants(greedy_grants(pristine));
  EXPECT_EQ(child.state_key(), pristine.state_key());
}

/// Everything the key claims to determine that it does not store itself:
/// every channel's owner and flit count, and the next cycle's requests.
struct Observed {
  std::vector<MessageId> owners;
  std::vector<std::uint32_t> counts;
  std::vector<MessageRequests> requests;
};

Observed observe(const WormholeSimulator& sim) {
  Observed o;
  for (std::size_t c = 0; c < sim.net().channel_count(); ++c) {
    o.owners.push_back(sim.channel_owner(ChannelId{c}));
    o.counts.push_back(sim.channel_count(ChannelId{c}));
  }
  o.requests = sim.peek_requests();
  return o;
}

/// A random legal grant list for the checked step: each request takes a
/// random free candidate with probability 3/4 unless another message has
/// it already. Skipping moving headers too widens the reachable set.
std::vector<std::pair<ChannelId, MessageId>> random_grants(
    const std::vector<MessageRequests>& requests, util::Rng& rng) {
  std::vector<std::pair<ChannelId, MessageId>> grants;
  for (const MessageRequests& r : requests) {
    if (!rng.chance(0.75)) continue;
    const ChannelId c = r.channels[rng.below(r.channels.size())];
    const bool taken = std::any_of(grants.begin(), grants.end(),
                                   [c](const auto& g) { return g.first == c; });
    if (!taken) grants.emplace_back(c, r.message);
  }
  return grants;
}

/// Reads a state key back as unsigned LEB128 fields. A field that runs past
/// the end of the key or past 32 bits marks the key malformed.
class KeyReader {
 public:
  explicit KeyReader(std::string_view key) : key_(key) {}

  std::uint32_t next() {
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ == key_.size() || shift > 28) {
        ok_ = false;
        return 0;
      }
      const auto byte = static_cast<std::uint8_t>(key_[pos_++]);
      value |= std::uint64_t{byte & 0x7fu} << shift;
      if ((byte & 0x80u) == 0) break;
    }
    if (value > 0xffffffffu) ok_ = false;
    return static_cast<std::uint32_t>(value);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == key_.size(); }

 private:
  std::string_view key_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Decodes `key` field by field (per message: status, flits injected,
/// flits consumed, released, path length, then channel and exit count per
/// active hop) and checks the fields the simulator exposes.
void expect_key_decodes(const WormholeSimulator& sim, std::string_view key) {
  KeyReader reader(key);
  for (std::size_t m = 0; m < sim.message_count(); ++m) {
    const MessageId id{m};
    EXPECT_EQ(reader.next(), static_cast<std::uint32_t>(sim.status(id)))
        << "message " << m;
    (void)reader.next();  // flits injected
    (void)reader.next();  // flits consumed
    const std::uint32_t released = reader.next();
    const std::uint32_t path_length = reader.next();
    EXPECT_EQ(released, sim.released_count(id)) << "message " << m;
    ASSERT_LE(released, path_length) << "message " << m;
    std::vector<ChannelId> held;
    for (std::uint32_t j = released; j < path_length; ++j) {
      held.push_back(ChannelId{reader.next()});
      (void)reader.next();  // flits that have left this hop
    }
    EXPECT_EQ(held, sim.held_channels(id)) << "message " << m;
    ASSERT_TRUE(reader.ok()) << "message " << m;
  }
  EXPECT_TRUE(reader.at_end()) << "key has trailing bytes";
}

/// Walks `walks` random grant sequences from `initial` and checks, at
/// every visited state, that the key decodes and that any two states with
/// equal keys agree on everything Observed covers. Returns the number of
/// revisits (states whose key was already seen), so callers can assert the
/// check was not vacuous.
std::size_t check_equal_keys_agree(const WormholeSimulator& initial,
                                   std::uint64_t seed, int walks,
                                   int steps) {
  util::Rng rng(seed);
  std::map<std::string, Observed> seen;
  std::size_t revisits = 0;
  for (int walk = 0; walk < walks; ++walk) {
    WormholeSimulator sim = initial;
    for (int step = 0; step < steps && !sim.all_consumed(); ++step) {
      const std::string key = sim.state_key();
      {
        SCOPED_TRACE("walk " + std::to_string(walk));
        expect_key_decodes(sim, key);
      }

      Observed now = observe(sim);
      const auto [it, fresh] = seen.emplace(key, now);
      if (!fresh) {
        ++revisits;
        const Observed& before = it->second;
        EXPECT_EQ(now.owners, before.owners) << "walk " << walk;
        EXPECT_EQ(now.counts, before.counts) << "walk " << walk;
        EXPECT_EQ(now.requests.size(), before.requests.size());
        for (std::size_t i = 0;
             i < std::min(now.requests.size(), before.requests.size());
             ++i) {
          EXPECT_EQ(now.requests[i].message, before.requests[i].message);
          EXPECT_EQ(now.requests[i].moving, before.requests[i].moving);
          EXPECT_EQ(now.requests[i].channels, before.requests[i].channels);
        }
      }
      const bool progress =
          sim.step_with_grants(random_grants(now.requests, rng));
      if (!progress && now.requests.empty()) break;  // frozen
    }
  }
  return revisits;
}

WormholeSimulator with_messages(const WormholeSimulator& empty,
                                const std::vector<MessageSpec>& specs) {
  WormholeSimulator sim = empty;
  for (const MessageSpec& spec : specs) sim.add_message(spec);
  return sim;
}

TEST(StateKeySoundness, EqualKeysPinChannelsAndRequestsOnFig1x2) {
  const core::CyclicFamily family(core::fig1_spec());
  std::vector<MessageSpec> specs = family.message_specs();
  const std::vector<MessageSpec> once = specs;
  specs.insert(specs.end(), once.begin(), once.end());
  const WormholeSimulator sim =
      with_messages(WormholeSimulator(family.algorithm(), SimConfig{}), specs);
  EXPECT_GT(check_equal_keys_agree(sim, 11, 300, 60), 0u);
}

TEST(StateKeySoundness, EqualKeysPinChannelsAndRequestsOnSkewedTree) {
  core::CyclicFamilySpec spec = core::fig1_spec();
  for (int i = 0; i < 3; ++i) spec.messages.push_back({2, 1, true});
  const core::CyclicFamily family(spec);
  const WormholeSimulator sim = with_messages(
      WormholeSimulator(family.algorithm(), SimConfig{}),
      family.message_specs());
  EXPECT_GT(check_equal_keys_agree(sim, 12, 300, 60), 0u);
}

TEST(StateKeySoundness, EqualKeysPinChannelsAndRequestsWithDepthTwoBuffers) {
  const core::CyclicFamily family(core::fig1_spec());
  SimConfig config;
  config.buffer_depth = 2;
  const WormholeSimulator sim = with_messages(
      WormholeSimulator(family.algorithm(), config), family.message_specs());
  EXPECT_GT(check_equal_keys_agree(sim, 13, 300, 60), 0u);
}

TEST(StateKeySoundness, EqualKeysPinChannelsAndRequestsOnAdaptiveMesh) {
  const topo::Grid grid = topo::make_mesh({3, 3});
  const routing::MinimalAdaptiveMesh alg(grid);
  const auto at = [&](int x, int y) {
    const int coords[] = {x, y};
    return grid.node_at(coords);
  };
  const std::vector<MessageSpec> specs = {
      {at(0, 0), at(2, 2), 3, 0, {}},
      {at(2, 0), at(0, 2), 2, 0, {}},
      {at(2, 2), at(0, 0), 3, 0, {}},
      {at(0, 2), at(2, 1), 2, 0, {}},
  };
  const WormholeSimulator sim =
      with_messages(WormholeSimulator(alg, SimConfig{}), specs);
  EXPECT_GT(check_equal_keys_agree(sim, 14, 300, 60), 0u);
}

TEST(StateKey, LongMessageCountersTakeMultiByteFields) {
  // Flit counters of a 300-flit worm pass 127, where a LEB128 field grows
  // a second byte; the key must still decode and match a fresh replay.
  const core::CyclicFamily family(core::fig1_spec());
  std::vector<MessageSpec> specs = family.message_specs();
  specs.resize(1);
  specs[0].length = 300;
  SimConfig config;
  WormholeSimulator sim(family.algorithm(), config);
  sim.add_message(specs[0]);

  std::vector<std::vector<std::pair<ChannelId, MessageId>>> history;
  std::uint32_t max_injected = 0;
  for (int cycle = 0; cycle < 400 && !sim.all_consumed(); ++cycle) {
    const std::string key = sim.state_key();
    expect_key_decodes(sim, key);
    KeyReader reader(key);
    (void)reader.next();  // status
    max_injected = std::max(max_injected, reader.next());
    history.push_back(greedy_grants(sim));
    sim.step_with_grants(history.back());
  }
  EXPECT_TRUE(sim.all_consumed());
  EXPECT_EQ(max_injected, 300u);
  EXPECT_EQ(sim.state_key(),
            replay_key(family.algorithm(), config, specs, {}, history));
}

}  // namespace
}  // namespace wormsim::sim
