// search-proofs: single exhaustive proofs back to back, the ROADMAP's
// search-engine instances. No campaign or fleet code runs here. It is the
// only workload that exercises reduction `safe` and work stealing, and the
// StateTable of the Fig 1 x2 proof is the largest one in the benchmark.
//
// Legs, run in an order the seed shuffles each round:
//   fig1x2-off    Fig 1 x2, reduction off
//   fig1x2-safe   Fig 1 x2, reduction safe
//   skewed-t1/t2  Fig 1 plus three stub messages, 1 and 2 DFS workers
//   fig1-delay3   Fig 1, bounded-delay adversary, total budget 3
//   mindelay-t1/t2  minimal_deadlock_delay sweep to budget 3, 1 and 2 threads
//
// Traced runs add the search-state primitive probe: a seeded walk through
// Fig 1 x2 using only public calls, timing each primitive the search
// performs per state, and the share of the measured ns/state they explain.
#include <algorithm>
#include <memory>
#include <optional>

#include "analysis/deadlock_search.hpp"
#include "analysis/state_table.hpp"
#include "common.hpp"
#include "core/cyclic_family.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace wsbench {
namespace {

using namespace wormsim;

/// The bench_search skewed tree: Fig 1 plus three hold=1 stubs that widen
/// the root while one spine carries almost every unique state.
core::CyclicFamilySpec skewed_spec() {
  core::CyclicFamilySpec spec = core::fig1_spec();
  spec.name = "skewed-fig1-plus-stubs";
  for (int i = 0; i < 3; ++i) spec.messages.push_back({2, 1, true});
  return spec;
}

std::vector<sim::MessageSpec> copies(const core::CyclicFamily& family,
                                     int n) {
  std::vector<sim::MessageSpec> specs;
  const auto base = family.message_specs();
  for (int i = 0; i < n; ++i) specs.insert(specs.end(), base.begin(), base.end());
  return specs;
}

struct Leg {
  std::string name;
  const core::CyclicFamily* family = nullptr;
  std::vector<sim::MessageSpec> specs;
  analysis::AdversaryModel model = analysis::AdversaryModel::kSynchronous;
  analysis::SearchLimits limits;
  bool min_delay = false;  ///< minimal_deadlock_delay sweep to budget 3
};

struct LegOutcome {
  std::optional<analysis::DeadlockSearchResult> search;
  std::optional<std::uint32_t> min_delay;
  bool exhausted = false;
};

LegOutcome run_leg(const Leg& leg) {
  LegOutcome out;
  if (leg.min_delay) {
    bool exhausted = false;
    out.min_delay = analysis::minimal_deadlock_delay(
        leg.family->algorithm(), leg.specs, analysis::DelayMetric::kTotal, 3,
        leg.limits, &exhausted);
    out.exhausted = exhausted;
  } else {
    out.search = analysis::find_deadlock(leg.family->algorithm(), leg.specs,
                                         leg.model, leg.limits);
    out.exhausted = out.search->exhausted;
  }
  return out;
}

/// Verdict-level outcome of one leg, the thing the pins fix.
std::string verdict(const LegOutcome& o) {
  if (o.search)
    return std::string(o.search->deadlock_found ? "deadlock" : "no-deadlock") +
           (o.exhausted ? " exhausted" : " not-exhausted");
  return "min-delay " + (o.min_delay ? std::to_string(*o.min_delay)
                                     : std::string("none")) +
         (o.exhausted ? " exhausted" : " not-exhausted");
}

/// A legal adversary grant for the synchronous model: every moving header
/// whose channel is still free wins it (ties broken by the shuffled
/// order); a pending header is injected with probability one half.
std::vector<std::pair<ChannelId, MessageId>> random_grants(
    std::vector<sim::MessageRequests> requests, util::Rng& rng) {
  std::shuffle(requests.begin(), requests.end(), rng);
  std::stable_partition(requests.begin(), requests.end(),
                        [](const sim::MessageRequests& r) { return r.moving; });
  std::vector<std::pair<ChannelId, MessageId>> grants;
  for (const sim::MessageRequests& r : requests) {
    if (r.channels.empty()) continue;
    const ChannelId c = r.channels[rng.below(r.channels.size())];
    const bool taken = std::any_of(grants.begin(), grants.end(),
                                   [c](const auto& g) { return g.first == c; });
    if (taken || (!r.moving && !rng.chance(0.5))) continue;
    grants.emplace_back(c, r.message);
  }
  std::sort(grants.begin(), grants.end());
  return grants;
}

template <typename F>
double ns_per_call(std::size_t calls, F&& body) {
  // Best of five passes: the primitives are tens to hundreds of ns, so the
  // minimum is the least disturbed estimate of the cost itself.
  double best = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    body();
    const double ns = static_cast<double>(now_ns() - t0) /
                      static_cast<double>(calls);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

/// The search-state primitive probe (see the file comment). `fig1x2` is the
/// fig1x2-off leg's result, whose per-state counts weight the primitives.
void probe_primitives(const core::CyclicFamily& fig1,
                      const std::vector<sim::MessageSpec>& specs,
                      const analysis::DeadlockSearchResult& fig1x2,
                      double fig1x2_ns_per_state, std::uint64_t seed,
                      std::size_t states, MetricMap& m) {
  sim::SimConfig config;
  config.buffer_depth = 1;
  sim::WormholeSimulator initial(fig1.algorithm(), config);
  for (const sim::MessageSpec& spec : specs) initial.add_message(spec);

  util::Rng rng(seed);
  std::vector<sim::WormholeSimulator> walk;
  std::vector<std::vector<std::pair<ChannelId, MessageId>>> grants;
  walk.reserve(states);
  sim::WormholeSimulator current = initial;
  std::vector<sim::MessageRequests> requests;
  while (walk.size() < states) {
    current.peek_requests_into(requests);
    auto g = random_grants(requests, rng);
    if (current.all_consumed()) {
      current = initial;
      continue;
    }
    walk.push_back(current);
    grants.push_back(g);
    if (!current.step_with_grants_trusted(g) && requests.empty())
      current = initial;  // stuck: start a new walk
  }

  const std::size_t n = walk.size();
  // The search forks by copy-assigning into a recycled simulator from its
  // pool, so time assignment into simulators that already hold a state.
  std::vector<sim::WormholeSimulator> forks(walk.begin(), walk.end());
  const double copy_ns = ns_per_call(n, [&] {
    for (std::size_t i = 0; i < n; ++i) forks[i] = walk[(i + 1) % n];
  });
  const double peek_ns = ns_per_call(n, [&] {
    for (const sim::WormholeSimulator& s : walk) s.peek_requests_into(requests);
  });
  double step_ns = 0;
  for (int pass = 0; pass < 5; ++pass) {
    forks.assign(walk.begin(), walk.end());
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i)
      (void)forks[i].step_with_grants_trusted(grants[i]);
    const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    if (pass == 0 || ns < step_ns) step_ns = ns;
  }
  // First key view after a step refreshes the simulator's key cache, as in
  // the search; later views would only return the cached bytes.
  std::vector<std::string> keys(n);
  double key_view_ns = 0;
  for (int pass = 0; pass < 5; ++pass) {
    forks.assign(walk.begin(), walk.end());
    for (std::size_t i = 0; i < n; ++i)
      (void)forks[i].step_with_grants_trusted(grants[i]);
    const std::int64_t t0 = now_ns();
    std::size_t bytes = 0;
    for (const sim::WormholeSimulator& s : forks) bytes += s.state_key_view().size();
    const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
    if (pass == 0 || ns < key_view_ns) key_view_ns = ns;
    if (bytes == 0) key_view_ns = 0;
  }
  std::size_t key_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = std::string(forks[i].state_key_view());
    key_bytes += keys[i].size();
  }
  std::vector<std::uint64_t> hashes(n);
  const double hash_ns = ns_per_call(n, [&] {
    for (std::size_t i = 0; i < n; ++i) hashes[i] = analysis::hash_bytes(keys[i]);
  });
  const double probe_ns = ns_per_call(n, [&] {
    analysis::StateTable table;
    for (std::size_t i = 0; i < n; ++i)
      (void)table.lookup_or_insert_hashed(keys[i], hashes[i]);
  });

  // Per expanded state the search peeks once; per transition it steps,
  // views the key, hashes it and probes the table; it forks for every
  // transition but the last, which takes the parent's simulator.
  const analysis::SearchProfile& p = fig1x2.profile;
  const double expanded = static_cast<double>(std::max<std::uint64_t>(1, fig1x2.states_explored));
  const double transitions = static_cast<double>(p.memo_hits + p.memo_misses) / expanded;
  const double modelled = peek_ns + std::max(0.0, transitions - 1) * copy_ns +
                          transitions * (step_ns + key_view_ns + hash_ns + probe_ns);
  m["sim.copy_ns"] = {copy_ns, "ns"};
  m["sim.peek_ns"] = {peek_ns, "ns"};
  m["sim.step_trusted_ns"] = {step_ns, "ns"};
  m["sim.key_view_ns"] = {key_view_ns, "ns"};
  m["analysis.hash_ns"] = {hash_ns, "ns"};
  m["analysis.table_probe_ns"] = {probe_ns, "ns"};
  m["analysis.key_bytes"] = {static_cast<double>(key_bytes) / static_cast<double>(n), "bytes"};
  m["analysis.transitions_per_state"] = {transitions, "count"};
  m["analysis.explained_share"] = {
      fig1x2_ns_per_state > 0 ? modelled / fig1x2_ns_per_state : 0, "ratio"};
}

}  // namespace

void run_search_proofs(const Options& opt, Result& out) {
  // Small mode proves Fig 1 x1 where full mode proves Fig 1 x2.
  const int fig1_copies = opt.small ? 1 : 2;
  std::unique_ptr<core::CyclicFamily> fig1, skewed;
  std::vector<Leg> legs;
  const auto setup = [&] {
    fig1 = std::make_unique<core::CyclicFamily>(core::fig1_spec());
    skewed = std::make_unique<core::CyclicFamily>(skewed_spec());
    legs.clear();
    const auto add = [&](std::string name, const core::CyclicFamily& family,
                         std::vector<sim::MessageSpec> specs) -> Leg& {
      Leg leg;
      leg.name = std::move(name);
      leg.family = &family;
      leg.specs = std::move(specs);
      leg.limits.build_witness = false;
      legs.push_back(std::move(leg));
      return legs.back();
    };
    add("fig1x2-off", *fig1, copies(*fig1, fig1_copies));
    add("fig1x2-safe", *fig1, copies(*fig1, fig1_copies)).limits.reduction =
        analysis::ReductionMode::kSafe;
    add("skewed-t1", *skewed, skewed->message_specs());
    add("skewed-t2", *skewed, skewed->message_specs()).limits.threads = 2;
    Leg& delay = add("fig1-delay3", *fig1, fig1->message_specs());
    delay.model = analysis::AdversaryModel::kBoundedDelay;
    delay.limits.delay_budget = 3;
    add("mindelay-t1", *fig1, fig1->message_specs()).min_delay = true;
    Leg& sweep2 = add("mindelay-t2", *fig1, fig1->message_specs());
    sweep2.min_delay = true;
    sweep2.limits.threads = 2;
  };

  std::vector<LegOutcome> last;
  std::vector<MetricMap> traced_metrics;
  std::size_t round_index = 0;

  const Rounds rounds = run_rounds(opt, setup, [&](Tracer* tracer) {
    last.resize(legs.size());
    const std::int64_t t0 = now_ns();
    for (const std::size_t i : shuffled_order(legs.size(), opt.seed, round_index++)) {
      Span span(tracer, "analysis." + legs[i].name);
      last[i] = run_leg(legs[i]);
    }
    const double wall = seconds_since(t0);
    if (tracer != nullptr) {
      MetricMap m;
      const auto self = tracer->self_ns();
      for (std::size_t i = 0; i < legs.size(); ++i) {
        const std::string prefix = "analysis." + legs[i].name;
        const double ns = self.at(prefix);
        m[prefix + ".wall_ms"] = {ns * 1e-6, "ms"};
        if (!last[i].search) continue;
        const analysis::DeadlockSearchResult& r = *last[i].search;
        m[prefix + ".states"] = {static_cast<double>(r.states_explored), "count"};
        m[prefix + ".ns_per_state"] = {
            ns / static_cast<double>(std::max<std::uint64_t>(1, r.states_explored)),
            "ns"};
        m[prefix + ".peak_bytes"] = {
            static_cast<double>(r.profile.table_peak_resident_bytes), "bytes"};
      }
      traced_metrics.push_back(std::move(m));
    }
    return wall;
  });

  const auto leg = [&](const char* name) -> const LegOutcome& {
    for (std::size_t i = 0; i < legs.size(); ++i)
      if (legs[i].name == name) return last[i];
    return last.front();
  };
  out.attempted = legs.size();
  for (std::size_t i = 0; i < legs.size(); ++i)
    out.check(legs[i].name + ".verdict", verdict(last[i]));
  out.info["fig1_copies"] = std::to_string(fig1_copies);

  end_to_end(out, rounds, static_cast<double>(legs.size()));
  if (!opt.trace) return;

  add_medians(out, traced_metrics);
  trace_overhead(out, rounds.untraced, rounds.traced);
  const analysis::DeadlockSearchResult& off = *leg("fig1x2-off").search;
  const analysis::DeadlockSearchResult& safe = *leg("fig1x2-safe").search;
  out.metric("analysis.reduction.state_ratio",
             static_cast<double>(safe.states_explored) /
                 static_cast<double>(std::max<std::uint64_t>(1, off.states_explored)),
             "ratio");
  out.metric("analysis.memo_hit_rate", off.profile.memo_hit_rate(), "ratio");

  const analysis::DeadlockSearchResult& t2 = *leg("skewed-t2").search;
  std::uint64_t busy = 0, idle = 0, total = 0, peak = 0;
  for (const analysis::SearchProfile& shard : t2.worker_profiles) {
    busy += shard.busy_ns;
    idle += shard.idle_ns;
    total += shard.memo_misses;
    peak = std::max(peak, shard.memo_misses);
  }
  out.metric("analysis.skewed-t2.steals", static_cast<double>(t2.profile.steals), "count");
  out.metric("analysis.skewed-t2.splits", static_cast<double>(t2.profile.splits), "count");
  out.metric("analysis.skewed-t2.idle_frac",
             busy + idle > 0 ? static_cast<double>(idle) / static_cast<double>(busy + idle) : 0,
             "ratio");
  out.metric("analysis.skewed-t2.max_worker_share",
             total > 0 ? static_cast<double>(peak) / static_cast<double>(total) : 0,
             "ratio");

  MetricMap primitives;
  probe_primitives(*fig1, legs.front().specs, off,
                   out.metrics["analysis.fig1x2-off.ns_per_state"].value,
                   opt.seed, opt.small ? 512 : 4096, primitives);
  for (const auto& [name, value_unit] : primitives)
    out.metric(name, value_unit.first, value_unit.second);
  out.info["probe_unreached"] =
      "AssignmentGenerator enumeration and reduction bookkeeping run inside "
      "find_deadlock only; they are the unexplained share";
}

}  // namespace wsbench
