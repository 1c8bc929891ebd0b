// saturation-fattree: `sim` used the way throughput studies use it — run()
// with the event core on the k=16 fat-tree (1024 hosts, 1344 nodes) under
// uniform traffic, swept over offered loads below and past the knee. No
// search runs here, so a simulator change made for the search shows up on
// this workload only through the code run() shares with stepping.
//
// The seed shuffles the order of the loads each round; the traffic itself
// is pinned, so every simulated statistic can be checked exactly. The pins
// are this code's own output, not a hardware reference: the statistics are
// unvalidated.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "routing/datacenter.hpp"
#include "sim/arbitration.hpp"
#include "sim/simulator.hpp"
#include "sim/workloads.hpp"
#include "topo/datacenter.hpp"

namespace wsbench {
namespace {

using namespace wormsim;

struct Config {
  int k;
  std::vector<double> loads;
  sim::Cycle horizon;
  sim::Cycle drain;
  std::uint32_t length;
  std::uint64_t traffic_seed;
};

Config full_config() { return {16, {0.01, 0.04, 0.07}, 1000, 50'000, 8, 1}; }
Config small_config() { return {4, {0.01, 0.04, 0.07}, 400, 20'000, 8, 1}; }

std::string load_name(double load) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "load-%.3f", load);
  return buffer;
}

std::string exact(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

struct Fabric {
  std::unique_ptr<topo::FatTree> tree;
  std::unique_ptr<routing::FatTreeUpDown> alg;
  std::vector<std::vector<sim::MessageSpec>> traffic;  ///< one per load
};

struct LoadOutcome {
  sim::RunResult run;
  sim::WorkloadStats stats;
  sim::EventCoreStats events;
  std::uint64_t delivered_flits = 0;
  double active_channel_cycles = 0;
};

LoadOutcome run_load(const Fabric& fabric,
                     const std::vector<sim::MessageSpec>& traffic,
                     const Config& config) {
  LoadOutcome out;
  sim::FifoArbitration policy;
  sim::SimConfig sim_config;
  sim_config.core = sim::SimCore::kEvent;
  sim_config.buffer_depth = 2;
  sim_config.max_cycles = config.horizon + config.drain;
  sim::WormholeSimulator simulator(*fabric.alg, sim_config, policy);
  for (const sim::MessageSpec& spec : traffic) simulator.add_message(spec);
  out.run = simulator.run();
  out.stats = sim::summarize_workload(simulator, out.run.cycles);
  out.events = simulator.event_stats();
  for (std::size_t m = 0; m < simulator.message_count(); ++m) {
    const MessageId id{m};
    if (simulator.status(id) == sim::MessageStatus::kConsumed)
      out.delivered_flits += simulator.spec(id).length;
  }
  out.active_channel_cycles = simulator.busy_channel_fraction() *
                              static_cast<double>(fabric.tree->net().channel_count()) *
                              static_cast<double>(simulator.now());
  return out;
}

}  // namespace

void run_saturation_fattree(const Options& opt, Result& out) {
  const Config config = opt.small ? small_config() : full_config();

  // Set-up: the fabric, its routing and the traffic of every load.
  Fabric fabric;
  std::vector<double> topo_s, routing_s, gen_s;
  const auto setup = [&] {
    fabric = Fabric{};
    std::int64_t t0 = now_ns();
    fabric.tree = std::make_unique<topo::FatTree>(config.k);
    std::int64_t t1 = now_ns();
    fabric.alg = std::make_unique<routing::FatTreeUpDown>(*fabric.tree);
    std::int64_t t2 = now_ns();
    for (const double load : config.loads) {
      sim::WorkloadConfig workload;
      workload.pattern = sim::TrafficPattern::kUniformRandom;
      workload.injection_rate = load;
      workload.message_length = config.length;
      workload.horizon = config.horizon;
      workload.seed = config.traffic_seed;
      fabric.traffic.push_back(
          sim::generate_workload(fabric.tree->hosts(), workload));
    }
    std::int64_t t3 = now_ns();
    topo_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    routing_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    gen_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
  };

  std::vector<LoadOutcome> last(config.loads.size());
  std::vector<MetricMap> traced_metrics;
  std::uint64_t delivered_per_round = 0;
  std::size_t round_index = 0;

  const Rounds rounds = run_rounds(opt, setup, [&](Tracer* tracer) {
    const std::int64_t t0 = now_ns();
    for (const std::size_t i : shuffled_order(config.loads.size(), opt.seed, round_index++)) {
      Span span(tracer, "sim." + load_name(config.loads[i]));
      last[i] = run_load(fabric, fabric.traffic[i], config);
    }
    const double wall = seconds_since(t0);
    delivered_per_round = 0;
    for (std::size_t i = 0; i < last.size(); ++i) {
      delivered_per_round += last[i].delivered_flits;
    }
    if (tracer != nullptr) {
      MetricMap m;
      const auto self = tracer->self_ns();
      for (std::size_t i = 0; i < last.size(); ++i) {
        const std::string prefix = "sim." + load_name(config.loads[i]);
        const LoadOutcome& o = last[i];
        const double ns = self.at(prefix);
        m[prefix + ".wall_s"] = {ns * 1e-9, "s"};
        m[prefix + ".run_cycles"] = {static_cast<double>(o.run.cycles), "count"};
        m[prefix + ".events_fired"] = {static_cast<double>(o.events.events_fired), "count"};
        m[prefix + ".ns_per_active_channel_cycle"] = {
            o.active_channel_cycles > 0 ? ns / o.active_channel_cycles : 0, "ns"};
        m[prefix + ".queue_peak"] = {static_cast<double>(o.events.queue_peak), "count"};
        m[prefix + ".mean_latency_cycles"] = {o.stats.mean_latency, "cycles"};
        m[prefix + ".accepted_flits_per_cycle"] = {
            o.stats.throughput_flits_per_cycle, "1/cycle"};
      }
      traced_metrics.push_back(std::move(m));
    }
    return wall;
  });

  out.attempted = config.loads.size();
  for (std::size_t i = 0; i < last.size(); ++i) {
    const std::string prefix = load_name(config.loads[i]) + ".";
    const LoadOutcome& o = last[i];
    out.check(prefix + "outcome", std::to_string(static_cast<int>(o.run.outcome)));
    out.check(prefix + "cycles", o.run.cycles);
    out.check(prefix + "offered", o.stats.offered);
    out.check(prefix + "delivered", o.stats.delivered);
    out.check(prefix + "delivered_flits", o.delivered_flits);
    out.check(prefix + "mean_latency", exact(o.stats.mean_latency));
    out.check(prefix + "max_latency", exact(o.stats.max_latency));
    out.check(prefix + "throughput", exact(o.stats.throughput_flits_per_cycle));
    out.check(prefix + "mean_utilization", exact(o.stats.mean_channel_utilization));
    out.check(prefix + "max_utilization", exact(o.stats.max_channel_utilization));
    out.check(prefix + "events_fired", o.events.events_fired);
    out.check(prefix + "events_scheduled", o.events.events_scheduled);
    out.check(prefix + "queue_peak", o.events.queue_peak);
    out.check(prefix + "cycles_executed", o.events.cycles_executed);
  }
  out.info["fabric"] = "fattree-k" + std::to_string(config.k);
  out.info["nodes"] = std::to_string(fabric.tree->net().node_count());
  out.info["statistics"] = "unvalidated: no hardware reference";

  end_to_end(out, rounds, static_cast<double>(delivered_per_round));
  if (!opt.trace) return;
  add_medians(out, traced_metrics);
  trace_overhead(out, rounds.untraced, rounds.traced);
  out.metric("topo.build_s", median(topo_s), "s");
  out.metric("routing.build_s", median(routing_s), "s");
  out.metric("sim.workload_gen_s", median(gen_s), "s");
}

}  // namespace wsbench
