// fleet-acyclic: the --bias forbid campaign (seed 1) distributed by a
// run_coordinator and two run_worker threads over a fresh run dir, with the
// default batch, lease and poll settings. Search does little here (a few
// hundred states per scenario), so the fleet protocol and the campaign
// front end (generate, materialize, CDG, classify, JSONL) do most of the
// work. The only workload that measures `fleet`, `campaign` and `cdg`.
//
// Traced rounds follow the fleet run with the traced campaign replay of
// the same scenarios (campaign_trace.hpp), which splits the campaign and
// cdg layers by phase, kind and rule.
//
// Correctness: merged.jsonl must be byte-identical to an in-process
// run_campaign over the same range, which also gives the in-process time
// fleet.overhead_frac is measured against, and the verdicts of that run
// are pinned as a digest. The traced replay must reach the same verdicts.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "campaign/runner.hpp"
#include "campaign_trace.hpp"
#include "common.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"

namespace wsbench {
namespace {

namespace fs = std::filesystem;
using namespace wormsim;

constexpr std::uint64_t kFullCount = 4000;
constexpr std::uint64_t kSmallCount = 128;
constexpr unsigned kWorkers = 2;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

}  // namespace

void run_fleet_acyclic(const Options& opt, Result& out) {
  const std::uint64_t count = opt.small ? kSmallCount : kFullCount;
  const fs::path base = fs::path(opt.out_dir) / "fleet-acyclic";

  campaign::CampaignConfig campaign_config;
  campaign_config.seed = 1;
  campaign_config.count = count;
  campaign_config.knobs.cycle_bias = campaign::CycleBias::kForbid;
  campaign_config.fixture_dir = (base / "fixtures").string();

  fleet::FleetConfig fleet_config;
  fleet_config.campaign = campaign_config;
  fleet_config.run_dir = (base / "run").string();

  // Set-up: a fresh, empty run dir, and the front end (generate and
  // materialize every scenario) timed on its own; the workers do that again
  // inside every round.
  const auto setup = [&] {
    fs::remove_all(base);
    fs::create_directories(fleet_config.run_dir);
    const campaign::ScenarioGenerator generator(campaign_config.seed,
                                                campaign_config.knobs);
    for (std::uint64_t i = 0; i < count; ++i) {
      const campaign::Scenario s = generator.generate(i);
      (void)campaign::materialize(s);
    }
  };

  fleet::FleetResult last;
  std::string merged;
  std::uint64_t run_dir_bytes = 0;
  std::vector<MetricMap> traced_metrics;

  const auto fleet_round = [&] {
    fs::remove_all(fleet_config.run_dir);
    fs::create_directories(fleet_config.run_dir);
    const std::int64_t t0 = now_ns();
    std::vector<fleet::WorkerResult> workers(kWorkers);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w)
      threads.emplace_back([&, w] {
        fleet::WorkerConfig config;
        config.run_dir = fleet_config.run_dir;
        config.name = "w" + std::to_string(w);
        workers[w] = fleet::run_worker(config);
      });
    last = fleet::run_coordinator(fleet_config);
    for (std::thread& t : threads) t.join();
    const double wall = seconds_since(t0);
    merged = read_file(fleet::RunPaths(fleet_config.run_dir).merged());
    run_dir_bytes = dir_bytes(fleet_config.run_dir);
    for (const fleet::WorkerResult& w : workers)
      if (w.exit_reason != "shutdown") ++out.failed;
    return wall;
  };

  // A traced round returns only the fleet's wall, so trace.overhead_frac
  // compares the same work; the campaign replay after it is timed by its
  // spans.
  std::string traced_digest, slowest_json;
  const Rounds rounds = run_rounds(opt, setup, [&](Tracer* tracer) {
    if (tracer == nullptr) return fleet_round();
    const double wall = fleet_round();
    CampaignTrace trace =
        trace_campaign(campaign_config, base / "replay", *tracer);
    MetricMap& m = trace.metrics;
    m["fleet.batches_done"] = {static_cast<double>(last.batches_done), "count"};
    m["fleet.retries"] = {static_cast<double>(last.retries), "count"};
    m["fleet.truth_records"] = {static_cast<double>(last.truth_records),
                                "count"};
    m["fleet.run_dir_bytes"] = {static_cast<double>(run_dir_bytes), "bytes"};
    traced_metrics.push_back(std::move(m));
    out.failed += trace.failed;
    traced_digest = verdict_digest(trace.records);
    slowest_json = std::move(trace.slowest_json);
    return wall;
  });

  // Reference: the same range in one process, after the timed rounds.
  const std::int64_t r0 = now_ns();
  const campaign::CampaignResult reference =
      campaign::run_campaign(campaign_config);
  std::ostringstream reference_jsonl;
  reference.write_jsonl(reference_jsonl);
  const double in_process_s = seconds_since(r0);

  const bool identical = merged == reference_jsonl.str();
  out.attempted = count;
  // Scenarios in quarantined batches, plus those the reference run could
  // not decide or decided against the theorem predictions.
  out.failed += last.records < count ? count - last.records : 0;
  out.failed += reference.disagree;
  for (const auto& [reason, n] : reference.skip_counts)
    if (reason == "search-limit" || reason == "witness-gap") out.failed += n;
  if (!identical) ++out.failed;
  out.check("merged_matches_in_process", identical ? "yes" : "no");
  out.check("complete", last.complete ? "yes" : "no");
  out.check("records", last.records);
  out.check("disagree", reference.disagree);
  const std::string digest = verdict_digest(reference.records);
  out.check("verdict_digest", digest);
  if (opt.trace && traced_digest != digest) ++out.failed;
  out.info["campaign_seed"] = "1";
  out.info["scenarios"] = std::to_string(count);
  out.info["workers"] = std::to_string(kWorkers);

  end_to_end(out, rounds, static_cast<double>(count));
  if (opt.trace) {
    add_medians(out, traced_metrics);
    const double fleet_wall = median(rounds.untraced);
    out.metric("fleet.overhead_frac",
               fleet_wall > 0 ? 1 - in_process_s / (fleet_wall * kWorkers) : 0,
               "ratio");
    out.metric("fleet.in_process_s", in_process_s, "s");
    trace_overhead(out, rounds.untraced, rounds.traced);
    const double coverage = out.metrics["campaign.span_coverage"].value;
    if (coverage < 0.9 || coverage > 1.1) ++out.failed;
    const fs::path side = fs::path(opt.out_dir) / "campaign-topk.json";
    std::ofstream(side, std::ios::binary) << slowest_json;
    out.info["topk_file"] = side.string();
  }
  fs::remove_all(base);
}

}  // namespace wsbench
