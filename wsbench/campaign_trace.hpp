// The traced campaign replay: a campaign range run one scenario at a time
// through run_campaign_range(i, i+1, &store), sharing one TruthStore, with
// spans around generate, materialize + classify, the CDG build and the
// evaluation of every scenario, then around the JSONL write and a truth
// save and load. fleet-acyclic's traced rounds run it over the fleet's own
// scenarios, so the campaign and cdg layers are split by phase, scenario
// kind and governing rule, and searched states are told apart from states
// replayed from the truth memo.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "common.hpp"

namespace wsbench {

struct CampaignTrace {
  /// campaign.*, cdg.build_ms and analysis.campaign.ns_per_state.
  MetricMap metrics;
  std::vector<wormsim::campaign::ScenarioRecord> records;
  /// The ten slowest scenarios as a JSON list of {index, kind, rule, ms}.
  std::string slowest_json;
  /// Truth save or load that lost records.
  std::uint64_t failed = 0;
};

CampaignTrace trace_campaign(const wormsim::campaign::CampaignConfig& config,
                             const std::filesystem::path& run_dir,
                             Tracer& tracer);

/// Verdict-level digest (FNV-1a 64) of rule, outcome, verdict and skip
/// reason per scenario, without states, so a reduction or subsumption
/// change that visits fewer states is not a false failure.
std::string verdict_digest(
    const std::vector<wormsim::campaign::ScenarioRecord>& records);

}  // namespace wsbench
