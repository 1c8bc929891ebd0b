#include "campaign_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "campaign/classifier.hpp"
#include "cdg/cdg.hpp"
#include "obs/json.hpp"

namespace wsbench {
namespace {

namespace fs = std::filesystem;
using namespace wormsim;

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

struct ScenarioTiming {
  std::uint64_t index = 0;
  std::string kind;
  std::string rule;
  double ms = 0;
};

}  // namespace

std::string verdict_digest(const std::vector<campaign::ScenarioRecord>& rs) {
  std::string text;
  for (const campaign::ScenarioRecord& r : rs)
    text += std::to_string(r.index) + ' ' + r.rule + ' ' +
            campaign::to_string(r.outcome) + ' ' +
            campaign::to_string(r.verdict) + ' ' + r.skip_reason + '\n';
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

CampaignTrace trace_campaign(const campaign::CampaignConfig& config,
                             const fs::path& run_dir, Tracer& tracer) {
  CampaignTrace out;
  MetricMap& m = out.metrics;
  fs::create_directories(run_dir);
  const campaign::ScenarioGenerator generator(config.seed, config.knobs);
  campaign::TruthStore store(campaign::campaign_truth_fingerprint(config.eval));
  std::vector<ScenarioTiming> timings;
  std::map<std::string, double> kind_s, rule_s;
  double searched_ns = 0;
  std::uint64_t hits = 0, misses = 0, searched = 0, replayed = 0;

  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < config.count; ++i) {
    Span scenario_span(&tracer, "campaign.scenario");
    const campaign::Scenario scenario = [&] {
      Span span(&tracer, "campaign.generate");
      return generator.generate(i);
    }();
    Span classify_span(&tracer, "campaign.classify");
    const campaign::MaterializedScenario live = campaign::materialize(scenario);
    (void)campaign::classify(scenario, live);
    classify_span.end();
    {
      Span span(&tracer, "cdg.build");
      (void)cdg::ChannelDependencyGraph::build(live.algorithm()).acyclic();
    }
    Span evaluate(&tracer, "campaign.evaluate");
    const campaign::CampaignResult r =
        campaign::run_campaign_range(config, i, i + 1, &store);
    const double eval_ns = static_cast<double>(evaluate.end());
    scenario_span.end();

    const campaign::ScenarioRecord& rec = r.records.front();
    const std::string kind = campaign::to_string(rec.kind);
    kind_s[kind] += eval_ns * 1e-9;
    rule_s[rec.rule] += eval_ns * 1e-9;
    timings.push_back({i, kind, rec.rule, eval_ns * 1e-6});
    const std::uint64_t hit = r.truth_memo_hits + r.truth_disk_hits;
    hits += hit;
    misses += r.truth_misses;
    if (r.truth_misses > 0) {
      searched += rec.states;
      searched_ns += eval_ns;
    } else if (hit > 0) {
      replayed += rec.states;
    }
    out.records.push_back(rec);
  }
  {
    Span span(&tracer, "campaign.jsonl");
    campaign::CampaignResult merged;
    merged.records = out.records;
    std::ostringstream jsonl;
    merged.write_jsonl(jsonl);
    write_file(run_dir / "campaign-traced.jsonl", jsonl.str());
  }
  const std::string cache = (run_dir / "truth.cache").string();
  {
    Span span(&tracer, "campaign.truth_save");
    if (!store.save(cache)) ++out.failed;
  }
  {
    Span span(&tracer, "campaign.truth_load");
    campaign::TruthStore loaded(store.fingerprint());
    if (loaded.load(cache).records != store.size()) ++out.failed;
  }
  const double wall = seconds_since(t0);

  const auto self = tracer.self_ns();
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e-9;
  };
  m["campaign.generate_s"] = {self_s("campaign.generate"), "s"};
  m["campaign.classify_s"] = {self_s("campaign.classify"), "s"};
  m["campaign.evaluate_s"] = {self_s("campaign.evaluate"), "s"};
  m["campaign.jsonl_s"] = {self_s("campaign.jsonl"), "s"};
  m["campaign.truth_save_s"] = {self_s("campaign.truth_save"), "s"};
  m["campaign.truth_load_s"] = {self_s("campaign.truth_load"), "s"};
  m["cdg.build_ms"] = {self_s("cdg.build") * 1e3, "ms"};
  for (const auto& [kind, s] : kind_s)
    m["campaign.evaluate_s.kind." + kind] = {s, "s"};
  for (const auto& [rule, s] : rule_s)
    m["campaign.evaluate_s.rule." + rule] = {s, "s"};

  std::vector<double> ms;
  for (const ScenarioTiming& t : timings) ms.push_back(t.ms);
  const Tail tail = tail_percentile(ms);
  m["campaign.scenario_p50_ms"] = {median(ms), "ms"};
  m["campaign.scenario_tail_ms"] = {tail.value, "ms"};
  m["campaign.scenario_tail_pct"] = {tail.percentile, "percentile"};
  m["campaign.scenario_samples"] = {static_cast<double>(ms.size()), "count"};
  std::vector<double> sorted = ms;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::size_t top = std::max<std::size_t>(1, (sorted.size() + 99) / 100);
  const double top_ms = std::accumulate(
      sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(top), 0.0);
  const double all_ms = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  m["campaign.top1pct_share"] = {all_ms > 0 ? top_ms / all_ms : 0, "ratio"};
  m["campaign.truth_hits"] = {static_cast<double>(hits), "count"};
  m["campaign.truth_misses"] = {static_cast<double>(misses), "count"};
  m["campaign.truth_hit_rate"] = {
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0,
      "ratio"};
  m["campaign.searched_states"] = {static_cast<double>(searched), "count"};
  m["campaign.replayed_states"] = {static_cast<double>(replayed), "count"};
  m["analysis.campaign.ns_per_state"] = {
      searched > 0 ? searched_ns / static_cast<double>(searched) : 0, "ns"};
  // The root spans (one per scenario, then the writes) must account for the
  // replay; checked on the median after the run.
  double covered_ns = 0;
  for (const Tracer::Record& r : tracer.records())
    if (r.parent < 0) covered_ns += static_cast<double>(r.end_ns - r.start_ns);
  m["campaign.span_coverage"] = {wall > 0 ? covered_ns * 1e-9 / wall : 0,
                                 "ratio"};

  std::sort(timings.begin(), timings.end(),
            [](const ScenarioTiming& a, const ScenarioTiming& b) {
              return a.ms > b.ms;
            });
  timings.resize(std::min<std::size_t>(timings.size(), 10));
  out.slowest_json = "[";
  for (const ScenarioTiming& t : timings)
    out.slowest_json +=
        std::string(out.slowest_json.size() > 1 ? ",\n " : "") +
        "{\"index\": " + std::to_string(t.index) +
        ", \"kind\": " + obs::json::quote(t.kind) +
        ", \"rule\": " + obs::json::quote(t.rule) +
        ", \"ms\": " + obs::json::number(t.ms) + "}";
  out.slowest_json += "]\n";
  return out;
}

}  // namespace wsbench
