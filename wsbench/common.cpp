#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.hpp"
#include "util/rng.hpp"

namespace wsbench {

int Tracer::open(std::string name) {
  Record record;
  record.name = std::move(name);
  record.parent = stack_.empty() ? -1 : stack_.back();
  const int index = static_cast<int>(records_.size());
  records_.push_back(std::move(record));
  stack_.push_back(index);
  // Stamp the start last so bookkeeping above is not charged to the span.
  records_.back().start_ns = now_ns();
  return index;
}

std::int64_t Tracer::close(int index) {
  const std::int64_t end = now_ns();
  Record& record = records_[static_cast<std::size_t>(index)];
  record.end_ns = end;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  return end - record.start_ns;
}

std::map<std::string, double> Tracer::self_ns() const {
  std::vector<double> child(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0)
      child[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i)
    out[records_[i].name] +=
        static_cast<double>(records_[i].end_ns - records_[i].start_ns) -
        child[i];
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  const std::size_t n = values.size();
  if (n <= min_beyond) return tail;
  std::sort(values.begin(), values.end());
  // Largest whole percentile p with at least min_beyond samples strictly
  // above the sample at rank ceil(p/100 * n).
  for (int p = 99; p >= 1; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    if (n - 1 - index >= min_beyond) {
      tail.percentile = p;
      tail.value = values[index];
      return tail;
    }
  }
  return tail;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

using wormsim::obs::json::number;
using wormsim::obs::json::quote;

template <typename Map, typename F>
void write_object(std::ostringstream& os, const Map& map, F&& value) {
  os << '{';
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) os << ", ";
    first = false;
    os << quote(key) << ": " << value(v);
  }
  os << '}';
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": ";
  write_object(os, metrics, [](const Metric& m) {
    return "{\"value\": " + number(m.value) + ", \"unit\": " + quote(m.unit) +
           "}";
  });
  os << ", \"checks\": ";
  write_object(os, checks, [](const std::string& s) { return quote(s); });
  os << ", \"info\": ";
  write_object(os, info, [](const std::string& s) { return quote(s); });
  os << '}';
  return os.str();
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::size_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  wormsim::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + round);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void add_medians(Result& out, const std::vector<MetricMap>& rounds) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const MetricMap& round : rounds)
    for (const auto& [name, value_unit] : round) {
      values[name].push_back(value_unit.first);
      units[name] = value_unit.second;
    }
  for (const auto& [name, v] : values) out.metric(name, median(v), units[name]);
}

void end_to_end(Result& out, const Rounds& rounds, double work_per_round) {
  const std::vector<double>& walls = rounds.untraced;
  const double wall = median(walls);
  out.metric("setup_s", median(rounds.setup), "s");
  out.metric("wall_s", wall, "s");
  out.metric("throughput_per_s", wall > 0 ? work_per_round / wall : 0, "1/s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.info["rounds"] = std::to_string(walls.size());
  out.info["setups"] = std::to_string(rounds.setup.size());
  std::string listed;
  for (const double w : walls) listed += (listed.empty() ? "" : " ") + std::to_string(w);
  out.info["round_walls_s"] = listed;
}

void trace_overhead(Result& out, const std::vector<double>& untraced,
                    const std::vector<double>& traced) {
  const double base = median(untraced);
  out.metric("trace.overhead_frac", base > 0 ? median(traced) / base - 1 : 0,
             "ratio");
}

}  // namespace wsbench
