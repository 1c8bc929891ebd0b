// Shared plumbing for the wsbench workloads: options, clocks, the span
// tracer, sample statistics and the result object printed as JSON.
//
// Spans are recorded only by the benchmark's own code, around calls into a
// layer's public functions. They stay in memory until the run ends, when
// per-name self times (a span's duration minus the part its children
// cover) are folded into the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small-size mode: the same code paths on inputs small enough for a
  /// self-test, checked against their own pins.
  bool small = false;
  /// Scratch directory for run dirs and side files; created if missing.
  std::string out_dir = ".";
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// In-memory span log. A null Tracer* disables recording; Span guards then
/// cost one branch each.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into records(), -1 for a root span
  };

  int open(std::string name);
  /// Ends span `index`; returns its duration in ns.
  std::int64_t close(int index);
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Sum of self time (ns) per span name.
  [[nodiscard]] std::map<std::string, double> self_ns() const;

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `tracer` is null.
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(std::move(name)) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its duration in ns (0 when disabled or
  /// already ended).
  std::int64_t end() {
    std::int64_t ns = 0;
    if (tracer_ != nullptr && index_ >= 0) ns = tracer_->close(index_);
    index_ = -1;
    return ns;
  }

 private:
  Tracer* tracer_;
  int index_;
};

double median(std::vector<double> values);

/// The highest percentile (a whole number) that still has at least
/// `min_beyond` samples above it, and its value. percentile is 0 when there
/// are too few samples.
struct Tail {
  int percentile = 0;
  double value = 0;
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

/// Peak resident set of this process, MB (getrusage).
double peak_rss_mb();

/// Indices 0..n-1 in an order drawn from (seed, round): how a round
/// shuffles its independent units.
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::size_t round);

/// What one workload run produced. `checks` hold verdict-level outputs the
/// run.py compares with the pins; metrics carry their units.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> checks;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, const std::string& value) {
    checks[name] = value;
  }
  void check(const std::string& name, std::uint64_t value) {
    checks[name] = std::to_string(value);
  }

  [[nodiscard]] std::string to_json() const;
};

/// Wall times of the set-ups and rounds one run measured.
struct Rounds {
  std::vector<double> setup;
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Repeats `round(Tracer*)` (which returns that round's wall seconds) until
/// opt.seconds have passed, and at least once. Untraced runs pass a null
/// tracer every round; traced runs alternate untraced and traced rounds,
/// starting untraced, so the two can be compared within one run.
///
/// Before every round, `setup()` runs at least once and then until 20 ms
/// have passed, each repetition timed. The host's speed drifts over
/// seconds, so set-up sampled across the whole run gives a steadier median
/// than one burst at its start. On search-proofs and saturation-fattree
/// the state the last repetition built is what the round uses.
/// fleet-acyclic keeps only the run dir: the fleet workers rebuild every
/// scenario inside the round, so there set-up times that front end on its
/// own.
template <typename S, typename F>
Rounds run_rounds(const Options& opt, S&& setup, F&& round) {
  Rounds rounds;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const std::int64_t burst = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      setup();
      rounds.setup.push_back(seconds_since(t0));
    } while (seconds_since(burst) < 0.02);
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) {
      Tracer tracer;
      rounds.traced.push_back(round(&tracer));
    } else {
      rounds.untraced.push_back(round(static_cast<Tracer*>(nullptr)));
    }
    const bool enough = !opt.trace || !rounds.traced.empty();
    if (enough && seconds_since(start) >= opt.seconds) break;
  }
  return rounds;
}

/// Metrics of one traced round: name -> (value, unit).
using MetricMap = std::map<std::string, std::pair<double, std::string>>;
/// Folds per-round metric maps to their medians, one metric at a time.
void add_medians(Result& out, const std::vector<MetricMap>& rounds);

/// Sets the end-to-end metrics every workload reports: setup_s is the
/// median set-up, wall_s the median untraced round.
void end_to_end(Result& out, const Rounds& rounds, double work_per_round);

/// Traced runs alternate untraced and traced rounds; this records the
/// tracing overhead as median traced / median untraced wall - 1. A traced
/// round returns the wall of the work the untraced round also does.
void trace_overhead(Result& out, const std::vector<double>& untraced,
                    const std::vector<double>& traced);

void run_fleet_acyclic(const Options& opt, Result& out);
void run_search_proofs(const Options& opt, Result& out);
void run_saturation_fattree(const Options& opt, Result& out);

}  // namespace wsbench
