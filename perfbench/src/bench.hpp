// Shared pieces of the end-to-end benchmark: the run options, the result
// a workload hands back, the span recorder of the traced run, and the
// small statistics the workloads report.
//
// Timing is always taken from outside the library, around the calls into
// one layer's public functions.  The recorder only decides whether those
// intervals are also kept as spans: the untraced run (the one whose
// end-to-end numbers count) measures the same intervals and drops them.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;
  std::filesystem::path out_dir;  ///< trace reports and scratch files
  Clock::time_point process_start;
  std::size_t threads = 1;  ///< nproc: the thread budget of every workload
};

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< printed by the untraced run
  std::vector<Metric> per_layer;   ///< printed by the traced run
  std::vector<Metric> details;     ///< workload-specific figures, logged only
  std::vector<std::string> check_failures;

  /// Records a correctness check; any failed check fails the run.
  void Check(bool ok, const std::string& what);
  [[nodiscard]] bool Correct() const noexcept { return check_failures.empty(); }
};

/// Span recorder of the traced run.  Every span has a name
/// ("<layer>.<call>"), a start, an end and a parent span (-1 for the
/// root); ids are indices into the recorded list.  Disabled, it records
/// nothing and every id is -1.  Thread-safe.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a phase span now; close it with End.
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  /// Records a finished interval.
  int Record(const std::string& name, int parent, Clock::time_point start,
             Clock::time_point end);

  /// Total duration (seconds) of the spans called `name`.
  [[nodiscard]] double TotalSeconds(const std::string& name) const;
  /// Start of each `name` span minus the start of its parent span, for
  /// parents whose name starts with `parent_prefix` (the lag of a call
  /// behind the request that caused it), seconds.
  [[nodiscard]] std::vector<double> StartLags(const std::string& name,
                                              const std::string& parent_prefix) const;

  /// Writes spans.csv and layers.csv (self time and call count per layer
  /// and per span name) under `dir`.
  void WriteReport(const std::filesystem::path& dir) const;

  [[nodiscard]] std::size_t SpanCount() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times `fn` and records it as a span of `parent`; returns the interval's
/// start and end whether or not tracing is on.
template <class Fn>
std::pair<Clock::time_point, Clock::time_point> TimedCall(Tracer& tracer,
                                                          const char* name,
                                                          int parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (tracer.enabled()) {
    tracer.Record(name, parent, start, end);
  }
  return {start, end};
}

/// RAII phase span.
class Phase {
 public:
  Phase(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~Phase() { tracer_.End(id_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Linear-interpolation quantile, q in [0, 1], of a copy of `values`
/// (the same definition as numpy's default).  0 for an empty input.
[[nodiscard]] double Quantile(std::vector<double> values, double q);

/// Mann-Whitney AUC of (score, +1/-1 label) pairs: the rank sum of the
/// positives with tied scores given their average rank.  0 when a class
/// is absent.
[[nodiscard]] double RankSumAuc(std::vector<std::pair<double, int>> scored);

/// Peak resident set of this process so far, MiB (getrusage).
[[nodiscard]] double PeakRssMb();

/// Runs a workload.  Each fills end_to_end (untraced run) or per_layer
/// (traced run), and records its correctness checks.
WorkloadResult RunTrain(const Options& options, Tracer& tracer);
WorkloadResult RunServe(const Options& options, Tracer& tracer);
WorkloadResult RunCluster(const Options& options, Tracer& tracer);

}  // namespace perfbench
