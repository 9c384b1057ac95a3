#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "bench.hpp"

namespace perfbench {

void WorkloadResult::Check(bool ok, const std::string& what) {
  if (!ok) {
    check_failures.push_back(what);
  }
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) {
    return -1;
  }
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

int Tracer::Record(const std::string& name, int parent, Clock::time_point start,
                   Clock::time_point end) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start, end, parent});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::TotalSeconds(const std::string& name) const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += Seconds(span.start, span.end);
    }
  }
  return total;
}

std::vector<double> Tracer::StartLags(const std::string& name,
                                      const std::string& parent_prefix) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != name || span.parent < 0) {
      continue;
    }
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (parent.name.starts_with(parent_prefix)) {
      out.push_back(Seconds(parent.start, span.start));
    }
  }
  return out;
}

std::size_t Tracer::SpanCount() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

namespace {

std::string LayerOf(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredSeconds(std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals,
                      Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Clock::time_point cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += Seconds(start, end);
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

void Tracer::WriteReport(const std::filesystem::path& dir) const {
  std::lock_guard lock(mutex_);
  std::filesystem::create_directories(dir);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }

  std::ofstream spans_csv(dir / "spans.csv");
  spans_csv << "id,name,parent,start_us,end_us,self_us\n";
  struct Totals {
    double self_s = 0.0;
    double total_s = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Totals> by_layer;
  std::map<std::string, Totals> by_name;
  for (std::size_t id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    const double total = Seconds(span.start, span.end);
    const double self =
        total - CoveredSeconds(children[id], span.start, span.end);
    spans_csv << id << ',' << span.name << ',' << span.parent << ','
              << Seconds(origin_, span.start) * 1e6 << ','
              << Seconds(origin_, span.end) * 1e6 << ',' << self * 1e6 << '\n';
    for (Totals* totals : {&by_layer[LayerOf(span.name)], &by_name[span.name]}) {
      totals->self_s += self;
      totals->total_s += total;
      ++totals->count;
    }
  }
  std::ofstream layers_csv(dir / "layers.csv");
  layers_csv << "kind,name,count,self_s,total_s\n";
  for (const auto& [kind, table] :
       {std::pair{"layer", &by_layer}, std::pair{"span", &by_name}}) {
    for (const auto& [name, totals] : *table) {
      layers_csv << kind << ',' << name << ',' << totals.count << ','
                 << totals.self_s << ',' << totals.total_s << '\n';
    }
  }
  if (!spans_csv || !layers_csv) {
    throw std::runtime_error("cannot write the trace report under " + dir.string());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double RankSumAuc(std::vector<std::pair<double, int>> scored) {
  std::sort(scored.begin(), scored.end());
  double positive_rank_sum = 0.0;
  double positives = 0.0;
  for (std::size_t lo = 0; lo < scored.size();) {
    std::size_t hi = lo;
    while (hi < scored.size() && scored[hi].first == scored[lo].first) {
      ++hi;
    }
    const double average_rank = 0.5 * static_cast<double>(lo + 1 + hi);
    for (std::size_t p = lo; p < hi; ++p) {
      if (scored[p].second > 0) {
        positive_rank_sum += average_rank;
        positives += 1.0;
      }
    }
    lo = hi;
  }
  const double negatives = static_cast<double>(scored.size()) - positives;
  if (positives == 0.0 || negatives == 0.0) {
    return 0.0;
  }
  return (positive_rank_sum - positives * (positives + 1.0) / 2.0) /
         (positives * negatives);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
