// Workload `cluster`: one async deployment split over two in-process
// "processes" on two threads, run with core::RunMultiprocessAsyncSimulation
// over real UdpInterShardChannel sockets on 127.0.0.1, each wrapped in a
// ReliableInterShardChannel with its default options.  Two phases: a clean
// link, then a link behind FaultInjectingInterShardChannel dropping 5 % of
// outbound frames (seeded).
//
// Why: the netsim window protocol, the reliable channel and transport/udp
// carry the load, with no ann or svc code; it is the only workload where
// loss recovery can move anything.
#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/multiprocess.hpp"
#include "datasets/hps3.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "transport/udp.hpp"

namespace perfbench {
namespace {

using dmfsgd::core::AsyncDmfsgdSimulation;
using dmfsgd::core::AsyncSimulationConfig;
using dmfsgd::core::MultiprocessRunReport;
using dmfsgd::datasets::Dataset;

constexpr std::size_t kHosts = 1024;
constexpr std::size_t kProcesses = 2;
constexpr std::size_t kShards = 2;
constexpr double kDropRate = 0.05;
// Simulated seconds per distributed run, and runs per second of --seconds.
constexpr double kCleanHorizonS = 60.0;
constexpr double kCleanRunsPerSecond = 2.0 / 3.0;
constexpr double kLossyHorizonS = 1.0;
constexpr double kLossyRunsPerSecond = 0.2;
constexpr double kWarmupHorizonS = 2.0;
constexpr std::size_t kAucPairs = 100000;

struct Run {
  double wall_s = 0.0;
  MultiprocessRunReport coordinator;
  MultiprocessRunReport peer;
};

/// One distributed run: two processes on two threads, each with its own
/// UDP socket, optional fault injector and reliable channel.
Run DistributedRun(const Dataset& dataset, const AsyncSimulationConfig& config,
                   double horizon_s, bool lossy, std::uint64_t fault_seed,
                   Tracer& tracer, int parent) {
  std::vector<dmfsgd::transport::UdpSocket> sockets;
  std::vector<std::uint16_t> ports;
  for (std::size_t p = 0; p < kProcesses; ++p) {
    sockets.emplace_back(0);
    ports.push_back(sockets.back().Port());
  }
  struct Process {
    std::unique_ptr<dmfsgd::netsim::UdpInterShardChannel> udp;
    std::unique_ptr<dmfsgd::netsim::FaultInjectingInterShardChannel> fault;
    std::unique_ptr<dmfsgd::netsim::ReliableInterShardChannel> reliable;
  };
  std::vector<Process> processes(kProcesses);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& process = processes[p];
    process.udp = std::make_unique<dmfsgd::netsim::UdpInterShardChannel>(
        std::move(sockets[p]), p, ports);
    dmfsgd::netsim::InterShardChannel* inner = process.udp.get();
    if (lossy) {
      dmfsgd::netsim::FaultChannelOptions faults;
      faults.outbound.drop_rate = kDropRate;
      faults.seed = fault_seed * kProcesses + p;
      process.fault =
          std::make_unique<dmfsgd::netsim::FaultInjectingInterShardChannel>(*inner, faults);
      inner = process.fault.get();
    }
    process.reliable = std::make_unique<dmfsgd::netsim::ReliableInterShardChannel>(*inner);
  }

  Run run;
  MultiprocessRunReport* reports[kProcesses] = {&run.coordinator, &run.peer};
  std::exception_ptr errors[kProcesses];
  const auto body = [&](std::size_t p) {
    try {
      dmfsgd::common::ThreadPool pool(1);
      TimedCall(tracer, "core.RunMultiprocessAsyncSimulation", parent, [&] {
        *reports[p] = dmfsgd::core::RunMultiprocessAsyncSimulation(
            dataset, config, *processes[p].reliable, horizon_s, pool);
      });
    } catch (...) {
      errors[p] = std::current_exception();
    }
  };
  const Clock::time_point start = Clock::now();
  std::thread peer(body, 1);
  body(0);
  peer.join();
  run.wall_s = Seconds(start, Clock::now());
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return run;
}

/// The in-process reference: the same deployment drained by
/// AsyncDmfsgdSimulation::RunUntilParallel.
struct Reference {
  std::vector<double> u, v;
  std::size_t measurements = 0;
  double drain_s = 0.0;
};
Reference ReferenceDrain(const Dataset& dataset, const AsyncSimulationConfig& config,
                         double horizon_s, std::size_t threads, Tracer& tracer,
                         int parent) {
  std::unique_ptr<AsyncDmfsgdSimulation> simulation;
  TimedCall(tracer, "core.AsyncDmfsgdSimulation", parent, [&] {
    simulation = std::make_unique<AsyncDmfsgdSimulation>(dataset, config);
  });
  dmfsgd::common::ThreadPool pool(threads);
  const auto [start, end] = TimedCall(tracer, "core.RunUntilParallel", parent, [&] {
    simulation->RunUntilParallel(horizon_s, pool);
  });
  const auto& store = simulation->engine().store();
  return {{store.UData().begin(), store.UData().end()},
          {store.VData().begin(), store.VData().end()},
          simulation->MeasurementCount(),
          Seconds(start, end)};
}

bool MatchesReference(const Run& run, const Reference& reference) {
  const MultiprocessRunReport& report = run.coordinator;
  return report.coordinator && report.u.size() == reference.u.size() &&
         report.v.size() == reference.v.size() &&
         std::memcmp(report.u.data(), reference.u.data(), report.u.size() * sizeof(double)) == 0 &&
         std::memcmp(report.v.data(), reference.v.data(), report.v.size() * sizeof(double)) == 0 &&
         report.measurements == reference.measurements;
}

/// Mann-Whitney AUC of the folded factors on sampled non-neighbor pairs,
/// computed from the report's raw rows.
double FoldedAuc(const Dataset& dataset, const AsyncSimulationConfig& config,
                 const MultiprocessRunReport& report,
                 const std::vector<std::vector<dmfsgd::core::NodeId>>& neighbors,
                 std::uint64_t seed) {
  const std::size_t n = report.node_count;
  const std::size_t rank = report.rank;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::pair<double, int>> scored;
  scored.reserve(kAucPairs);
  while (scored.size() < kAucPairs) {
    const std::size_t i = pick(rng);
    const std::size_t j = pick(rng);
    if (i == j || !dataset.IsKnown(i, j) ||
        std::binary_search(neighbors[i].begin(), neighbors[i].end(),
                           static_cast<dmfsgd::core::NodeId>(j))) {
      continue;
    }
    double score = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
      score += report.u[i * rank + c] * report.v[j * rank + c];
    }
    scored.emplace_back(score, dmfsgd::datasets::ClassOf(dataset.metric,
                                                         dataset.Quantity(i, j),
                                                         config.base.tau));
  }
  return RankSumAuc(std::move(scored));
}

}  // namespace

WorkloadResult RunCluster(const Options& options, Tracer& tracer) {
  WorkloadResult result;
  const int setup = tracer.Begin("bench.setup");
  Dataset dataset;
  TimedCall(tracer, "datasets.MakeHpS3", setup, [&] {
    dmfsgd::datasets::HpS3Config hps3;
    hps3.host_count = kHosts;
    dataset = dmfsgd::datasets::MakeHpS3(hps3);
  });
  AsyncSimulationConfig config;
  TimedCall(tracer, "datasets.MedianValue", setup,
            [&] { config.base.tau = dataset.MedianValue(); });
  config.base.seed = options.seed;
  config.shard_count = kShards;
  // Sockets, threads and the lookahead scan are warm before timing.
  (void)DistributedRun(dataset, config, kWarmupHorizonS, /*lossy=*/false, 0, tracer, setup);
  tracer.End(setup);
  const double setup_s = Seconds(options.process_start, Clock::now());

  const auto runs_for = [&](double per_second) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(per_second * options.seconds));
  };
  std::vector<Run> clean, lossy;
  {
    Phase phase(tracer, "bench.clean");
    for (std::size_t r = 0; r < runs_for(kCleanRunsPerSecond); ++r) {
      clean.push_back(
          DistributedRun(dataset, config, kCleanHorizonS, false, 0, tracer, phase.id()));
    }
  }
  {
    Phase phase(tracer, "bench.lossy");
    for (std::size_t r = 0; r < runs_for(kLossyRunsPerSecond); ++r) {
      // The drop pattern depends on the run index only: every run of the
      // benchmark loses the same frames of the window protocol, so the
      // lossy figures compare recovery cost rather than how many frames a
      // seed happened to drop.
      lossy.push_back(
          DistributedRun(dataset, config, kLossyHorizonS, true, r, tracer, phase.id()));
    }
  }

  const int checks = tracer.Begin("bench.checks");
  const Reference clean_reference =
      ReferenceDrain(dataset, config, kCleanHorizonS, kShards, tracer, checks);
  const Reference lossy_reference =
      ReferenceDrain(dataset, config, kLossyHorizonS, kShards, tracer, checks);
  std::size_t mismatches = 0;
  for (const auto& [runs, reference] :
       {std::pair{&clean, &clean_reference}, std::pair{&lossy, &lossy_reference}}) {
    for (const Run& run : *runs) {
      ++result.attempted;
      if (!MatchesReference(run, *reference)) {
        ++result.failed;
        ++mismatches;
      }
    }
  }
  result.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " distributed runs differ from the in-process RunUntilParallel "
                   "drain (folded u/v or measurement count)");
  const AsyncDmfsgdSimulation neighbors_of(dataset, config);
  const double auc = FoldedAuc(dataset, config, clean.front().coordinator,
                               neighbors_of.Neighbors(), options.seed ^ 0xc1u);
  tracer.End(checks);

  std::vector<double> clean_rate, clean_window_us, lossy_rate;
  double lossy_wall = 0.0, lossy_windows = 0.0, lossy_retransmits = 0.0;
  for (const Run& run : clean) {
    clean_rate.push_back(static_cast<double>(run.coordinator.measurements) / run.wall_s);
    clean_window_us.push_back(run.wall_s * 1e6 / static_cast<double>(run.coordinator.windows));
  }
  for (const Run& run : lossy) {
    lossy_rate.push_back(static_cast<double>(run.coordinator.measurements) / run.wall_s);
    lossy_wall += run.wall_s;
    lossy_windows += static_cast<double>(run.coordinator.windows);
    lossy_retransmits +=
        static_cast<double>(run.coordinator.retransmits + run.peer.retransmits);
  }
  const double clean_window_s = Quantile(clean_window_us, 0.5) * 1e-6;
  // Wall time the lossy runs spent beyond what their windows take on a
  // clean link, per retransmitted frame: the cost of one loss recovery.
  const double stall_per_retransmit_us =
      lossy_retransmits > 0
          ? std::max(0.0, lossy_wall - lossy_windows * clean_window_s) * 1e6 / lossy_retransmits
          : 0.0;
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"rate_a", Quantile(clean_rate, 0.5), "1/s"},
      {"rate_b", Quantile(lossy_rate, 0.5), "1/s"},
      {"latency_a_us", Quantile(clean_window_us, 0.5), "us"},
      {"latency_b_us", stall_per_retransmit_us, "us"},
      {"quality", auc, "fraction"},
  };
  result.details = {
      {"cluster.clean_drain_rate", Quantile(clean_rate, 0.5), "measurements/s"},
      {"cluster.lossy_drain_rate", Quantile(lossy_rate, 0.5), "measurements/s"},
      {"cluster.lossy_retransmits", lossy_retransmits, "count"},
      {"cluster.clean_runs", static_cast<double>(clean.size()), "count"},
      {"cluster.lossy_runs", static_cast<double>(lossy.size()), "count"},
      {"cluster.folded_auc", auc, "AUC"},
  };
  if (tracer.enabled()) {
    double windows = 0.0, frames = 0.0, retransmits_clean = 0.0, duplicates = 0.0,
           dropped = 0.0, stray = 0.0;
    for (const std::vector<Run>* runs : {&clean, &lossy}) {
      for (const Run& run : *runs) {
        windows += static_cast<double>(run.coordinator.windows);
        for (const MultiprocessRunReport* report : {&run.coordinator, &run.peer}) {
          frames += static_cast<double>(report->frames_sent);
          duplicates += static_cast<double>(report->duplicates_suppressed);
          dropped += static_cast<double>(report->dropped_datagrams);
          stray += static_cast<double>(report->stray_datagrams);
          if (runs == &clean) {
            retransmits_clean += static_cast<double>(report->retransmits);
          }
        }
      }
    }
    result.per_layer = {
        {"datasets.generate_s", tracer.TotalSeconds("datasets.MakeHpS3"), "s"},
        {"core.construct_s", tracer.TotalSeconds("core.AsyncDmfsgdSimulation"), "s"},
        {"core.reference_drain_s", clean_reference.drain_s, "s"},
        {"netsim.clean_window_us", Quantile(clean_window_us, 0.5), "us"},
        {"netsim.lossy_window_us", lossy_wall * 1e6 / lossy_windows, "us"},
        {"netsim.windows", windows, "count"},
        {"netsim.frames_sent", frames, "count"},
        {"netsim.retransmits_clean", retransmits_clean, "count"},
        {"netsim.retransmits_lossy", lossy_retransmits, "count"},
        {"netsim.duplicates_suppressed", duplicates, "count"},
        {"transport.dropped_datagrams", dropped, "count"},
        {"transport.stray_datagrams", stray, "count"},
    };
  }
  return result;
}

}  // namespace perfbench
