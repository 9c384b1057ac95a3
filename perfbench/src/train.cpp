// Workload `train`: batch training through DmfsgdSimulation::RunRoundsParallel
// with the library's default protocol knobs, on the two deployments of the
// paper — Algorithm 1 on an RTT space and Algorithm 2 on an ABW space.
//
// Why: the core round executors and the linalg kernels do nearly all of the
// work here; no svc, ann or netsim code runs.  A change to the round
// executors shows on both algorithms at once.
#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/procedural.hpp"

namespace perfbench {
namespace {

using dmfsgd::common::ThreadPool;
using dmfsgd::core::DmfsgdSimulation;
using dmfsgd::core::SimulationConfig;
using dmfsgd::datasets::Dataset;

constexpr std::size_t kRttNodes = 65536;
constexpr std::size_t kRttNeighbors = 32;
constexpr std::size_t kAbwHosts = 4096;
constexpr std::size_t kAbwNeighbors = 10;
// Rounds run during set-up at pool size nproc; the pool-size check replays
// them at pool size 1.
constexpr std::size_t kPrefixRounds = 2;
// Timed rounds per second of --seconds.  The RTT count also sets the
// training length the AUC floor is checked at: on the default RTT space
// the AUC on unmeasured pairs crosses 0.9 between 500 and 550 rounds at
// k = 32, hence at least 640 rounds whatever --seconds says.
constexpr double kRttRoundsPerSecond = 40.0;
constexpr std::size_t kMinRttRounds = 640;
constexpr double kAbwRoundsPerSecond = 250.0;
constexpr std::size_t kAucPairs = 200000;
constexpr double kAucFloor = 0.9;  // the paper's claim on every dataset

/// AUC on pairs the deployment never measured (not neighbors, known ground
/// truth), scored by the benchmark's own u_i . v_j and labelled by the
/// dataset's ground-truth class.
double UnmeasuredPairAuc(const DmfsgdSimulation& simulation, std::uint64_t seed) {
  const Dataset& dataset = simulation.dataset();
  const auto& store = simulation.engine().store();
  const std::size_t n = dataset.NodeCount();
  const std::size_t rank = simulation.config().rank;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::pair<double, int>> scored;
  scored.reserve(kAucPairs);
  while (scored.size() < kAucPairs) {
    const std::size_t i = pick(rng);
    const std::size_t j = pick(rng);
    if (i == j || !dataset.IsKnown(i, j) || simulation.IsNeighborPair(i, j)) {
      continue;
    }
    const auto u = store.U(i);
    const auto v = store.V(j);
    double score = 0.0;
    for (std::size_t c = 0; c < rank; ++c) {
      score += u[c] * v[c];
    }
    scored.emplace_back(score, dmfsgd::datasets::ClassOf(dataset.metric, dataset.Quantity(i, j),
                                                         simulation.config().tau));
  }
  return RankSumAuc(std::move(scored));
}

bool SameCoordinates(const DmfsgdSimulation& a, const std::vector<double>& u,
                     const std::vector<double>& v) {
  const auto& store = a.engine().store();
  return store.UData().size() == u.size() && store.VData().size() == v.size() &&
         std::memcmp(store.UData().data(), u.data(), u.size() * sizeof(double)) == 0 &&
         std::memcmp(store.VData().data(), v.data(), v.size() * sizeof(double)) == 0;
}

struct Deployment {
  const char* label;  // "rtt" / "abw"
  Dataset dataset;
  SimulationConfig config;
  std::unique_ptr<DmfsgdSimulation> simulation;
  std::vector<double> prefix_u, prefix_v;  // after the set-up prefix
  std::vector<double> round_s;             // timed rounds
};

}  // namespace

WorkloadResult RunTrain(const Options& options, Tracer& tracer) {
  WorkloadResult result;
  ThreadPool pool(options.threads);
  Deployment rtt{"rtt", {}, {}, nullptr, {}, {}, {}};
  Deployment abw{"abw", {}, {}, nullptr, {}, {}, {}};

  const int setup = tracer.Begin("bench.setup");
  TimedCall(tracer, "datasets.MakeEuclideanRtt", setup, [&] {
    dmfsgd::datasets::EuclideanRttConfig config;
    config.node_count = kRttNodes;
    rtt.dataset = dmfsgd::datasets::MakeEuclideanRtt(config);
  });
  TimedCall(tracer, "datasets.MakeHpS3", setup, [&] {
    dmfsgd::datasets::HpS3Config config;
    config.host_count = kAbwHosts;
    abw.dataset = dmfsgd::datasets::MakeHpS3(config);
  });
  rtt.config.neighbor_count = kRttNeighbors;
  TimedCall(tracer, "datasets.SampledMedianValue", setup, [&] {
    rtt.config.tau = dmfsgd::datasets::SampledMedianValue(rtt.dataset);
  });
  abw.config.neighbor_count = kAbwNeighbors;
  TimedCall(tracer, "datasets.MedianValue", setup,
            [&] { abw.config.tau = abw.dataset.MedianValue(); });
  for (Deployment* deployment : {&rtt, &abw}) {
    deployment->config.seed = options.seed;
    TimedCall(tracer, "core.DmfsgdSimulation", setup, [&] {
      deployment->simulation =
          std::make_unique<DmfsgdSimulation>(deployment->dataset, deployment->config);
    });
    TimedCall(tracer, "core.RunRoundsParallel", setup,
              [&] { deployment->simulation->RunRoundsParallel(kPrefixRounds, pool); });
    const auto& store = deployment->simulation->engine().store();
    deployment->prefix_u.assign(store.UData().begin(), store.UData().end());
    deployment->prefix_v.assign(store.VData().begin(), store.VData().end());
  }
  tracer.End(setup);
  const double setup_s = Seconds(options.process_start, Clock::now());

  const auto rounds_for = [&](double per_second) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(per_second * options.seconds));
  };
  const std::size_t rtt_rounds = std::max(kMinRttRounds, rounds_for(kRttRoundsPerSecond));
  const std::size_t abw_rounds = rounds_for(kAbwRoundsPerSecond);
  {
    Phase timed(tracer, "bench.timed");
    for (auto [deployment, rounds] : {std::pair{&rtt, rtt_rounds}, std::pair{&abw, abw_rounds}}) {
      Phase phase(tracer, std::string("bench.") + deployment->label, timed.id());
      deployment->round_s.reserve(rounds);
      for (std::size_t r = 0; r < rounds; ++r) {
        const auto [start, end] = TimedCall(tracer, "core.RunRoundsParallel", phase.id(), [&] {
          deployment->simulation->RunRoundsParallel(1, pool);
        });
        deployment->round_s.push_back(Seconds(start, end));
      }
    }
  }

  const int checks = tracer.Begin("bench.checks");
  double auc[2] = {0.0, 0.0};
  int index = 0;
  for (auto [deployment, rounds] : {std::pair{&rtt, rtt_rounds}, std::pair{&abw, abw_rounds}}) {
    const std::string label = deployment->label;
    DmfsgdSimulation& simulation = *deployment->simulation;
    const std::size_t n = simulation.NodeCount();
    const std::size_t expected = (kPrefixRounds + rounds) * n;
    result.attempted += rounds * n;
    result.failed += expected - std::min(expected, simulation.MeasurementCount());
    result.Check(simulation.MeasurementCount() == expected,
                 label + ": MeasurementCount() != rounds x n at zero loss");

    auc[index] = UnmeasuredPairAuc(simulation, options.seed ^ 0xa0c);
    result.Check(auc[index] >= kAucFloor,
                 label + ": AUC on unmeasured pairs " + std::to_string(auc[index]) +
                     " below " + std::to_string(kAucFloor));

    // RunRoundsParallel is documented bit-identical for every pool size.
    ThreadPool single(1);
    DmfsgdSimulation replay(deployment->dataset, deployment->config);
    replay.RunRoundsParallel(kPrefixRounds, single);
    result.Check(SameCoordinates(replay, deployment->prefix_u, deployment->prefix_v),
                 label + ": coordinates differ between pool sizes 1 and " +
                     std::to_string(options.threads));

    const double p50 = Quantile(deployment->round_s, 0.5);
    result.details.push_back({"train." + label + "_rate", static_cast<double>(n) / p50,
                              "measurements/s"});
    double total_s = 0.0;
    for (const double s : deployment->round_s) total_s += s;
    result.details.push_back({"train." + label + "_mean_rate",
                              static_cast<double>(rounds * n) / total_s, "measurements/s"});
    result.details.push_back({"train." + label + "_auc", auc[index], "AUC"});
    result.details.push_back(
        {"train." + label + "_rounds", static_cast<double>(rounds), "count"});
    ++index;
  }
  tracer.End(checks);

  const double rtt_p50 = Quantile(rtt.round_s, 0.5);
  const double abw_p50 = Quantile(abw.round_s, 0.5);
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"rate_a", static_cast<double>(kRttNodes) / rtt_p50, "1/s"},
      {"rate_b", static_cast<double>(abw.simulation->NodeCount()) / abw_p50, "1/s"},
      {"latency_a_us", rtt_p50 * 1e6, "us"},
      {"latency_b_us", abw_p50 * 1e6, "us"},
      {"quality", std::min(auc[0], auc[1]), "fraction"},
  };
  if (tracer.enabled()) {
    result.per_layer = {
        {"datasets.generate_s",
         tracer.TotalSeconds("datasets.MakeEuclideanRtt") +
             tracer.TotalSeconds("datasets.MakeHpS3"),
         "s"},
        {"core.construct_s", tracer.TotalSeconds("core.DmfsgdSimulation"), "s"},
        {"core.rtt_round_ms", rtt_p50 * 1e3, "ms"},
        {"core.abw_round_ms", abw_p50 * 1e3, "ms"},
    };
  }
  return result;
}

}  // namespace perfbench
