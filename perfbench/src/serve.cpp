// Workload `serve`: a resident svc::CoordinateService with its library
// defaults (staleness budget 256, flat index, ef_search 96, persistence on)
// over an n = 16384 procedural RTT space, warmed by one probing round.
//
// A closed-loop phase first takes the two-reader query capacity.  Then the
// load is open loop: one thread pushes IngestProbe at a fixed rate and two
// threads issue QueryNearestPeers(k = 10) at fixed rates, each request
// timed from when it was due.  A last closed-loop phase takes the
// single-writer ingest capacity.
//
// The service configuration, seed included, is the library default; the
// benchmark seed draws the traffic (which node probes or asks, and when).
// n = 65536 and 1000 + 2 x 1000 requests/s were tried first: index
// construction there is memory-latency bound and its run-to-run time spread
// about 25 % on a shared host, and at those rates the reader-preferring lock
// tipped some runs into a growing ingest backlog (README.md).
//
// Why: ann search and re-link and the svc reader-writer lock carry the
// load; it is the one workload where writes (ingest, index refresh,
// snapshot epochs) run beside reads, and where core runs per message.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "datasets/procedural.hpp"
#include "svc/coordinate_service.hpp"

namespace perfbench {
namespace {

using dmfsgd::eval::KnnOrdering;
using dmfsgd::eval::KnnResult;
using dmfsgd::svc::CoordinateService;

constexpr std::size_t kNodes = 16384;
constexpr std::size_t kK = 10;
// Offered open-loop rates.  The ingest rate sits far below the service's
// single-writer capacity at the default staleness budget (~10k/s), so the
// ingest backlog stays bounded.
constexpr double kIngestPerSecond = 500.0;
constexpr double kQueryPerSecondPerThread = 500.0;
constexpr std::size_t kQueryThreads = 2;
// Closed-loop capacity phases: operations per second of --seconds.
constexpr double kCapacityIngestsPerSecond = 600.0;
constexpr double kCapacityQueriesPerSecond = 500.0;  // per thread
constexpr std::size_t kQueryBlock = 100;  // queries per capacity block
// The generator sleeps until this long before a request is due and spins
// the rest, so timer slack does not count as service latency.
constexpr auto kSpin = std::chrono::microseconds(200);
constexpr std::size_t kRecallQueries = 1000;
constexpr double kRecallFloor = 0.9;

/// One open-loop or closed-loop stream's record.
struct Stream {
  std::vector<double> from_due_s;  // end - due (open loop only)
  std::vector<double> call_s;      // end - start
  std::uint64_t issued = 0;
  std::uint64_t bad_answers = 0;
};

/// k distinct in-range ids, never the query node, scores in the service's
/// ordering.
bool ValidAnswer(const KnnResult& answer, std::size_t query, std::size_t n,
                 KnnOrdering ordering) {
  if (answer.ids.size() != kK || answer.scores.size() != kK) {
    return false;
  }
  std::vector<std::size_t> ids = answer.ids;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end() || ids.back() >= n ||
      std::find(ids.begin(), ids.end(), query) != ids.end()) {
    return false;
  }
  for (std::size_t p = 1; p < kK; ++p) {
    const bool in_order = ordering == KnnOrdering::kLargestFirst
                              ? answer.scores[p - 1] >= answer.scores[p]
                              : answer.scores[p - 1] <= answer.scores[p];
    if (!in_order) {
      return false;
    }
  }
  return true;
}

/// The benchmark's own exact top-k: u_i . v_j for every j != i, ranked by
/// `ordering`, ties broken by the smaller id.
struct Scored {
  double score;
  std::size_t id;
};
std::vector<Scored> ExactTopK(const dmfsgd::core::CoordinateStore& store, std::size_t query,
                              KnnOrdering ordering) {
  const std::size_t n = store.NodeCount();
  const auto u = store.U(query);
  std::vector<Scored> all;
  all.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == query) {
      continue;
    }
    const auto v = store.V(j);
    double score = 0.0;
    for (std::size_t c = 0; c < u.size(); ++c) {
      score += u[c] * v[c];
    }
    all.push_back({score, j});
  }
  const bool largest = ordering == KnnOrdering::kLargestFirst;
  std::partial_sort(all.begin(), all.begin() + kK, all.end(),
                    [largest](const Scored& a, const Scored& b) {
                      if (a.score != b.score) {
                        return largest ? a.score > b.score : a.score < b.score;
                      }
                      return a.id < b.id;
                    });
  all.resize(kK);
  return all;
}

double OwnScore(const dmfsgd::core::CoordinateStore& store, std::size_t i, std::size_t j) {
  const auto u = store.U(i);
  const auto v = store.V(j);
  double score = 0.0;
  for (std::size_t c = 0; c < u.size(); ++c) {
    score += u[c] * v[c];
  }
  return score;
}

bool ScoresMatch(const dmfsgd::core::CoordinateStore& store, std::size_t query,
                 const KnnResult& answer) {
  for (std::size_t p = 0; p < answer.ids.size(); ++p) {
    const double own = OwnScore(store, query, answer.ids[p]);
    if (std::fabs(own - answer.scores[p]) > 1e-12 * std::max(1.0, std::fabs(own))) {
      return false;
    }
  }
  return true;
}

/// Throughput of back-to-back calls: `block` / the median time of
/// `block` consecutive calls, over the blocks of every stream.
double BlockRate(const std::vector<const std::vector<double>*>& streams, std::size_t block) {
  std::vector<double> block_s;
  for (const std::vector<double>* calls : streams) {
    for (std::size_t first = 0; first + block <= calls->size(); first += block) {
      double sum = 0.0;
      for (std::size_t c = first; c < first + block; ++c) {
        sum += (*calls)[c];
      }
      block_s.push_back(sum);
    }
  }
  return block_s.empty() ? 0.0 : static_cast<double>(block) / Quantile(block_s, 0.5);
}

std::uintmax_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// Runs `fn(op)` for op in [0, count) on `threads` threads at once and
/// rethrows the first exception after joining them all.
template <class Fn>
void RunThreads(std::size_t threads, Fn&& fn) {
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace

WorkloadResult RunServe(const Options& options, Tracer& tracer) {
  WorkloadResult result;
  const std::filesystem::path snapshot_dir = options.out_dir / "svc-snapshots";
  std::filesystem::remove_all(snapshot_dir);

  const int setup = tracer.Begin("bench.setup");
  dmfsgd::datasets::Dataset dataset;
  TimedCall(tracer, "datasets.MakeEuclideanRtt", setup,
            [&] {
              dmfsgd::datasets::EuclideanRttConfig rtt;
              rtt.node_count = kNodes;
              dataset = dmfsgd::datasets::MakeEuclideanRtt(rtt);
            });
  dmfsgd::svc::ServiceConfig config;
  TimedCall(tracer, "datasets.SampledMedianValue", setup,
            [&] { config.tau = dmfsgd::datasets::SampledMedianValue(dataset); });
  config.snapshot_dir = snapshot_dir;
  std::unique_ptr<CoordinateService> service;
  const auto construct = TimedCall(tracer, "svc.CoordinateService", setup, [&] {
    service = std::make_unique<CoordinateService>(dataset, config);
  });
  const auto warm = TimedCall(tracer, "svc.IngestRounds", setup,
                              [&] { service->IngestRounds(1); });
  tracer.End(setup);
  const double setup_s = Seconds(options.process_start, Clock::now());

  const std::size_t n = service->NodeCount();
  const KnnOrdering ordering = service->DefaultOrdering();
  const auto warm_stats = service->stats();

  std::vector<Stream> open(1 + kQueryThreads);
  std::vector<Stream> closed(1 + kQueryThreads);
  // Two-reader query capacity first, on the index the warm round just
  // rebuilt: the service configuration is fixed, so every seed measures
  // the same index and only the sampled query nodes differ.
  const auto capacity_queries =
      static_cast<std::size_t>(std::llround(kCapacityQueriesPerSecond * options.seconds));
  {
    Phase phase(tracer, "bench.query_capacity");
    RunThreads(kQueryThreads, [&](std::size_t t) {
      Stream& stream = closed[1 + t];
      std::mt19937_64 rng(options.seed * 8 + 6 + t);
      std::uniform_int_distribution<std::size_t> pick(0, n - 1);
      for (std::size_t op = 0; op < capacity_queries; ++op) {
        const std::size_t node = pick(rng);
        KnnResult answer;
        const auto [start, end] = TimedCall(tracer, "svc.QueryNearestPeers", phase.id(),
                                            [&] { answer = service->QueryNearestPeers(node, kK); });
        stream.call_s.push_back(Seconds(start, end));
        ++stream.issued;
        if (!ValidAnswer(answer, node, n, ordering)) {
          ++stream.bad_answers;
        }
      }
    });
  }
  // Open loop: every stream's schedule is fixed before it starts.
  const auto ingest_count =
      static_cast<std::size_t>(std::llround(kIngestPerSecond * options.seconds));
  const auto query_count =
      static_cast<std::size_t>(std::llround(kQueryPerSecondPerThread * options.seconds));
  Clock::time_point origin;
  {
    Phase phase(tracer, "bench.open_loop");
    origin = Clock::now() + std::chrono::milliseconds(5);
    RunThreads(1 + kQueryThreads, [&](std::size_t t) {
      Stream& stream = open[t];
      const bool ingest = t == 0;
      const std::size_t count = ingest ? ingest_count : query_count;
      const double rate = ingest ? kIngestPerSecond : kQueryPerSecondPerThread;
      std::mt19937_64 rng(options.seed * 8 + t);
      std::uniform_int_distribution<std::size_t> pick(0, n - 1);
      stream.from_due_s.reserve(count);
      stream.call_s.reserve(count);
      for (std::size_t op = 0; op < count; ++op) {
        const std::size_t node = pick(rng);
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(op) / rate));
        std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
        KnnResult answer;
        const Clock::time_point start = Clock::now();
        if (ingest) {
          (void)service->IngestProbe(static_cast<dmfsgd::core::NodeId>(node));
        } else {
          answer = service->QueryNearestPeers(node, kK);
        }
        const Clock::time_point end = Clock::now();
        ++stream.issued;
        stream.from_due_s.push_back(Seconds(due, end));
        stream.call_s.push_back(Seconds(start, end));
        if (!ingest && !ValidAnswer(answer, node, n, ordering)) {
          ++stream.bad_answers;
        }
        if (tracer.enabled()) {
          // A request span from the due time, with the call as its child:
          // the child's start lag is how late the generator ran.
          const int request = tracer.Record(ingest ? "load.ingest" : "load.query",
                                            phase.id(), due, end);
          tracer.Record(ingest ? "svc.IngestProbe" : "svc.QueryNearestPeers", request,
                        start, end);
        }
      }
    });
  }
  // Requests served per second from the first due time to the last
  // answer: the offered rate while the service keeps up, less once a
  // backlog forms.
  const double served_rate =
      static_cast<double>(ingest_count + kQueryThreads * query_count) /
      Seconds(origin, Clock::now());
  const auto open_stats = service->stats();

  // Closed loop: single-writer ingest capacity (no readers).
  const auto capacity_ingests =
      static_cast<std::size_t>(std::llround(kCapacityIngestsPerSecond * options.seconds));
  {
    Phase phase(tracer, "bench.ingest_capacity");
    std::mt19937_64 rng(options.seed * 8 + 5);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    Stream& stream = closed[0];
    for (std::size_t op = 0; op < capacity_ingests; ++op) {
      const auto node = static_cast<dmfsgd::core::NodeId>(pick(rng));
      const auto [start, end] = TimedCall(tracer, "svc.IngestProbe", phase.id(),
                                          [&] { (void)service->IngestProbe(node); });
      stream.call_s.push_back(Seconds(start, end));
      ++stream.issued;
    }
  }
  // Every run of staleness_budget consecutive ingests holds exactly one
  // index refresh, so budget-sized blocks are the unit of ingest capacity.
  const std::size_t budget = service->config().staleness_budget;
  const double ingest_capacity = BlockRate({&closed[0].call_s}, budget);
  std::vector<const std::vector<double>*> query_calls;
  for (std::size_t t = 1; t <= kQueryThreads; ++t) {
    query_calls.push_back(&closed[t].call_s);
  }
  const double query_capacity =
      static_cast<double>(kQueryThreads) * BlockRate(query_calls, kQueryBlock);

  // Checks on the quiescent service.
  const int checks = tracer.Begin("bench.checks");
  const auto stats = service->stats();
  std::uint64_t ingests_issued = 0, queries_issued = 0, bad_answers = 0;
  for (const std::vector<Stream>* streams : {&open, &closed}) {
    for (std::size_t t = 0; t < streams->size(); ++t) {
      ((t == 0) ? ingests_issued : queries_issued) += (*streams)[t].issued;
      bad_answers += (*streams)[t].bad_answers;
    }
  }
  result.attempted = ingests_issued + queries_issued;
  result.failed = bad_answers;
  result.Check(bad_answers == 0, "k-NN answers with a wrong size, a repeated, "
                                 "out-of-range or self id, or out-of-order scores: " +
                                     std::to_string(bad_answers));
  result.Check(stats.ingests == warm_stats.ingests + ingests_issued &&
                   warm_stats.ingests == n,
               "stats().ingests does not count every applied ingest");
  result.Check(stats.queries == queries_issued,
               "stats().queries does not count every issued query");
  result.Check(service->CurrentStaleness() <= config.staleness_budget,
               "CurrentStaleness() above the staleness budget");

  std::mt19937_64 rng(options.seed * 8 + 7);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::size_t hits = 0;
  bool exact_ok = true, scores_ok = true;
  for (std::size_t q = 0; q < kRecallQueries; ++q) {
    const std::size_t node = pick(rng);
    const std::vector<Scored> exact = ExactTopK(service->store(), node, ordering);
    const KnnResult answer = service->QueryNearestPeers(node, kK);
    const KnnResult exact_mode = service->QueryNearestPeers(node, kK, n);
    for (const Scored& truth : exact) {
      hits += std::count(answer.ids.begin(), answer.ids.end(), truth.id);
      exact_ok = exact_ok &&
                 std::count(exact_mode.ids.begin(), exact_mode.ids.end(), truth.id) == 1;
    }
    scores_ok = scores_ok && ScoresMatch(service->store(), node, answer) &&
                ScoresMatch(service->store(), node, exact_mode);
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(kRecallQueries * kK);
  result.Check(recall >= kRecallFloor,
               "recall@10 " + std::to_string(recall) + " below " + std::to_string(kRecallFloor));
  result.Check(exact_ok, "exact mode (ef >= n) differs from the exact scan");
  result.Check(scores_ok, "reported scores differ from u_i . v_j");

  service->Checkpoint();
  const std::uintmax_t log_bytes = DirectoryBytes(snapshot_dir);
  std::optional<dmfsgd::svc::SnapshotLogRecovery> recovered;
  const auto recover = TimedCall(tracer, "svc.RecoverSnapshotLog", checks, [&] {
    recovered = dmfsgd::svc::RecoverSnapshotLog(snapshot_dir);
  });
  const auto& live = service->store();
  result.Check(recovered.has_value() &&
                   recovered->store.UData().size() == live.UData().size() &&
                   recovered->store.VData().size() == live.VData().size() &&
                   std::memcmp(recovered->store.UData().data(), live.UData().data(),
                               live.UData().size() * sizeof(double)) == 0 &&
                   std::memcmp(recovered->store.VData().data(), live.VData().data(),
                               live.VData().size() * sizeof(double)) == 0,
               "RecoverSnapshotLog does not reproduce the live store");
  tracer.End(checks);
  service.reset();
  std::filesystem::remove_all(snapshot_dir);

  std::vector<double> query_due, query_call;
  for (std::size_t t = 1; t <= kQueryThreads; ++t) {
    query_due.insert(query_due.end(), open[t].from_due_s.begin(), open[t].from_due_s.end());
    query_call.insert(query_call.end(), open[t].call_s.begin(), open[t].call_s.end());
  }
  const std::vector<double>& ingest_due = open[0].from_due_s;
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"rate_a", query_capacity, "1/s"},
      {"rate_b", served_rate, "1/s"},
      {"latency_a_us", Quantile(query_due, 0.99) * 1e6, "us"},
      {"latency_b_us", Quantile(ingest_due, 0.99) * 1e6, "us"},
      {"quality", recall, "fraction"},
  };
  result.details = {
      {"serve.query_p50_us", Quantile(query_due, 0.5) * 1e6, "us"},
      {"serve.query_p99_us", Quantile(query_due, 0.99) * 1e6, "us"},
      {"serve.ingest_p50_us", Quantile(ingest_due, 0.5) * 1e6, "us"},
      {"serve.ingest_p99_us", Quantile(ingest_due, 0.99) * 1e6, "us"},
      {"serve.query_capacity", query_capacity, "queries/s"},
      {"serve.served_rate", served_rate, "requests/s"},
      {"serve.knn_recall_at_10", recall, "fraction"},
      {"serve.ingest_capacity", ingest_capacity, "ingests/s"},
      {"serve.construct_s", Seconds(construct.first, construct.second), "s"},
      {"serve.warm_round_s", Seconds(warm.first, warm.second), "s"},
      {"serve.open_loop_index_rebuilds",
       static_cast<double>(open_stats.index_rebuilds - warm_stats.index_rebuilds), "count"},
  };
  if (tracer.enabled()) {
    const std::vector<double> ingest_call = open[0].call_s;
    const auto lags = [&](const char* name) {
      return Quantile(tracer.StartLags(name, "load."), 0.99) * 1e6;
    };
    const double refreshes = static_cast<double>(stats.index_refreshes);
    result.per_layer = {
        {"datasets.generate_s", tracer.TotalSeconds("datasets.MakeEuclideanRtt"), "s"},
        {"svc.construct_s", Seconds(construct.first, construct.second), "s"},
        {"svc.warm_round_s", Seconds(warm.first, warm.second), "s"},
        {"svc.ingest_call_us_p50", Quantile(ingest_call, 0.5) * 1e6, "us"},
        {"svc.ingest_call_us_p99", Quantile(ingest_call, 0.99) * 1e6, "us"},
        {"svc.ingest_start_lag_us_p99", lags("svc.IngestProbe"), "us"},
        {"svc.query_call_us_p50", Quantile(query_call, 0.5) * 1e6, "us"},
        {"svc.query_call_us_p99", Quantile(query_call, 0.99) * 1e6, "us"},
        {"svc.query_start_lag_us_p99", lags("svc.QueryNearestPeers"), "us"},
        {"svc.index_refreshes", refreshes, "count"},
        {"svc.index_relinks", static_cast<double>(stats.index_relinks), "count"},
        {"svc.index_rebuilds", static_cast<double>(stats.index_rebuilds), "count"},
        {"svc.relinks_per_refresh",
         refreshes > 0 ? static_cast<double>(stats.index_relinks) / refreshes : 0.0, "ratio"},
        {"svc.snapshot_epochs", static_cast<double>(stats.epochs), "count"},
        {"svc.snapshot_log_bytes", static_cast<double>(log_bytes), "bytes"},
        {"svc.recover_s", Seconds(recover.first, recover.second), "s"},
    };
  }
  return result;
}

}  // namespace perfbench
