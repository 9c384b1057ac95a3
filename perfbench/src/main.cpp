// perfbench: the end-to-end benchmark binary (see ../README.md).
//
//   perfbench --workload train|serve|cluster --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--commit SHA] [--source-digest HEX]
//
// Prints one provenance line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  The untraced run prints
// the end-to-end metrics, the traced run the per-layer metrics and writes
// its span report under DIR.  Exit code 0 only when every check passed.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "linalg/kernels.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(DMFSGD_BENCH_TAINTED_BUILD)
#define PERFBENCH_TAINTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_TAINTED 1
#endif
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric; README.md maps each slot
// to what it measures per workload.  Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},     {"rate_a", "1/s"},
    {"rate_b", "1/s"},        {"latency_a_us", "us"},    {"latency_b_us", "us"},
    {"quality", "fraction"},
};

// Per-layer metrics of the traced run.  A workload that never calls into a
// layer reports that layer's metrics as 0.
constexpr MetricSpec kPerLayer[] = {
    {"datasets.generate_s", "s"},
    {"core.construct_s", "s"},
    {"core.rtt_round_ms", "ms"},
    {"core.abw_round_ms", "ms"},
    {"core.reference_drain_s", "s"},
    {"svc.construct_s", "s"},
    {"svc.warm_round_s", "s"},
    {"svc.ingest_call_us_p50", "us"},
    {"svc.ingest_call_us_p99", "us"},
    {"svc.ingest_start_lag_us_p99", "us"},
    {"svc.query_call_us_p50", "us"},
    {"svc.query_call_us_p99", "us"},
    {"svc.query_start_lag_us_p99", "us"},
    {"svc.index_refreshes", "count"},
    {"svc.index_relinks", "count"},
    {"svc.index_rebuilds", "count"},
    {"svc.relinks_per_refresh", "ratio"},
    {"svc.snapshot_epochs", "count"},
    {"svc.snapshot_log_bytes", "bytes"},
    {"svc.recover_s", "s"},
    {"netsim.clean_window_us", "us"},
    {"netsim.lossy_window_us", "us"},
    {"netsim.windows", "count"},
    {"netsim.frames_sent", "count"},
    {"netsim.retransmits_clean", "count"},
    {"netsim.retransmits_lossy", "count"},
    {"netsim.duplicates_suppressed", "count"},
    {"transport.dropped_datagrams", "count"},
    {"transport.stray_datagrams", "count"},
    {"trace.spans", "count"},
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    out += (m ? ", " : "") + JsonString(metrics[m].name) +
           ": {\"value\": " + JsonNumber(metrics[m].value) +
           ", \"unit\": " + JsonString(metrics[m].unit) + "}";
  }
  return out + "}";
}

/// Orders `reported` as `specs`, adding a 0 for every spec the workload did
/// not report when `zero_fill`, and failing a check otherwise.
std::vector<Metric> Canonical(const std::vector<Metric>& reported,
                              std::span<const MetricSpec> specs, bool zero_fill,
                              WorkloadResult& result) {
  std::map<std::string, double> values;
  for (const Metric& metric : reported) {
    values[metric.name] = metric.value;
  }
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      result.Check(zero_fill, std::string("metric not reported: ") + spec.name);
      out.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    if (!zero_fill) {
      result.Check(std::isfinite(it->second) && it->second > 0.0,
                   std::string("metric not positive: ") + spec.name);
    }
    out.push_back({spec.name, it->second, spec.unit});
    values.erase(it);
  }
  for (const auto& [name, value] : values) {
    result.Check(false, "metric outside the fixed list: " + name);
  }
  return out;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload train|serve|cluster "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit SHA] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.process_start = Clock::now();
#ifdef PERFBENCH_TAINTED
  std::fprintf(stderr,
               "perfbench: this binary is sanitizer-instrumented "
               "(DMFSGD_BENCH_TAINTED_BUILD); rebuild without "
               "DMFSGD_SANITIZE to measure\n");
  return 3;
#endif
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_out_dir = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++a];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          Usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
        have_out_dir = true;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_out_dir || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
    Usage("--out-dir is required and --seconds must lie in (0, 600]");
  }
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  WorkloadResult (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "train") {
    run = RunTrain;
  } else if (options.workload == "serve") {
    run = RunServe;
  } else if (options.workload == "cluster") {
    run = RunCluster;
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  std::ostringstream provenance;
  provenance << "{\"workload\": " << JsonString(options.workload)
             << ", \"seed\": " << options.seed
             << ", \"seconds\": " << JsonNumber(options.seconds)
             << ", \"trace\": " << (options.trace ? "true" : "false")
             << ", \"nproc\": " << options.threads << ", \"kernel_isa\": "
             << JsonString(dmfsgd::linalg::KernelIsaName(
                    dmfsgd::linalg::ActiveKernelIsa()))
             << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
             << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
             << ", \"commit\": " << JsonString(commit)
             << ", \"source_digest\": " << JsonString(source_digest) << "}";
  std::fprintf(stderr, "perfbench: provenance %s\n", provenance.str().c_str());

  Tracer tracer(options.trace, options.process_start);
  WorkloadResult result;
  try {
    std::filesystem::create_directories(options.out_dir);
    result = run(options, tracer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: workload aborted: %s\n", error.what());
    return 1;
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    result.per_layer.push_back(
        {"trace.spans", static_cast<double>(tracer.SpanCount()), "count"});
    metrics = Canonical(result.per_layer, kPerLayer, /*zero_fill=*/true, result);
  } else {
    metrics = Canonical(result.end_to_end, kEndToEnd, /*zero_fill=*/false, result);
  }
  result.Check(result.attempted > 0, "no operation attempted");

  // The summary carries the end-to-end figures of this run (traced or not),
  // so the tracing overhead is a diff of two summaries.
  std::ostringstream summary;
  summary << "{\"provenance\": " << provenance.str()
          << ", \"correct\": " << (result.Correct() ? "true" : "false")
          << ", \"attempted\": " << result.attempted
          << ", \"failed\": " << result.failed
          << ", \"end_to_end\": " << MetricsJson(result.end_to_end)
          << ", \"per_layer\": " << MetricsJson(result.per_layer)
          << ", \"details\": " << MetricsJson(result.details)
          << ", \"check_failures\": [";
  for (std::size_t f = 0; f < result.check_failures.size(); ++f) {
    summary << (f ? ", " : "") << JsonString(result.check_failures[f]);
  }
  summary << "]}";
  try {
    std::ofstream(options.out_dir / "summary.json") << summary.str() << "\n";
    if (options.trace) {
      tracer.WriteReport(options.out_dir);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: cannot write the run report: %s\n",
                 error.what());
    return 1;
  }

  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  for (const Metric& detail : result.details) {
    std::fprintf(stderr, "perfbench: %-34s %.6g %s\n", detail.name.c_str(),
                 detail.value, detail.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.Correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return result.Correct() ? 0 : 1;
}
