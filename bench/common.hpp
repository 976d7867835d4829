// Shared helpers for the per-figure/table bench binaries.
//
// Each binary regenerates one table or figure from the paper's §V (the
// full binary -> figure map lives in docs/BENCHMARKS.md). Output
// convention: a header naming the experiment, the paper's qualitative
// expectation, then an aligned table of the regenerated rows.
//
// Common CLI flags (parse_args() is the one shared parser):
//   --fast                shrink the measurement windows (CI smoke mode)
//   --backend=heap|wheel|all
//                         which event-queue backend(s) the bench drives.
//                         The full app stack is generic over the backend,
//                         so the figure benches honour this flag too: "all"
//                         runs the binary heap and the timing wheel.
//                         kernel_throughput,
//                         fig13/14 and scenario_matrix default to all
//                         (fig13 and scenario_matrix cross-check that the
//                         backends produce identical packet counters); the
//                         remaining figure benches default to heap, the
//                         traditional figure-generation path.
//   --jobs=N              worker threads for benches that sweep through
//                         scenario::SweepRunner. Results are bit-identical
//                         for any N; only wall time changes. Benches whose
//                         headline *is* wall time default to 1;
//                         kernel_throughput runs every measured shard
//                         alone and ignores it.
//   --trace=<file>        external pcap to replay through the kTrace
//                         arrival model (bench_scenario_matrix); absent =
//                         the synthesised §V-F.4 trace.
//   --list                bench_scenario_matrix: print registered scenario
//                         names, one per line, and exit 0.
//   --only=a,b,c          bench_scenario_matrix: restrict the sweep to the
//                         named scenarios (e.g. the fault scenarios in the
//                         sanitizer CI job).
//   --deadline=SECONDS    per-shard wall-clock deadline; a shard that
//                         exceeds it fails (and is reported) instead of
//                         wedging the sweep.
//   --series=INTERVAL_US  sample the full telemetry set every INTERVAL_US
//                         of sim time during measurement; sweep benches
//                         emit the per-window tracks as a `timeseries`
//                         block per shard (schema in docs/BENCHMARKS.md),
//                         fig9 prints a per-window table. Pure observer:
//                         results and fingerprints are unchanged.
//   --trace-out=<file>    write a Chrome trace-event JSON (chrome://tracing
//                         / Perfetto) of the run: kernel fire/cascade
//                         instants, NIC burst/flush instants, Metronome
//                         sleep and drain spans, fault instants, and (for
//                         sweeps) per-worker wall-clock shard spans.
//   --crypto=calibrated|live
//                         fig16 ipsec: calibrated charges the fitted
//                         per-packet cost only; live also executes the
//                         real ESP gateway per packet (simulated results
//                         identical, wall time measures the crypto).
//   --flows=N             bench_kernel_throughput: run the full-stack
//                         scale block on one custom per-flow population
//                         instead of the registry 1m/4m/16m rungs.
//
// Parsing is strict: unknown flags and malformed numeric values print the
// usage text and exit 2. Benches that only take --fast use parse_fast(),
// with the same policy.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/experiment.hpp"
#include "scenario/sweep.hpp"
#include "stats/table.hpp"
#include "stats/trace.hpp"

namespace metro::bench {

/// Event-queue backend selection: the heap oracle, the timing wheel, or
/// kAll — both, heap first.
enum class BackendChoice { kHeap, kWheel, kAll };

/// How the ipsec bench path treats per-packet crypto. kCalibrated charges
/// calib::kIpsecPerPacketCost only (the historical behaviour; simulated
/// results are the reference). kLive additionally executes the real ESP
/// gateway per drained descriptor via nic::PacketWork — simulated results
/// stay bit-identical, but wall time now contains the crypto substrate, so
/// wall-clock simulated-packets/s measures it end to end.
enum class CryptoMode { kCalibrated, kLive };

inline bool use_heap(BackendChoice c) {
  return c == BackendChoice::kHeap || c == BackendChoice::kAll;
}
inline bool use_wheel(BackendChoice c) {
  return c == BackendChoice::kWheel || c == BackendChoice::kAll;
}

/// The enabled backends as SweepRunner shard kinds, heap first.
inline std::vector<scenario::BackendKind> backend_kinds(BackendChoice c) {
  std::vector<scenario::BackendKind> out;
  if (use_heap(c)) out.push_back(scenario::BackendKind::kHeap);
  if (use_wheel(c)) out.push_back(scenario::BackendKind::kWheel);
  return out;
}

/// Default worker count for benches whose sweeps run through
/// scenario::SweepRunner: half the hardware threads (each shard is a
/// single-threaded simulation; leaving headroom keeps the host usable),
/// at least 1, at most 8.
inline int default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw / 2, 1u, 8u));
}

/// The shared flag set, parsed once per bench (the one place --fast /
/// --backend / --jobs / --trace / --list / --only / --deadline spellings
/// live).
struct Args {
  bool fast = false;
  BackendChoice backend = BackendChoice::kHeap;
  int jobs = 1;
  std::string trace;  ///< external pcap for kTrace scenarios; empty = synthesise
  bool list = false;  ///< print registry names and exit (scenario_matrix)
  std::vector<std::string> only;  ///< scenario filter; empty = all (scenario_matrix)
  double deadline_s = 0.0;        ///< per-shard wall-clock deadline; 0 = off
  CryptoMode crypto = CryptoMode::kCalibrated;  ///< fig16 ipsec crypto mode
  double series_us = 0.0;   ///< telemetry sampling interval in us; 0 = off
  std::string trace_out;    ///< Chrome trace output path; empty = no tracing
  std::size_t flows = 0;    ///< kernel_throughput scale-block population; 0 = registry defaults
};

inline const char* usage_text() {
  return "flags:\n"
         "  --fast               shrink measurement windows (CI smoke mode)\n"
         "  --backend=heap|wheel|all\n"
         "  --jobs=N             sweep worker threads (1..1024)\n"
         "  --trace=<file>       external pcap for kTrace scenarios\n"
         "  --list               print registered scenario names and exit\n"
         "  --only=a,b,c         restrict the sweep to the named scenarios\n"
         "  --deadline=SECONDS   per-shard wall-clock deadline (> 0)\n"
         "  --series=INTERVAL_US sample telemetry every INTERVAL_US of sim time\n"
         "  --trace-out=<file>   write a Chrome trace-event JSON of the run\n"
         "  --crypto=calibrated|live\n"
         "                       fig16 ipsec: charge the calibrated cost only, or\n"
         "                       also run the real ESP gateway per packet\n"
         "  --flows=N            kernel_throughput: run the full-stack scale block\n"
         "                       on one custom per-flow population (1..2^26)\n"
         "                       instead of the registry's 1m/4m/16m rungs\n";
}

/// Strict single-pass parser behind parse_args(): every argv entry must
/// be a recognised flag with a well-formed value. Returns false (with a
/// one-line reason in `error`) on the first unknown flag or malformed
/// numeric — a typo like --backed=wheel or --jobs=abc must never
/// silently run defaults, which is how a misconfigured overnight sweep
/// produces wrong-but-plausible numbers. Split from parse_args so tests
/// can exercise the policy without exiting.
inline bool try_parse_args(int argc, char** argv, BackendChoice def_backend, int def_jobs,
                           Args& out, std::string& error) {
  out = Args{};
  out.backend = def_backend;
  out.jobs = def_jobs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      out.fast = true;
    } else if (arg == "--list") {
      out.list = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string v = arg.substr(10);
      if (v == "heap") {
        out.backend = BackendChoice::kHeap;
      } else if (v == "wheel") {
        out.backend = BackendChoice::kWheel;
      } else if (v == "all") {
        out.backend = BackendChoice::kAll;
      } else {
        error = "unknown --backend value '" + v + "' (heap|wheel|all)";
        return false;
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string v = arg.substr(7);
      char* end = nullptr;
      const long n = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 1 || n > 1024) {
        error = "bad --jobs value '" + v + "' (want 1..1024)";
        return false;
      }
      out.jobs = static_cast<int>(n);
    } else if (arg.rfind("--trace=", 0) == 0) {
      out.trace = arg.substr(8);
      if (out.trace.empty()) {
        error = "--trace needs a pcap path (--trace=<file>)";
        return false;
      }
    } else if (arg.rfind("--only=", 0) == 0) {
      const std::string v = arg.substr(7);
      std::size_t start = 0;
      while (start <= v.size()) {
        const std::size_t comma = v.find(',', start);
        const std::string name =
            v.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) out.only.push_back(name);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (out.only.empty()) {
        error = "--only needs a comma-separated scenario list (--only=a,b)";
        return false;
      }
    } else if (arg.rfind("--deadline=", 0) == 0) {
      const std::string v = arg.substr(11);
      char* end = nullptr;
      const double s = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(s > 0.0)) {
        error = "bad --deadline value '" + v + "' (want seconds > 0)";
        return false;
      }
      out.deadline_s = s;
    } else if (arg.rfind("--series=", 0) == 0) {
      const std::string v = arg.substr(9);
      char* end = nullptr;
      const double us = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(us > 0.0)) {
        error = "bad --series value '" + v + "' (want microseconds > 0)";
        return false;
      }
      out.series_us = us;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      out.trace_out = arg.substr(12);
      if (out.trace_out.empty()) {
        error = "--trace-out needs a file path (--trace-out=<file>)";
        return false;
      }
    } else if (arg.rfind("--flows=", 0) == 0) {
      const std::string v = arg.substr(8);
      char* end = nullptr;
      const long long n = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || n < 1 || n > (1LL << 26)) {
        error = "bad --flows value '" + v + "' (want 1..2^26)";
        return false;
      }
      out.flows = static_cast<std::size_t>(n);
    } else if (arg.rfind("--crypto=", 0) == 0) {
      const std::string v = arg.substr(9);
      if (v == "calibrated") {
        out.crypto = CryptoMode::kCalibrated;
      } else if (v == "live") {
        out.crypto = CryptoMode::kLive;
      } else {
        error = "unknown --crypto value '" + v + "' (calibrated|live)";
        return false;
      }
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

inline Args parse_args(int argc, char** argv, BackendChoice def_backend, int def_jobs) {
  Args a;
  std::string error;
  if (!try_parse_args(argc, argv, def_backend, def_jobs, a, error)) {
    std::cerr << error << "\n" << usage_text();
    std::exit(2);
  }
  return a;
}

/// Strict parser for the figure benches whose only flag is --fast. Unknown
/// flags get the same usage-and-exit-2 treatment as parse_args — a typoed
/// `--fats` overnight run must fail at launch, not run the full windows.
inline bool try_parse_fast(int argc, char** argv, bool& fast, std::string& error) {
  fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      error = "unknown flag '" + std::string(argv[i]) + "'";
      return false;
    }
  }
  return true;
}

inline bool parse_fast(int argc, char** argv) {
  bool fast = false;
  std::string error;
  if (!try_parse_fast(argc, argv, fast, error)) {
    std::cerr << error << "\nflags:\n  --fast    shrink measurement windows (CI smoke mode)\n";
    std::exit(2);
  }
  return fast;
}

/// Write Chrome trace-event JSON for the given lanes to `path`, failing
/// loudly (message + exit 1) when the file cannot be created or written —
/// a silently-missing trace from an overnight run is the same footgun as
/// a silently-defaulted flag. Prints a one-line summary (events, drops).
inline void write_trace_file(const std::string& path,
                             const std::vector<trace::TraceProcess>& lanes) {
  std::size_t events = 0;
  std::uint64_t drops = 0;
  for (const auto& lane : lanes) {
    events += lane.tracer->size();
    drops += lane.tracer->dropped();
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open --trace-out file '" << path << "' for writing\n";
    std::exit(1);
  }
  trace::write_chrome_trace(out, lanes);
  out.flush();
  if (!out) {
    std::cerr << "failed writing --trace-out file '" << path << "'\n";
    std::exit(1);
  }
  std::cout << "trace: " << events << " events in " << lanes.size() << " lane(s) -> " << path;
  if (drops > 0) std::cout << " (" << drops << " dropped at capacity)";
  std::cout << "\n";
}

/// The --trace-out export path of the sweep benches: one process lane per
/// traced shard plus one wall-clock lane per sweep worker.
inline void write_sweep_trace(const std::string& path,
                              const std::vector<scenario::Shard>& shards,
                              const std::vector<scenario::ShardResult>& results,
                              const scenario::SweepRunner& runner) {
  std::vector<trace::TraceProcess> lanes;
  for (std::size_t i = 0; i < shards.size() && i < results.size(); ++i) {
    if (results[i].trace == nullptr) continue;
    lanes.push_back(trace::TraceProcess{"shard " + std::to_string(i) + ": " +
                                            shards[i].scenario + "/" +
                                            scenario::backend_name(shards[i].backend),
                                        results[i].trace.get()});
  }
  for (std::size_t w = 0; w < runner.wall_tracers().size(); ++w) {
    lanes.push_back(trace::TraceProcess{"sweep worker " + std::to_string(w) + " (wall)",
                                        runner.wall_tracers()[w].get()});
  }
  write_trace_file(path, lanes);
}

inline void header(const std::string& title, const std::string& paper_expectation) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "Paper: " << paper_expectation << "\n\n";
}

/// Default measurement windows (shrunk by --fast).
struct Windows {
  sim::Time warmup;
  sim::Time measure;
};

inline Windows windows(bool fast) {
  if (fast) return {50 * sim::kMillisecond, 100 * sim::kMillisecond};
  return {200 * sim::kMillisecond, 800 * sim::kMillisecond};
}

/// The one trial harness behind every repeated bench measurement: call a
/// measured thunk n times (trial counts are constants of each bench), or
/// take samples a bench interleaved itself, and summarise them as median
/// and IQR under one quantile definition — linear interpolation between
/// order statistics, so a single sample has IQR 0 and an even count's
/// median is the mean of the middle two. Warm-up and dead-code sinks
/// belong to the caller.
struct Trials {
  double median = 0.0;
  double iqr = 0.0;  ///< p75 - p25

  template <typename Thunk>
  static Trials run(int n, Thunk&& measure) {
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) samples.push_back(static_cast<double>(measure()));
    return of(std::move(samples));
  }

  static Trials of(std::vector<double> v) {
    Trials t;
    std::sort(v.begin(), v.end());
    const auto quantile = [&v](double q) {
      const double pos = q * static_cast<double>(v.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const auto hi = std::min(lo + 1, v.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      return v[lo] * (1.0 - frac) + v[hi] * frac;
    };
    if (!v.empty()) {
      t.median = quantile(0.5);
      t.iqr = quantile(0.75) - quantile(0.25);
    }
    return t;
  }
};

inline std::string num(double v, int p = 2) { return stats::Table::num(v, p); }

/// Format a latency boxplot as "median [p25-p75] (p5-p95)".
inline std::string boxplot_str(const stats::Boxplot& b) {
  return num(b.median) + " [" + num(b.p25) + "-" + num(b.p75) + "] (" + num(b.whisker_lo) + "-" +
         num(b.whisker_hi) + ")";
}

}  // namespace metro::bench
