// metro_perfbench: the repo benchmark's driver (see perfbench/README.md).
//
// Drives apps::BasicTestbed<sim::WheelSimulation>, the production event
// queue, through its public calls and times each call from this file;
// nothing inside src/ is instrumented. One invocation runs one workload
// at one seed:
//
//   warm-up run (checked, not timed)
//   -> timed runs until --seconds have passed
//   -> one untimed heap-oracle run of the same config and seed
//   -> per-run correctness verdicts -> JSON report (--report)
//
// Every run executes its warm-up and measurement phases in fixed simulated
// slices and times each slice; the end-to-end host times are the untraced
// runs' floor, assembled slice by slice (HostFloor).
//
// With --trace 1 the timed runs alternate untraced and traced. A traced
// run keeps spans in memory around every call (and around the slices of
// the measurement phase); the per-layer metrics and the tracing overhead
// come from those spans, which are written out (--spans) at the end. The
// simulation is single-threaded: one process, one thread.
//
// Exit status: 0 = every run passed its correctness checks, 1 = at least
// one failed (the report is still written), 2 = bad command line.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/experiment.hpp"
#include "crypto/aes.hpp"
#include "nic/rss.hpp"
#include "stats/json_writer.hpp"
#include "tgen/generator.hpp"

using namespace metro;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Every parameter is pinned here rather than taken from the
// scenario registry, so a registry edit cannot silently change what the
// benchmark measures.

struct PaperValue {
  std::string metric;  // the model.* metric it sits beside
  double value;
  std::string source;
};

struct Workload {
  std::string name;
  apps::ExperimentConfig cfg;
  /// Fig. 12 ferret workers (finite work, nice 19) on cores 0..n-1,
  /// spawned through apps::spawn_ferret right after start(). They run in
  /// 1 ms chunks, so their progress is a count; the testbed's own
  /// continuous-competitor mode is a spinning entity that never chunks.
  int ferrets = 0;
  std::vector<PaperValue> paper;
};

// The Fig. 13 XL710 testbed: 2 Rx queues, Metronome M=4 on 4 cores,
// V-bar = 15 us, 37 Mpps of 64 B packets.
apps::ExperimentConfig xl710_fig13() {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 2;
  cfg.n_cores = 4;
  cfg.met.n_threads = 4;
  cfg.met.target_vacation = 15 * sim::kMicrosecond;
  cfg.workload.rate_mpps = 37.0;
  cfg.workload.wire_size = 64;
  return cfg;
}

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed, bool tiny) {
  // --scale tiny shrinks every window 10x (and the population 64x) for
  // the smoke test; the code path is the same.
  const sim::Time div = tiny ? 10 : 1;
  Workload w;
  w.name = std::string(name);
  if (name == "linerate_stream") {
    w.cfg = xl710_fig13();
    w.cfg.workload.model = apps::ArrivalModel::kStream;  // CBR, grouped feeder
    w.cfg.workload.n_flows = 4096;
    w.cfg.warmup = 20 * sim::kMillisecond / div;
    w.cfg.measure = 80 * sim::kMillisecond / div;
    w.paper = {{"model.rho", 0.70, "Fig. 14: rho ~0.70 per queue with 2 queues"},
               {"model.throughput_mpps", 37.0, "Fig. 13: XL710 forwards 37 Mpps"}};
  } else if (name == "flows_16k") {
    // 2^14 per-flow Poisson sources, so the arena, wheel and FlowSet stay in
    // the core's private caches. Larger populations spill into the last-level
    // cache and memory that a shared host's other tenants contend for: at
    // 2^20 (the registry's fig13_fullstack_1m rung) host times swung by 1.7x
    // between invocations minutes apart, at 2^16 by 1.3x, beyond any bound
    // the benchmark can hold. bench_kernel_throughput keeps the scale ladder.
    w.cfg = xl710_fig13();
    w.cfg.workload.model = apps::ArrivalModel::kPerFlow;
    w.cfg.workload.poisson = true;
    w.cfg.workload.n_flows = tiny ? (std::size_t{1} << 10) : (std::size_t{1} << 14);
    w.cfg.warmup = 5 * sim::kMillisecond / div;
    w.cfg.measure = 25 * sim::kMillisecond / div;
  } else if (name == "low_load_shared") {
    // X520, Metronome M=3 on 3 cores at 1 Gbps, a nice-19 ferret
    // competitor on every core (Fig. 8 load, Fig. 12 sharing).
    w.cfg.driver = apps::DriverKind::kMetronome;
    w.cfg.xl710 = false;
    w.cfg.n_queues = 1;
    w.cfg.n_cores = 3;
    w.cfg.met.n_threads = 3;
    w.cfg.workload.model = apps::ArrivalModel::kStream;
    w.cfg.workload.rate_mpps = 1.488;
    w.cfg.workload.wire_size = 64;
    w.cfg.workload.n_flows = 256;
    w.ferrets = 3;
    w.cfg.warmup = 100 * sim::kMillisecond / div;
    w.cfg.measure = 400 * sim::kMillisecond / div;
    w.paper = {{"model.throughput_mpps", 1.488,
                "Table II: Metronome forwards the offered rate next to ferret"},
               {"model.loss_permille", 0.0, "Table II: no loss next to ferret"}};
  } else {
    return std::nullopt;
  }
  w.cfg.seed = seed;
  w.cfg.workload.seed = seed;
  w.cfg.wheel = sim::WheelConfig::for_population(
      w.cfg.workload.model == apps::ArrivalModel::kPerFlow ? w.cfg.workload.n_flows : 0);
  return w;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, run id; kept in memory, written at exit.

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent;  // index into the log, -1 for a root
  int run;
};

class SpanLog {
 public:
  int add(std::string name, Clock::time_point start, Clock::time_point end, int parent, int run) {
    spans_.push_back(Span{std::move(name), start, end, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, one tid per run id); load it in
  /// chrome://tracing or Perfetto.
  void write(std::ostream& os, Clock::time_point epoch) const {
    stats::JsonWriter w(os);
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.kv("name", s.name).kv("ph", "X").kv("pid", 1).kv("tid", s.run);
      w.kv("ts", 1e6 * seconds_between(epoch, s.start));
      w.kv("dur", 1e6 * seconds_between(s.start, s.end));
      w.key("args").begin_object().kv("id", static_cast<std::int64_t>(i));
      w.kv("parent", s.parent).end_object();
      w.end_object();
    }
    w.end_array().end_object();
    os << "\n";
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Host memory (Linux /proc; 0 where unavailable).

double proc_status_mb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0 && line.size() > field.size() && line[field.size()] == ':') {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// One complete run: build -> start -> bootstrap -> warm-up -> measure ->
// report. The six phases are contiguous (each starts at the instant the
// previous one ended), so they cover the run's wall time exactly.

enum Phase { kBuild, kStart, kBootstrap, kWarmup, kMeasure, kReport, kPhases };
constexpr std::array<const char*, kPhases> kPhaseNames = {
    "apps.build", "apps.start", "tgen.bootstrap", "apps.warmup", "apps.measure", "stats.report"};

struct RunRecord {
  int id = 0;
  bool traced = false;
  std::string error;  // empty = passed every check that ran
  std::array<double, kPhases> phase_s{};
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  apps::ExperimentResult result;
  double latency_p99_us = 0.0;
  std::uint64_t events_measure = 0;
  std::uint64_t pending_at_measure = 0;
  std::uint64_t arena_armed = 0;
  std::uint64_t arena_fired = 0;
  std::uint64_t chunks_done = 0;
  double rss_after_build_mb = 0.0;
  double rss_after_bootstrap_mb = 0.0;
  // Host seconds of each fixed simulated slice of the warm-up and the
  // measurement phase; together they cover those phases exactly.
  std::vector<double> warmup_slice_s;
  std::vector<double> measure_slice_s;
  std::string conservation;  // the checked packet balance, for the report
};

/// rx = tx + drops + still queued, from the report snapshot plus the live
/// ring occupancies. Returns an empty string when the balance holds.
template <typename Sim>
std::string check_conservation(apps::BasicTestbed<Sim>& bed, const stats::MetricSnapshot& s,
                               const apps::ExperimentConfig& cfg, std::string& balance) {
  auto& port = bed.port();
  const std::uint64_t mac_rx = s.counter("port.rx");
  const std::uint64_t cap_drops = s.counter("port.cap_drops");
  std::uint64_t ring_rx = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t ring_queued = 0;
  std::uint64_t drained = 0;  // handed from the rings to Tx by the driver
  for (int q = 0; q < port.n_rx_queues(); ++q) {
    const std::string base = "port.q" + std::to_string(q);
    ring_rx += s.counter(base + ".received");
    ring_drops += s.counter(base + ".dropped");
    ring_queued += port.rx_queue(q).size();
    drained += s.counter("met.q" + std::to_string(q) + ".packets");
  }
  const std::uint64_t tx = s.counter("port.tx.transmitted");
  const std::uint64_t tx_pending = port.tx().pending();
  const std::uint64_t arrivals = mac_rx + cap_drops;
  const std::uint64_t drops = cap_drops + ring_drops;
  // Popped from a ring but not yet handed to Tx: at most one burst per
  // driver thread can be in flight.
  const std::int64_t in_driver = static_cast<std::int64_t>(ring_rx) -
                                 static_cast<std::int64_t>(ring_queued) -
                                 static_cast<std::int64_t>(drained);
  balance = "rx " + std::to_string(arrivals) + " = tx " + std::to_string(tx) + " + drops " +
            std::to_string(drops) + " + queued " +
            std::to_string(ring_queued + tx_pending + static_cast<std::uint64_t>(
                                                          std::max<std::int64_t>(in_driver, 0)));
  if (mac_rx != ring_rx + ring_drops) return "MAC-accepted packets missing from the rings";
  if (drained != tx + tx_pending) return "drained packets missing from Tx";
  if (in_driver < 0 || in_driver > static_cast<std::int64_t>(cfg.met.n_threads) * cfg.met.burst) {
    return "driver holds " + std::to_string(in_driver) + " packets";
  }
  if (const auto* arena = bed.flow_arena(); arena != nullptr && arena->fired() != arrivals) {
    return "arena fired " + std::to_string(arena->fired()) + " packets, port saw " +
           std::to_string(arrivals);
  }
  return {};
}

/// How many fixed simulated slices the warm-up and the measurement phase
/// run in. run_until in pieces executes exactly the same events as one
/// call; the slices let the end-to-end figures be assembled slice by slice
/// (see HostFloor) and give the traced run its per-slice timings.
struct Slicing {
  int warmup;
  int measure;
};

/// Runs the simulation to `until` in `n` equal simulated slices starting at
/// `from`, appending each slice's host time to `out` and returning the
/// instant the last slice ended. `after` runs inside the last slice, so the
/// slices still cover the whole phase.
template <typename Bed, typename After>
Clock::time_point run_sliced(Bed& bed, sim::Time from, sim::Time until, int n,
                             Clock::time_point start, std::vector<double>& out,
                             std::vector<std::pair<Clock::time_point, Clock::time_point>>* spans,
                             After&& after) {
  out.reserve(static_cast<std::size_t>(n));
  Clock::time_point s0 = start;
  for (int i = 1; i <= n; ++i) {
    bed.run_until(from + (until - from) * i / n);
    if (i == n) after();
    const Clock::time_point s1 = Clock::now();
    out.push_back(seconds_between(s0, s1));
    if (spans != nullptr) spans->emplace_back(s0, s1);
    s0 = s1;
  }
  return s0;
}

template <typename Sim>
RunRecord run_once(const Workload& w, int id, SpanLog* spans, Slicing slicing) {
  const apps::ExperimentConfig& cfg = w.cfg;
  RunRecord r;
  r.id = id;
  r.traced = spans != nullptr;
  std::array<Clock::time_point, kPhases + 1> t{};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> slice_spans;

  t[kBuild] = Clock::now();
  apps::BasicTestbed<Sim> bed(cfg);
  if (r.traced) r.rss_after_build_mb = proc_status_mb("VmRSS");
  t[kStart] = Clock::now();
  bed.start();
  std::vector<std::shared_ptr<apps::FerretResult>> ferrets;
  for (int i = 0; i < w.ferrets; ++i) {
    apps::FerretConfig fc;
    fc.nice = 19;
    ferrets.push_back(apps::spawn_ferret(bed.sim(), bed.machine().core(i), fc,
                                         "ferret-" + std::to_string(i)));
  }
  const auto chunks = [&ferrets] {
    std::uint64_t n = 0;
    for (const auto& f : ferrets) n += f->chunks_done;
    return n;
  };
  t[kBootstrap] = Clock::now();
  bed.run_until(0);  // fires the t=0 events: the per-flow arena arms its timers here
  if (r.traced) r.rss_after_bootstrap_mb = proc_status_mb("VmRSS");
  t[kWarmup] = Clock::now();
  std::uint64_t chunks0 = 0;
  std::uint64_t events0 = 0;
  t[kMeasure] = run_sliced(bed, 0, cfg.warmup, slicing.warmup, t[kWarmup], r.warmup_slice_s,
                           nullptr, [&] {
                             bed.begin_measurement();
                             chunks0 = chunks();
                             r.pending_at_measure = bed.sim().pending_events();
                             events0 = bed.sim().events_processed();
                           });
  t[kReport] = run_sliced(bed, cfg.warmup, cfg.warmup + cfg.measure, slicing.measure, t[kMeasure],
                          r.measure_slice_s, r.traced ? &slice_spans : nullptr, [&] {
                            r.events_measure = bed.sim().events_processed() - events0;
                            r.chunks_done = chunks() - chunks0;
                          });
  r.result = bed.finish_measurement();
  const stats::MetricSnapshot snap = bed.telemetry().snapshot();
  r.fingerprint = snap.fingerprint();
  t[kPhases] = Clock::now();

  for (int p = 0; p < kPhases; ++p) r.phase_s[p] = seconds_between(t[p], t[p + 1]);
  r.wall_s = seconds_between(t[0], t[kPhases]);

  r.latency_p99_us = bed.latency_histogram().percentile(0.99);
  if (const auto* arena = bed.flow_arena()) {
    r.arena_armed = arena->armed();
    r.arena_fired = arena->fired();
  }
  r.error = check_conservation(bed, snap, cfg, r.conservation);

  if (spans != nullptr) {
    const int root = spans->add("run", t[0], t[kPhases], -1, id);
    int measure = -1;
    for (int p = 0; p < kPhases; ++p) {
      const int idx = spans->add(kPhaseNames[static_cast<std::size_t>(p)], t[p], t[p + 1], root, id);
      if (p == kMeasure) measure = idx;
    }
    for (const auto& [a, b] : slice_spans) spans->add("sim.slice", a, b, measure, id);
  }
  return r;
}

template <typename Sim>
RunRecord attempt(const Workload& w, int id, SpanLog* spans, Slicing slicing) {
  try {
    return run_once<Sim>(w, id, spans, slicing);
  } catch (const std::exception& e) {
    RunRecord r;
    r.id = id;
    r.traced = spans != nullptr;
    r.error = std::string("threw: ") + e.what();
    return r;
  }
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only): the FlowSet constructor alone, and the
// RSS hash over the workload's own tuples.

struct ProbeRecord {
  double flowset_build_s = 0.0;
  std::vector<double> rss_ns_per_call;  // one sample per chunk
  std::string error;
};

ProbeRecord probe_layers(const apps::ExperimentConfig& cfg, int id, SpanLog& spans) {
  ProbeRecord p;
  const Clock::time_point t0 = Clock::now();
  const tgen::FlowSet flows(cfg.workload.n_flows, cfg.workload.seed);
  const Clock::time_point t1 = Clock::now();
  p.flowset_build_s = seconds_between(t0, t1);

  constexpr std::size_t kChunk = 1024;
  const std::size_t n = std::min<std::size_t>(flows.size(), std::size_t{1} << 18);
  std::uint32_t mismatches = 0;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t end = std::min(n, base + kChunk);
    const Clock::time_point c0 = Clock::now();
    for (std::size_t i = base; i < end; ++i) {
      const auto& tu = flows.tuple(static_cast<std::uint32_t>(i));
      const std::uint32_t h = nic::rss_hash_ipv4(tu.src_ip, tu.dst_ip, tu.src_port, tu.dst_port);
      mismatches += h != flows.rss_hash(static_cast<std::uint32_t>(i)) ? 1u : 0u;
    }
    const Clock::time_point c1 = Clock::now();
    p.rss_ns_per_call.push_back(1e9 * seconds_between(c0, c1) / static_cast<double>(end - base));
  }
  const Clock::time_point t2 = Clock::now();
  if (mismatches != 0) p.error = "rss_hash_ipv4 disagrees with FlowSet on some tuples";

  const int root = spans.add("probe", t0, t2, -1, id);
  spans.add("tgen.flowset_build", t0, t1, root, id);
  spans.add("nic.rss_hash", t1, t2, root, id);
  return p;
}

// ---------------------------------------------------------------------------
// Statistics.

/// The host cost of one run with the rest of the host's interference taken
/// out, assembled from many runs of the same config and seed. Every run
/// executes exactly the same events, so the k-th simulated slice of one run
/// is the same work as the k-th slice of any other; interference from other
/// tenants of a shared host only ever adds time to a slice. The floor of a
/// sliced phase (warm-up, measurement) is the sum over its slices of each
/// slice's fastest time across the runs; an unsliced phase (build, start,
/// bootstrap, report) contributes its fastest time. A slower program raises
/// every run's slices and so the floor; a host that is quiet for only a
/// fraction of the invocation still shows each slice's quiet cost, which a
/// whole-run best or median does not.
class HostFloor {
 public:
  void add(const RunRecord& r) {
    ++runs_;
    for (int p = 0; p < kPhases; ++p) {
      double& m = phase_min_[static_cast<std::size_t>(p)];
      m = runs_ == 1 ? r.phase_s[p] : std::min(m, r.phase_s[p]);
    }
    fold(warmup_, r.warmup_slice_s);
    fold(measure_, r.measure_slice_s);
  }
  std::size_t runs() const { return runs_; }
  double phase(Phase p) const {
    if (p == kWarmup) return sum(warmup_);
    if (p == kMeasure) return sum(measure_);
    return phase_min_[static_cast<std::size_t>(p)];
  }
  double wall() const {
    double s = 0.0;
    for (int p = 0; p < kPhases; ++p) s += phase(static_cast<Phase>(p));
    return s;
  }

 private:
  static void fold(std::vector<double>& into, const std::vector<double>& v) {
    if (into.empty()) {
      into = v;
      return;
    }
    for (std::size_t i = 0; i < into.size() && i < v.size(); ++i) into[i] = std::min(into[i], v[i]);
  }
  static double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  }

  std::size_t runs_ = 0;
  std::array<double, kPhases> phase_min_{};
  std::vector<double> warmup_;
  std::vector<double> measure_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool force_mismatch = false;
  std::string report;
  std::string spans;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9' || v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--force-mismatch") {
      a.force_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = std::string(v);
    } else if (flag == "--seed" && parse_u64(v, n)) {
      a.seed = n;
    } else if (flag == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 3600) {
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (v == "0" || v == "1")) {
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--scale" && (v == "full" || v == "tiny")) {
      a.tiny = v == "tiny";
    } else if (flag == "--report") {
      a.report = std::string(v);
    } else if (flag == "--spans") {
      a.spans = std::string(v);
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || a.report.empty()) return std::nullopt;
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

const char* model_name(apps::ArrivalModel m) {
  return m == apps::ArrivalModel::kPerFlow ? "per_flow" : "stream";
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: metro_perfbench --workload linerate_stream|flows_16k|low_load_shared"
                 " --report PATH [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]"
                 " [--scale full|tiny] [--force-mismatch]\n";
    return 2;
  }
  const Args& args = *parsed;
  const std::optional<Workload> workload = make_workload(args.workload, args.seed, args.tiny);
  if (!workload) {
    std::cerr << "metro_perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const apps::ExperimentConfig& cfg = workload->cfg;
  const bool traced_mode = args.trace == 1;
  const Slicing slicing = args.tiny ? Slicing{10, 50} : Slicing{50, 250};
  const Clock::time_point epoch = Clock::now();
  SpanLog spans;

  // Warm-up run: same config, fully checked, excluded from timing.
  std::vector<RunRecord> runs;
  runs.push_back(attempt<sim::WheelSimulation>(*workload, 0, nullptr, slicing));
  // Peak RSS of one complete run in a fresh process: later runs reuse the
  // allocator's retained pages, so their high-water mark depends on history.
  const double peak_rss_mb = proc_status_mb("VmHWM");

  // --force-mismatch runs the first timed run on a different workload seed:
  // its telemetry genuinely diverges, and the oracle check must catch it.
  Workload mismatched = *workload;
  mismatched.cfg.workload.seed ^= 1;

  std::vector<ProbeRecord> probes;
  const std::size_t min_timed = traced_mode ? 4 : 3;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (runs.size() - 1 < min_timed || Clock::now() < deadline) {
    const int id = static_cast<int>(runs.size());
    const bool traced = traced_mode && id % 2 == 0;
    const Workload& run_w = args.force_mismatch && id == 1 ? mismatched : *workload;
    if (traced) probes.push_back(probe_layers(cfg, id, spans));
    runs.push_back(attempt<sim::WheelSimulation>(run_w, id, traced ? &spans : nullptr, slicing));
    if (traced && !probes.back().error.empty() && runs.back().error.empty()) {
      runs.back().error = probes.back().error;
    }
  }

  // Heap oracle: the reference kernel on the same config and seed (untimed).
  const Clock::time_point o0 = Clock::now();
  const RunRecord oracle = attempt<sim::Simulation>(*workload, -1, nullptr, slicing);
  if (traced_mode) spans.add("oracle.heap_run", o0, Clock::now(), -1, -1);

  // Verdicts.
  std::size_t failed = 0;
  for (RunRecord& r : runs) {
    if (r.error.empty() && !oracle.error.empty()) r.error = "oracle run failed: " + oracle.error;
    if (r.error.empty() && r.fingerprint != oracle.fingerprint) {
      r.error = "telemetry fingerprint differs from the heap oracle";
    }
    if (r.error.empty() && r.chunks_done != oracle.chunks_done) {
      r.error = "competitor progress differs from the heap oracle";
    }
    if (r.error.empty() && r.fingerprint != runs.front().fingerprint) {
      r.error = "telemetry fingerprint does not repeat across runs";
    }
    if (!r.error.empty()) {
      ++failed;
      std::cerr << "metro_perfbench: run " << r.id << " FAILED: " << r.error << "\n";
    }
  }

  // Samples: timed runs only (the warm-up run is index 0).
  HostFloor floor;
  double tx_packets = 0.0;
  std::vector<double> wall, traced_wall;
  std::array<std::vector<double>, kPhases> phases;
  std::vector<double> ns_per_event, ns_per_pkt, rss_build, rss_boot, slice_us;
  const RunRecord* last_traced = nullptr;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    if (!r.error.empty()) continue;
    const double measure_s = r.phase_s[kMeasure];
    if (!r.traced) {
      wall.push_back(r.wall_s);
      floor.add(r);
      tx_packets = static_cast<double>(r.result.tx_packets);
      continue;
    }
    last_traced = &r;
    traced_wall.push_back(r.wall_s);
    for (int p = 0; p < kPhases; ++p) phases[static_cast<std::size_t>(p)].push_back(r.phase_s[p]);
    if (r.events_measure > 0) ns_per_event.push_back(1e9 * measure_s / r.events_measure);
    if (r.result.rx_packets > 0) ns_per_pkt.push_back(1e9 * measure_s / r.result.rx_packets);
    rss_build.push_back(r.rss_after_build_mb);
    rss_boot.push_back(r.rss_after_bootstrap_mb);
    for (const double v : r.measure_slice_s) slice_us.push_back(1e6 * v);
  }
  std::vector<double> flowset_s, rss_ns;
  for (const ProbeRecord& p : probes) {
    flowset_s.push_back(p.flowset_build_s);
    rss_ns.insert(rss_ns.end(), p.rss_ns_per_call.begin(), p.rss_ns_per_call.end());
  }

  // End-to-end host times are the untraced timed runs' floor (HostFloor).
  const std::vector<Metric> end_to_end = {
      {"wall_s", floor.wall(), "s", floor.runs()},
      {"setup_s", floor.phase(kBuild) + floor.phase(kStart), "s", floor.runs()},
      {"sim_pkts_per_s", floor.runs() > 0 ? tx_packets / floor.phase(kMeasure) : 0.0, "1/s",
       floor.runs()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
      {"failed_ratio", static_cast<double>(failed) / static_cast<double>(runs.size()), "ratio",
       runs.size()},
  };

  std::vector<Metric> per_layer;
  if (traced_mode && last_traced != nullptr) {
    const RunRecord& t = *last_traced;
    const std::size_t n = traced_wall.size();
    const auto ph = [&](Phase p) { return median(phases[static_cast<std::size_t>(p)]); };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    per_layer = {
        {"apps.build_s", ph(kBuild), "s", n},
        {"apps.start_s", ph(kStart), "s", n},
        {"tgen.bootstrap_s", ph(kBootstrap), "s", n},
        {"apps.warmup_s", ph(kWarmup), "s", n},
        {"apps.measure_s", ph(kMeasure), "s", n},
        {"stats.report_s", ph(kReport), "s", n},
        {"tgen.flowset_build_s", median(flowset_s), "s", flowset_s.size()},
        {"nic.rss_hash_ns", median(rss_ns), "ns", rss_ns.size()},
        {"tgen.arena_armed", count(t.arena_armed), "count", 1},
        {"tgen.arena_fired", count(t.arena_fired), "count", 1},
        {"sim.events", count(t.events_measure), "count", 1},
        {"sim.ns_per_event", median(ns_per_event), "ns", ns_per_event.size()},
        {"sim.pending_at_measure", count(t.pending_at_measure), "count", 1},
        {"sim.slice_us.p50", percentile(slice_us, 0.50), "us", slice_us.size()},
        {"sim.slice_us.p99", percentile(slice_us, 0.99), "us", slice_us.size()},
        {"sim.slice_count", count(slice_us.size()), "count", 1},
        {"nic.rx_pkts", count(t.result.rx_packets), "count", 1},
        {"nic.tx_pkts", count(t.result.tx_packets), "count", 1},
        {"nic.drops", count(t.result.dropped_packets), "count", 1},
        {"nic.ns_per_pkt", median(ns_per_pkt), "ns", ns_per_pkt.size()},
        {"core.wakeups", count(t.result.wakeups), "count", 1},
        {"core.busy_tries_pct", t.result.busy_tries_pct, "%", 1},
        {"competitor.chunks_done", count(t.chunks_done), "count", 1},
        {"model.cpu_percent", t.result.cpu_percent, "%", 1},
        {"model.latency_us.p50", t.result.latency_us.median, "us", t.result.latency_us.count},
        {"model.latency_us.p99", t.latency_p99_us, "us", t.result.latency_us.count},
        {"model.loss_permille", t.result.loss_permille, "permille", 1},
        {"model.throughput_mpps", t.result.throughput_mpps, "Mpps", 1},
        {"model.rho", t.result.rho, "ratio", 1},
        {"model.ts_us", t.result.ts_us, "us", 1},
        {"mem.after_build_mb", median(rss_build), "MB", rss_build.size()},
        {"mem.after_bootstrap_mb", median(rss_boot), "MB", rss_boot.size()},
        {"trace.overhead_pct", 100.0 * (median(traced_wall) / median(wall) - 1.0), "%", n},
    };
  }

  // Phase coverage of the traced runs (contiguous by construction; checked).
  double covered = 0.0;
  double run_total = 0.0;
  for (const Span& s : spans.spans()) {
    if (s.name == "run") run_total += seconds_between(s.start, s.end);
    for (const char* p : kPhaseNames) {
      if (s.name == p) covered += seconds_between(s.start, s.end);
    }
  }
  const double coverage_pct = run_total > 0.0 ? 100.0 * covered / run_total : 100.0;

  // ---- report ---------------------------------------------------------------
  std::ofstream out(args.report);
  if (!out) {
    std::cerr << "metro_perfbench: cannot write " << args.report << "\n";
    return 1;
  }
  stats::JsonWriter w(out);
  w.begin_object();
  w.kv("workload", workload->name).kv("seed", args.seed).kv("trace", args.trace);
  w.kv("scale", args.tiny ? "tiny" : "full");
  w.key("manifest").begin_object();
  w.kv("compiler", METRO_PERFBENCH_COMPILER);
  w.kv("flags", METRO_PERFBENCH_FLAGS);
  w.kv("build_type", METRO_PERFBENCH_BUILD_TYPE);
  w.kv("cpu_model", cpu_model());
  w.kv("cores", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("jobs", 1).kv("seed", args.seed);
  w.kv("aes_impl", crypto::Aes128::hardware_available() ? "aesni" : "ttable");
  w.kv("kernel", "wheel");
  w.key("wheel_geometry").begin_object();
  w.kv("slot_bits", cfg.wheel.slot_bits).kv("tick_shift", cfg.wheel.tick_shift);
  w.kv("levels", cfg.wheel.levels).end_object();
  w.key("config").begin_object();
  w.kv("arrival", model_name(cfg.workload.model));
  w.kv("rate_mpps", cfg.workload.rate_mpps);
  w.kv("n_flows", static_cast<std::uint64_t>(cfg.workload.n_flows));
  w.kv("wire_size", static_cast<std::uint64_t>(cfg.workload.wire_size));
  w.kv("nic", cfg.xl710 ? "XL710" : "X520").kv("rx_queues", cfg.n_queues);
  w.kv("cores", cfg.n_cores).kv("metronome_threads", cfg.met.n_threads);
  w.kv("ferret_workers", workload->ferrets);
  w.kv("warmup_ms", sim::to_seconds(cfg.warmup) * 1e3);
  w.kv("measure_ms", sim::to_seconds(cfg.measure) * 1e3);
  w.end_object();
  w.end_object();

  w.kv("attempted", static_cast<std::uint64_t>(runs.size()));
  w.kv("failed", static_cast<std::uint64_t>(failed));
  w.key("checks").begin_object();
  w.kv("oracle_fingerprint", std::to_string(oracle.fingerprint));
  w.kv("oracle_error", oracle.error);
  w.kv("conservation", runs.front().conservation);
  w.kv("phase_coverage_pct", coverage_pct);
  w.end_object();

  const auto write_metrics = [&w](std::string_view key, const std::vector<Metric>& ms) {
    w.key(key).begin_object();
    for (const Metric& m : ms) {
      w.key(m.name).begin_object();
      w.kv("value", m.value).kv("unit", m.unit);
      w.kv("samples", static_cast<std::uint64_t>(m.samples)).end_object();
    }
    w.end_object();
  };
  write_metrics("end_to_end", end_to_end);
  write_metrics("per_layer", per_layer);

  w.key("paper").begin_array();
  for (const PaperValue& p : workload->paper) {
    w.begin_object().kv("metric", p.metric).kv("value", p.value).kv("source", p.source);
    w.end_object();
  }
  w.end_array();

  w.key("runs").begin_array();
  for (const RunRecord& r : runs) {
    w.begin_object();
    w.kv("id", r.id).kv("traced", r.traced).kv("error", r.error);
    w.kv("wall_s", r.wall_s).kv("fingerprint", std::to_string(r.fingerprint));
    w.key("phase_s").begin_object();
    for (int p = 0; p < kPhases; ++p) {
      w.kv(kPhaseNames[static_cast<std::size_t>(p)], r.phase_s[p]);
    }
    w.end_object().end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";

  if (!args.spans.empty()) {
    std::ofstream so(args.spans);
    spans.write(so, epoch);
  }
  if (traced_mode && (coverage_pct < 99.999 || coverage_pct > 100.001)) {
    std::cerr << "metro_perfbench: phase spans cover " << coverage_pct << "% of run wall time\n";
    return 1;
  }
  return failed == 0 ? 0 : 1;
}
