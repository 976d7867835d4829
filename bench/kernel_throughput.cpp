// Kernel throughput benchmark: events/sec of the discrete-event core.
//
// Every figure bench and tier-1 test drives the kernel in
// src/sim/simulation.hpp, so its event throughput is the ceiling on how
// many scenarios we can simulate per CPU-second. This bench pins that
// number and emits BENCH_kernel.json so the trajectory is tracked PR over
// PR. See docs/BENCHMARKS.md for the full field reference.
//
// Every scenario runs on each event-queue backend selected with
// --backend=heap|wheel|all (default all; src/sim/event_queue.hpp) over a
// fixed number of interleaved trials (each round runs every backend once)
// summarised by bench::Trials, and is one JSON block:
// the trial count, the events per run, per-backend median/IQR wall time
// and median event (full stack: also simulated packet) rate, and the
// wheel's speedup over the heap as a ratio of median walls. Every run on
// every backend must process the same number of events (full stack: with
// the same telemetry fingerprint), or the bench exits 1.
//
// Scenarios (kernel-level):
//   * timer_churn      — callback events rescheduling themselves,
//   * coroutine_sleep  — many processes looping over sleep_for,
//   * signal_timeout   — timed waits raced by notifications (the polling-
//                        driver idle pattern: every wait arms a timer that
//                        notify then cancels),
//   * fig13_multiqueue_kernel — the event population of the fig13
//                        multiqueue experiment modelled at kernel level:
//                        >10k concurrently pending flow timers plus
//                        metronome-style timed waits. This is the regime
//                        the timing wheel exists for.
// Full app stack, each trial one scenario::SweepRunner shard:
//   * fig13_multiqueue  — the fig13 testbed with its grouped feeder, on
//     the heap only: the simulated-packets/sec trajectory;
//   * fig13_fullstack   — the same testbed with *per-flow traffic sources*
//     (one arrival process per flow, >24k concurrently pending flow
//     timers), on every enabled backend;
//   * fig13_fullstack_1m/4m/16m — the registered scale rungs (2^20,
//     2^22 and 2^24 per-flow sources: the wheel's home regime, the
//     beyond-LLC regime, and the largest population). --fast drops the
//     16M rung; --flows=N swaps the rungs for one custom population.
// Plus the fig16 IPsec live-crypto delta, single-shot: the end-to-end wall
// cost of running the real ESP gateway per packet (the crypto substrate's
// own per-op timings are bench_crypto's, in BENCH_crypto.json).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/experiment.hpp"
#include "common.hpp"
#include "crypto/aes.hpp"
#include "crypto_common.hpp"
#include "scenario/registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "stats/json_writer.hpp"

namespace {

using metro::sim::BasicSignal;
using metro::sim::BasicSimulation;
using metro::sim::BinaryHeapBackend;
using metro::sim::TimingWheelBackend;
using metro::sim::Task;
using metro::sim::Time;

double wall_seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from).count();
}

/// The process's peak resident set so far (VmHWM), MB; 0 where
/// /proc/self/status is unavailable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- kernel-level scenario bodies, templated over the simulation -----------

template <typename Sim>
void timer_churn(Sim& sim, std::uint64_t chains, std::uint64_t events_per_chain) {
  // `chains` self-rescheduling callbacks, offset so timestamps interleave.
  struct Reschedule {
    Sim* sim;
    std::uint64_t left;
    Time period;
    void operator()() {
      if (left == 0) return;
      sim->schedule_after(period, Reschedule{sim, left - 1, period});
    }
  };
  for (std::uint64_t c = 0; c < chains; ++c) {
    sim.schedule_after(static_cast<Time>(c), Reschedule{&sim, events_per_chain, 100 + static_cast<Time>(c % 7)});
  }
  sim.run();
}

template <typename Sim>
Task sleeper_proc(Sim& sim, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) co_await sim.sleep_for(period);
}

template <typename Sim>
void coroutine_sleep(Sim& sim, std::uint64_t procs, std::uint64_t iters) {
  for (std::uint64_t p = 0; p < procs; ++p) {
    sim.spawn(sleeper_proc(sim, iters, 50 + static_cast<Time>(p % 13)));
  }
  sim.run();
}

template <typename Sim, typename Sig>
Task signal_waiter(Sim& sim, Sig& sig, std::uint64_t iters, Time timeout) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    (void)co_await sig.wait_for(timeout);
  }
  (void)sim;
}

template <typename Sim, typename Sig>
Task signal_notifier(Sim& sim, Sig& sig, std::uint64_t iters, Time period) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    co_await sim.sleep_for(period);
    sig.notify_all();
  }
}

template <typename Sim>
void signal_timeout(Sim& sim, std::uint64_t waiters, std::uint64_t iters) {
  // Notify every 1 us; each wait arms a 10 us timeout that the notify
  // cancels — the polling-driver idle pattern.
  BasicSignal<Sim> sig(sim);
  for (std::uint64_t w = 0; w < waiters; ++w) {
    sim.spawn(signal_waiter(sim, sig, iters, 10'000));
  }
  sim.spawn(signal_notifier(sim, sig, iters + 1, 1'000));
  sim.run();
}

// The fig13 multiqueue event population at kernel level: kFlows
// concurrently pending per-flow timers (the >10k regime where a binary
// heap pays ~14 levels per op), 2 queue signals, 4 metronome-style threads
// on 15 us timed waits, notifies at burst cadence. Workload is identical
// on every backend (pure kernel objects, fixed iteration counts).
constexpr std::uint64_t kFig13Flows = 12288;

template <typename Sim>
void fig13_multiqueue_kernel(Sim& sim, std::uint64_t scale) {
  struct FlowTimer {
    Sim* sim;
    std::uint64_t left;
    Time period;
    void operator()() {
      if (left == 0) return;
      sim->schedule_after(period, FlowTimer{sim, left - 1, period});
    }
  };
  const std::uint64_t per_flow = scale * 50;
  for (std::uint64_t f = 0; f < kFig13Flows; ++f) {
    // Periods spread 50..150 us so the pending population stays dense and
    // timestamps interleave across the full horizon.
    const Time period = 50'000 + static_cast<Time>((f * 8'191) % 100'000);
    sim.schedule_after(static_cast<Time>(f), FlowTimer{&sim, per_flow, period});
  }
  const std::uint64_t met_iters = scale * 40'000;
  BasicSignal<Sim> q0(sim), q1(sim);
  sim.spawn(signal_waiter(sim, q0, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q0, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q1, met_iters, 15'000));
  sim.spawn(signal_waiter(sim, q1, met_iters, 15'000));
  sim.spawn(signal_notifier(sim, q0, met_iters, 27'000));
  sim.spawn(signal_notifier(sim, q1, met_iters, 31'000));
  sim.run();
}

// --- full-stack scenario configuration --------------------------------------

// The fig13 multiqueue testbed (scenario::fig13_testbed(): XL710, 2
// queues, 4 Metronome threads, 37 Mpps), with this bench's traditional
// short windows.
metro::apps::ExperimentConfig fig13_config(bool fast) {
  auto cfg = metro::scenario::fig13_testbed();
  cfg.warmup = 50 * metro::sim::kMillisecond;
  cfg.measure = (fast ? 100 : 400) * metro::sim::kMillisecond;
  return cfg;
}

// --- trial blocks -----------------------------------------------------------

// Trials per backend. Constants, so every report of one mode is measured
// the same way; the scale rungs set theirs in main().
constexpr int kKernelTrials = 5;  // each kernel-level scenario
constexpr int kStackTrials = 3;   // fig13_multiqueue and fig13_fullstack

using metro::scenario::BackendKind;

/// One scenario measured on each enabled backend through bench::Trials —
/// one JSON block. Every run on every backend must reproduce the first
/// run's kernel event count and (full-stack shards) telemetry
/// fingerprint; the first mismatch is printed and fails the bench.
struct Block {
  std::string name;
  int trials = 0;
  std::array<std::optional<metro::bench::Trials>, 2> wall;  // seconds, by BackendKind
  std::uint64_t events = 0;  // kernel events per run
  std::uint64_t fingerprint = 0;
  bool seen = false;
  bool identical = true;
  // Full-stack shards only; deterministic, so any run's values.
  bool full_stack = false;
  std::size_t n_flows = 0;
  std::uint64_t packets = 0;  // simulated packets processed per run
  std::size_t pending = 0;    // pending events at measurement start
  double throughput_mpps = 0.0;

  void record(BackendKind kind, std::uint64_t ev, std::uint64_t fp) {
    if (!seen) {
      seen = true;
      events = ev;
      fingerprint = fp;
    } else if (identical && (ev != events || fp != fingerprint)) {
      identical = false;
      std::cerr << "DIVERGENCE in " << name << ": a " << metro::scenario::backend_name(kind)
                << " run gave " << ev << " events / fingerprint " << fp << ", the first run "
                << events << " / " << fingerprint << "\n";
    }
  }
  double wheel_vs_heap() const { return wall[0]->median / wall[1]->median; }
};

/// Runs `b.trials` interleaved rounds, each timing every enabled backend
/// once, so a host-load episode slows both sides of the wheel-vs-heap
/// ratio alike; odd rounds reverse the backend order, so an order effect
/// (a frequency ramp, state the previous run left) does not always land
/// on the same side. Then summarises each backend's walls. `run_once(kind)`
/// returns one run's wall seconds.
template <typename RunOnce>
void run_trials(Block& b, metro::bench::BackendChoice choice, RunOnce run_once) {
  auto kinds = metro::bench::backend_kinds(choice);
  std::array<std::vector<double>, 2> walls;
  for (int t = 0; t < b.trials; ++t) {
    for (const BackendKind kind : kinds) {
      walls[static_cast<std::size_t>(kind)].push_back(run_once(kind));
    }
    std::reverse(kinds.begin(), kinds.end());
  }
  for (const BackendKind kind : kinds) {
    const auto k = static_cast<std::size_t>(kind);
    b.wall[k] = metro::bench::Trials::of(std::move(walls[k]));
  }
}

/// kKernelTrials rounds of a kernel-level scenario; `body(sim)` builds
/// the workload and runs it to completion. The timed region spans the
/// simulation's construction and destruction.
template <typename Body>
Block kernel_block(const char* name, metro::bench::BackendChoice choice, Body body) {
  Block b;
  b.name = name;
  b.trials = kKernelTrials;
  const auto timed = [&](BackendKind kind, auto backend) {
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    {
      BasicSimulation<typename decltype(backend)::type> sim;
      body(sim);
      events = sim.events_processed();
    }
    const double wall = wall_seconds(t0);
    b.record(kind, events, 0);
    return wall;
  };
  run_trials(b, choice, [&](BackendKind kind) {
    return kind == BackendKind::kHeap ? timed(kind, std::type_identity<BinaryHeapBackend>{})
                                      : timed(kind, std::type_identity<TimingWheelBackend>{});
  });
  return b;
}

/// `trials` rounds of one full-stack shard. Each run is alone on a
/// one-worker SweepRunner: wall time is the metric, so runs never share
/// the host.
Block stack_block(const std::string& name, const metro::apps::ExperimentConfig& cfg, int trials,
                  metro::bench::BackendChoice choice) {
  Block b;
  b.name = name;
  b.trials = trials;
  b.full_stack = true;
  b.n_flows = cfg.workload.n_flows;
  run_trials(b, choice, [&](BackendKind kind) {
    const auto r =
        metro::scenario::SweepRunner(1).run({metro::scenario::Shard{name, kind, cfg}}).front();
    if (r.failed) {
      std::cerr << name << " failed on " << metro::scenario::backend_name(kind) << ": "
                << r.error << "\n";
      b.identical = false;
    }
    b.record(kind, r.events, r.fingerprint);
    b.packets = r.counters.processed;
    b.pending = r.pending_at_measure;
    b.throughput_mpps = r.result.throughput_mpps;
    return r.wall_seconds;
  });
  return b;
}

void print_block(const Block& b) {
  std::cout << "  " << b.name << " (" << b.trials << " trials per backend, " << b.events
            << " events per run";
  if (b.full_stack) {
    std::cout << ", " << b.n_flows << " flows, " << b.pending << " pending events, "
              << metro::bench::num(b.throughput_mpps, 1) << " Mpps simulated";
  }
  std::cout << "):\n";
  for (const BackendKind kind : {BackendKind::kHeap, BackendKind::kWheel}) {
    const auto& t = b.wall[static_cast<std::size_t>(kind)];
    if (!t) continue;
    std::cout << "    " << metro::scenario::backend_name(kind) << ": wall median "
              << metro::bench::num(t->median, 3) << " s (IQR " << metro::bench::num(t->iqr, 3)
              << "), " << metro::bench::num(static_cast<double>(b.events) / t->median / 1e6)
              << " M events/s";
    if (b.full_stack) {
      std::cout << ", " << metro::bench::num(static_cast<double>(b.packets) / t->median / 1e6)
                << " M simulated packets/s";
    }
    std::cout << "\n";
  }
  if (b.wall[0] && b.wall[1]) {
    std::cout << "    wheel vs heap: x" << metro::bench::num(b.wheel_vs_heap());
    if (b.full_stack) {
      std::cout << (b.identical ? "  (identical telemetry)" : "  [TELEMETRY DIVERGED]");
    }
    std::cout << "\n";
  }
}

/// The block's JSON fields (the caller opens and closes its object).
/// Rates are the per-run counts over the median wall.
void emit_block(metro::stats::JsonWriter& w, const Block& b) {
  w.kv("trials", static_cast<std::uint64_t>(b.trials));
  w.kv("events_processed", b.events);
  if (b.full_stack) {
    w.kv("n_flows", static_cast<std::uint64_t>(b.n_flows));
    w.kv("pending_events", static_cast<std::uint64_t>(b.pending));
    w.kv("simulated_throughput_mpps", b.throughput_mpps);
  }
  for (const BackendKind kind : {BackendKind::kHeap, BackendKind::kWheel}) {
    const auto& t = b.wall[static_cast<std::size_t>(kind)];
    if (!t) continue;
    w.key(metro::scenario::backend_name(kind)).begin_object();
    w.kv("wall_seconds_median", t->median);
    w.kv("wall_seconds_iqr", t->iqr);
    w.kv("events_per_sec_median", static_cast<double>(b.events) / t->median);
    if (b.full_stack) {
      w.kv("simulated_packets_per_sec_median", static_cast<double>(b.packets) / t->median);
    }
    w.end_object();
  }
  if (b.wall[0] && b.wall[1]) w.kv("wheel_vs_heap_speedup", b.wheel_vs_heap());
  if (b.full_stack) w.kv("telemetry_identical", b.identical);
}

}  // namespace

int main(int argc, char** argv) {
  // Takes --fast, --backend and --flows only; any other shared flag is
  // refused rather than silently ignored. Wall time *is* this bench's
  // headline metric, so every measured run has the host to itself and
  // --jobs does not apply (jobs stays at the out-of-range default 0
  // unless the flag is given).
  metro::bench::Args args;
  std::string error;
  if (!metro::bench::try_parse_args(argc, argv, metro::bench::BackendChoice::kAll, 0, args,
                                    error)) {
    std::cerr << error << "\n" << metro::bench::usage_text();
    return 2;
  }
  if (args.jobs != 0 || args.list || !args.only.empty() || args.deadline_s > 0.0 ||
      !args.trace.empty() || args.series_us > 0.0 || !args.trace_out.empty() ||
      args.crypto != metro::bench::CryptoMode::kCalibrated) {
    std::cerr << "bench_kernel_throughput takes --fast, --backend=heap|wheel|all and "
                 "--flows=N only\n";
    return 2;
  }
  const bool fast = args.fast;
  const std::uint64_t scale = fast ? 1 : 4;

  metro::bench::header(
      "Kernel throughput — events/sec and simulated packets/sec, heap vs wheel",
      "the wheel should beat the heap at >10k pending events and dominate it at the "
      "2^20-flow population");

  // --- kernel-level scenarios -------------------------------------------
  std::vector<Block> kernel;
  kernel.push_back(kernel_block("timer_churn", args.backend,
                                [&](auto& sim) { timer_churn(sim, 64, scale * 20'000); }));
  kernel.push_back(kernel_block("coroutine_sleep", args.backend,
                                [&](auto& sim) { coroutine_sleep(sim, 256, scale * 5'000); }));
  kernel.push_back(kernel_block("signal_timeout", args.backend,
                                [&](auto& sim) { signal_timeout(sim, 64, scale * 10'000); }));
  kernel.push_back(kernel_block("fig13_multiqueue_kernel", args.backend,
                                [&](auto& sim) { fig13_multiqueue_kernel(sim, scale); }));
  for (const auto& b : kernel) print_block(b);

  // --- fig13 on the full app stack --------------------------------------
  // Grouped feeder on the heap only: the simulated-packets/sec trajectory.
  const Block multiqueue =
      stack_block("fig13_multiqueue", fig13_config(fast), kStackTrials,
                  metro::bench::BackendChoice::kHeap);
  print_block(multiqueue);

  // The same testbed with one arrival process per flow (the registered
  // "fig13_fullstack_perflow" scenario, 24576 flows) on every enabled
  // backend, with this bench's traditional windows, shorter than the
  // registry defaults.
  const auto* fs_scenario = metro::scenario::find_scenario("fig13_fullstack_perflow");
  if (fs_scenario == nullptr) {
    std::cerr << "fig13_fullstack_perflow missing from the scenario registry\n";
    return 2;
  }
  auto fs_cfg = fs_scenario->config;
  fs_cfg.warmup = 20 * metro::sim::kMillisecond;
  fs_cfg.measure = (fast ? 60 : 200) * metro::sim::kMillisecond;
  const Block fullstack = stack_block("fig13_fullstack", fs_cfg, kStackTrials, args.backend);
  print_block(fullstack);

  // Full-stack scale rungs: fig13_fullstack_1m/4m/16m (2^20 / 2^22 /
  // 2^24 per-flow sources) — the wheel's home regime, then the beyond-LLC
  // regime and the largest population. --fast drops the 16M population
  // (tier-1 CI budget); --flows=N swaps the rungs for one custom
  // population built from the 1M scenario's testbed.
  std::vector<std::pair<const char*, int>> plan;  // scenario, trials
  plan.emplace_back("fig13_fullstack_1m", fast ? 2 : 3);
  if (args.flows == 0) {
    plan.emplace_back("fig13_fullstack_4m", fast ? 2 : 3);
    if (!fast) plan.emplace_back("fig13_fullstack_16m", 2);
  }
  std::vector<Block> rungs;
  for (const auto& [sname, trials] : plan) {
    const auto* spec = metro::scenario::find_scenario(sname);
    if (spec == nullptr) {
      std::cerr << sname << " missing from the scenario registry\n";
      return 2;
    }
    auto cfg = spec->config;
    std::string name = spec->name;
    if (args.flows != 0) {
      name = "fig13_fullstack_custom";
      cfg.workload.n_flows = args.flows;
    }
    if (fast) cfg.measure = 10 * metro::sim::kMillisecond;
    rungs.push_back(stack_block(name, cfg, trials, args.backend));
    print_block(rungs.back());
  }

  // --- fig16 ipsec live-crypto delta -------------------------------------
  // The paper's max-rate IPsec point (5.61 Mpps, Metronome, heap) run
  // calibrated, then with the real (fast) ESP gateway per packet.
  // Simulated results must be bit-identical — the hook is wall-clock-only
  // by construction — so the delta isolates what the crypto substrate
  // costs end to end. Scalar vs fast per packet is bench_crypto's
  // esp_encap_decap block.
  namespace cryptob = metro::bench::cryptob;
  const char* aes_impl =
      metro::crypto::Aes128::hardware_available() ? "aesni" : "ttable";
  const auto w16 = metro::bench::windows(fast);
  metro::apps::ExperimentConfig icfg;
  icfg.driver = metro::apps::DriverKind::kMetronome;
  icfg.met.per_packet_cost = metro::sim::calib::kIpsecPerPacketCost;
  icfg.n_cores = 3;
  icfg.workload.rate_mpps = 5.61;
  icfg.warmup = w16.warmup;
  icfg.measure = w16.measure;
  cryptob::LiveGatewayWorker<metro::apps::IpsecGateway> live_worker(cryptob::bench_sa());
  std::vector<metro::scenario::Shard> ishards(
      2, metro::scenario::Shard{"fig16_ipsec_5.61mpps_metronome", BackendKind::kHeap, icfg});
  ishards[1].config.met.packet_work = metro::nic::PacketWork(live_worker);
  const auto iruns = metro::scenario::SweepRunner(1).run(ishards);
  const bool live_identical = iruns[0].fingerprint == iruns[1].fingerprint;
  const double live_pps = iruns[1].wall_seconds > 0.0
                              ? static_cast<double>(iruns[1].counters.processed) /
                                    iruns[1].wall_seconds
                              : 0.0;
  std::cout << "  fig16 ipsec 5.61 Mpps Metronome, calibrated vs live crypto (auto path: "
            << aes_impl << "): calibrated wall " << metro::bench::num(iruns[0].wall_seconds, 3)
            << " s | live wall " << metro::bench::num(iruns[1].wall_seconds, 3) << " s ("
            << metro::bench::num(live_pps, 0) << " sim-pkt/s)"
            << (live_identical ? "  (identical telemetry)" : "  [TELEMETRY DIVERGED]") << "\n";

  // --- BENCH_kernel.json -------------------------------------------------
  std::ofstream json_file("BENCH_kernel.json");
  metro::stats::JsonWriter w(json_file);
  w.begin_object();
  w.kv("bench", "kernel_throughput");
  w.kv("fast_mode", fast);
  // Whole-process peak: with --backend=wheel --flows=N it is that
  // population's memory. Top-level, outside every "trials" object, so
  // the regression gate ignores it.
  w.kv("peak_rss_mb", peak_rss_mb());
  w.key("backends").begin_array();
  for (const BackendKind kind : metro::bench::backend_kinds(args.backend)) {
    w.value(metro::scenario::backend_name(kind));
  }
  w.end_array();
  // Every wheel run in this report uses the one production geometry.
  const metro::sim::WheelConfig geometry{};
  w.key("wheel_geometry").begin_object();
  w.kv("slot_bits", static_cast<std::uint64_t>(geometry.slot_bits));
  w.kv("tick_shift", static_cast<std::uint64_t>(geometry.tick_shift));
  w.kv("levels", static_cast<std::uint64_t>(geometry.levels));
  w.end_object();
  const auto emit = [&w](const Block& b) {
    w.key(b.name).begin_object();
    emit_block(w, b);
    w.end_object();
  };
  w.key("scenarios").begin_object();
  for (const auto& b : kernel) emit(b);
  w.end_object();
  emit(multiqueue);
  emit(fullstack);
  w.key("fig13_fullstack_scale").begin_object();
  w.key("populations").begin_object();
  for (const auto& b : rungs) emit(b);
  w.end_object();
  w.end_object();
  w.key("crypto").begin_object();
  w.kv("aes_impl", aes_impl);
  w.key("fig16_ipsec_live").begin_object();
  w.kv("rate_mpps", 5.61);
  w.kv("driver", "metronome");
  w.kv("backend", "heap");
  w.kv("calibrated_wall_seconds", iruns[0].wall_seconds);
  w.kv("live_fast_wall_seconds", iruns[1].wall_seconds);
  w.kv("live_fast_sim_pkts_per_sec", live_pps);
  w.kv("live_fast_slowdown_vs_calibrated",
       iruns[0].wall_seconds > 0.0 ? iruns[1].wall_seconds / iruns[0].wall_seconds : 0.0);
  w.kv("telemetry_identical", live_identical);
  w.end_object();
  w.end_object();
  w.end_object();
  w.finish();

  bool identical = live_identical && multiqueue.identical && fullstack.identical;
  for (const auto& b : kernel) identical = identical && b.identical;
  for (const auto& b : rungs) identical = identical && b.identical;
  if (!identical) {
    std::cout << "\nwrote BENCH_kernel.json (DIVERGENCE — failing)\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_kernel.json\n";
  return 0;
}
