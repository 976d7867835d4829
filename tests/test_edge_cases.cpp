// Edge cases and failure injection across the stack.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "apps/experiment.hpp"
#include "rt/metronome_rt.hpp"

namespace metro {
namespace {

TEST(EdgeCaseTest, SingleThreadMetronomeStillWorks) {
  // M = 1 degenerates to a lone poller with sleep pauses — no race, no
  // backups. The paper assumes M >= 2; the implementation must not.
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.met.n_threads = 1;
  cfg.n_cores = 1;
  cfg.workload.rate_mpps = 5.0;
  cfg.warmup = 50 * sim::kMillisecond;
  cfg.measure = 150 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);
  EXPECT_NEAR(r.throughput_mpps, 5.0, 0.2);
  EXPECT_EQ(r.busy_tries_pct, 0.0);  // nobody to collide with
  // Eq. 13 with M = 1: TS = V-bar at every load.
  EXPECT_NEAR(r.ts_us, sim::to_micros(cfg.met.target_vacation), 0.5);
}

TEST(EdgeCaseTest, FewerThreadsThanQueuesCoversAllQueuesWhenIdle) {
  // The paper requires M >= N (every queue needs a primary to own it under
  // sustained load). Below that, the empty-drain hopping amendment must at
  // least keep *checking* every queue, so idle or bursty-idle deployments
  // never blackhole a queue.
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.xl710 = true;
  cfg.n_queues = 4;
  cfg.n_cores = 2;
  cfg.met.n_threads = 2;
  cfg.workload.rate_mpps = 0.0;
  cfg.warmup = 0;
  cfg.measure = 300 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);
  ASSERT_EQ(r.queues.size(), 4u);
  for (const auto& q : r.queues) EXPECT_GT(q.total_tries, 100u) << "unchecked queue";
}

TEST(EdgeCaseTest, MoreThreadsThanCores) {
  // 6 threads on 2 cores: processor sharing must not deadlock or lose the
  // conservation property.
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.met.n_threads = 6;
  cfg.n_cores = 2;
  cfg.workload.rate_mpps = 7.44;
  cfg.warmup = 50 * sim::kMillisecond;
  cfg.measure = 150 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);
  EXPECT_NEAR(r.throughput_mpps, 7.44, 0.3);
  EXPECT_LE(r.cpu_percent, 200.5);  // can't exceed the two cores
}

TEST(EdgeCaseTest, TinyTargetVacation) {
  // V-bar below the sleep-service floor: the system must stay stable (the
  // floor dominates, CPU is high, but nothing breaks).
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.met.target_vacation = 500;  // 0.5 us
  cfg.workload.rate_mpps = 14.88;
  cfg.warmup = 50 * sim::kMillisecond;
  cfg.measure = 100 * sim::kMillisecond;
  const auto r = apps::run_experiment(cfg);
  EXPECT_NEAR(r.throughput_mpps, 14.88, 0.2);
  EXPECT_GT(r.vacation_us.mean(), 1.0);  // floor ~3.5 us overhead
}

TEST(EdgeCaseTest, SubMicrosecondFastReturnPatchUnderLoad) {
  // §V-C patched hr_sleep: sub-us requests return immediately. With a tiny
  // V-bar this turns Metronome into a near-poller: lowest latency, higher
  // CPU, still no loss.
  apps::ExperimentConfig base;
  base.driver = apps::DriverKind::kMetronome;
  base.met.target_vacation = 500;
  base.tx_batch = 1;
  base.workload.rate_mpps = 14.88;
  base.warmup = 50 * sim::kMillisecond;
  base.measure = 100 * sim::kMillisecond;
  auto patched = base;
  patched.met.sleep.sub_us_fast_return = true;
  const auto r_base = apps::run_experiment(base);
  const auto r_patched = apps::run_experiment(patched);
  EXPECT_LT(r_patched.latency_us.mean, r_base.latency_us.mean);
  EXPECT_GT(r_patched.cpu_percent, r_base.cpu_percent);
  // The paper reports 7.21 us mean vs DPDK's 6.83 with this setup; we
  // only require getting within ~25% of the pure poller's latency.
  auto dpdk = base;
  dpdk.driver = apps::DriverKind::kStaticPolling;
  const auto r_dpdk = apps::run_experiment(dpdk);
  EXPECT_LT(r_patched.latency_us.mean, r_dpdk.latency_us.mean * 1.25);
}

TEST(EdgeCaseTest, BurstAfterLongIdleIsAbsorbed) {
  // Metronome keeps periodically checking its queues, so a sudden burst
  // after a silent stretch is caught within ~TS (§V-D: unlike XDP, no
  // adaptation loss).
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.workload.rate_mpps = 0.0;
  cfg.warmup = 0;
  cfg.measure = sim::kSecond;
  apps::Testbed bed(cfg);
  bed.start();
  bed.run_until(300 * sim::kMillisecond);  // long idle
  // Inject a 400-packet burst directly.
  for (int i = 0; i < 400; ++i) {
    nic::PacketDesc p;
    p.arrival = bed.sim().now();
    bed.port().rx(p);
  }
  bed.run_until(301 * sim::kMillisecond);  // 1 ms later
  EXPECT_EQ(bed.port().total_dropped(), 0u);
  EXPECT_EQ(bed.packets_processed(), 400u);
}

TEST(EdgeCaseTest, RtReportsCpuAndWallTime) {
  rt::RtConfig cfg;
  cfg.rate_pps = 100e3;
  rt::MetronomeRt runtime(cfg);
  runtime.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto r = runtime.stop();
  EXPECT_GT(r.wall_seconds, 0.15);
  EXPECT_GT(r.cpu_seconds, 0.0);
  // Producer spins + M sleepy workers: bounded by (M+1) cores' worth.
  EXPECT_LT(r.cpu_seconds, r.wall_seconds * (cfg.n_threads + 2));
}

TEST(EdgeCaseTest, ZeroMeasureWindowYieldsEmptyResult) {
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.warmup = 10 * sim::kMillisecond;
  cfg.measure = 0;
  const auto r = apps::run_experiment(cfg);
  EXPECT_EQ(r.cpu_percent, 0.0);
  EXPECT_EQ(r.throughput_mpps, 0.0);
}

TEST(EdgeCaseTest, ZeroFlowStreamTestbedThrows) {
  // Every FlowSet lookup reduces the flow id modulo the set size: a
  // zero-flow workload must be refused at build time, not divide by zero
  // on the first packet.
  apps::ExperimentConfig cfg;
  cfg.workload.model = apps::ArrivalModel::kStream;
  cfg.workload.n_flows = 0;
  EXPECT_THROW(apps::BasicTestbed<sim::Simulation>{cfg}, std::invalid_argument);
  EXPECT_THROW(apps::run_experiment(cfg), std::invalid_argument);
}

TEST(EdgeCaseTest, HugeBurstOverflowsRingExactlyOnce) {
  // Failure injection: a burst larger than the ring must drop exactly the
  // overflow, not corrupt accounting.
  apps::ExperimentConfig cfg;
  cfg.driver = apps::DriverKind::kMetronome;
  cfg.workload.rate_mpps = 0.0;
  cfg.warmup = 0;
  cfg.measure = sim::kSecond;
  apps::Testbed bed(cfg);
  bed.start();
  bed.run_until(100 * sim::kMillisecond);
  const auto ring_size = static_cast<std::uint64_t>(bed.port().config().rx_ring_size);
  const std::uint64_t burst = ring_size + 300;
  for (std::uint64_t i = 0; i < burst; ++i) {
    nic::PacketDesc p;
    p.arrival = bed.sim().now();
    bed.port().rx(p);
  }
  EXPECT_EQ(bed.port().total_dropped(), 300u);
  bed.run_until(105 * sim::kMillisecond);
  EXPECT_EQ(bed.packets_processed(), ring_size);
}

}  // namespace
}  // namespace metro
