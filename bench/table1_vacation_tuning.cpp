// Table I: mean busy/vacation period, N_V and packet loss for different
// target vacation periods V-bar, at 14.88 Mpps line rate (M = 3,
// TL = 500 us, Intel X520 model).
//
// Known deviation "vacation-frontier": the paper finds V-bar = 10 us the
// largest no-loss setting. The model loses nothing at 12 or 15 us either;
// its first loss (86.3 permille, 86.2 with --fast) comes at 20 us, where
// N_V reaches the 512-descriptor ring. The bench prints the frontier the
// run measured next to the paper's.
#include <iostream>

#include "common.hpp"

using namespace metro;

int main(int argc, char** argv) {
  const bool fast = bench::parse_fast(argc, argv);
  const auto w = bench::windows(fast);

  bench::header("Table I - vacation-period tuning at line rate",
                "measured V ~= 2x target (sleep overhead); V-bar = 10 us is the "
                "largest no-loss setting; loss grows monotonically beyond it");

  stats::Table table({"Target V (us)", "Measured V (us)", "Measured B (us)", "NV",
                      "Loss (permille)"});
  double no_loss_frontier = 0.0;  // largest target below the first loss
  double first_loss_target = 0.0;
  double first_loss_permille = 0.0;
  double first_loss_nv = 0.0;
  for (const double target : {5.0, 10.0, 12.0, 15.0, 20.0}) {
    apps::ExperimentConfig cfg;
    cfg.driver = apps::DriverKind::kMetronome;
    cfg.met.target_vacation = sim::from_micros(target);
    cfg.workload.rate_mpps = 14.88;
    cfg.warmup = w.warmup;
    cfg.measure = w.measure;
    const auto r = apps::run_experiment(cfg);
    table.add_row({bench::num(target, 0), bench::num(r.vacation_us.mean()),
                   bench::num(r.busy_us.mean()), bench::num(r.nv.mean(), 1),
                   bench::num(r.loss_permille, 4)});
    if (first_loss_target == 0.0) {
      if (r.loss_permille > 0.0) {
        first_loss_target = target;
        first_loss_permille = r.loss_permille;
        first_loss_nv = r.nv.mean();
      } else {
        no_loss_frontier = target;
      }
    }
  }
  table.print();
  std::cout << "\nKnown deviation (vacation-frontier): paper's largest no-loss V-bar = 10 us; "
               "model's = "
            << bench::num(no_loss_frontier, 0) << " us";
  if (first_loss_target > 0.0) {
    std::cout << ", first loss " << bench::num(first_loss_permille, 1) << " permille at "
              << bench::num(first_loss_target, 0) << " us (NV " << bench::num(first_loss_nv, 1)
              << ")";
  } else {
    std::cout << ", no loss up to the largest target";
  }
  std::cout << "\n";
  return 0;
}
