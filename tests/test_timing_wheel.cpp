// Timing-wheel backend edge cases.
//
// The hierarchical timing wheel (src/sim/event_queue.hpp) hashes events
// into per-level slot grids, cascades a coarse slot one level down when
// the finer wheel drains past its boundary, keeps far-future events in an
// unsorted overflow pool and re-bases all cursors when the wheels empty
// (an epoch rollover). These tests drive exactly the transitions where a
// hashed structure can lose the total (at, seq) order — per-level
// cascades, same-tick floods, cancels surfacing as tombstones, overflow
// epochs, cursor arithmetic saturating near the clock limit — and compare
// every firing against the binary heap running the identical script.
//
// This suite lives in its own test binary (metro_wheel_test): the
// randomized mirrors are the longest-running unit tests in the tree, and
// a dedicated binary gets its own ctest TIMEOUT instead of eating into
// metro_tests' budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/seed_mix.hpp"

namespace metro::sim {
namespace {

using Firing = std::pair<Time, int>;  // (virtual time, event tag)

/// A deliberately tiny geometry: 4-slot levels, 16 ns base tick, 3 levels
/// (1024 ns total horizon). Scripts spanning microseconds force constant
/// cascading and several overflow epochs — the machinery a default-sized
/// wheel would only reach after days of virtual time.
WheelConfig tiny_geometry() {
  WheelConfig cfg;
  cfg.slot_bits = 2;
  cfg.tick_shift = 4;
  cfg.levels = 3;
  return cfg;
}

/// Run `script(sim, trace)` to completion on one backend and return every
/// firing in execution order.
template <typename Backend, typename Script>
std::vector<Firing> run_trace(Script script, Backend backend = Backend()) {
  BasicSimulation<Backend> sim(1, std::move(backend));
  std::vector<Firing> trace;
  script(sim, trace);
  sim.run();
  EXPECT_TRUE(sim.idle());
  return trace;
}

/// The heap backend is the oracle: identical scripts must produce
/// bit-identical traces on the wheel — under the default geometry and
/// under the tiny cascade-heavy one.
template <typename Script>
void expect_heap_agrees(Script script) {
  const auto heap = run_trace<BinaryHeapBackend>(script);
  EXPECT_EQ(heap, run_trace<TimingWheelBackend>(script));
  EXPECT_EQ(heap, run_trace<TimingWheelBackend>(script, TimingWheelBackend(tiny_geometry())));
  EXPECT_FALSE(heap.empty());
}

/// Coverage counters for the wheel machinery a script engages: the peak
/// per-level slot occupancy (a non-zero upper level means events really
/// were parked coarse and cascaded down) and how often the overflow floor
/// moved (one change per epoch re-base). A sampling callback rides along
/// with the script; it does not touch the trace.
struct WheelStats {
  std::vector<unsigned> max_occupancy;  // one entry per level
  unsigned epoch_changes = 0;
};

template <typename Script>
WheelStats wheel_stats_during(Script script, const WheelConfig& cfg) {
  BasicSimulation<TimingWheelBackend> sim(1, TimingWheelBackend(cfg));
  std::vector<Firing> trace;
  WheelStats stats;
  stats.max_occupancy.assign(cfg.levels, 0);
  struct Probe {
    BasicSimulation<TimingWheelBackend>* s;
    WheelStats* stats;
    Time last_floor;
    void operator()() const {
      const auto& wheel = s->backend();
      for (std::uint32_t k = 0; k < wheel.config().levels; ++k) {
        stats->max_occupancy[k] = std::max(stats->max_occupancy[k], wheel.occupancy(k));
      }
      Time floor = wheel.overflow_floor();
      if (floor != last_floor) ++stats->epoch_changes;
      if (s->pending_events() > 0) {
        s->schedule_after(50, Probe{s, stats, floor});
      }
    }
  };
  script(sim, trace);
  sim.schedule_at(0, Probe{&sim, &stats, sim.backend().overflow_floor()});
  sim.run();
  return stats;
}

template <typename Sim>
void tag_at(Sim& sim, std::vector<Firing>& trace, Time t, int tag) {
  sim.schedule_at(t, [&sim, &trace, tag] { trace.emplace_back(sim.now(), tag); });
}

TEST(TimingWheelTest, GeometryIsValidatedLoudly) {
  EXPECT_THROW(TimingWheelBackend(WheelConfig{0, 10, 5}), std::invalid_argument);
  EXPECT_THROW(TimingWheelBackend(WheelConfig{21, 10, 5}), std::invalid_argument);
  EXPECT_THROW(TimingWheelBackend(WheelConfig{8, 10, 0}), std::invalid_argument);
  // tick_shift + levels*slot_bits must stay under the sign bit.
  EXPECT_THROW(TimingWheelBackend(WheelConfig{8, 31, 4}), std::invalid_argument);
  EXPECT_NO_THROW(TimingWheelBackend{WheelConfig{}});
  EXPECT_NO_THROW(TimingWheelBackend{tiny_geometry()});
}

TEST(TimingWheelTest, PerLevelCascadeKeepsTotalOrder) {
  // Events spread across several level-1 and level-2 slot spans: coarse
  // slots must cascade down exactly once per level and fire in (at, seq)
  // order, interleaved with imminent events inserted mid-consumption.
  const auto script = [](auto& sim, std::vector<Firing>& trace) {
    using SimT = std::remove_reference_t<decltype(sim)>;
    for (int i = 0; i < 400; ++i) {
      tag_at(sim, trace, 1 + (i * 7919) % 60'000, i);
    }
    // Chains crawling in small steps keep inserting below the consumption
    // floor while cascades are in flight.
    struct Chain {
      SimT* s;
      std::vector<Firing>* tr;
      int left;
      int tag;
      void operator()() const {
        tr->emplace_back(s->now(), tag);
        if (left > 0) s->schedule_after(3 + (tag % 13), Chain{s, tr, left - 1, tag + 1});
      }
    };
    for (int c = 0; c < 8; ++c) {
      sim.schedule_at(5 + c, Chain{&sim, &trace, 300, 10'000 + c * 1000});
    }
  };
  expect_heap_agrees(script);
  // The hierarchy must actually engage: with the tiny geometry the 60 us
  // field loads every level and the overflow pool (epoch re-bases).
  const auto stats = wheel_stats_during(script, tiny_geometry());
  ASSERT_EQ(stats.max_occupancy.size(), 3u);
  EXPECT_GT(stats.max_occupancy[1], 0u) << "level 1 never held a slot: no cascade tested";
  EXPECT_GT(stats.max_occupancy[2], 0u) << "level 2 never held a slot: no cascade tested";
  EXPECT_GE(stats.epoch_changes, 2u) << "the 60 us field must outrun the 1 us horizon";
}

TEST(TimingWheelTest, SameTickFloodRunsInInsertionOrder) {
  // A single timestamp hashes every event into one slot; the whole flood
  // must still fire in insertion order via the seq tiebreak, with the
  // neighbouring ticks unaffected.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    for (int i = 0; i < 500; ++i) tag_at(sim, trace, 1000, i);
    for (int i = 0; i < 100; ++i) tag_at(sim, trace, 999, 1000 + i);
    for (int i = 0; i < 100; ++i) tag_at(sim, trace, 1001, 2000 + i);
  });
}

TEST(TimingWheelTest, CancelLastPendingEventLeavesWheelIdle) {
  // Tombstoning the only stored entry must drop live accounting to zero
  // without a peek ever surfacing the dead entry — and the structure must
  // absorb a fresh workload afterwards.
  BasicSimulation<TimingWheelBackend> sim;
  int fired = 0;
  const auto id = sim.schedule_at(5'000, [&fired] { ++fired; });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(sim.idle());
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0);

  std::vector<Firing> trace;
  for (int i = 0; i < 100; ++i) tag_at(sim, trace, 10 + i * 31, i);
  sim.run();
  ASSERT_EQ(trace.size(), 100u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first);
  }
  EXPECT_EQ(fired, 0) << "tombstoned handlers must never fire";
}

TEST(TimingWheelTest, LiveAccountingSlipThrowsInsteadOfHanging) {
  // A liveness hook that starts flagging every entry without the wheel
  // being told (no on_cancelled()): live_ still counts four entries, but
  // once the sweep drops them nothing stored backs it. Re-basing an empty
  // overflow pool would then loop forever in a Release build; the wheel
  // must throw instead. The tiny geometry parks two entries in the wheel
  // slots and two in the overflow pool, so both drain paths run first.
  struct FlagAllCtx {
    const bool* all_dead;
    void moved(std::uint32_t, std::uint32_t) const noexcept {}
    bool dead(const EventEntry&) const noexcept { return *all_dead; }
  };
  bool all_dead = false;
  const FlagAllCtx ctx{&all_dead};
  TimingWheelBackend wheel(tiny_geometry());
  std::uint64_t seq = 0;
  for (const Time at : {Time{5}, Time{100}, Time{5'000}, Time{1'000'000}}) {
    wheel.push(EventEntry{at, seq++, nullptr, 0, EventKind::kCallback}, ctx);
  }
  EXPECT_EQ(wheel.peek(ctx).at, 5);
  all_dead = true;
  EXPECT_EQ(wheel.size(), 4u);
  EXPECT_THROW((void)wheel.peek(ctx), std::logic_error);
}

TEST(TimingWheelTest, CancelAcrossCascadesAndEpochs) {
  // Ids issued while events sit in coarse levels or overflow stay
  // cancellable after cascades and epoch re-bases have moved the entries
  // between containers; tombstones must never fire.
  BasicSimulation<TimingWheelBackend> sim(1, TimingWheelBackend(tiny_geometry()));
  Rng rng(99);
  std::vector<BasicSimulation<TimingWheelBackend>::EventId> ids;
  std::uint64_t fired = 0;
  for (int i = 0; i < 3000; ++i) {
    const Time t = static_cast<Time>(rng.uniform_u64(5'000'000));
    ids.push_back(sim.schedule_at(t, [&fired] { ++fired; }));
  }
  std::uint64_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    if (sim.cancel(ids[i])) ++cancelled;
  }
  EXPECT_EQ(sim.pending_events(), ids.size() - cancelled);
  sim.run();
  EXPECT_EQ(fired, ids.size() - cancelled);
  EXPECT_TRUE(sim.idle());
}

TEST(TimingWheelTest, FarFutureTimersSitInOverflowUntilTheirEpoch) {
  // Timers far beyond the top level's horizon must park in the overflow
  // pool (no per-level storage cost), then fire in exact order once the
  // wheels drain and the epoch re-bases onto them.
  BasicSimulation<TimingWheelBackend> sim(1, TimingWheelBackend(tiny_geometry()));
  std::vector<Firing> trace;
  // Horizon with the tiny geometry is 1024 ns; everything below is wheel,
  // everything at/after is overflow this epoch.
  for (int i = 0; i < 20; ++i) tag_at(sim, trace, 10 + i * 40, i);
  for (int i = 0; i < 50; ++i) tag_at(sim, trace, 100'000 + i * 977, 100 + i);
  for (int i = 0; i < 10; ++i) tag_at(sim, trace, 50'000'000 + i * 3, 200 + i);
  EXPECT_GE(sim.backend().overflow_stored(), 60u)
      << "far-future timers must not occupy wheel slots";
  sim.run();
  ASSERT_EQ(trace.size(), 80u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].first, trace[i].first);
  }
  // Identical script against the heap oracle.
  expect_heap_agrees([](auto& s, std::vector<Firing>& tr) {
    for (int i = 0; i < 20; ++i) tag_at(s, tr, 10 + i * 40, i);
    for (int i = 0; i < 50; ++i) tag_at(s, tr, 100'000 + i * 977, 100 + i);
    for (int i = 0; i < 10; ++i) tag_at(s, tr, 50'000'000 + i * 3, 200 + i);
  });
}

TEST(TimingWheelTest, OverflowEpochInterleavesWithLaterWheelInserts) {
  // The ordering trap of a latched overflow region: an entry parked in
  // overflow, then — after the horizon has advanced — a *later-scheduled*
  // entry with a *smaller* timestamp entering the wheels. The overflow
  // entry must still fire strictly in (at, seq) order.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    using SimT = std::remove_reference_t<decltype(sim)>;
    // Park timers at several far-future distances immediately.
    for (int i = 0; i < 30; ++i) {
      tag_at(sim, trace, 2'000'000 + i * 501, 500 + i);
    }
    // A chain that, as virtual time advances, keeps scheduling nearer
    // timestamps that undercut the parked ones.
    struct Wave {
      SimT* s;
      std::vector<Firing>* tr;
      int wave;
      void operator()() const {
        tr->emplace_back(s->now(), -wave);
        if (wave >= 40) return;
        tag_at(*s, *tr, s->now() + 47'000, 1000 + wave);
        s->schedule_after(49'000, Wave{s, tr, wave + 1});
      }
    };
    sim.schedule_at(0, Wave{&sim, &trace, 0});
  });
}

TEST(TimingWheelTest, EpochRolloverNearClockLimitSaturates) {
  // Timestamps spanning the whole non-negative int64 range: cursor and
  // horizon arithmetic must saturate at INT64_MAX instead of overflowing,
  // and entries *at* the saturated boundary must still drain (no infinite
  // re-base loop), in exact order.
  expect_heap_agrees([](auto& sim, std::vector<Firing>& trace) {
    constexpr Time kHuge = INT64_MAX;
    tag_at(sim, trace, 10, 0);
    tag_at(sim, trace, kHuge - 1, 90);
    tag_at(sim, trace, kHuge / 2, 50);
    tag_at(sim, trace, 1'000'000, 10);
    tag_at(sim, trace, kHuge - 1'000'000, 80);
    for (int i = 0; i < 100; ++i) {
      tag_at(sim, trace, 2'000'000 + i * 999, 100 + i);
    }
  });
  // The clock-limit edge proper: multiple entries exactly at INT64_MAX
  // (the saturated floor) must all fire; a miscomputed epoch would spin
  // or drop them.
  BasicSimulation<TimingWheelBackend> sim(1, TimingWheelBackend(tiny_geometry()));
  std::vector<Firing> trace;
  tag_at(sim, trace, 100, 0);
  for (int i = 0; i < 5; ++i) tag_at(sim, trace, INT64_MAX, 1 + i);
  tag_at(sim, trace, INT64_MAX - 3, -1);
  sim.run();
  ASSERT_EQ(trace.size(), 7u);
  EXPECT_EQ(trace[0], Firing(100, 0));
  EXPECT_EQ(trace[1], Firing(INT64_MAX - 3, -1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(trace[static_cast<std::size_t>(2 + i)], Firing(INT64_MAX, 1 + i));
  }
}

TEST(TimingWheelTest, RandomisedMirrorAgainstHeap) {
  // Randomised schedule/cancel interleavings mirrored on both backends,
  // including handler-side scheduling: the strongest order oracle. The
  // tiny-geometry run inside expect_heap_agrees crosses slot, level and
  // epoch boundaries constantly.
  for (std::uint64_t seed : {1u, 42u, 1234u}) {
    expect_heap_agrees([seed](auto& sim, std::vector<Firing>& trace) {
      using SimT = std::remove_reference_t<decltype(sim)>;
      struct Spawner {
        SimT* s;
        std::vector<Firing>* tr;
        std::uint64_t state;
        int left;
        int tag;
        void operator()() const {
          tr->emplace_back(s->now(), tag);
          if (left <= 0) return;
          std::uint64_t x = state;
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          s->schedule_after(static_cast<Time>(x % 20'000),
                            Spawner{s, tr, x, left - 1, tag + 1});
        }
      };
      Rng rng(seed);
      for (int i = 0; i < 128; ++i) {
        const auto spawn_seed = util::mix_seed(seed, static_cast<std::uint64_t>(i));
        sim.schedule_at(static_cast<Time>(rng.uniform_u64(100'000)),
                        Spawner{&sim, &trace, spawn_seed, 60, i * 1000});
      }
    });
  }
}

TEST(TimingWheelTest, RandomisedCancelMirrorAgainstHeap) {
  // Schedule-then-cancel churn mirrored against the heap: cancellation is
  // eager on the heap and lazy tombstoning on the wheel, yet the surviving
  // firings must be bit-identical.
  for (std::uint64_t seed : {7u, 321u}) {
    const auto script = [seed](auto& sim, std::vector<Firing>& trace) {
      using SimT = std::remove_reference_t<decltype(sim)>;
      std::vector<typename SimT::EventId> ids;
      Rng rng(seed);
      for (int i = 0; i < 600; ++i) {
        const Time t = static_cast<Time>(rng.uniform_u64(3'000'000));
        const int tag = i;
        ids.push_back(
            sim.schedule_at(t, [&sim, &trace, tag] { trace.emplace_back(sim.now(), tag); }));
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (rng.uniform_u64(3) == 0) sim.cancel(ids[i]);
      }
    };
    expect_heap_agrees(script);
  }
}

TEST(TimingWheelTest, SmallPopulationRearmMirrorAgainstHeap) {
  // The low-load operating point in miniature: at most four pending
  // self-re-arming timers (Metronome's sleep/wake), each of which also
  // cancels and re-arms one pending completion timer per step, the way
  // sim::Core::reschedule_completion does. With so few entries the
  // cached coarse bound decides almost every refill, so the delays are
  // picked to land, under both geometries expect_heap_agrees runs, in
  // level 0, in a level-1 slot straddling the end of the level-0 window
  // (the bound, not the one-revolution clamp, then caps the level-0
  // scan) and beyond the top horizon (overflow epochs).
  for (std::uint64_t seed : {3u, 77u, 2024u}) {
    expect_heap_agrees([seed](auto& sim, std::vector<Firing>& trace) {
      using SimT = std::remove_reference_t<decltype(sim)>;
      struct Rearm {
        SimT* s;
        std::vector<Firing>* tr;
        typename SimT::EventId completion;
        std::uint64_t state;
        int left;
        int tag;
        void operator()() const {
          // Tiny geometry: 64 ns level-0 window, 1024 ns horizon. Default
          // geometry: ~262 us level-0 window, 2^50 ns horizon.
          static constexpr Time kDelays[] = {
              1,       9,       40,       // level 0 on both
              66,      90,      300,      // tiny: straddling level-1 slot, level 2
              5'000,   200'000,           // tiny: overflow; default: level 0
              262'500, 300'000,           // default: straddling level-1 slot
              Time{1} << 50,              // default: overflow
          };
          constexpr std::uint64_t kN = std::size(kDelays);
          tr->emplace_back(s->now(), tag);
          if (left <= 0) return;
          std::uint64_t x = state;
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          // Cancel-and-re-arm; the old completion may already have fired,
          // which makes the cancel a stale no-op.
          s->cancel(completion);
          const int ctag = -tag;
          const auto next = s->schedule_after(kDelays[(x >> 8) % kN] + (x >> 40) % 7,
                                              [s = s, tr = tr, ctag] {
                                                tr->emplace_back(s->now(), ctag);
                                              });
          s->schedule_after(kDelays[x % kN] + (x >> 32) % 5,
                            Rearm{s, tr, next, x, left - 1, tag + 1});
        }
      };
      for (int i = 0; i < 4; ++i) {
        const auto rearm_seed = util::mix_seed(seed, static_cast<std::uint64_t>(i));
        sim.schedule_at(i, Rearm{&sim, &trace, SimT::kInvalidEvent, rearm_seed, 150,
                                 (i + 1) * 1000});
      }
    });
  }
}

TEST(TimingWheelTest, CoarseSlotAtOrBeforeLevelZeroEntryCascadesFirst) {
  // Tiny geometry: 16 ns level-0 slots, 4 per level, so level-1 slot 1
  // spans level-0 slots 4..7 (64..127 ns). After the handler at 20 ns
  // fires, the level-0 window covers slots 2..5. run_tiny runs a script
  // on the tiny wheel; a probe at 21 ns, right after the handler,
  // records the level-0 and level-1 occupancy it left behind.
  const auto run_tiny = [](auto script, std::uint32_t& occ0, std::uint32_t& occ1) {
    BasicSimulation<TimingWheelBackend> sim(1, TimingWheelBackend(tiny_geometry()));
    std::vector<Firing> trace;
    script(sim, trace);
    sim.schedule_at(21, [&sim, &occ0, &occ1] {
      occ0 = sim.backend().occupancy(0);
      occ1 = sim.backend().occupancy(1);
    });
    sim.run();
    EXPECT_TRUE(sim.idle());
    return trace;
  };
  std::uint32_t occ0 = 0;
  std::uint32_t occ1 = 0;

  // A handler inserts a coarse entry (100 ns: level-0 slot 6, level-1
  // slot 1, whose left edge is level-0 slot 4) beside a level-0 entry
  // in slot 5. The insert must lower the cached bound: the coarse slot
  // cascades before slot 5 is consumed.
  const auto coarse_after = [](auto& sim, std::vector<Firing>& trace) {
    sim.schedule_at(20, [&sim, &trace] {
      trace.emplace_back(sim.now(), 0);
      tag_at(sim, trace, 80, 1);
      tag_at(sim, trace, 100, 2);
    });
  };
  EXPECT_EQ(run_tiny(coarse_after, occ0, occ1),
            (std::vector<Firing>{{20, 0}, {80, 1}, {100, 2}}));
  EXPECT_EQ(occ0, 1u) << "the 80 ns entry must sit in level 0";
  EXPECT_EQ(occ1, 1u) << "the 100 ns entry must sit coarse";
  expect_heap_agrees(coarse_after);

  // The tie: an entry parked in level-1 slot 1 at setup (70 ns, level-0
  // slot 4), then a handler inserts a later-sequenced entry at the same
  // instant straight into level-0 slot 4. The coarse slot's edge equals
  // that level-0 slot, so it must cascade first, or the later insert
  // would fire ahead of the earlier one.
  const auto tie = [](auto& sim, std::vector<Firing>& trace) {
    sim.schedule_at(20, [&sim, &trace] {
      trace.emplace_back(sim.now(), 0);
      tag_at(sim, trace, 70, 2);
    });
    tag_at(sim, trace, 70, 1);
  };
  EXPECT_EQ(run_tiny(tie, occ0, occ1), (std::vector<Firing>{{20, 0}, {70, 1}, {70, 2}}));
  EXPECT_EQ(occ0, 1u) << "the handler's 70 ns entry must sit in level 0";
  EXPECT_EQ(occ1, 1u) << "the setup's 70 ns entry must sit coarse";
  expect_heap_agrees(tie);
}

/// Delays for the three-flavour mix below: equal (0) and adjacent (1)
/// instants, both sides of the tiny geometry's 16 ns tick, 64 ns level-0
/// window and 1024 ns horizon (cascades, overflow epochs), and the default
/// geometry's level-0 window and coarse levels.
constexpr Time kMixDelays[] = {0,  0,   1,   1,     15,      16,      17,       63,
                               64, 65,  300, 1'100, 5'000,   262'500, 300'000};

std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

Time mix_delay(std::uint64_t x) { return kMixDelays[x % std::size(kMixDelays)]; }

/// Receiver of the mix's indexed events: index i re-arms itself, one
/// pending event per index as the per-flow arena keeps one per flow, and
/// records tag 1'000'000 + i * 1000 + round.
template <typename Sim>
struct IndexedRecorder : IndexedTarget {
  Sim* sim = nullptr;
  std::vector<Firing>* trace = nullptr;
  std::vector<std::uint64_t> state;
  std::vector<int> round;
  int rounds = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;

  IndexedRecorder(Sim& s, std::vector<Firing>& tr, std::uint64_t seed, std::uint32_t n, int r)
      : IndexedTarget{&IndexedRecorder::on_fire}, sim(&s), trace(&tr), round(n, 0), rounds(r) {
    for (std::uint32_t i = 0; i < n; ++i) state.push_back(util::mix_seed(seed, i));
  }

  void arm(std::uint32_t i, Time at) {
    sim->schedule_indexed_at(at, this, i);
    ++scheduled;
  }

  static void on_fire(IndexedTarget* self, std::uint32_t i) {
    auto* r = static_cast<IndexedRecorder*>(self);
    ++r->fired;
    r->trace->emplace_back(r->sim->now(), 1'000'000 + static_cast<int>(i) * 1000 + r->round[i]);
    if (++r->round[i] >= r->rounds) return;
    r->state[i] = xorshift(r->state[i]);
    r->arm(i, r->sim->now() + mix_delay(r->state[i]));
  }
};

template <typename Sim>
Task mix_sleeper(Sim& sim, std::vector<Firing>& trace, std::uint64_t state, int tag) {
  for (int k = 0; k < 40; ++k) {
    state = xorshift(state);
    co_await sim.sleep_for(mix_delay(state));
    trace.emplace_back(sim.now(), tag + k);
  }
}

struct MixRun {
  std::vector<Firing> trace;
  std::uint64_t indexed_scheduled = 0;
  std::uint64_t indexed_fired = 0;
  std::uint64_t cancelled = 0;
};

/// Indexed events, coroutine resumes and callbacks on the same few
/// instants. Each callback chain step arms a victim callback and cancels
/// the previous step's victim, so tombstones keep landing in the slots the
/// indexed entries occupy. Indices 0..23 alias the callback pool's slot
/// numbers: a backend that asked the liveness or position hooks about an
/// indexed entry would read (or corrupt) an unrelated callback slot.
template <typename Backend>
MixRun run_indexed_mix(std::uint64_t seed, Backend backend = Backend()) {
  using Sim = BasicSimulation<Backend>;
  Sim sim(1, std::move(backend));
  MixRun run;
  IndexedRecorder<Sim> rec(sim, run.trace, seed, 24, 30);
  struct Chain {
    Sim* s;
    std::vector<Firing>* tr;
    std::uint64_t* cancelled;
    typename Sim::EventId victim;
    std::uint64_t state;
    int left;
    int tag;
    void operator()() const {
      tr->emplace_back(s->now(), tag);
      if (s->cancel(victim)) ++*cancelled;
      if (left <= 0) return;
      const std::uint64_t x = xorshift(state);
      const int vtag = -tag;
      const auto next = s->schedule_after(mix_delay(x >> 8), [s = s, tr = tr, vtag] {
        tr->emplace_back(s->now(), vtag);
      });
      s->schedule_after(mix_delay(x), Chain{s, tr, cancelled, next, x, left - 1, tag + 1});
    }
  };
  Rng rng(seed);
  for (std::uint32_t i = 0; i < 24; ++i) {
    // Interleave the three flavours' initial schedules so their sequence
    // numbers alternate at equal timestamps.
    const auto t = static_cast<Time>(rng.uniform_u64(4));
    rec.arm(i, t);
    sim.schedule_at(t, Chain{&sim, &run.trace, &run.cancelled, Sim::kInvalidEvent,
                             util::mix_seed(seed, 100 + i), 40,
                             static_cast<int>(i + 1) * 1000});
    if (i % 3 == 0) {
      sim.spawn(mix_sleeper(sim, run.trace, util::mix_seed(seed, 200 + i),
                            500'000 + static_cast<int>(i) * 100));
    }
  }
  sim.run();
  EXPECT_TRUE(sim.idle());
  run.indexed_scheduled = rec.scheduled;
  run.indexed_fired = rec.fired;
  return run;
}

TEST(TimingWheelTest, IndexedEventsMirrorAgainstHeapAmongCallbacksAndCoroutines) {
  // Indexed events share the (at, seq) order with the other two flavours
  // and are never cancelled, so no backend may reorder one or drop one as
  // a tombstone. Every firing carries a unique tag, so equal traces mean
  // an identical execution order.
  for (std::uint64_t seed : {5u, 99u, 4242u}) {
    const MixRun heap = run_indexed_mix<BinaryHeapBackend>(seed);
    const MixRun wheel = run_indexed_mix<TimingWheelBackend>(seed);
    const MixRun tiny =
        run_indexed_mix<TimingWheelBackend>(seed, TimingWheelBackend(tiny_geometry()));
    for (const MixRun* r : {&heap, &wheel, &tiny}) {
      EXPECT_EQ(r->indexed_fired, r->indexed_scheduled) << "an indexed entry was dropped";
      EXPECT_EQ(r->indexed_scheduled, 24u * 30u);
      EXPECT_GT(r->cancelled, 100u) << "tombstones must share the indexed entries' slots";
    }
    EXPECT_EQ(heap.trace, wheel.trace) << "seed " << seed;
    EXPECT_EQ(heap.trace, tiny.trace) << "seed " << seed;
  }
}

}  // namespace
}  // namespace metro::sim
