/// \file event_queue.hpp
/// Pluggable pending-event stores for the discrete-event kernel.
///
/// The kernel in simulation.hpp is templated over an *event-queue backend*:
/// the data structure that holds every future-timestamped event. Two
/// backends are provided:
///
///   * BinaryHeapBackend — the default and the reference oracle. A binary
///     min-heap of 32-byte POD entries with Floyd pops and positional
///     O(log n) erase. Best up to a few thousand pending events; its pop
///     cost grows as log n. The randomized mirror suites and the
///     cross-backend fingerprint checks hold the wheel to it.
///   * TimingWheelBackend — the production store for large pending
///     populations: a hierarchical timing wheel (the structure OS timer
///     subsystems use) with fixed power-of-two slot grids per level, each
///     level covering its parent slot at finer granularity, a per-level
///     cascade on consumption and an unsorted overflow pool for events
///     beyond the top level's horizon. O(1) insert, and each event
///     cascades at most once per level — built for the >10k pending
///     events of the per-flow fig13 scenarios up to the 1M+ concurrently
///     pending per-flow timers of the fig13_fullstack_1m scale rung.
///
/// ## Backend concept and invariant contract
///
/// A backend `B` must satisfy `EventQueueBackend<B>` (checked against
/// NullQueueContext below). Operations taking a `ctx` receive a *queue
/// context* from the owning simulation providing:
///
///   * `ctx.moved(slot, pos)`  — position-tracking hook: must be invoked
///     whenever a kCallback entry comes to rest at a new position, *iff*
///     the backend declares `kPositionalCancel == true`. The simulation
///     uses the recorded position for O(log n) `erase_at` cancellation.
///   * `ctx.dead(entry)` — liveness query: true when a kCallback entry has
///     been cancelled (tombstoned). Backends with
///     `kPositionalCancel == false` never see a cancelled entry removed
///     eagerly; they must use this hook to drop tombstones lazily and must
///     never surface a dead entry from peek()/pop_min().
///
/// Every backend, regardless of cancellation style, must uphold the
/// kernel's three invariants:
///
///   1. **Total order.** peek()/pop_min() yield live entries in strictly
///      increasing (at, seq) order — the pair is unique, so the order is a
///      total one and runs are bit-for-bit reproducible across backends.
///   2. **Allocation freedom in steady state.** Internal storage may grow
///      while warming up but must be recycled, never released, so that a
///      periodic steady-state workload performs zero heap allocations
///      (enforced by tests/test_alloc_free.cpp for both backends).
///   3. **Exact live accounting.** size() counts live (non-cancelled)
///      entries only and empty() == (size() == 0), even while tombstones
///      still occupy internal storage.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"
#include "stats/trace.hpp"

namespace metro::sim {

/// Discriminates the two event payload flavours carried by EventEntry.
enum class EventKind : std::uint32_t {
  kCoroutine,  ///< payload is a raw coroutine frame address (hot path)
  kCallback    ///< slot indexes the simulation's pooled callback table
};

/// 32-byte POD event record; comparisons and moves stay inside contiguous
/// backend storage. For kCoroutine entries `payload` is the frame address;
/// for kCallback entries it carries the slot *generation* at scheduling
/// time, which is how tombstoning backends detect cancellation (a
/// cancelled slot's generation has been bumped).
struct EventEntry {
  Time at;            ///< absolute virtual timestamp, ns
  std::uint64_t seq;  ///< global insertion sequence; ties broken by it
  void* payload;      ///< coroutine frame, or encoded generation
  std::uint32_t slot; ///< kCallback: index into the callback slot pool
  EventKind kind;     ///< payload discriminator
};
static_assert(sizeof(EventEntry) == 32);
static_assert(std::is_trivially_copyable_v<EventEntry>);

/// Strict weak (in fact total) order: earlier time first, then earlier
/// insertion. (at, seq) pairs are unique, so this is the total execution
/// order shared by every backend and the now-FIFO.
inline bool event_precedes(const EventEntry& a, const EventEntry& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

/// Branch-free event_precedes as 0/1. The heap descent picks a child by a
/// data-dependent 50/50 choice; as a conditional branch that is a
/// mispredict every other level and dominates pop cost, so the pick is
/// computed with flag arithmetic instead.
inline std::uint32_t event_precedes_u(const EventEntry& a, const EventEntry& b) noexcept {
  return static_cast<std::uint32_t>(
      static_cast<unsigned>(a.at < b.at) |
      (static_cast<unsigned>(a.at == b.at) & static_cast<unsigned>(a.seq < b.seq)));
}

/// Inert queue context used to type-check backends against the concept;
/// also handy for backend unit tests that never cancel.
struct NullQueueContext {
  void moved(std::uint32_t, std::uint32_t) const noexcept {}
  bool dead(const EventEntry&) const noexcept { return false; }
};

/// The backend policy concept (see the file comment for the full invariant
/// contract). `peek`/`pop_min` have the precondition `!empty()`.
///
/// One cancellation-path member is additionally required depending on
/// `kPositionalCancel` (it cannot be expressed in one concept because only
/// one of the two is ever instantiated):
///   * true  -> `erase_at(pos, slot, ctx)` removes the entry whose
///     position was last reported via ctx.moved() for `slot`;
///   * false -> `on_cancelled()` notes that one stored entry was
///     tombstoned (ctx.dead() will flag it from now on).
template <typename B>
concept EventQueueBackend =
    std::is_default_constructible_v<B> &&
    requires(B b, const B cb, const EventEntry& e, NullQueueContext ctx) {
      { B::kPositionalCancel } -> std::convertible_to<bool>;
      { b.push(e, ctx) };
      { b.peek(ctx) } -> std::convertible_to<const EventEntry&>;
      { b.pop_min(ctx) };
      { cb.size() } -> std::convertible_to<std::size_t>;
      { cb.empty() } -> std::convertible_to<bool>;
      { cb.for_each([](const EventEntry&) {}) };
      { b.clear() };
    };

// ---------------------------------------------------------------------------
// Binary heap backend (default)
// ---------------------------------------------------------------------------

/// Binary min-heap over (at, seq) with Floyd pops, a branch-free descent
/// and positional erase. Cancellation is *eager*: the simulation records
/// each kCallback entry's heap position via ctx.moved() and calls
/// erase_at(), so no tombstones ever exist (ctx.dead() is never consulted).
class BinaryHeapBackend {
 public:
  /// Eager positional cancellation: the owner tracks positions from
  /// ctx.moved() and erases in O(log n).
  static constexpr bool kPositionalCancel = true;

  /// Insert an entry; O(log n).
  template <typename Ctx>
  void push(const EventEntry& e, Ctx ctx) {
    heap_.push_back(e);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1), e, ctx);
  }

  /// The live minimum. Precondition: !empty().
  template <typename Ctx>
  const EventEntry& peek(Ctx) const noexcept {
    return heap_[0];
  }

  /// Remove the minimum (Floyd's optimisation): percolate the hole to the
  /// bottom choosing the smaller child — one compare per level instead of
  /// two — then bubble the displaced last element up. In an event queue
  /// the last element is almost always late, so the bubble-up is O(1).
  template <typename Ctx>
  void pop_min(Ctx ctx) {
    const EventEntry last = heap_.back();
    heap_.pop_back();
    const auto n = static_cast<std::uint32_t>(heap_.size());
    if (n == 0) return;
    std::uint32_t pos = 0;
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      // Branch-free smaller-child pick; when there is no right child this
      // compares the left child against itself (false), which is safe.
      const auto has_right = static_cast<std::uint32_t>(child + 1 < n);
      child += has_right & event_precedes_u(heap_[child + has_right], heap_[child]);
      place(pos, heap_[child], ctx);
      pos = child;
    }
    sift_up(pos, last, ctx);
  }

  /// Remove the entry at heap position `pos` (as last reported through
  /// ctx.moved() for `slot`); O(log n).
  template <typename Ctx>
  void erase_at(std::uint32_t pos, std::uint32_t slot, Ctx ctx) {
    assert(pos < heap_.size() && heap_[pos].slot == slot &&
           heap_[pos].kind == EventKind::kCallback &&
           "stale position: a ctx.moved() update was missed");
    (void)slot;
    const EventEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    if (pos > 0 && event_precedes(last, heap_[(pos - 1) / 2])) {
      sift_up(pos, last, ctx);
    } else {
      sift_down(pos, last, ctx);
    }
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  /// Visit every stored entry (pending-event cleanup on destruction).
  template <typename F>
  void for_each(F f) const {
    for (const EventEntry& e : heap_) f(e);
  }

  void clear() { heap_.clear(); }

 private:
  template <typename Ctx>
  void place(std::uint32_t pos, const EventEntry& e, Ctx ctx) {
    heap_[pos] = e;
    if (e.kind == EventKind::kCallback) ctx.moved(e.slot, pos);
  }

  /// Move `e` up from the hole at `pos` to its final position.
  template <typename Ctx>
  void sift_up(std::uint32_t pos, const EventEntry& e, Ctx ctx) {
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!event_precedes(e, heap_[parent])) break;
      place(pos, heap_[parent], ctx);
      pos = parent;
    }
    place(pos, e, ctx);
  }

  /// Move `e` down from the hole at `pos` to its final position.
  template <typename Ctx>
  void sift_down(std::uint32_t pos, const EventEntry& e, Ctx ctx) {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && event_precedes(heap_[child + 1], heap_[child])) ++child;
      if (!event_precedes(heap_[child], e)) break;
      place(pos, heap_[child], ctx);
      pos = child;
    }
    place(pos, e, ctx);
  }

  std::vector<EventEntry> heap_;
};

static_assert(EventQueueBackend<BinaryHeapBackend>);

// ---------------------------------------------------------------------------
// Hierarchical timing-wheel backend
// ---------------------------------------------------------------------------

/// Geometry of the TimingWheelBackend. The defaults give five levels of
/// 256 slots over a 1.024 us base tick — a ~13-day horizon before the
/// overflow pool kicks in, with per-slot resolution fine enough that a
/// level-0 slot holds only a handful of events even at 40 Mpps.
struct WheelConfig {
  /// log2(slots per level); every level has `1 << slot_bits` slots.
  std::uint32_t slot_bits = 8;
  /// log2(level-0 slot width in ns): the wheel's base tick.
  std::uint32_t tick_shift = 10;
  /// Hierarchy depth; level k slots are `1 << (tick_shift + k*slot_bits)`
  /// ns wide. Events beyond level `levels - 1`'s horizon go to overflow.
  std::uint32_t levels = 5;

  /// The one production geometry for every population: trial-backed
  /// sweeps found no `slot_bits x tick_shift` point that beats 8/10/5
  /// beyond noise at 2^20, 2^22 or 2^24 flows (docs/ARCHITECTURE.md).
  /// Kept only because the benchmark harness (perfbench/) calls it.
  static constexpr WheelConfig for_population(std::size_t) noexcept { return WheelConfig{}; }
};

/// Hierarchical timing wheel tuned for very large pending populations of
/// mostly near-future timers (the per-flow-source regime).
///
/// Structure (coarsest at the top):
///
///     overflow — unsorted pool for events at/after `overflow_floor_`
///                (beyond the top level's horizon this epoch)
///     levels   — `cfg.levels` wheels of `1 << cfg.slot_bits` slots each;
///                level k slots are `1 << (tick_shift + k*slot_bits)` ns
///                wide and one level-(k+1) slot covers a whole level-k wheel
///     bottom   — the already-consumed-slot range, kept sorted by (at, seq)
///
/// An insert hashes the timestamp into the lowest level whose window still
/// covers it — O(1), no comparisons. Consumption advances a per-level
/// cursor of *absolute* slot indices. The wheel caches one bound: the
/// level-0 index where the earliest non-empty slot on levels >= 1 starts
/// (lowered by every coarse insert, recomputed after each cascade). The
/// next refill scans only level 0's occupancy bitmap below that bound and
/// sorts the first non-empty slot into bottom. Only when that scan finds
/// nothing does a top-down pass over the coarse bitmaps run: it picks
/// the earliest coarse slot, which *cascades* — its entries are
/// redistributed one level down — or, with every coarse level empty, the
/// overflow pool opens a new epoch. Each event is therefore touched at
/// most once per level plus one bounded sort, independent of how many are
/// pending, and the coarse bitmaps are scanned only when a coarse slot is
/// due.
///
/// The overflow pool opens a new *epoch* when the wheels drain: cursors
/// re-base at the overflow minimum and the pool is repartitioned.
/// `overflow_floor_` is latched per epoch so every stored wheel entry is
/// strictly earlier than every overflow entry — that is what makes the
/// (at, seq) order total across the split. All horizon arithmetic
/// saturates at the Time maximum, so timestamps near INT64_MAX roll
/// through overflow epochs instead of overflowing.
///
/// Cancellation is *lazy* (kPositionalCancel == false): the owner bumps
/// the slot generation and calls on_cancelled(); dead entries are dropped
/// whenever ctx.dead() flags them during cascades, sorts or peeks. size()
/// always reports live entries only.
///
/// Steady-state allocation freedom: slot vectors are pooled per (level,
/// slot) — cleared on consumption, never shrunk — and bottom/overflow/
/// scratch recycle their capacity, so a periodic workload stops
/// allocating once every container has seen its peak.
class TimingWheelBackend {
 public:
  /// Lazy tombstone cancellation (see class comment).
  static constexpr bool kPositionalCancel = false;

  /// Default geometry (WheelConfig defaults).
  TimingWheelBackend() : TimingWheelBackend(WheelConfig{}) {}
  /// Custom geometry (tests use tiny ones to reach cascades and overflow
  /// epochs). Degenerate or overflowing grids are rejected loudly in every
  /// build type, not by an assert that vanishes in Release: the top
  /// level's slot width must still fit in the non-negative Time range.
  explicit TimingWheelBackend(const WheelConfig& cfg) : cfg_(cfg) {
    if (cfg.slot_bits < 1 || cfg.slot_bits > 20 || cfg.levels < 1 || cfg.levels > 16 ||
        cfg.tick_shift + cfg.levels * cfg.slot_bits > 62) {
      throw std::invalid_argument(
          "WheelConfig: need 1 <= slot_bits <= 20, 1 <= levels <= 16 and "
          "tick_shift + levels*slot_bits <= 62");
    }
    slots_per_level_ = 1u << cfg.slot_bits;
    mask_ = slots_per_level_ - 1;
    words_per_level_ = (slots_per_level_ + 63) / 64;
    slots_.resize(static_cast<std::size_t>(cfg.levels) * slots_per_level_);
    bits_.assign(static_cast<std::size_t>(cfg.levels) * words_per_level_, 0);
    cur_.assign(cfg.levels, 0);
    overflow_floor_ = sat_shl(slots_per_level_, shift(cfg.levels - 1));
  }

  /// The geometry this instance runs with.
  const WheelConfig& config() const noexcept { return cfg_; }

  /// Insert an entry: O(1) slot hash, or a bounded sorted insert into
  /// bottom for timestamps behind the consumption floor.
  template <typename Ctx>
  void push(const EventEntry& e, Ctx ctx) {
    ++live_;
    if (e.at >= overflow_floor_) {
      overflow_.push_back(e);
      return;
    }
    if (e.at < floor_) {
      insert_bottom(e, ctx);
      return;
    }
    place_in_wheel(e);
  }

  /// The live minimum. Precondition: !empty().
  template <typename Ctx>
  const EventEntry& peek(Ctx ctx) {
    ensure_bottom(ctx);
    return bottom_[bottom_head_];
  }

  /// Remove the live minimum. Precondition: !empty().
  template <typename Ctx>
  void pop_min(Ctx ctx) {
    ensure_bottom(ctx);
    --live_;
    if (++bottom_head_ == bottom_.size()) {
      bottom_.clear();  // recycle capacity, never shrink
      bottom_head_ = 0;
    }
  }

  /// Tombstone notification: one pending entry was cancelled by the owner
  /// (its slot generation is already bumped, so ctx.dead() now flags it).
  void on_cancelled() noexcept {
    assert(live_ > 0);
    --live_;
  }

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  /// Visit every stored entry, tombstones included (the owner re-checks
  /// liveness; pending-event cleanup on destruction).
  template <typename F>
  void for_each(F f) const {
    for (std::size_t i = bottom_head_; i < bottom_.size(); ++i) f(bottom_[i]);
    for (const auto& slot : slots_) {
      for (const EventEntry& e : slot) f(e);
    }
    for (const EventEntry& e : overflow_) f(e);
  }

  void clear() {
    bottom_.clear();
    bottom_head_ = 0;
    for (auto& slot : slots_) slot.clear();  // keep capacities
    std::fill(bits_.begin(), bits_.end(), 0);
    std::fill(cur_.begin(), cur_.end(), std::int64_t{0});
    floor_ = 0;
    coarse_min0_ = INT64_MAX;
    overflow_.clear();
    overflow_floor_ = sat_shl(slots_per_level_, shift(cfg_.levels - 1));
    live_ = 0;
  }

  // --- observability (tests and the bench probe these) --------------------

  /// Non-empty slots at `level` (tombstones included).
  std::uint32_t occupancy(std::uint32_t level) const noexcept {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < words_per_level_; ++w) {
      n += static_cast<std::uint32_t>(std::popcount(bits_[level * words_per_level_ + w]));
    }
    return n;
  }
  /// Everything stored strictly below this time sits sorted in bottom.
  Time wheel_floor() const noexcept { return floor_; }
  /// Start of this epoch's overflow region (beyond the top horizon).
  Time overflow_floor() const noexcept { return overflow_floor_; }
  /// Entries in the overflow pool, tombstones included.
  std::size_t overflow_stored() const noexcept { return overflow_.size(); }

  /// Attach a trace recorder for structural events (cascade, epoch rebase).
  void set_tracer(trace::Tracer* t) noexcept { tracer_ = t; }

 private:
  /// v << s, saturated at the Time maximum (epoch arithmetic near
  /// INT64_MAX must clamp, not overflow). v is a non-negative slot index.
  static Time sat_shl(std::int64_t v, std::uint32_t s) noexcept {
    return v > (INT64_MAX >> s) ? INT64_MAX : (v << s);
  }

  std::uint32_t shift(std::uint32_t level) const noexcept {
    return cfg_.tick_shift + level * cfg_.slot_bits;
  }
  /// Absolute (non-wrapped) slot index of `at` on `level`.
  std::int64_t slot_of(Time at, std::uint32_t level) const noexcept {
    return at >> shift(level);
  }
  std::vector<EventEntry>& slot_ref(std::uint32_t level, std::int64_t abs_slot) noexcept {
    return slots_[static_cast<std::size_t>(level) * slots_per_level_ +
                  (static_cast<std::uint64_t>(abs_slot) & mask_)];
  }
  void set_bit(std::uint32_t level, std::int64_t abs_slot) noexcept {
    const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(abs_slot) & mask_);
    bits_[level * words_per_level_ + (p >> 6)] |= std::uint64_t{1} << (p & 63);
  }
  void clear_bit(std::uint32_t level, std::int64_t abs_slot) noexcept {
    const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(abs_slot) & mask_);
    bits_[level * words_per_level_ + (p >> 6)] &= ~(std::uint64_t{1} << (p & 63));
  }

  /// Drop an entry into the lowest level whose current window covers it.
  /// Levels are windows of `slots_per_level_` *absolute* slot indices
  /// starting at the level cursor, so the hash is wrap-free: one physical
  /// slot maps to exactly one absolute slot of the window. Returns false
  /// when no window fits (only possible at/above the overflow floor).
  bool try_place(const EventEntry& e) {
    for (std::uint32_t k = 0; k < cfg_.levels; ++k) {
      const std::int64_t s = slot_of(e.at, k);
      if (static_cast<std::uint64_t>(s - cur_[k]) < slots_per_level_) {
        slot_ref(k, s).push_back(e);
        set_bit(k, s);
        if (k > 0) coarse_min0_ = std::min(coarse_min0_, s << (k * cfg_.slot_bits));
        return true;
      }
    }
    return false;
  }

  void place_in_wheel(const EventEntry& e) {
    if (try_place(e)) return;
    // Unreachable while the routing invariants hold: every at below
    // overflow_floor_ lands in the top level's window at the latest.
    assert(false && "timing-wheel routing gap");
    overflow_.push_back(e);
  }

  template <typename Ctx>
  void insert_bottom(const EventEntry& e, Ctx ctx) {
    (void)ctx;
    const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
    const auto pos = std::upper_bound(first, bottom_.end(), e,
                                      [](const EventEntry& a, const EventEntry& b) {
                                        return event_precedes(a, b);
                                      });
    bottom_.insert(pos, e);
  }

  /// First non-empty absolute slot of `level` in [from, to), or -1. The
  /// range never exceeds one wheel revolution, so physical slots in it are
  /// alias-free; the occupancy bitmap turns the scan into a handful of
  /// word tests.
  std::int64_t find_slot(std::uint32_t level, std::int64_t from, std::int64_t to) const
      noexcept {
    std::int64_t a = from;
    while (a < to) {
      const auto p = static_cast<std::uint32_t>(static_cast<std::uint64_t>(a) & mask_);
      const std::uint64_t word = bits_[level * words_per_level_ + (p >> 6)] >> (p & 63);
      // Clamp each step at the word boundary *and* the physical ring end:
      // for geometries narrower than one word the ring wraps mid-word, and
      // bits past `slots_per_level_` are dead — stepping over them would
      // skip the wrapped slots entirely.
      const std::int64_t span =
          std::min({std::int64_t{64} - (p & 63), to - a,
                    static_cast<std::int64_t>(slots_per_level_ - p)});
      if (word != 0) {
        const int tz = std::countr_zero(word);
        if (tz < span) return a + tz;
      }
      a += span;
    }
    return -1;
  }

  /// Refill bottom until its front is the global live minimum, dropping
  /// tombstones on the way. Precondition: live_ > 0.
  template <typename Ctx>
  void ensure_bottom(Ctx ctx) {
    for (;;) {
      // Drop dead entries surfacing at the front.
      while (bottom_head_ < bottom_.size() && ctx.dead(bottom_[bottom_head_])) {
        if (++bottom_head_ == bottom_.size()) {
          bottom_.clear();
          bottom_head_ = 0;
        }
      }
      if (bottom_head_ < bottom_.size()) return;  // front is the live min
      refill_bottom(ctx);
    }
  }

  /// Consume the next non-empty level-0 slot into bottom, cascading
  /// higher levels (and re-basing from overflow) as needed. Each pass
  /// either consumes a level-0 slot, cascades one coarse slot a level
  /// down, or drains overflow, so progress is guaranteed while live_ > 0.
  template <typename Ctx>
  void refill_bottom(Ctx ctx) {
    for (;;) {
      // Level 0 alone decides whether a slot fires before every coarse
      // slot: it searches [cur_[0], coarse_min0_) — exclusive, so a coarse
      // slot starting at the same level-0 slot cascades first — clamped to
      // one revolution (stored entries always sit within
      // `slots_per_level_` of their cursor, so the range is alias-free in
      // the physical slot array).
      const std::int64_t cap0 =
          std::min<std::int64_t>(coarse_min0_, cur_[0] + slots_per_level_);
      const std::int64_t s0 = find_slot(0, cur_[0], cap0);
      if (s0 >= 0) {
        auto& slot = slot_ref(0, s0);
        sort_into_bottom(slot, ctx);
        slot.clear();  // recycle capacity
        clear_bit(0, s0);
        floor_ = sat_shl(s0 + 1, cfg_.tick_shift);
        // Pull every cursor up to the new floor so push windows track
        // time; slots strictly below the floor are empty at every level,
        // so coarse_min0_ still holds.
        for (std::uint32_t k = 0; k < cfg_.levels; ++k) {
          cur_[k] = std::max(cur_[k], slot_of(floor_, k));
        }
        return;  // bottom may still be empty (all-tombstone slot): caller loops
      }
      if (coarse_min0_ == INT64_MAX) {
        // Wheels fully drained: open the next epoch from overflow.
        assert(!overflow_.empty() && "live_ > 0 but no entries stored");
        rebase_from_overflow(ctx);
        continue;
      }
      // No level-0 slot fires before the earliest coarse slot: cascade it
      // one level down and rescan. Lower cursors jump to the slot's left
      // edge (never backward) — the skipped range was just verified empty
      // at every level below.
      std::uint32_t clevel = 0;
      std::int64_t cslot = -1;
      earliest_coarse(clevel, cslot);
      for (std::uint32_t j = 0; j < clevel; ++j) {
        cur_[j] = std::max(cur_[j], sat_shl(cslot, (clevel - j) * cfg_.slot_bits));
      }
      floor_ = std::max(floor_, sat_shl(cur_[0], cfg_.tick_shift));
      auto& slot = slot_ref(clevel, cslot);
      if (tracer_ != nullptr) [[unlikely]] {
        tracer_->instant(trace::id::kWheelCascade, sat_shl(cslot, shift(clevel)),
                         slot.size(), 0, clevel);
      }
      for (const EventEntry& e : slot) {
        if (ctx.dead(e)) continue;
        const std::int64_t down = slot_of(e.at, clevel - 1);
        assert(static_cast<std::uint64_t>(down - cur_[clevel - 1]) < slots_per_level_);
        slot_ref(clevel - 1, down).push_back(e);
        set_bit(clevel - 1, down);
      }
      slot.clear();  // recycle capacity
      clear_bit(clevel, cslot);
      cur_[clevel] = cslot + 1;
      coarse_min0_ = earliest_coarse(clevel, cslot);
    }
  }

  /// Top-down pass over levels >= 1 for the earliest non-empty coarse
  /// slot: level k searches [cur_[k], cap), the cap being the slot found
  /// one level up scaled down — content under an *empty* parent slot
  /// needs no cascade, so the scan may run past the parent cursor —
  /// clamped to one revolution. Reports that
  /// slot and returns the level-0 index of its left edge, or INT64_MAX
  /// when every coarse level is empty. At equal edges the higher level
  /// wins, so its entries cascade before the lower slot is consumed.
  std::int64_t earliest_coarse(std::uint32_t& level, std::int64_t& slot) const noexcept {
    level = 0;
    slot = -1;
    std::int64_t limit = cur_[cfg_.levels - 1] + slots_per_level_;
    for (std::uint32_t k = cfg_.levels; k-- > 1;) {
      const std::int64_t cap = std::min<std::int64_t>(limit, cur_[k] + slots_per_level_);
      const std::int64_t s = find_slot(k, cur_[k], cap);
      if (s >= 0) {
        level = k;
        slot = s;
        limit = s;
      }
      limit = sat_shl(limit, cfg_.slot_bits);
    }
    return slot < 0 ? INT64_MAX : slot << (level * cfg_.slot_bits);
  }

  /// Move one consumed level-0 slot into bottom, sorted by the total
  /// (at, seq) order, dropping tombstones.
  template <typename Ctx>
  void sort_into_bottom(std::vector<EventEntry>& slot, Ctx ctx) {
    assert(bottom_.empty() && bottom_head_ == 0);
    for (const EventEntry& e : slot) {
      if (!ctx.dead(e)) bottom_.push_back(e);
    }
    std::sort(bottom_.begin(), bottom_.end(),
              [](const EventEntry& a, const EventEntry& b) { return event_precedes(a, b); });
  }

  /// Open a new epoch at the overflow minimum: re-base every cursor,
  /// re-latch overflow_floor_ to the new top horizon and repartition the
  /// pool — entries inside the horizon drop into the wheels, the rest
  /// stay in overflow. Precondition: bottom and all wheels are empty.
  template <typename Ctx>
  void rebase_from_overflow(Ctx ctx) {
    Time lo = INT64_MAX;
    for (const EventEntry& e : overflow_) {
      if (!ctx.dead(e) && e.at < lo) lo = e.at;
    }
    // All-tombstone pool with live_ > 0 elsewhere is impossible here
    // (wheels are empty); lo == INT64_MAX then simply re-bases at the top.
    if (tracer_ != nullptr) [[unlikely]] {
      tracer_->instant(trace::id::kWheelEpoch, lo, overflow_.size());
    }
    for (std::uint32_t k = 0; k < cfg_.levels; ++k) cur_[k] = slot_of(lo, k);
    floor_ = sat_shl(cur_[0], cfg_.tick_shift);
    coarse_min0_ = INT64_MAX;  // the wheels are empty; try_place lowers it
    overflow_floor_ = sat_shl(cur_[cfg_.levels - 1] + slots_per_level_,
                              shift(cfg_.levels - 1));
    scratch_.swap(overflow_);
    overflow_.clear();
    // Partition by fit rather than by the floor compare: when the new
    // horizon saturates at the Time maximum, entries *at* the maximum
    // must enter the wheels (they fit the re-based windows) or the pool
    // would cycle forever.
    for (const EventEntry& e : scratch_) {
      if (ctx.dead(e)) continue;
      if (!try_place(e)) overflow_.push_back(e);
    }
    scratch_.clear();  // recycle capacity
  }

  WheelConfig cfg_{};
  std::uint32_t slots_per_level_ = 0;
  std::uint32_t mask_ = 0;
  std::uint32_t words_per_level_ = 0;
  std::vector<std::vector<EventEntry>> slots_;  // pooled, levels * slots flat
  std::vector<std::uint64_t> bits_;             // per-level occupancy bitmaps
  std::vector<std::int64_t> cur_;  // per-level absolute slot cursors
  Time floor_ = 0;                 // bottom/wheel split: below it -> bottom
  // Level-0 index of the earliest non-empty slot's left edge on levels
  // >= 1 (tombstones included), INT64_MAX when there is none.
  std::int64_t coarse_min0_ = INT64_MAX;
  std::vector<EventEntry> bottom_;  // sorted; consumed from bottom_head_
  std::size_t bottom_head_ = 0;
  std::vector<EventEntry> overflow_;  // unsorted beyond-horizon pool
  Time overflow_floor_ = 0;  // latched per epoch; entries at/after it -> overflow
  std::vector<EventEntry> scratch_;  // detached pool during a rebase
  std::size_t live_ = 0;
  trace::Tracer* tracer_ = nullptr;
};

static_assert(EventQueueBackend<TimingWheelBackend>);

}  // namespace metro::sim
