//! Pluggable event schedulers: the priority queue at the heart of the
//! discrete-event engine.
//!
//! Every event in a simulation passes through one [`Scheduler`]: the engine
//! pushes `(time, seq, payload)` triples and pops them back in strictly
//! ascending `(time, seq)` order. `seq` is the engine's monotone insertion
//! counter, so equal-timestamp events dequeue in FIFO order — the tie-break
//! contract every implementation must honour *exactly*, because the paper
//! reproductions pin bit-for-bit deterministic traces.
//!
//! Two implementations are provided:
//!
//! - [`BinaryHeapScheduler`] — the classic `O(log n)` binary heap. Simple,
//!   allocation-light, and the reference implementation for correctness.
//! - [`TimingWheel`] — a hierarchical timing wheel (the default): `O(1)`
//!   amortized insert/pop for the near-future events that dominate
//!   simulation workloads, with an internal freelist so steady-state
//!   operation performs no per-event allocation. Far-future events overflow
//!   into a small binary heap and are cascaded back in as time advances.
//!
//! Both dequeue identical sequences for identical inputs (property-tested
//! in this module's tests and in the workspace-level proptests), so
//! swapping one for the other never changes a simulation result.
//!
//! # Examples
//!
//! ```
//! use decent_sim::sched::{BinaryHeapScheduler, Scheduler, TimingWheel};
//! use decent_sim::time::SimTime;
//!
//! let mut wheel: TimingWheel<&str> = TimingWheel::new();
//! let mut heap: BinaryHeapScheduler<&str> = BinaryHeapScheduler::new();
//! for sched in [&mut wheel as &mut dyn Scheduler<&str>, &mut heap] {
//!     sched.schedule(SimTime::from_secs(2.0), 0, "late");
//!     sched.schedule(SimTime::from_secs(1.0), 1, "early");
//!     sched.schedule(SimTime::from_secs(1.0), 2, "early-tie");
//! }
//! // Identical dequeue order: time first, then insertion order.
//! for sched in [&mut wheel as &mut dyn Scheduler<&str>, &mut heap] {
//!     assert_eq!(sched.pop().unwrap().2, "early");
//!     assert_eq!(sched.pop().unwrap().2, "early-tie");
//!     assert_eq!(sched.pop().unwrap().2, "late");
//!     assert!(sched.pop().is_none());
//! }
//! ```

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Operation counters maintained by a [`Scheduler`].
///
/// Purely observational: tracking these is a couple of integer updates
/// per operation and never changes dequeue order. They surface through
/// [`crate::engine::Simulation::sched_stats`], never through the metrics
/// snapshot, which holds no scheduler-dependent detail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events ever enqueued.
    pub scheduled: u64,
    /// Events ever dequeued.
    pub popped: u64,
    /// Largest number of simultaneously pending events.
    pub peak_len: u64,
    /// Implementation-specific reorganizations; 0 for the binary heap.
    /// For the timing wheel, one per cascade: when the clock steps into
    /// the next 64-tick window, and when it jumps over idle windows to
    /// the next occupied higher-level slot. An idle gap therefore costs
    /// at most a few cascades per level, however long it is.
    pub cascades: u64,
    /// Peak size of the far-future overflow heap (timing wheel only).
    pub overflow_peak: u64,
}

/// A priority queue of timestamped events, dequeued in `(time, seq)` order.
///
/// # Contract
///
/// - [`pop`](Scheduler::pop) returns events in strictly ascending
///   `(time, seq)` order; `seq` values are unique, so the order is total.
/// - Events scheduled at or before the current dequeue frontier (time less
///   than or equal to the last popped time) must still be delivered, in
///   `(time, seq)` order relative to the not-yet-popped events.
/// - [`next_time`](Scheduler::next_time) takes `&mut self` so lazy
///   implementations may reorganize internal state, but it must not drop
///   or reorder events.
pub trait Scheduler<T> {
    /// Creates an empty scheduler.
    fn new() -> Self
    where
        Self: Sized;

    /// Creates an empty scheduler whose dequeue frontier is already at
    /// `now`, for a queue that takes over a run in progress: nothing
    /// earlier than `now` will be scheduled into it. Implementations
    /// that file events by their distance from an internal clock
    /// ([`TimingWheel`]) start that clock here, not at time zero.
    fn new_at(now: SimTime) -> Self
    where
        Self: Sized,
    {
        let _ = now;
        Self::new()
    }

    /// Enqueues `item` at `time` with tie-break counter `seq`.
    fn schedule(&mut self, time: SimTime, seq: u64, item: T);

    /// Removes and returns the earliest event, or `None` if empty.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;

    /// Borrows the earliest event without removing it, or `None` if
    /// empty (or if the implementation cannot peek — the default).
    ///
    /// The engine's batched delivery path uses this to decide whether
    /// the next event targets the same node as the one just dispatched;
    /// an implementation returning `None` merely disables batching,
    /// never changes results.
    fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        None
    }

    /// The timestamp of the earliest pending event, or `None` if empty.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime operation counters (zeroes for implementations that do
    /// not track them).
    fn op_stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

// ---------------------------------------------------------------------------
// Binary heap reference implementation
// ---------------------------------------------------------------------------

struct HeapEntry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The classic binary-heap scheduler: `O(log n)` push and pop.
///
/// This is the reference implementation; [`TimingWheel`] is checked against
/// it. Kept selectable because its worst case is robust to pathological
/// far-future/past scheduling patterns.
pub struct BinaryHeapScheduler<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
    stats: SchedStats,
}

impl<T> Scheduler<T> for BinaryHeapScheduler<T> {
    fn new() -> Self {
        BinaryHeapScheduler {
            heap: BinaryHeap::new(),
            stats: SchedStats::default(),
        }
    }

    fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(HeapEntry { time, seq, item }));
        self.stats.scheduled += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.heap.len() as u64);
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let out = self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.item));
        if out.is_some() {
            self.stats.popped += 1;
        }
        out
    }

    fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        self.heap.peek().map(|Reverse(e)| (e.time, e.seq, &e.item))
    }

    fn next_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn op_stats(&self) -> SchedStats {
        self.stats
    }
}

impl<T> std::fmt::Debug for BinaryHeapScheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinaryHeapScheduler")
            .field("len", &self.heap.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// Slots per wheel level (a power of two so slot math is masking).
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Number of cascaded wheel levels. Level `k` spans `64^(k+1)` ticks, so
/// four levels cover `2^24` ticks before events overflow to the heap.
const LEVELS: usize = 4;
/// Sentinel for "no slab node" in the intrusive lists and the freelist.
const NIL: u32 = u32::MAX;

struct WheelNode<T> {
    /// Event timestamp in raw nanoseconds.
    time: u64,
    /// Engine tie-break counter.
    seq: u64,
    /// Next node in the slot's intrusive list, or in the freelist.
    next: u32,
    /// `None` only while the node sits on the freelist.
    item: Option<T>,
}

/// A hierarchical timing wheel with a sorted near-term lane.
///
/// Time is bucketed into ticks of `2^tick_shift` nanoseconds (default
/// `2^16` ≈ 65 µs). Level 0 holds the next 64 ticks, one slot per tick;
/// level `k` holds the next `64^(k+1)` ticks at `64^k`-tick granularity.
/// When the wheel clock enters a higher-level slot, that slot's events
/// *cascade* down into the finer levels. Events beyond the top level's
/// horizon (`2^24` ticks ≈ 18 simulated minutes at the default tick) wait
/// in an overflow binary heap and are pulled in as the clock approaches.
///
/// Dequeueing drains one level-0 slot at a time into the *near lane*, a
/// small vector sorted by `(time, seq)` — this is what restores the exact
/// FIFO tie-break order within a tick, so the wheel's dequeue sequence is
/// bit-for-bit identical to [`BinaryHeapScheduler`]'s.
///
/// All events live in a slab with an internal freelist, so steady-state
/// scheduling allocates nothing.
pub struct TimingWheel<T> {
    slab: Vec<WheelNode<T>>,
    /// Freelist head into `slab`.
    free: u32,
    /// Wheel clock, in ticks. Every event in the wheel levels has a tick
    /// strictly greater than `current`; events at or before it go to the
    /// near lane on insert.
    current: u64,
    tick_shift: u32,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Heads of per-slot intrusive lists into `slab`.
    slots: [[u32; SLOTS]; LEVELS],
    /// The drained current tick, sorted ascending by `(time, seq)`;
    /// `lane[lane_pos..]` are pending.
    lane: Vec<u32>,
    lane_pos: usize,
    /// Events beyond the wheel horizon: `(time, seq, slab index)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    len: usize,
    stats: SchedStats,
}

impl<T> TimingWheel<T> {
    /// Default tick granularity: `2^16` ns ≈ 65.5 µs.
    pub const DEFAULT_TICK_SHIFT: u32 = 16;

    /// Creates a wheel with a custom tick of `2^tick_shift` nanoseconds.
    ///
    /// Smaller ticks sharpen level-0 resolution (fewer same-slot sorts) at
    /// the cost of a nearer overflow horizon; the default suits the
    /// millisecond-scale latencies of the workspace's network models.
    ///
    /// # Panics
    ///
    /// Panics if `tick_shift` is 40 or more (the wheel horizon would
    /// overflow the 64-bit nanosecond clock).
    pub fn with_tick_shift(tick_shift: u32) -> Self {
        assert!(
            tick_shift < 40,
            "tick_shift {tick_shift} leaves no headroom above the wheel horizon"
        );
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
            current: 0,
            tick_shift,
            occupied: [0; LEVELS],
            slots: [[NIL; SLOTS]; LEVELS],
            lane: Vec::new(),
            lane_pos: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            stats: SchedStats::default(),
        }
    }

    fn tick_of(&self, time: u64) -> u64 {
        time >> self.tick_shift
    }

    fn alloc(&mut self, time: u64, seq: u64, item: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.slab[idx as usize];
            self.free = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.item = Some(item);
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("more than 2^32 pending events");
            self.slab.push(WheelNode {
                time,
                seq,
                next: NIL,
                item: Some(item),
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> (u64, u64, T) {
        let node = &mut self.slab[idx as usize];
        let item = node.item.take().expect("node already freed");
        let out = (node.time, node.seq, item);
        node.next = self.free;
        self.free = idx;
        out
    }

    /// Files a freshly scheduled node into the lane, a wheel slot, or the
    /// overflow heap according to its distance from the wheel clock.
    fn place(&mut self, idx: u32) {
        let node = &self.slab[idx as usize];
        let (time, seq) = (node.time, node.seq);
        let tick = self.tick_of(time);
        if tick <= self.current {
            // Due now (or in the already-drained current tick): keep the
            // near lane sorted so tie-break order survives late inserts.
            let key = (time, seq);
            let slab = &self.slab;
            let at = self.lane[self.lane_pos..].partition_point(|&j| {
                let n = &slab[j as usize];
                (n.time, n.seq) < key
            }) + self.lane_pos;
            self.lane.insert(at, idx);
            return;
        }
        self.place_future(idx, tick);
    }

    /// Re-files a node during a cascade or an overflow pull. Unlike
    /// [`place`](Self::place), events due at the current tick go into their
    /// level-0 slot, not the lane: the slot may already hold other events
    /// for that tick, and the upcoming slot drain must see them all at once
    /// to sort them into one FIFO run.
    fn place_wheel(&mut self, idx: u32) {
        let tick = self.tick_of(self.slab[idx as usize].time);
        if tick <= self.current {
            debug_assert_eq!(tick, self.current, "cascade surfaced a past event");
            let slot = (tick & (SLOTS as u64 - 1)) as usize;
            self.slab[idx as usize].next = self.slots[0][slot];
            self.slots[0][slot] = idx;
            self.occupied[0] |= 1 << slot;
            return;
        }
        self.place_future(idx, tick);
    }

    /// Files a node with `tick > current` into the wheel level matching its
    /// distance, or the overflow heap beyond the horizon.
    fn place_future(&mut self, idx: u32, tick: u64) {
        let delta = tick - self.current;
        for level in 0..LEVELS {
            if delta < 1u64 << (SLOT_BITS * (level as u32 + 1)) {
                let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slab[idx as usize].next = self.slots[level][slot];
                self.slots[level][slot] = idx;
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        let node = &self.slab[idx as usize];
        self.overflow.push(Reverse((node.time, node.seq, idx)));
        self.stats.overflow_peak = self.stats.overflow_peak.max(self.overflow.len() as u64);
    }

    /// Unlinks and returns every node in `slots[level][slot]`.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.slots[level][slot];
        self.slots[level][slot] = NIL;
        self.occupied[level] &= !(1u64 << slot);
        head
    }

    /// Ensures the near lane holds the next pending event; returns false
    /// when the scheduler is empty.
    fn refill(&mut self) -> bool {
        loop {
            if self.lane_pos < self.lane.len() {
                return true;
            }
            self.lane.clear();
            self.lane_pos = 0;
            if self.len == 0 {
                return false;
            }
            // Next occupied level-0 slot in the current 64-tick window,
            // including `current`'s own slot — cascades and overflow pulls
            // park events due at the current tick there.
            let window = self.current & !(SLOTS as u64 - 1);
            let pos = (self.current & (SLOTS as u64 - 1)) as u32;
            let mask = self.occupied[0] & (u64::MAX << pos);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                self.current = window + slot as u64;
                let mut head = self.take_slot(0, slot);
                while head != NIL {
                    self.lane.push(head);
                    head = self.slab[head as usize].next;
                }
                let slab = &self.slab;
                #[expect(
                    clippy::disallowed_methods,
                    reason = "(time, seq) is injective: seq is unique per scheduled event"
                )]
                self.lane.sort_unstable_by_key(|&j| {
                    let n = &slab[j as usize];
                    (n.time, n.seq)
                });
                continue;
            }
            // Level 0 exhausted: advance to the next window and cascade.
            // While level 0 stays empty, jump over the idle windows
            // straight to the next occupied higher-level slot.
            self.current = window + SLOTS as u64;
            self.cascade();
            while self.occupied[0] == 0 {
                let Some(tick) = self.next_slot_entry() else {
                    break;
                };
                debug_assert!(tick > self.current, "idle jump must move the clock");
                self.current = tick;
                self.cascade();
            }
            if self.occupied.iter().all(|&b| b == 0) {
                // Wheels empty — jump the clock to the overflow frontier.
                let Some(&Reverse((time, _, _))) = self.overflow.peek() else {
                    debug_assert_eq!(self.len, 0);
                    return false;
                };
                let tick = self.tick_of(time);
                if tick > self.current {
                    self.current = tick;
                }
                self.pull_overflow();
            }
        }
    }

    /// The earliest tick after `current` at which the clock enters an
    /// occupied slot of levels 1 and up, or `None` when those levels are
    /// empty. Level `k`'s slot `s` is entered next at the first multiple
    /// of `64^k` past `current` whose level-`k` position is `s`: later in
    /// this rotation if `s` lies past the level's current position,
    /// otherwise — `s` at that position included — one rotation on.
    ///
    /// No overflow event is due before the returned tick: the cascade
    /// that preceded the call pulled in everything within `2^24` ticks of
    /// `current`, and every occupied slot is entered within that span.
    fn next_slot_entry(&self) -> Option<u64> {
        (1..LEVELS)
            .filter(|&level| self.occupied[level] != 0)
            .map(|level| {
                let shift = SLOT_BITS * level as u32;
                let index = self.current >> shift;
                let pos = (index & (SLOTS as u64 - 1)) as u32;
                let rotation = index & !(SLOTS as u64 - 1);
                let bits = self.occupied[level];
                let later = bits & (u64::MAX << pos) << 1;
                let entry = if later != 0 {
                    rotation + u64::from(later.trailing_zeros())
                } else {
                    rotation + SLOTS as u64 + u64::from(bits.trailing_zeros())
                };
                entry << shift
            })
            .min()
    }

    /// Drains higher-level slots the clock has just entered back into the
    /// finer levels, then adopts overflow events inside the new horizon.
    ///
    /// Must be called exactly when `current` crosses a level-0 window
    /// boundary (i.e. is a multiple of 64 ticks).
    fn cascade(&mut self) {
        debug_assert_eq!(self.current % SLOTS as u64, 0);
        self.stats.cascades += 1;
        // Level k enters a new slot when current is a multiple of 64^k.
        // Drain top-down so cascaded events land in already-drained
        // lower-level slots only via `place`.
        for level in (1..LEVELS).rev() {
            if !self
                .current
                .is_multiple_of(1u64 << (SLOT_BITS * level as u32))
            {
                continue;
            }
            let slot = ((self.current >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let mut head = self.take_slot(level, slot);
            while head != NIL {
                let next = self.slab[head as usize].next;
                self.place_wheel(head);
                head = next;
            }
        }
        self.pull_overflow();
    }

    /// Moves overflow events that now fit under the wheel horizon into the
    /// wheel levels.
    fn pull_overflow(&mut self) {
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        while let Some(&Reverse((time, _, idx))) = self.overflow.peek() {
            if self.tick_of(time).saturating_sub(self.current) >= horizon {
                break;
            }
            self.overflow.pop();
            self.place_wheel(idx);
        }
    }
}

impl<T> Scheduler<T> for TimingWheel<T> {
    fn new() -> Self {
        TimingWheel::with_tick_shift(Self::DEFAULT_TICK_SHIFT)
    }

    fn new_at(now: SimTime) -> Self {
        // The state of a wheel that ran up to `now` and is empty: an
        // event lands in the level its distance from `now` picks. A
        // wheel at tick zero sends every event past its own horizon
        // (18 simulated minutes) through the overflow heap.
        let mut wheel = Self::new();
        wheel.current = wheel.tick_of(now.as_nanos());
        wheel
    }

    fn schedule(&mut self, time: SimTime, seq: u64, item: T) {
        let idx = self.alloc(time.as_nanos(), seq, item);
        self.place(idx);
        self.len += 1;
        self.stats.scheduled += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.len as u64);
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.refill() {
            return None;
        }
        let idx = self.lane[self.lane_pos];
        self.lane_pos += 1;
        self.len -= 1;
        self.stats.popped += 1;
        let (time, seq, item) = self.release(idx);
        Some((SimTime::from_nanos(time), seq, item))
    }

    fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        if !self.refill() {
            return None;
        }
        let node = &self.slab[self.lane[self.lane_pos] as usize];
        Some((
            SimTime::from_nanos(node.time),
            node.seq,
            node.item.as_ref().expect("lane node on freelist"),
        ))
    }

    fn next_time(&mut self) -> Option<SimTime> {
        if !self.refill() {
            return None;
        }
        let idx = self.lane[self.lane_pos];
        Some(SimTime::from_nanos(self.slab[idx as usize].time))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn op_stats(&self) -> SchedStats {
        self.stats
    }
}

impl<T> std::fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("current_tick", &self.current)
            .field("tick_shift", &self.tick_shift)
            .field("lane_pending", &(self.lane.len() - self.lane_pos))
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn drain<T, S: Scheduler<T>>(s: &mut S) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some((t, q, _)) = s.pop() {
            out.push((t, q));
        }
        out
    }

    #[test]
    fn empty_schedulers_report_empty() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let mut h: BinaryHeapScheduler<u32> = BinaryHeapScheduler::new();
        assert!(w.is_empty() && h.is_empty());
        assert_eq!(w.next_time(), None);
        assert_eq!(h.next_time(), None);
        assert_eq!(
            w.pop(),
            None.map(|(t, q, i): (SimTime, u64, u32)| (t, q, i))
        );
        assert!(h.pop().is_none());
    }

    #[test]
    fn fifo_at_equal_timestamps() {
        let t = SimTime::from_secs(0.005);
        let mut w: TimingWheel<u32> = TimingWheel::new();
        for seq in 0..100u64 {
            w.schedule(t, seq, seq as u32);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, q)| q).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_tick_different_nanos_sort_by_time() {
        // Two distinct nanosecond stamps inside one wheel tick must still
        // come out time-ordered even when inserted in reverse.
        let mut w: TimingWheel<&str> = TimingWheel::new();
        w.schedule(SimTime::from_nanos(100), 0, "later-seq-first");
        w.schedule(SimTime::from_nanos(50), 1, "earlier-time");
        assert_eq!(w.pop().unwrap().2, "earlier-time");
        assert_eq!(w.pop().unwrap().2, "later-seq-first");
    }

    #[test]
    fn far_future_events_cascade_back_in_order() {
        let mut w: TimingWheel<u64> = TimingWheel::with_tick_shift(4);
        // Horizon at shift 4 is 2^24 ticks = 2^28 ns; spread events well
        // past it to exercise overflow, every level, and cascading.
        let times = [
            1u64 << 36,
            (1 << 36) + 1,
            1 << 30,
            1 << 20,
            1 << 10,
            3,
            (1 << 30) + 7,
            (1 << 20) + 7,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(SimTime::from_nanos(t), seq as u64, t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(_, _, t)| t).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn late_inserts_behind_the_clock_still_deliver() {
        let mut w: TimingWheel<&str> = TimingWheel::new();
        w.schedule(SimTime::from_secs(10.0), 0, "far");
        // Peeking advances the wheel clock to the far event...
        assert_eq!(w.next_time(), Some(SimTime::from_secs(10.0)));
        // ...then an earlier event arrives (engine: deadline stop, then a
        // driver schedules sooner work).
        w.schedule(SimTime::from_secs(1.0), 1, "near");
        assert_eq!(w.pop().unwrap().2, "near");
        assert_eq!(w.pop().unwrap().2, "far");
        assert!(w.pop().is_none());
    }

    #[test]
    fn freelist_reuses_slab_nodes() {
        let mut w: TimingWheel<u64> = TimingWheel::new();
        for round in 0..100u64 {
            for seq in 0..16 {
                w.schedule(SimTime::from_nanos(round * 1000), round * 16 + seq, seq);
            }
            while w.pop().is_some() {}
        }
        assert!(
            w.slab.len() <= 16,
            "slab grew to {} despite freelist",
            w.slab.len()
        );
    }

    #[test]
    fn op_stats_count_operations() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let mut h: BinaryHeapScheduler<u32> = BinaryHeapScheduler::new();
        for s in [&mut w as &mut dyn Scheduler<u32>, &mut h] {
            for seq in 0..10u64 {
                s.schedule(SimTime::from_secs(seq as f64 * 0.001), seq, 0);
            }
            for _ in 0..4 {
                s.pop();
            }
            let st = s.op_stats();
            assert_eq!(st.scheduled, 10);
            assert_eq!(st.popped, 4);
            assert_eq!(st.peak_len, 10);
        }
        // Popping an empty scheduler counts nothing.
        let mut e: BinaryHeapScheduler<u32> = BinaryHeapScheduler::new();
        assert!(e.pop().is_none());
        assert_eq!(e.op_stats(), SchedStats::default());
    }

    #[test]
    fn wheel_op_stats_track_cascades_and_overflow() {
        let mut w: TimingWheel<u32> = TimingWheel::with_tick_shift(4);
        // Far beyond the horizon: must hit the overflow heap.
        w.schedule(SimTime::from_nanos(1 << 36), 0, 0);
        w.schedule(SimTime::from_nanos(1 << 37), 1, 1);
        assert_eq!(w.op_stats().overflow_peak, 2);
        while w.pop().is_some() {}
        // One cascade as the clock leaves each event's window finds the
        // wheel empty and jumps to the overflow frontier.
        let st = w.op_stats();
        assert_eq!((st.popped, st.cascades), (2, 2), "{st:?}");
    }

    #[test]
    fn an_idle_gap_costs_a_few_cascades_not_one_per_window() {
        // Walking a 1 000 s gap one 64-tick window at a time would take
        // 476 837 cascades.
        for gap in [1.0, 60.0, 1_000.0] {
            let mut w: TimingWheel<u32> = TimingWheel::new();
            w.schedule(SimTime::from_secs(1.0), 0, 0);
            w.schedule(SimTime::from_secs(1.0 + gap), 1, 1);
            while w.pop().is_some() {}
            let st = w.op_stats();
            assert_eq!(st.popped, 2);
            assert!(st.cascades <= 8, "gap {gap} s: {st:?}");
        }
        // An event past the horizon, waiting in the overflow heap, must
        // not stop the wheel from jumping the gaps before it.
        let mut w: TimingWheel<u32> = TimingWheel::new();
        for (seq, secs) in [1.0, 1_001.0, 2.0 * 86_400.0].into_iter().enumerate() {
            w.schedule(SimTime::from_secs(secs), seq as u64, 0);
        }
        while w.pop().is_some() {}
        let st = w.op_stats();
        assert_eq!((st.popped, st.overflow_peak), (3, 1));
        assert!(st.cascades <= 8, "{st:?}");
    }

    /// A wheel of one-nanosecond ticks whose clock has been driven to
    /// `start` by popping an event there, so tick arithmetic is plain
    /// nanoseconds.
    fn wheel_at(start: u64) -> TimingWheel<u64> {
        let mut w = TimingWheel::with_tick_shift(0);
        w.schedule(SimTime::from_nanos(start), 0, 0);
        assert_eq!(w.pop().map(|(t, ..)| t.as_nanos()), Some(start));
        assert_eq!(w.current, start);
        w
    }

    /// Drains `w` and a heap holding the same `times` (seqs from 1),
    /// comparing every `next_time` and pop.
    fn assert_drains_like_heap(mut w: TimingWheel<u64>, times: &[u64], case: &str) {
        let mut h: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
        for (seq, &t) in (1u64..).zip(times) {
            w.schedule(SimTime::from_nanos(t), seq, t);
            h.schedule(SimTime::from_nanos(t), seq, t);
        }
        loop {
            assert_eq!(w.next_time(), h.next_time(), "{case}");
            let popped = w.pop();
            assert_eq!(popped, h.pop(), "{case}");
            if popped.is_none() {
                break;
            }
        }
    }

    /// Tick distances at every level's slot and rotation boundaries, and
    /// either side of the `2^24`-tick horizon.
    fn boundary_deltas() -> Vec<u64> {
        let mut deltas = vec![1, 2, 63, 3 << 24];
        for level in 0..LEVELS as u32 {
            let slot = 1u64 << (SLOT_BITS * level);
            let rotation = slot << SLOT_BITS;
            deltas.extend([slot, slot + 1, 63 * slot + 7]);
            deltas.extend([rotation - 1, rotation, rotation + 1]);
        }
        deltas
    }

    #[test]
    fn sparse_schedules_across_idle_gaps_match_heap() {
        // Starts on and just off every level's slot boundary, so some
        // deltas land in the slot at the clock's own position.
        let starts = [
            0u64,
            1,
            60,
            64,
            4_095,
            4_097,
            262_143,
            262_145,
            (1 << 24) - 3,
            (1 << 24) + 70,
            123_456_789,
        ];
        let deltas = boundary_deltas();
        for &start in &starts {
            for &d1 in &deltas {
                for &d2 in &deltas {
                    let case = format!("start {start}, +{d1}, +{d2}");
                    // Both filed against the clock at `start`...
                    let times = [start + d1, start + d1 + d2];
                    assert_drains_like_heap(wheel_at(start), &times, &case);
                    // ...and the second against the clock at the first.
                    let w = wheel_at(start + d1);
                    assert_drains_like_heap(w, &[start + d1 + d2], &case);
                }
            }
        }
    }

    #[test]
    fn an_event_in_the_slot_at_the_clock_waits_a_full_rotation() {
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            // Off the level's slot boundary, so a delta of one tick short
            // of a full rotation maps back onto the clock's own slot.
            let start = (5u64 << shift) + 3;
            let delta = (1u64 << (shift + SLOT_BITS)) - 1;
            let mut w = wheel_at(start);
            w.schedule(SimTime::from_nanos(start + delta), 1, 0);
            let pos = (start >> shift) & (SLOTS as u64 - 1);
            assert_eq!(w.occupied[level], 1 << pos, "level {level}");
            let w = wheel_at(start);
            assert_drains_like_heap(w, &[start + delta, start + 1], &format!("level {level}"));
        }
    }

    #[test]
    fn events_either_side_of_the_horizon_match_heap() {
        let horizon = 1u64 << 24;
        for start in [0u64, 77, 5 << 18, (9 << 24) + 12_345] {
            let times = [start + horizon - 1, start + horizon, start + horizon + 1];
            let mut w = wheel_at(start);
            w.schedule(SimTime::from_nanos(times[0]), 100, 0);
            assert_eq!(w.overflow.len(), 0, "start {start}");
            w.schedule(SimTime::from_nanos(times[1]), 101, 0);
            assert_eq!(w.overflow.len(), 1, "start {start}");
            assert_drains_like_heap(wheel_at(start), &times, &format!("start {start}"));
        }
    }

    #[test]
    fn a_wrapped_level0_entry_before_an_idle_gap_is_not_skipped() {
        // At tick 60, tick 70 sits in level-0 slot 6, behind the cursor:
        // it is due in the next window, before the far event.
        let mut w = wheel_at(60);
        w.schedule(SimTime::from_nanos(70), 1, 0);
        assert_eq!(w.occupied[0], 1 << 6);
        for far in [5_000, 5_000_000, 50_000_000] {
            assert_drains_like_heap(wheel_at(60), &[70, 60 + far, 63], &format!("far {far}"));
        }
    }

    #[test]
    fn sparse_random_interleavings_match_heap() {
        // At most three events pending, gaps spread over every scale from
        // one tick to well past the horizon: most pops cross idle time.
        for seed in 0..20u64 {
            let mut rng = rng_from_seed(seed);
            let mut w: TimingWheel<u64> = TimingWheel::with_tick_shift(0);
            let mut h: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
            let mut frontier = 0u64;
            for seq in 0..2_000u64 {
                if w.is_empty() || (w.len() < 3 && rng.gen::<f64>() < 0.5) {
                    let bits = rng.gen_range(0u32..27);
                    let t = SimTime::from_nanos(frontier + rng.gen_range(0u64..1 << bits));
                    w.schedule(t, seq, seq);
                    h.schedule(t, seq, seq);
                } else {
                    assert_eq!(w.next_time(), h.next_time(), "seed {seed}");
                    let popped = w.pop();
                    assert_eq!(popped, h.pop(), "seed {seed}");
                    frontier = popped.expect("non-empty").0.as_nanos();
                }
            }
            assert_eq!(drain(&mut w), drain(&mut h), "seed {seed}");
        }
    }

    #[test]
    fn a_wheel_started_late_matches_the_heap_without_overflow() {
        // Mid-window, mid-level start ticks; events from "now" itself
        // out to just under the horizon (2^24 ticks of 2^16 ns).
        for start in [0u64, 1, 12_345_678_901, 172_800_000_000_000] {
            let mut rng = rng_from_seed(start);
            let mut w: TimingWheel<u64> = TimingWheel::new_at(SimTime::from_nanos(start));
            let mut h: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
            for seq in 0..2000u64 {
                let delta = match seq % 4 {
                    0 => 0,
                    1 => rng.gen_range(0u64..1 << 20),
                    2 => rng.gen_range(0u64..1 << 30),
                    _ => rng.gen_range(0u64..(1 << 40) - (1 << 16)),
                };
                let t = SimTime::from_nanos(start + delta);
                w.schedule(t, seq, seq);
                h.schedule(t, seq, seq);
            }
            assert_eq!(w.op_stats().overflow_peak, 0, "start {start}");
            assert_eq!(drain(&mut w), drain(&mut h), "start {start}");
        }
    }

    #[test]
    fn randomized_interleavings_match_heap() {
        // The module-level equivalence check; the workspace proptests run
        // a broader version against the engine itself.
        for seed in 0..20u64 {
            let mut rng = rng_from_seed(seed);
            let mut w: TimingWheel<u64> = TimingWheel::with_tick_shift(8);
            let mut h: BinaryHeapScheduler<u64> = BinaryHeapScheduler::new();
            let mut seq = 0u64;
            let mut frontier = 0u64; // last popped time, engine-style
            for _ in 0..2000 {
                if rng.gen::<f64>() < 0.6 || w.is_empty() {
                    // Schedule relative to the dequeue frontier, with
                    // heavy duplicate-timestamp pressure.
                    let delta = match rng.gen_range(0u32..4) {
                        0 => 0,
                        1 => rng.gen_range(0u64..1 << 10),
                        2 => rng.gen_range(0u64..1 << 22),
                        _ => rng.gen_range(0u64..1 << 36),
                    };
                    let t = SimTime::from_nanos(frontier + delta);
                    w.schedule(t, seq, seq);
                    h.schedule(t, seq, seq);
                    seq += 1;
                } else {
                    assert_eq!(w.next_time(), h.next_time(), "seed {seed}");
                    let a = w.pop();
                    let b = h.pop();
                    assert_eq!(a, b, "seed {seed}");
                    frontier = a.expect("non-empty").0.as_nanos();
                }
            }
            assert_eq!(drain(&mut w), drain(&mut h), "seed {seed}");
        }
    }
}
