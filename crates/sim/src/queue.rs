//! Pluggable pending-event queues for the [`Engine`](crate::Engine).
//!
//! The engine owns the clock, sequence numbers, and the events
//! themselves (one slot each, see [`Engine`](crate::Engine)); a queue
//! only orders [`EventKey`]s — `(at, seq, slot)`, 24 bytes whatever the
//! event type — and hands them back in `(at, seq)` order. Keeping the
//! events out of the queue means a heap sift or a wheel cascade moves
//! small keys, never the events. The split also keeps the delivery order
//! — and therefore every trace — bit-identical across backends, so the
//! replay suite can diff a run on one queue against the same seed on
//! another.
//!
//! Two backends:
//!
//! * [`HeapQueue`] — the classic binary heap, `O(log n)` per operation.
//!   Simple and cache-friendly at small scale; the reference
//!   implementation.
//! * [`TimingWheel`] — a hierarchical timing wheel, amortised `O(1)` per
//!   operation at high occupancy. Six levels of 64 one-µs-granularity
//!   slots cover ~19 simulated hours; anything farther out parks in a
//!   sorted overflow map until the wheel rotates near it.
//!
//! [`DynQueue`] wraps both behind one type so the backend can be chosen
//! at runtime from configuration ([`QueueBackend`]).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::SimTime;

/// What a queue orders: when an event fires, its tie-break sequence
/// number, and the engine slot that holds the event itself.
///
/// The derived order is `(at, seq, slot)`; `seq` is unique per engine, so
/// `slot` never decides and the order is exactly `(at, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Firing time.
    pub at: SimTime,
    /// Schedule order: the FIFO tie-break within one instant.
    pub seq: u64,
    /// Index of the engine slot holding the event.
    pub slot: usize,
}

/// A pending-key store ordered by `(at, seq)`.
///
/// Contract: `push` times are monotone with respect to pops — callers
/// must never push a key earlier than the last popped time (the engine's
/// no-scheduling-in-the-past rule). `seq` values are unique and monotone
/// in push order, which makes `(at, seq)` a total order: every backend
/// pops the exact same sequence.
pub trait EventQueue {
    /// Stores a key.
    fn push(&mut self, key: EventKey);

    /// The next key to pop, without removing it.
    ///
    /// Takes `&mut self` so a backend may reorganise internally to find
    /// its front; the observable contents are unchanged.
    fn peek(&mut self) -> Option<EventKey>;

    /// Removes and returns the `(at, seq)`-least key.
    fn pop(&mut self) -> Option<EventKey>;

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// True when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// --- Binary-heap backend. ---

/// The `O(log n)` binary-heap backend: the baseline the timing wheel is
/// benchmarked (and differentially tested) against.
#[derive(Default)]
pub struct HeapQueue {
    /// A max-heap, so keys are reversed: the earliest (and, within an
    /// instant, the first-pushed) key surfaces first.
    heap: BinaryHeap<Reverse<EventKey>>,
}

impl HeapQueue {
    /// An empty heap queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventQueue for HeapQueue {
    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    fn peek(&mut self) -> Option<EventKey> {
        self.heap.peek().map(|k| k.0)
    }

    fn pop(&mut self) -> Option<EventKey> {
        self.heap.pop().map(|k| k.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// --- Hierarchical timing wheel. ---

/// log2 of the per-level slot count.
const SLOT_BITS: u32 = 6;
/// Slots per level; level `k` slots are `64^k` µs wide.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `LEVELS - 1` slots are `64^5` µs ≈ 18 minutes
/// wide, so the wheel covers a `64^6` µs ≈ 19-simulated-hour era.
const LEVELS: usize = 6;
/// Width of one wheel era in µs. The wheel holds events inside the
/// `HORIZON`-aligned window containing `base`; later events overflow
/// into the sorted far-future map until `base` enters their era.
const HORIZON: u64 = 1 << (SLOT_BITS as u64 * LEVELS as u64);

/// The amortised-`O(1)` hierarchical timing wheel backend.
///
/// Geometry: `LEVELS` (6) levels of `SLOTS` (64) slots; a level-`k` slot spans
/// `64^k` µs of absolute time, so bits `[6k, 6k+6)` of an event's µs
/// timestamp directly index its slot. An event is placed *radix-style*:
/// at the level of the highest 6-bit group in which its timestamp
/// differs from `base` (the time of the last pop). This gives two strong
/// invariants, both load-bearing for correctness:
///
/// 1. A level-`k` entry shares every bit-group above `k` with `base` and
///    has a group-`k` value at or after `base`'s, so within a level the
///    slot order *is* the firing order — no wrap-around ambiguity.
/// 2. Levels are totally ordered in time: every level-`j` entry fires
///    before every level-`k` entry for `j < k` (the level-`k` entry sits
///    past the next group-`k` boundary; the level-`j` entry does not).
///
/// When level 0 runs dry, the lowest occupied level's earliest slot is
/// drained, `base` advances to its earliest entry, and the slot's
/// entries cascade back down — every re-insertion lands at a strictly
/// lower level, so an event cascades at most `LEVELS - 1` times.
///
/// Events outside `base`'s `HORIZON`-aligned era (~19 simulated hours)
/// wait in a sorted `BTreeSet` of keys and migrate into the wheel
/// when `base` enters their era; every wheel entry fires no later than
/// every overflow entry, so the two never need comparing.
///
/// Determinism: within a level-0 slot (one µs of absolute time) the
/// minimum `seq` is selected by scan, so pops follow the exact global
/// `(at, seq)` order — the same order [`HeapQueue`] produces.
pub struct TimingWheel {
    /// `LEVELS * SLOTS` buckets, flattened as `level * SLOTS + slot`.
    slots: Vec<Vec<EventKey>>,
    /// Per-level occupancy bitmask: bit `s` set iff `slots[l][s]` is
    /// non-empty. Finding the next occupied slot is one rotate + ctz.
    occupied: [u64; LEVELS],
    /// Lower bound on every stored firing time; advanced to each popped
    /// event's time and to cascade targets, never moved backwards.
    base: u64,
    /// Entries resident in the wheel levels (excludes the overflow map).
    wheel_len: usize,
    /// Far-future keys, sorted by `(at, seq)`.
    overflow: BTreeSet<EventKey>,
}

impl TimingWheel {
    /// An empty wheel with `base` at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            base: 0,
            wheel_len: 0,
            overflow: BTreeSet::new(),
        }
    }

    /// The level event time `t` belongs to relative to `base`: the index
    /// of the highest 6-bit group where they differ ([`LEVELS`] or more
    /// means `t` lies outside `base`'s era and must overflow).
    fn level_for(&self, t: u64) -> usize {
        let diff = t ^ self.base;
        if diff >= HORIZON {
            LEVELS
        } else if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// The slot index of absolute time `t` at `level` — bits
    /// `[6k, 6k+6)` of the µs timestamp.
    fn slot_of(t: u64, level: usize) -> usize {
        ((t >> (SLOT_BITS as u64 * level as u64)) & (SLOTS as u64 - 1)) as usize
    }

    /// Inserts into the wheel proper (caller has checked the era).
    fn insert_wheel(&mut self, key: EventKey) {
        let at = key.at.as_micros();
        let level = self.level_for(at);
        debug_assert!(level < LEVELS, "insert outside the wheel era");
        let slot = Self::slot_of(at, level);
        self.slots[level * SLOTS + slot].push(key);
        self.occupied[level] |= 1 << slot;
        self.wheel_len += 1;
    }

    /// Moves every overflow event whose era `base` has entered into the
    /// wheel. Called whenever `base` may have advanced. Checking only the
    /// head suffices: overflow entries inside `base`'s era sort before
    /// those beyond it.
    fn migrate_overflow(&mut self) {
        while let Some(head) = self.overflow.first() {
            if self.level_for(head.at.as_micros()) >= LEVELS {
                break;
            }
            if let Some(key) = self.overflow.pop_first() {
                self.insert_wheel(key);
            }
        }
    }

    /// The earliest occupied slot of `level`, scanning from the base
    /// position. Valid because every level-`k` entry shares its bit
    /// groups above `k` with `base` and sits at or after `base`'s
    /// group-`k` position — slot order is absolute-time order.
    fn earliest_slot(&self, level: usize) -> Option<usize> {
        let occ = self.occupied[level];
        if occ == 0 {
            return None;
        }
        let b = Self::slot_of(self.base, level);
        // Lossless: `b < SLOTS = 64` by construction of `slot_of`.
        let off = occ.rotate_right(b as u32).trailing_zeros() as usize;
        Some((b + off) % SLOTS)
    }

    /// Position and value of the `(at, seq)`-least key in a non-empty
    /// flat slot. Level-0 slots hold one instant, so this is the FIFO
    /// tie-break scan; slots are short, making it cheap.
    fn slot_min(&self, flat: usize) -> (usize, EventKey) {
        let keys = &self.slots[flat];
        let mut best = 0;
        for (i, k) in keys.iter().enumerate().skip(1) {
            if k < &keys[best] {
                best = i;
            }
        }
        (best, keys[best])
    }

    /// Rotates/cascades until the earliest pending event sits in a level-0
    /// slot and returns that slot's flat index; `None` when empty.
    fn ensure_front(&mut self) -> Option<usize> {
        loop {
            if self.wheel_len == 0 {
                // Wheel empty: jump the base to the overflow head (if any)
                // and refill from there.
                self.base = self.overflow.first()?.at.as_micros();
                self.migrate_overflow();
                continue;
            }
            if let Some(slot) = self.earliest_slot(0) {
                return Some(slot);
            }
            // Level 0 dry: levels are totally ordered in time, so the
            // earliest pending entry lives in the lowest occupied level's
            // earliest slot. Rebase to that slot's minimum and cascade it
            // down; every drained entry lands at a strictly lower level
            // (the slot's entries share all bit groups at or above the
            // level, so against the new base they differ only below it).
            let level = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let slot = self.earliest_slot(level)?;
            let flat = level * SLOTS + slot;
            self.base = self.slot_min(flat).1.at.as_micros();
            let keys = std::mem::take(&mut self.slots[flat]);
            self.occupied[level] &= !(1 << (flat - level * SLOTS));
            self.wheel_len -= keys.len();
            for key in keys {
                self.insert_wheel(key);
            }
            // Rebasing may have pulled the horizon over overflow entries.
            self.migrate_overflow();
        }
    }
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue for TimingWheel {
    fn push(&mut self, key: EventKey) {
        let t = key.at.as_micros();
        debug_assert!(t >= self.base, "push before the last popped time");
        if self.level_for(t) >= LEVELS {
            self.overflow.insert(key);
        } else {
            self.insert_wheel(key);
        }
    }

    fn peek(&mut self) -> Option<EventKey> {
        // Non-mutating on purpose: a peek that cascades would advance
        // `base` past the engine clock, and a later (legal) push between
        // the two would land behind the wheel. The invariants make the
        // front readable in place: the lowest occupied level's earliest
        // slot holds the global minimum, and every wheel entry precedes
        // every overflow entry.
        if self.wheel_len > 0 {
            let level = (0..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let slot = self.earliest_slot(level)?;
            Some(self.slot_min(level * SLOTS + slot).1)
        } else {
            self.overflow.first().copied()
        }
    }

    fn pop(&mut self) -> Option<EventKey> {
        let flat = self.ensure_front()?;
        let (pos, _) = self.slot_min(flat);
        let key = self.slots[flat].swap_remove(pos);
        if self.slots[flat].is_empty() {
            // `flat` is a level-0 slot, so it is its own bit index.
            self.occupied[0] &= !(1 << flat);
        }
        self.wheel_len -= 1;
        self.base = key.at.as_micros();
        // Advancing `base` may move it into the overflow head's era; a
        // later push could then land in the wheel *behind* a stranded
        // overflow entry. Migrating here keeps the invariant that every
        // wheel entry fires no later than every overflow entry.
        self.migrate_overflow();
        Some(key)
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }
}

// --- Runtime backend selection. ---

/// Which [`EventQueue`] implementation an engine uses. Both produce
/// bit-identical delivery orders; they differ only in speed profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// [`HeapQueue`]: `O(log n)`, the reference baseline.
    #[default]
    Heap,
    /// [`TimingWheel`]: amortised `O(1)` at high occupancy.
    TimingWheel,
}

impl QueueBackend {
    /// Stable lower-case label for tables and configs.
    pub fn label(self) -> &'static str {
        match self {
            QueueBackend::Heap => "heap",
            QueueBackend::TimingWheel => "wheel",
        }
    }
}

/// A queue whose backend is chosen at runtime — the default queue type of
/// [`Engine`](crate::Engine), so cluster configuration can flip backends
/// without changing any types.
pub enum DynQueue {
    /// Binary-heap backend.
    Heap(HeapQueue),
    /// Timing-wheel backend.
    Wheel(TimingWheel),
}

impl DynQueue {
    /// An empty queue on the given backend.
    pub fn new(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::Heap => DynQueue::Heap(HeapQueue::new()),
            QueueBackend::TimingWheel => DynQueue::Wheel(TimingWheel::new()),
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self {
            DynQueue::Heap(_) => QueueBackend::Heap,
            DynQueue::Wheel(_) => QueueBackend::TimingWheel,
        }
    }
}

impl Default for DynQueue {
    fn default() -> Self {
        DynQueue::new(QueueBackend::Heap)
    }
}

impl EventQueue for DynQueue {
    #[inline]
    fn push(&mut self, key: EventKey) {
        match self {
            DynQueue::Heap(q) => q.push(key),
            DynQueue::Wheel(q) => q.push(key),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<EventKey> {
        match self {
            DynQueue::Heap(q) => q.peek(),
            DynQueue::Wheel(q) => q.peek(),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<EventKey> {
        match self {
            DynQueue::Heap(q) => q.pop(),
            DynQueue::Wheel(q) => q.pop(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            DynQueue::Heap(q) => q.len(),
            DynQueue::Wheel(q) => q.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key at `at` µs; the slot mirrors `seq` so tests can check it
    /// travels with the key.
    fn key(at: u64, seq: usize) -> EventKey {
        EventKey {
            at: SimTime::from_micros(at),
            seq: seq as u64,
            slot: seq,
        }
    }

    fn push(q: &mut impl EventQueue, at: u64, seq: usize) {
        q.push(key(at, seq));
    }

    fn drain(q: &mut impl EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|k| {
                assert_eq!(k.slot as u64, k.seq, "slot detached from its key");
                (k.at.as_micros(), k.seq)
            })
            .collect()
    }

    fn both() -> Vec<DynQueue> {
        vec![
            DynQueue::new(QueueBackend::Heap),
            DynQueue::new(QueueBackend::TimingWheel),
        ]
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        for mut q in both() {
            push(&mut q, 30, 0);
            push(&mut q, 10, 1);
            push(&mut q, 10, 2);
            push(&mut q, 20, 3);
            assert_eq!(
                drain(&mut q),
                vec![(10, 1), (10, 2), (20, 3), (30, 0)],
                "{:?}",
                q.backend()
            );
        }
    }

    #[test]
    fn same_instant_fifo_survives_cascades() {
        // Schedule a burst far enough out to land in level >= 1, pop past
        // the cascade boundary, and check the burst stays in seq order.
        for mut q in both() {
            for seq in 0..100 {
                push(&mut q, 5_000, seq);
            }
            push(&mut q, 1, 100);
            let order = drain(&mut q);
            assert_eq!(order[0], (1, 100));
            let burst: Vec<u64> = order[1..].iter().map(|&(_, s)| s).collect();
            assert_eq!(burst, (0..100).collect::<Vec<_>>(), "{:?}", q.backend());
        }
    }

    #[test]
    fn wheel_handles_far_future_overflow() {
        let mut q = TimingWheel::new();
        // Beyond the ~19h horizon: parks in overflow.
        let far = HORIZON + 123;
        push(&mut q, far, 0);
        push(&mut q, 50, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some(key(50, 1)));
        assert_eq!(q.pop(), Some(key(50, 1)));
        // After the near event pops, the far one migrates in on demand.
        assert_eq!(q.pop(), Some(key(far, 0)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn wheel_interleaves_overflow_with_late_pushes() {
        let mut q = TimingWheel::new();
        push(&mut q, HORIZON, 0);
        // Pop nothing yet; push a nearer event, then one between it and
        // the overflow event, and verify global order.
        push(&mut q, 10, 1);
        assert_eq!(q.pop().map(|k| k.seq), Some(1));
        push(&mut q, HORIZON - 5, 2);
        assert_eq!(q.pop().map(|k| k.seq), Some(2));
        assert_eq!(q.pop().map(|k| k.seq), Some(0));
    }

    #[test]
    fn peek_matches_pop() {
        for mut q in both() {
            push(&mut q, 40, 0);
            push(&mut q, 20, 1);
            push(&mut q, 2 * HORIZON, 2);
            while let Some(front) = q.peek() {
                assert_eq!(q.pop(), Some(front));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut q = TimingWheel::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        assert!(q.pop().is_none());
    }
}
