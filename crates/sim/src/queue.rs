//! A shard's pending events: a calendar of integer-tick buckets.
//!
//! Virtual time is whole ticks, and almost everything a shard schedules
//! lands within a few thousand ticks of the event that scheduled it (a
//! message delay plus a broadcast's send spacing). So instead of a binary
//! heap keyed by `(at, EventKey)`, the queue keeps a **ring** of
//! [`SPAN`] buckets, one per tick of the window `[now, now + SPAN)`
//! (bucket `t & MASK` holds tick `t`), and an **overflow** heap for the
//! rare entry beyond it (a long delay, a far timed crash or rejoin).
//! Brown, "Calendar queues", CACM 1988, with one bucket per tick.
//!
//! A bucket holds 32-byte handles — the [`EventKey`] packed into one
//! `u128` in the same order, the slot of the event's payload and a kind
//! tag, both the caller's. The queue never looks at a payload: the
//! caller keeps them in a [`Slab`] (a free-listed vector) or an arena of
//! its own and names the slot at push, and tags each handle with what it
//! stands for, so that it can classify a tick by the tags alone.
//!
//! # Why it pops in exactly `BinaryHeap<Keyed<_>>` order
//!
//! 1. Every entry is in the bucket of its own tick, or — at or past
//!    `now + SPAN` — in the overflow, which therefore only ever holds
//!    entries later than all of the ring's.
//! 2. The next tick is the first non-empty bucket from `now` on (one
//!    occupancy bit per bucket), or the overflow's minimum if the ring is
//!    empty.
//! 3. A tick becomes **current** only when the caller pops from it:
//!    the window slides to it, the overflow entries now inside the window
//!    move into their buckets, and then the bucket is sorted by packed key
//!    once (descending, the next event last). The sort is stable and
//!    run-adaptive; a bucket is a concatenation of the ascending runs that
//!    earlier ticks pushed.
//! 4. The current bucket stays sorted: a push at the current tick is
//!    inserted in place, and a push *before* it — which the event loop
//!    never makes, but a heap would accept — rewinds the window, moving
//!    what falls past its new end to the overflow (O(len), counted in
//!    `QueueStats::rewinds` in tests).
//! 5. Re-keying the next event ([`Calendar::rekey_next`], a lazy
//!    broadcast moving on to its next destination) leaves the handle where
//!    it is only while it still sorts before the tick's next handle;
//!    otherwise it is taken out and pushed again.
//!
//! Reading the next tick ([`Calendar::next_at`], and [`Calendar::first`]
//! past its bound) never makes it current, so a shard stopped at an
//! epoch barrier has not committed to its own next event: a cross-shard
//! arrival that lands before it is an ordinary push.
//!
//! # Taking a tick whole, unsorted
//!
//! Step 3 is for a caller that pops in order. One that does not need the
//! order inside a tick opens it instead ([`Calendar::open`]: the window
//! slides to it and the overflow entries move in, as in step 3, but it is
//! neither sorted nor current), and then either takes all its handles at
//! once, in no particular order ([`Calendar::take_tick`]: the tick
//! becomes current and empty, and is never sorted), or pops it as usual
//! ([`Calendar::first`] makes it current). Either way nothing is taken
//! out of order *between* ticks. The caller must not push to a tick it
//! took whole: the event loop only takes ticks nothing can land on.

use crate::conductor::EventKey;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many consecutive ticks the ring covers. A power of two; wider
/// than a sampled default delay (≤ 1 500 ticks) plus a 1 000-member
/// broadcast's send spacing, so the CLI-default path never overflows.
pub(crate) const SPAN: u64 = 1 << 12;
const MASK: u64 = SPAN - 1;
const WORDS: usize = (SPAN / 64) as usize;

/// A bucket this close to the current tick is about to take a tick's
/// worth of events (the CLI-default path re-queues most lazy broadcasts
/// a tick or two ahead): when it must grow it takes the spare buffer, if
/// there is one, instead of doubling up to that size. Buckets further
/// out mostly hold a few.
const NEAR: u64 = 8;

/// Packs an [`EventKey`] into one word that compares the same way:
/// `class | from | k | to`, most significant first.
fn pack(key: EventKey) -> u128 {
    debug_assert!(key.class <= 1 && key.from < 1 << 31 && key.to < 1 << 31);
    u128::from(key.class) << 127
        | u128::from(key.from) << 96
        | u128::from(key.k) << 32
        | u128::from(key.to)
}

fn unpack(w: u128) -> EventKey {
    EventKey {
        class: (w >> 127) as u8,
        from: (w >> 96) as u32 & (u32::MAX >> 1),
        k: (w >> 32) as u64,
        to: w as u32,
    }
}

/// A pending event as a bucket holds it: its key, packed; the slot its
/// payload sits in, which the queue never looks at (the caller's
/// [`Slab`], or an arena of its own); and the caller's tag for what kind
/// of event it is, so a tick can be classified without touching any
/// payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Handle<K> {
    key: u128,
    pub(crate) slot: u32,
    pub(crate) kind: K,
}

impl<K> Handle<K> {
    pub(crate) fn key(&self) -> EventKey {
        unpack(self.key)
    }
}

/// What the queue did, for the tests that pin it.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct QueueStats {
    /// Pushes (and re-keys) that landed beyond the ring's window.
    pub(crate) overflow_pushes: u64,
    /// Ticks made current.
    pub(crate) ticks: u64,
    /// Pushes before the current tick.
    pub(crate) rewinds: u64,
}

/// The queue: hands out its events earliest-first by `(at, key)`.
#[derive(Debug)]
pub(crate) struct Calendar<K> {
    /// `ring[t & MASK]`: the handles of the events at tick `t`, for every
    /// `t` in `[now, now + SPAN)`. Emptied buckets give their buffer back.
    ring: Vec<Vec<Handle<K>>>,
    /// One bit per bucket, set iff it holds a handle.
    occupied: [u64; WORDS],
    /// The last emptied bucket buffer, for a bucket of the next [`NEAR`]
    /// ticks.
    spare: Option<Vec<Handle<K>>>,
    /// Events at or past `now + SPAN`, earliest first.
    overflow: BinaryHeap<Reverse<(u64, u128, u32, K)>>,
    now: u64,
    /// Whether `now` is current: its bucket is sorted, next event last.
    current: bool,
    len: usize,
    #[cfg(test)]
    pub(crate) stats: QueueStats,
}

impl<K: Copy + Ord> Calendar<K> {
    pub(crate) fn new() -> Self {
        Calendar {
            ring: vec![Vec::new(); SPAN as usize],
            occupied: [0; WORDS],
            spare: None,
            overflow: BinaryHeap::new(),
            now: 0,
            current: false,
            len: 0,
            #[cfg(test)]
            stats: QueueStats::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues the event at `(at, key)` whose payload sits in `slot`.
    pub(crate) fn push(&mut self, at: u64, key: EventKey, slot: u32, kind: K) {
        self.len += 1;
        let key = pack(key);
        self.place(at, Handle { key, slot, kind });
    }

    fn place(&mut self, at: u64, h: Handle<K>) {
        if at < self.now {
            self.rewind(at);
        }
        if at - self.now >= SPAN {
            #[cfg(test)]
            {
                self.stats.overflow_pushes += 1;
            }
            self.overflow.push(Reverse((at, h.key, h.slot, h.kind)));
            return;
        }
        let i = (at & MASK) as usize;
        let bucket = &mut self.ring[i];
        if bucket.len() == bucket.capacity() && at - self.now < NEAR {
            let larger = |spare: &mut Vec<_>| spare.capacity() > bucket.len();
            if let Some(mut spare) = self.spare.take_if(larger) {
                spare.append(bucket);
                *bucket = spare;
            }
        }
        if at == self.now && self.current {
            let pos = bucket.partition_point(|o| o.key > h.key);
            bucket.insert(pos, h);
        } else {
            bucket.push(h);
        }
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// Slides the window back to `at`: what falls past its new end moves
    /// to the overflow, and `at` is not current until popped from.
    #[cold]
    fn rewind(&mut self, at: u64) {
        #[cfg(test)]
        {
            self.stats.rewinds += 1;
        }
        for i in 0..self.ring.len() {
            let t = self.tick_of(i);
            if t - at >= SPAN && !self.ring[i].is_empty() {
                let far = (self.ring[i].drain(..)).map(|h| Reverse((t, h.key, h.slot, h.kind)));
                self.overflow.extend(far);
                self.vacate(i);
            }
        }
        self.now = at;
        self.current = false;
    }

    /// The tick ring bucket `i` holds.
    fn tick_of(&self, i: usize) -> u64 {
        self.now + ((i as u64).wrapping_sub(self.now) & MASK)
    }

    /// Clears an emptied bucket's bit, and keeps its buffer as the spare.
    fn vacate(&mut self, i: usize) {
        let emptied = std::mem::take(&mut self.ring[i]);
        self.recycle(emptied);
        self.occupied[i / 64] &= !(1 << (i % 64));
    }

    /// Keeps an emptied bucket buffer as the spare, freeing the one
    /// before.
    pub(crate) fn recycle(&mut self, mut bucket: Vec<Handle<K>>) {
        if bucket.capacity() > 0 {
            bucket.clear();
            self.spare = Some(bucket);
        }
    }

    /// The earliest pending tick, without making it current.
    pub(crate) fn next_at(&self) -> Option<u64> {
        let start = (self.now & MASK) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let mut bits = self.occupied[w0] & (!0 << b0);
        for step in 0..=WORDS {
            let w = (w0 + step) % WORDS;
            if step > 0 {
                bits = self.occupied[w];
                if step == WORDS {
                    // Back at the start word: only the buckets before
                    // `start`, which hold the ticks furthest out.
                    bits &= !(!0 << b0);
                }
            }
            if bits != 0 {
                return Some(self.tick_of(w * 64 + bits.trailing_zeros() as usize));
            }
        }
        self.overflow.peek().map(|&Reverse((at, ..))| at)
    }

    /// Whether the current tick still holds events: it was made current
    /// (sorted) and not yet popped empty.
    fn mid_tick(&self) -> bool {
        self.current && !self.ring[(self.now & MASK) as usize].is_empty()
    }

    /// The next event's tick and handle, if it lands before `t_end` —
    /// which makes that tick current (see the module docs); the caller
    /// pops from it.
    pub(crate) fn first(&mut self, t_end: u64) -> Option<(u64, Handle<K>)> {
        if self.mid_tick() {
            if self.now >= t_end {
                return None;
            }
        } else {
            let at = self.next_at().filter(|&at| at < t_end)?;
            self.advance(at);
        }
        let top = self.ring[(self.now & MASK) as usize]
            .last()
            .expect("the current tick holds the next event");
        Some((self.now, *top))
    }

    /// Moves the window to `at`, the earliest pending tick: the overflow
    /// entries now inside it go to their buckets. `at` is not current.
    fn slide(&mut self, at: u64) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.current = false;
        while let Some(&Reverse((t, key, slot, kind))) = self.overflow.peek() {
            if t - at >= SPAN {
                break;
            }
            self.overflow.pop();
            let i = (t & MASK) as usize;
            self.ring[i].push(Handle { key, slot, kind });
            self.occupied[i / 64] |= 1 << (i % 64);
        }
    }

    /// Makes `at` — the earliest pending tick — current.
    fn advance(&mut self, at: u64) {
        self.slide(at);
        self.current = true;
        #[cfg(test)]
        {
            self.stats.ticks += 1;
        }
        self.ring[(at & MASK) as usize].sort_by_key(|h| Reverse(h.key));
    }

    /// Removes the next event (made current by [`Calendar::first`]).
    pub(crate) fn pop(&mut self) -> Option<(u64, Handle<K>)> {
        let at = self.first(u64::MAX)?.0;
        let i = (at & MASK) as usize;
        let h = self.ring[i].pop().expect("first() found it");
        if self.ring[i].is_empty() {
            self.vacate(i);
        }
        self.len -= 1;
        Some((at, h))
    }

    /// Moves the next event (made current by [`Calendar::first`]) to
    /// `(at, key)`, which must not sort before where it is.
    pub(crate) fn rekey_next(&mut self, at: u64, key: EventKey) {
        let i = (self.now & MASK) as usize;
        let key = pack(key);
        let bucket = &mut self.ring[i];
        let n = bucket.len();
        debug_assert!(self.current && n > 0, "re-key without a current event");
        debug_assert!(
            (at, key) >= (self.now, bucket[n - 1].key),
            "re-key backwards"
        );
        if at == self.now && (n == 1 || key < bucket[n - 2].key) {
            bucket[n - 1].key = key;
            return;
        }
        let mut h = bucket.pop().expect("checked non-empty");
        if bucket.is_empty() {
            self.vacate(i);
        }
        h.key = key;
        self.place(at, h);
    }

    /// Opens the next tick before `t_end`, unless the current one still
    /// holds events: the window slides to it, but it is not current yet.
    /// The caller then either takes it whole ([`Calendar::take_tick`]) or
    /// pops it in order ([`Calendar::first`] makes it current).
    pub(crate) fn open(&mut self, t_end: u64) -> Option<u64> {
        if self.mid_tick() {
            return None;
        }
        let at = self.next_at().filter(|&at| at < t_end)?;
        self.slide(at);
        Some(at)
    }

    /// Takes every event of the tick [`Calendar::open`] just opened, in
    /// no particular order — without the sort. The tick is current, and
    /// empty: the caller must not push to it. (The bucket's buffer goes
    /// with the events; [`Calendar::recycle`] takes it back.)
    pub(crate) fn take_tick(&mut self) -> Vec<Handle<K>> {
        debug_assert!(!self.current, "take an open tick");
        let i = (self.now & MASK) as usize;
        let tick = std::mem::take(&mut self.ring[i]);
        self.occupied[i / 64] &= !(1 << (i % 64));
        self.len -= tick.len();
        self.current = true;
        #[cfg(test)]
        {
            self.stats.ticks += 1;
        }
        tick
    }

    /// Every pending event, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Handle<K>)> + '_ {
        let ring = self.ring.iter().enumerate().flat_map(move |(i, bucket)| {
            let at = self.tick_of(i);
            bucket.iter().map(move |&h| (at, h))
        });
        let far = (self.overflow.iter())
            .map(|&Reverse((at, key, slot, kind))| (at, Handle { key, slot, kind }));
        ring.chain(far)
    }
}

/// Payloads by slot, with a free list: where a handle's `slot` points.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// `None` marks a slot listed in `free`.
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.items[slot as usize] = Some(item);
                slot
            }
            None => {
                self.items.push(Some(item));
                u32::try_from(self.items.len() - 1).expect("fewer than 2^32 pending events")
            }
        }
    }

    pub(crate) fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.items[slot as usize]
            .take()
            .expect("handles point at live slots")
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    fn index(&self, slot: u32) -> &T {
        self.items[slot as usize]
            .as_ref()
            .expect("handles point at live slots")
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, slot: u32) -> &mut T {
        self.items[slot as usize]
            .as_mut()
            .expect("handles point at live slots")
    }
}

#[cfg(test)]
mod tests {
    use super::{pack, unpack, Calendar, Slab, SPAN};
    use crate::conductor::{EventKey, Keyed};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    #[test]
    fn packed_keys_keep_the_key_order() {
        let keys = [
            EventKey::crash(ofa_topology::ProcessId(5)),
            EventKey::rejoin(ofa_topology::ProcessId(5)),
            EventKey {
                class: 1,
                from: 0,
                k: u64::MAX,
                to: (1 << 31) - 1,
            },
            EventKey {
                class: 1,
                from: 1,
                k: 0,
                to: 0,
            },
            EventKey {
                class: 1,
                from: (1 << 31) - 1,
                k: 7,
                to: 3,
            },
        ];
        for a in keys {
            assert_eq!(unpack(pack(a)), a);
            for b in keys {
                assert_eq!(pack(a).cmp(&pack(b)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// One step of a random schedule, as the proptest draws it.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// An event `dt` ticks after the last pop (`back`: before it).
        Push {
            dt: u64,
            back: bool,
            from: u32,
        },
        Pop,
        /// Re-key the next event to the same instant, a later key.
        Again {
            dk: u64,
        },
        /// Re-key the next event `dt > 0` ticks later.
        Later {
            dt: u64,
        },
        /// Look at the next event only if it lands within `dt` ticks.
        Peek {
            dt: u64,
        },
        /// Open the next tick unless one is current; take it whole if
        /// `take`, else leave it for the pops.
        Open {
            take: bool,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..16, 0u64..SPAN * 3, 0u32..4).prop_map(|(kind, x, from)| match kind {
            // Mostly near pushes (the same tick and the next few), some
            // across the ring, some past its end.
            0..=3 => Op::Push {
                dt: x % 8,
                back: false,
                from,
            },
            4 | 5 => Op::Push {
                dt: x,
                back: false,
                from,
            },
            6 => Op::Push {
                dt: x % 5,
                back: from == 0,
                from,
            },
            7..=10 => Op::Pop,
            11 | 12 => Op::Again { dk: x % 3 },
            13 => Op::Later { dt: 1 + x % 9 },
            14 => Op::Later { dt: 1 + x },
            15 if x % 3 == 0 => Op::Open { take: x % 2 == 0 },
            _ => Op::Peek { dt: x % 16 },
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The calendar pops exactly what `BinaryHeap<Keyed<_>>` pops, in
        /// the same order, through pushes at, near, across and beyond
        /// the ring, pushes before the current tick, both kinds of re-key
        /// of the next event, and ticks opened and left or taken whole
        /// (which takes exactly the heap's events at that tick).
        #[test]
        fn pops_exactly_as_the_binary_heap_does(ops in proptest::collection::vec(op(), 1..400)) {
            let mut cal: Calendar<()> = Calendar::new();
            let mut heap: BinaryHeap<Keyed<u32>> = BinaryHeap::new();
            // `to` numbers the pushes, so every key is distinct and the
            // pop order is total.
            let mut id: u32 = 0;
            let mut last = 5 * SPAN;
            let mut fresh = |from: u32, k: u64| {
                id += 1;
                EventKey { class: u8::from(from != 0), from, k, to: id }
            };
            for op in ops {
                match op {
                    Op::Push { dt, back, from } => {
                        let at = if back { last - dt - 1 } else { last + dt };
                        let key = fresh(from, u64::from(from) * 3);
                        cal.push(at, key, key.to, ());
                        heap.push(Keyed { at, key, ev: key.to });
                    }
                    Op::Pop => {
                        let got = cal.pop().map(|(at, h)| (at, h.key(), h.slot));
                        let want = heap.pop().map(|e| (e.at, e.key, e.ev));
                        prop_assert_eq!(got, want);
                        if let Some((at, ..)) = want {
                            last = at;
                        }
                    }
                    Op::Again { .. } | Op::Later { .. } => {
                        let Some(mut top) = heap.peek_mut() else {
                            prop_assert!(cal.first(u64::MAX).is_none());
                            continue;
                        };
                        let (at, key) = match op {
                            Op::Again { dk } => (top.at, fresh(top.key.from, top.key.k + dk)),
                            Op::Later { dt } => (top.at + dt, fresh(top.key.from, top.key.k)),
                            _ => unreachable!(),
                        };
                        let (seen, h) = cal.first(u64::MAX).expect("both non-empty");
                        prop_assert_eq!((seen, h.slot), (top.at, top.ev));
                        cal.rekey_next(at, key);
                        (top.at, top.key) = (at, key);
                        drop(top);
                    }
                    Op::Peek { dt } => {
                        let t_end = last + dt;
                        let want = heap.peek().filter(|e| e.at < t_end).map(|e| (e.at, e.ev));
                        prop_assert_eq!(cal.first(t_end).map(|(at, h)| (at, h.slot)), want);
                    }
                    Op::Open { take } => {
                        let Some(at) = cal.open(u64::MAX) else {
                            continue;
                        };
                        prop_assert_eq!(Some(at), heap.peek().map(|e| e.at));
                        if take {
                            let mut got: Vec<_> =
                                cal.take_tick().iter().map(|h| (h.key(), h.slot)).collect();
                            let (mut want, rest): (Vec<_>, Vec<_>) =
                                heap.drain().map(|e| (e.at, e.key, e.ev)).partition(|e| e.0 == at);
                            heap.extend(rest.into_iter().map(|(at, key, ev)| Keyed { at, key, ev }));
                            got.sort_unstable();
                            want.sort_unstable();
                            let want: Vec<_> = want.into_iter().map(|(_, key, ev)| (key, ev)).collect();
                            prop_assert_eq!(got, want);
                            last = at;
                        }
                    }
                }
                prop_assert_eq!(cal.len(), heap.len());
                prop_assert_eq!(cal.next_at(), heap.peek().map(|e| e.at));
                let mut all: Vec<_> = cal.iter().map(|(at, h)| (at, h.key(), h.slot)).collect();
                let mut want: Vec<_> = heap.iter().map(|e| (e.at, e.key, e.ev)).collect();
                all.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(all, want);
            }
            while let Some(want) = heap.pop() {
                let (at, h) = cal.pop().expect("as long as the heap");
                prop_assert_eq!((at, h.key(), h.slot), (want.at, want.key, want.ev));
            }
            prop_assert!(cal.pop().is_none() && cal.len() == 0);
        }
    }

    #[test]
    fn reading_the_next_tick_does_not_make_it_current() {
        let key = |to| EventKey {
            class: 1,
            from: 2,
            k: 9,
            to,
        };
        let mut cal: Calendar<()> = Calendar::new();
        cal.push(100, key(1), 1, ());
        assert_eq!(cal.first(100).map(|(at, _)| at), None);
        assert!(cal.open(100).is_none());
        assert_eq!(cal.next_at(), Some(100));
        assert_eq!(cal.stats.ticks, 0);
        // An arrival before it is an ordinary push, not a rewind.
        cal.push(60, key(2), 2, ());
        assert_eq!(cal.pop().map(|(at, h)| (at, h.slot)), Some((60, 2)));
        assert_eq!(cal.pop().map(|(at, h)| (at, h.slot)), Some((100, 1)));
        assert_eq!((cal.stats.ticks, cal.stats.rewinds), (2, 0));
    }

    #[test]
    fn a_slab_reuses_freed_slots() {
        let mut slab = Slab::new();
        let (a, b) = (slab.insert('a'), slab.insert('b'));
        assert_eq!(slab.take(a), 'a');
        let c = slab.insert('c');
        assert_eq!((c, slab[c], slab[b]), (a, 'c', 'b'));
    }
}
