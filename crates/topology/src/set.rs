//! A compact bitset over process indices.
//!
//! The `msg_exchange` communication pattern (Algorithm 1 of the paper)
//! maintains `supporters[v]` sets and repeatedly unions whole clusters into
//! them ("one for all"). [`ProcessSet`] makes those unions word-wise `OR`s.

use crate::ProcessId;
use std::fmt;

const WORD_BITS: usize = 64;

/// A set of process indices backed by a `u64` bitmap.
///
/// All sets produced by one [`crate::Partition`] share the same universe
/// size `n`; set operations between sets of different universes panic in
/// debug builds and behave as if the smaller universe were padded with
/// zeros in release builds.
///
/// # Examples
///
/// ```
/// use ofa_topology::{ProcessId, ProcessSet};
///
/// let mut s = ProcessSet::empty(7);
/// s.insert(ProcessId(1));
/// s.insert(ProcessId(4));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId(4)));
/// assert!(!s.is_majority_of(7)); // needs at least 4 of 7
/// ```
///
/// Serialized as `{"n": universe, "members": [indices…]}`.
#[derive(Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[serde(try_from = "Members", into = "Members")]
pub struct ProcessSet {
    n: usize,
    words: Vec<u64>,
}

impl ProcessSet {
    /// Creates an empty set over a universe of `n` processes.
    pub fn empty(n: usize) -> Self {
        let nwords = n.div_ceil(WORD_BITS);
        ProcessSet {
            n,
            words: vec![0; nwords.max(1)],
        }
    }

    /// Creates the full set `{p_1, …, p_n}` (0-based `{0, …, n-1}`).
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for i in 0..n {
            s.insert(ProcessId(i));
        }
        s
    }

    /// Creates a singleton set `{p}`.
    pub fn singleton(n: usize, p: ProcessId) -> Self {
        let mut s = Self::empty(n);
        s.insert(p);
        s
    }

    /// Builds a set from 0-based indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= n`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, iter: I) -> Self {
        let mut s = Self::empty(n);
        for i in iter {
            s.insert(ProcessId(i));
        }
        s
    }

    /// The universe size this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `p`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= universe()`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(p.index() < self.n, "{p} out of universe of size {}", self.n);
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        if p.index() >= self.n {
            return false;
        }
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        if p.index() >= self.n {
            return false;
        }
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Strict-majority test: `|self| > total / 2` (the paper's `> n/2`).
    ///
    /// # Examples
    ///
    /// ```
    /// use ofa_topology::ProcessSet;
    /// assert!(ProcessSet::from_indices(4, [0, 1, 2]).is_majority_of(4));
    /// assert!(!ProcessSet::from_indices(4, [0, 1]).is_majority_of(4));
    /// ```
    #[inline]
    pub fn is_majority_of(&self, total: usize) -> bool {
        2 * self.len() > total
    }

    /// In-place union (`self ∪= other`). This is the "one for all"
    /// amplification step: adding a whole cluster at once.
    pub fn union_with(&mut self, other: &ProcessSet) {
        debug_assert_eq!(self.n, other.n, "universe mismatch in union");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// In-place intersection (`self ∩= other`).
    pub fn intersect_with(&mut self, other: &ProcessSet) {
        debug_assert_eq!(self.n, other.n, "universe mismatch in intersection");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
        for w in self.words.iter_mut().skip(other.words.len()) {
            *w = 0;
        }
    }

    /// In-place difference (`self \= other`).
    pub fn subtract(&mut self, other: &ProcessSet) {
        debug_assert_eq!(self.n, other.n, "universe mismatch in difference");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self \ other` as a new set.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.subtract(&other.clone());
        out
    }

    /// The complement within the universe.
    pub fn complement(&self) -> ProcessSet {
        let mut out = ProcessSet::full(self.n);
        out.subtract(self);
        out
    }

    /// `true` if the two sets share no element.
    pub fn is_disjoint(&self, other: &ProcessSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter().chain(std::iter::repeat(&0)))
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<ProcessId> {
        self.iter().next()
    }
}

/// Iterator over the members of a [`ProcessSet`] (produced by
/// [`ProcessSet::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a ProcessSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(ProcessId(self.word * WORD_BITS + b));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

/// The encoded form of a [`ProcessSet`].
#[derive(serde::Serialize, serde::Deserialize)]
struct Members {
    n: usize,
    members: Vec<usize>,
}

impl From<ProcessSet> for Members {
    fn from(s: ProcessSet) -> Members {
        let members = s.iter().map(|p| p.index()).collect();
        Members { n: s.n, members }
    }
}

impl TryFrom<Members> for ProcessSet {
    type Error = String;

    fn try_from(Members { n, members }: Members) -> Result<Self, String> {
        match members.iter().find(|&&i| i >= n) {
            Some(i) => Err(format!("ProcessSet: member {i} out of universe {n}")),
            None => Ok(ProcessSet::from_indices(n, members)),
        }
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, p) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = ProcessSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = ProcessSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(ProcessId(69)));
        assert!(!f.contains(ProcessId(70)));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::empty(100);
        assert!(s.insert(ProcessId(99)));
        assert!(!s.insert(ProcessId(99)));
        assert!(s.contains(ProcessId(99)));
        assert!(s.remove(ProcessId(99)));
        assert!(!s.remove(ProcessId(99)));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        ProcessSet::empty(4).insert(ProcessId(4));
    }

    #[test]
    fn union_amplification_shape() {
        // Receiving from p2 of cluster {p2,p3,p4,p5} credits the whole cluster.
        let mut sup = ProcessSet::singleton(7, ProcessId(0));
        let cluster = ProcessSet::from_indices(7, [1, 2, 3, 4]);
        sup.union_with(&cluster);
        assert_eq!(sup.len(), 5);
        assert!(sup.is_majority_of(7));
    }

    #[test]
    fn strict_majority_boundary() {
        // n = 6: 3 is NOT a majority, 4 is.
        assert!(!ProcessSet::from_indices(6, [0, 1, 2]).is_majority_of(6));
        assert!(ProcessSet::from_indices(6, [0, 1, 2, 3]).is_majority_of(6));
        // n = 7: 4 is a majority.
        assert!(ProcessSet::from_indices(7, [0, 1, 2, 3]).is_majority_of(7));
    }

    #[test]
    fn set_algebra() {
        let a = ProcessSet::from_indices(10, [0, 1, 2, 3]);
        let b = ProcessSet::from_indices(10, [2, 3, 4, 5]);
        assert_eq!(a.intersection(&b), ProcessSet::from_indices(10, [2, 3]));
        assert_eq!(
            a.union(&b),
            ProcessSet::from_indices(10, [0, 1, 2, 3, 4, 5])
        );
        assert_eq!(a.difference(&b), ProcessSet::from_indices(10, [0, 1]));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn complement_partitions_universe() {
        let a = ProcessSet::from_indices(9, [0, 4, 8]);
        let c = a.complement();
        assert!(a.is_disjoint(&c));
        assert_eq!(a.union(&c), ProcessSet::full(9));
    }

    #[test]
    fn iteration_in_order_across_words() {
        let s = ProcessSet::from_indices(130, [0, 63, 64, 129]);
        let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 129]);
        assert_eq!(s.first(), Some(ProcessId(0)));
    }

    #[test]
    fn display_matches_paper_style() {
        let s = ProcessSet::from_indices(7, [1, 2, 3, 4]);
        assert_eq!(s.to_string(), "{p2,p3,p4,p5}");
    }

    #[test]
    fn two_majorities_always_intersect() {
        // The intersection property the paper's WA1/WA2 arguments rely on.
        for n in 1..=64usize {
            for _ in 0..20 {
                // deterministic pseudo-random subsets via a simple LCG
                let mut x = (n as u64) * 2654435761 + 12345;
                let mut nxt = || {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x
                };
                let mut a = ProcessSet::empty(n);
                let mut b = ProcessSet::empty(n);
                for i in 0..n {
                    if nxt() % 2 == 0 {
                        a.insert(ProcessId(i));
                    }
                    if nxt() % 2 == 0 {
                        b.insert(ProcessId(i));
                    }
                }
                if a.is_majority_of(n) && b.is_majority_of(n) {
                    assert!(!a.is_disjoint(&b), "majorities must intersect (n={n})");
                }
            }
        }
    }
}
