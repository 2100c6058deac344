//! Cluster partitions of the process set (§II-A of the paper).
//!
//! The `n` processes are partitioned into `m` non-empty clusters
//! `P[1] … P[m]`; each cluster owns one shared memory `MEM_x`. A process
//! knows the whole partition; the paper's `cluster(i)` function is
//! [`Partition::cluster_members_of`].

use crate::{ClusterId, ProcessId, ProcessSet, TopologyError};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated partition of `{p_1, …, p_n}` into `m` non-empty clusters.
///
/// # Examples
///
/// ```
/// use ofa_topology::{ClusterId, Partition, ProcessId};
///
/// // The right-hand decomposition of Figure 1: {p1} {p2..p5} {p6,p7}.
/// let part = Partition::fig1_right();
/// assert_eq!(part.n(), 7);
/// assert_eq!(part.m(), 3);
/// assert_eq!(part.cluster_of(ProcessId(3)), ClusterId(1));
/// assert!(part.cluster(ClusterId(1)).is_majority_of(part.n()));
/// ```
///
/// Serialized as the per-process cluster assignment `[c_1, …, c_n]`
/// (0-based cluster ids), the most compact lossless encoding, and
/// validated on read.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "Vec<usize>", into = "Vec<usize>")]
pub struct Partition {
    n: usize,
    clusters: Vec<ProcessSet>,
    cluster_of: Vec<ClusterId>,
}

impl Partition {
    /// Builds a partition from explicit member lists (0-based indices).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if a cluster is empty, a process is
    /// duplicated or missing, or an index is out of range.
    pub fn from_sets<I, J>(n: usize, sets: I) -> Result<Self, TopologyError>
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = usize>,
    {
        if n == 0 {
            return Err(TopologyError::NoProcesses);
        }
        let mut clusters = Vec::new();
        let mut cluster_of: Vec<Option<ClusterId>> = vec![None; n];
        for (x, members) in sets.into_iter().enumerate() {
            let mut set = ProcessSet::empty(n);
            let mut any = false;
            for i in members {
                if i >= n {
                    return Err(TopologyError::OutOfRange { process: i, n });
                }
                if cluster_of[i].is_some() {
                    return Err(TopologyError::Overlap { process: i });
                }
                cluster_of[i] = Some(ClusterId(x));
                set.insert(ProcessId(i));
                any = true;
            }
            if !any {
                return Err(TopologyError::EmptyCluster { cluster: x });
            }
            clusters.push(set);
        }
        let mut assignment = Vec::with_capacity(n);
        for (i, c) in cluster_of.into_iter().enumerate() {
            match c {
                Some(c) => assignment.push(c),
                None => return Err(TopologyError::Uncovered { process: i }),
            }
        }
        if clusters.is_empty() {
            return Err(TopologyError::NoProcesses);
        }
        Ok(Partition {
            n,
            clusters,
            cluster_of: assignment,
        })
    }

    /// Builds a partition from a per-process cluster assignment.
    ///
    /// `assignment[i]` is the 0-based cluster of process `i`; cluster ids
    /// must form a contiguous range `0..m`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyCluster`] if some id in `0..m` has no
    /// member, or [`TopologyError::NoProcesses`] for an empty assignment.
    pub fn from_assignment(assignment: &[usize]) -> Result<Self, TopologyError> {
        if assignment.is_empty() {
            return Err(TopologyError::NoProcesses);
        }
        let n = assignment.len();
        let m = assignment.iter().copied().max().unwrap() + 1;
        let mut sets: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, &x) in assignment.iter().enumerate() {
            sets[x].push(i);
        }
        Self::from_sets(n, sets)
    }

    /// Contiguous blocks with the given sizes: `sizes = [3, 2, 2]` yields
    /// `{p1,p2,p3} {p4,p5} {p6,p7}`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyCluster`] on a zero size and
    /// [`TopologyError::NoProcesses`] on an empty list.
    pub fn from_sizes(sizes: &[usize]) -> Result<Self, TopologyError> {
        if sizes.is_empty() {
            return Err(TopologyError::NoProcesses);
        }
        if let Some(x) = sizes.iter().position(|&s| s == 0) {
            return Err(TopologyError::EmptyCluster { cluster: x });
        }
        let n: usize = sizes.iter().sum();
        let mut start = 0usize;
        let mut sets = Vec::with_capacity(sizes.len());
        for &s in sizes {
            sets.push((start..start + s).collect::<Vec<_>>());
            start += s;
        }
        Self::from_sets(n, sets)
    }

    /// One cluster per process (`m = n`): the classical message-passing
    /// model (§II-A "extreme configurations").
    pub fn singletons(n: usize) -> Self {
        Self::from_sizes(&vec![1; n]).expect("n >= 1 required")
    }

    /// A single cluster (`m = 1`): the classical shared-memory model.
    pub fn single_cluster(n: usize) -> Self {
        Self::from_sizes(&[n]).expect("n >= 1 required")
    }

    /// `m` contiguous clusters of near-even size (first `n % m` clusters get
    /// one extra process).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > n`.
    pub fn even(n: usize, m: usize) -> Self {
        assert!(m >= 1 && m <= n, "need 1 <= m <= n (got m={m}, n={n})");
        let base = n / m;
        let extra = n % m;
        let sizes: Vec<usize> = (0..m).map(|x| base + usize::from(x < extra)).collect();
        Self::from_sizes(&sizes).expect("sizes are positive")
    }

    /// The left-hand decomposition of the paper's Figure 1
    /// (`n = 7`, `m = 3`): `{p1,p2,p3} {p4,p5} {p6,p7}`.
    pub fn fig1_left() -> Self {
        Self::from_sizes(&[3, 2, 2]).expect("static sizes")
    }

    /// The right-hand decomposition of the paper's Figure 1
    /// (`n = 7`, `m = 3`): `{p1} {p2,p3,p4,p5} {p6,p7}` — the conclusion's
    /// majority-cluster example (`P[2]` holds 4 of 7 processes).
    pub fn fig1_right() -> Self {
        Self::from_sizes(&[1, 4, 2]).expect("static sizes")
    }

    /// Random assignment of `n` processes to `m` clusters, guaranteed
    /// non-empty (the first `m` processes seed one cluster each, the rest
    /// are assigned uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > n`.
    pub fn random<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Self {
        assert!(m >= 1 && m <= n, "need 1 <= m <= n (got m={m}, n={n})");
        let mut assignment = vec![0usize; n];
        // Seed every cluster with one process so none is empty, then place
        // the remaining processes uniformly at random.
        let mut seeds: Vec<usize> = (0..n).collect();
        for x in 0..m {
            let k = rng.gen_range(x..n);
            seeds.swap(x, k);
            assignment[seeds[x]] = x;
        }
        for &i in seeds.iter().skip(m) {
            assignment[i] = rng.gen_range(0..m);
        }
        Self::from_assignment(&assignment).expect("assignment covers 0..m")
    }

    /// Number of processes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of clusters `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.clusters.len()
    }

    /// The member set of cluster `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.index() >= m`.
    #[inline]
    pub fn cluster(&self, x: ClusterId) -> &ProcessSet {
        &self.clusters[x.index()]
    }

    /// The cluster that process `i` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `i.index() >= n`.
    #[inline]
    pub fn cluster_of(&self, i: ProcessId) -> ClusterId {
        self.cluster_of[i.index()]
    }

    /// The paper's `cluster(i)` function: the set of processes composing
    /// the cluster to which `p_i` belongs (including `p_i` itself).
    #[inline]
    pub fn cluster_members_of(&self, i: ProcessId) -> &ProcessSet {
        &self.clusters[self.cluster_of(i).index()]
    }

    /// Iterates over `(ClusterId, members)` pairs.
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &ProcessSet)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(x, s)| (ClusterId(x), s))
    }

    /// Iterates over all process ids `p_1 … p_n`.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.n).map(ProcessId)
    }

    /// Cluster sizes, in cluster order.
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(|s| s.len()).collect()
    }

    /// `true` if some single cluster holds a strict majority of processes.
    pub fn has_majority_cluster(&self) -> bool {
        self.clusters.iter().any(|s| s.is_majority_of(self.n))
    }
}

impl From<Partition> for Vec<usize> {
    fn from(p: Partition) -> Vec<usize> {
        p.cluster_of.iter().map(|c| c.index()).collect()
    }
}

impl TryFrom<Vec<usize>> for Partition {
    type Error = String;

    fn try_from(assignment: Vec<usize>) -> Result<Self, String> {
        Partition::from_assignment(&assignment).map_err(|e| format!("invalid partition: {e}"))
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Partition(n={}, m={}, ", self.n, self.m())?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, s) in self.clusters.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_right_matches_paper() {
        let p = Partition::fig1_right();
        assert_eq!(p.n(), 7);
        assert_eq!(p.m(), 3);
        // Conclusion: "the cluster P[2] = {p2, p3, p4, p5}".
        assert_eq!(
            p.cluster(ClusterId(1)),
            &ProcessSet::from_indices(7, [1, 2, 3, 4])
        );
        assert!(p.has_majority_cluster());
    }

    #[test]
    fn fig1_left_shape() {
        let p = Partition::fig1_left();
        assert_eq!(p.sizes(), vec![3, 2, 2]);
        assert!(!p.has_majority_cluster());
    }

    #[test]
    fn cluster_of_and_members() {
        let p = Partition::fig1_right();
        assert_eq!(p.cluster_of(ProcessId(0)), ClusterId(0));
        assert_eq!(p.cluster_of(ProcessId(4)), ClusterId(1));
        assert_eq!(p.cluster_of(ProcessId(6)), ClusterId(2));
        assert!(p.cluster_members_of(ProcessId(4)).contains(ProcessId(1)));
        assert_eq!(p.cluster_members_of(ProcessId(0)).len(), 1);
    }

    #[test]
    fn extremes() {
        let mp = Partition::singletons(5);
        assert_eq!(mp.m(), 5);
        let sm = Partition::single_cluster(5);
        assert_eq!(sm.m(), 1);
        assert_eq!(sm.cluster(ClusterId(0)).len(), 5);
    }

    #[test]
    fn even_split_distributes_remainder() {
        let p = Partition::even(10, 4);
        assert_eq!(p.sizes(), vec![3, 3, 2, 2]);
        let q = Partition::even(9, 3);
        assert_eq!(q.sizes(), vec![3, 3, 3]);
    }

    #[test]
    fn from_assignment_round_trip() {
        let p = Partition::from_assignment(&[0, 1, 1, 2, 0]).unwrap();
        assert_eq!(p.m(), 3);
        assert_eq!(
            p.cluster(ClusterId(0)),
            &ProcessSet::from_indices(5, [0, 4])
        );
    }

    #[test]
    fn rejects_empty_cluster() {
        assert_eq!(
            Partition::from_sets(3, vec![vec![0, 1, 2], vec![]]),
            Err(TopologyError::EmptyCluster { cluster: 1 })
        );
        assert_eq!(
            Partition::from_sizes(&[2, 0]),
            Err(TopologyError::EmptyCluster { cluster: 1 })
        );
    }

    #[test]
    fn rejects_overlap_uncovered_out_of_range() {
        assert_eq!(
            Partition::from_sets(3, vec![vec![0, 1], vec![1, 2]]),
            Err(TopologyError::Overlap { process: 1 })
        );
        assert_eq!(
            Partition::from_sets(3, vec![vec![0, 1]]),
            Err(TopologyError::Uncovered { process: 2 })
        );
        assert_eq!(
            Partition::from_sets(2, vec![vec![0, 5]]),
            Err(TopologyError::OutOfRange { process: 5, n: 2 })
        );
        assert_eq!(
            Partition::from_sets(0, Vec::<Vec<usize>>::new()),
            Err(TopologyError::NoProcesses)
        );
    }

    #[test]
    fn random_partitions_are_valid_and_cover() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let m = rng.gen_range(1..=n);
            let p = Partition::random(n, m, &mut rng);
            assert_eq!(p.n(), n);
            assert_eq!(p.m(), m);
            assert!(p.sizes().iter().all(|&s| s >= 1));
            assert_eq!(p.sizes().iter().sum::<usize>(), n);
            // every process maps into its reported cluster
            for i in p.processes() {
                assert!(p.cluster(p.cluster_of(i)).contains(i));
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let p = Partition::fig1_right();
        assert_eq!(p.to_string(), "{p1} {p2,p3,p4,p5} {p6,p7}");
    }
}
