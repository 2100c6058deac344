//! The network model: link-class latencies, jitter, loss, duplication.
//!
//! [`crate::DelayModel`] models the paper's reliable asynchronous
//! channels as one delay distribution for every link. [`NetworkModel`]
//! subsumes it with the dimensions a realistic deployment adds:
//!
//! * **Link classes** — intra-cluster and inter-cluster links draw from
//!   different [`LatencyDist`]s (the paper's hybrid premise made
//!   quantitative), with directed per-pair [`LinkOverride`]s for
//!   asymmetric routes.
//! * **Jitter** — [`LatencyDist::LogNormal`] gives the heavy-tailed
//!   latency shape measured on real networks, built from
//!   platform-deterministic float ops only (`vendor/rand`'s
//!   Irwin–Hall normal + exact `2^x`), clamped to `[floor, cap]`.
//! * **Loss and duplication** — each message independently survives,
//!   vanishes, or is delivered twice, with parts-per-million rates
//!   decided by a pure integer-compare Bernoulli.
//!
//! Every decision — delay, fate, duplicate offset — is a **pure function
//! of `(seed, from, to, k)`** where `k` is the sender's send counter, so
//! all three engines (threads, event-driven, cluster-sharded parallel)
//! agree bit-for-bit for any worker count: fates resolve at *send* time,
//! which keeps batched broadcasts and the `EventKey` total order intact.
//! A duplicate's extra offset is a fresh sample of the same link-class
//! distribution, so it is always `>= min_delay()` — the parallel
//! engine's epoch lookahead — and a lazily-expanded duplicate can never
//! land inside an already-collected epoch.

use crate::delay::mix_delay_seed;
use crate::DelayModel;
use ofa_topology::{Partition, ProcessId};
use rand::rngs::StdRng;
use rand::{distributions, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Domain separator for the loss/duplication fate PRF, so fate words
/// never correlate with delay samples drawn from the same master seed.
const FATE_DOMAIN_SEP: u64 = 0x000F_A7E0_FD00_5EED;

/// Domain separator for the duplicate-offset PRF (the second copy's
/// extra transit time), distinct from both the delay and fate domains.
const DUP_DOMAIN_SEP: u64 = 0xD09B_1E0F_F5E7;

/// One latency distribution, attachable to a link class.
///
/// Every variant has a positive-or-zero hard minimum ([`LatencyDist::min`]),
/// which is what the parallel engine's conservative lookahead builds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencyDist {
    /// Exactly this many ticks, always.
    Constant(u64),
    /// Uniformly random in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum delay.
        lo: u64,
        /// Maximum delay.
        hi: u64,
    },
    /// Lognormal-style jitter: `median × 2^(σ·z)` with `z` standard
    /// normal and `σ = sigma_milli / 1000`, clamped into `[floor, cap]`.
    /// Sampled via platform-exact float ops only, so the draw is
    /// bit-identical on every platform.
    LogNormal {
        /// The distribution's median, in ticks.
        median: u64,
        /// σ in thousandths (1000 = one base-2 order of magnitude per
        /// standard deviation).
        sigma_milli: u32,
        /// Hard lower clamp (also the class's `min`).
        floor: u64,
        /// Hard upper clamp.
        cap: u64,
    },
}

impl LatencyDist {
    /// Samples one transit time from the PRF stream seeded by `mixed`.
    fn sample(&self, mixed: u64) -> u64 {
        match *self {
            LatencyDist::Constant(d) => d,
            LatencyDist::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "uniform latency bounds inverted");
                let span = hi.wrapping_sub(lo).wrapping_add(1);
                let word = StdRng::seed_from_u64(mixed).next_u64();
                if span == 0 {
                    return word;
                }
                lo + ((u128::from(word) * u128::from(span)) >> 64) as u64
            }
            LatencyDist::LogNormal {
                median,
                sigma_milli,
                floor,
                cap,
            } => {
                let mut rng = StdRng::seed_from_u64(mixed);
                distributions::log_normal_ticks(&mut rng, median, sigma_milli).clamp(floor, cap)
            }
        }
    }

    /// The hard minimum of every sample this distribution can produce.
    pub fn min(&self) -> u64 {
        match *self {
            LatencyDist::Constant(d) => d,
            LatencyDist::Uniform { lo, .. } => lo,
            LatencyDist::LogNormal { floor, .. } => floor,
        }
    }

    /// `Some(d)` iff every sample is exactly `d`.
    fn constant(&self) -> Option<u64> {
        match *self {
            LatencyDist::Constant(d) => Some(d),
            LatencyDist::Uniform { lo, hi } if lo == hi => Some(lo),
            LatencyDist::LogNormal {
                median, floor, cap, ..
            } if floor == cap => {
                let _ = median;
                Some(floor)
            }
            _ => None,
        }
    }
}

/// A directed per-pair latency override — the asymmetric link class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkOverride {
    /// Sender.
    pub from: ProcessId,
    /// Receiver (the override is directed: `to → from` is unaffected).
    pub to: ProcessId,
    /// The distribution this directed link draws from.
    pub dist: LatencyDist,
}

/// How latencies are organized across links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LinkClasses {
    /// One distribution for every link — exactly the legacy
    /// [`DelayModel`] semantics (including `Laggard`), byte-for-byte:
    /// a flat network reproduces pre-network-model delay streams.
    Flat(DelayModel),
    /// Cluster-aware classes: links inside a cluster draw from `intra`,
    /// links between clusters from `inter`, and listed directed pairs
    /// from their override.
    Clustered {
        /// Distribution for links within one cluster.
        intra: LatencyDist,
        /// Distribution for links between clusters.
        inter: LatencyDist,
        /// Directed per-pair exceptions (asymmetry).
        links: Vec<LinkOverride>,
    },
}

/// A message's send-time fate under loss/duplication rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered once, normally.
    Deliver,
    /// Never delivered (the send still consumes the sender's counter).
    Lost,
    /// Delivered twice: once normally, once after an extra link-class
    /// sample ([`NetIndex::dup_extra_of`]). Lost and duplicated are
    /// exclusive — a lost message cannot also duplicate.
    Dup,
}

/// The full network description of a scenario: link-class latencies plus
/// loss and duplication rates. Subsumes [`DelayModel`] — a
/// [`NetworkModel::flat`] wrapper with zero rates is bit-for-bit the
/// legacy behavior, which is what the serde back-compat path produces
/// for scenarios stored before this type existed.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Latency organization across links.
    pub classes: LinkClasses,
    /// Per-message loss probability in parts per million.
    pub loss_ppm: u32,
    /// Per-message duplication probability in parts per million
    /// (evaluated only for non-lost messages).
    pub dup_ppm: u32,
}

impl NetworkModel {
    /// A lossless single-class network with the legacy delay semantics.
    pub fn flat(delay: DelayModel) -> Self {
        NetworkModel {
            classes: LinkClasses::Flat(delay),
            loss_ppm: 0,
            dup_ppm: 0,
        }
    }

    /// A cluster-aware network: `intra` for links within a cluster,
    /// `inter` for links between clusters, no loss or duplication.
    pub fn clustered(intra: LatencyDist, inter: LatencyDist) -> Self {
        NetworkModel {
            classes: LinkClasses::Clustered {
                intra,
                inter,
                links: Vec::new(),
            },
            loss_ppm: 0,
            dup_ppm: 0,
        }
    }

    /// Sets the loss rate (parts per million; returns a modified copy).
    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    /// Sets the duplication rate (parts per million).
    pub fn with_dup_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Adds a directed per-pair latency override (no-op on flat
    /// networks, which have no class table to override).
    pub fn with_link(mut self, from: ProcessId, to: ProcessId, dist: LatencyDist) -> Self {
        if let LinkClasses::Clustered { links, .. } = &mut self.classes {
            links.push(LinkOverride { from, to, dist });
        }
        self
    }

    /// A lower bound on every transit time this model can produce,
    /// *independent of the partition*: the minimum over all link
    /// classes. This is the parallel engine's conservative lookahead —
    /// and also what bounds a duplicate's extra offset from below, so
    /// lazily-expanded duplicates always land outside the current epoch.
    pub fn min_delay(&self) -> u64 {
        match &self.classes {
            LinkClasses::Flat(d) => d.min_delay(),
            LinkClasses::Clustered {
                intra,
                inter,
                links,
            } => links
                .iter()
                .map(|l| l.dist.min())
                .fold(intra.min().min(inter.min()), u64::min),
        }
    }

    /// Checks internal consistency against a universe of `n` processes.
    ///
    /// # Errors
    ///
    /// An inverted distribution bound, a rate above 10⁶ ppm, or an
    /// override or laggard set naming a process index `>= n`, as a
    /// one-line message.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        fn check_delay(model: &DelayModel, n: usize) -> Result<(), String> {
            match model {
                DelayModel::Uniform { lo, hi } if lo > hi => {
                    Err(format!("uniform delay bounds inverted ({lo} > {hi})"))
                }
                DelayModel::Laggard { slow, base, .. } => {
                    if let Some(p) = slow.iter().find(|p| p.index() >= n) {
                        return Err(format!(
                            "laggard set names process index {} but n={n}",
                            p.index()
                        ));
                    }
                    check_delay(base, n)
                }
                DelayModel::Constant(_) | DelayModel::Uniform { .. } => Ok(()),
            }
        }
        fn check_dist(d: &LatencyDist) -> Result<(), String> {
            match *d {
                LatencyDist::Uniform { lo, hi } if lo > hi => {
                    Err(format!("uniform latency bounds inverted ({lo} > {hi})"))
                }
                LatencyDist::LogNormal { floor, cap, .. } if floor > cap => Err(format!(
                    "lognormal latency clamp inverted ({floor} > {cap})"
                )),
                LatencyDist::Constant(_)
                | LatencyDist::Uniform { .. }
                | LatencyDist::LogNormal { .. } => Ok(()),
            }
        }
        if self.loss_ppm > 1_000_000 {
            return Err("loss_ppm is a ppm rate".into());
        }
        if self.dup_ppm > 1_000_000 {
            return Err("dup_ppm is a ppm rate".into());
        }
        match &self.classes {
            LinkClasses::Flat(delay) => check_delay(delay, n),
            LinkClasses::Clustered {
                intra,
                inter,
                links,
            } => {
                check_dist(intra)?;
                check_dist(inter)?;
                for l in links {
                    check_dist(&l.dist)?;
                    if l.from.index() >= n || l.to.index() >= n {
                        return Err(format!(
                            "link override {} → {} names a process index >= n={n}",
                            l.from.index(),
                            l.to.index()
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Resolves the class table against a partition, producing the
    /// compiled form the engines query per message.
    pub fn compile(&self, partition: &Partition) -> NetIndex {
        let classes = match &self.classes {
            LinkClasses::Flat(d) => CompiledClasses::Flat(d.clone()),
            LinkClasses::Clustered {
                intra,
                inter,
                links,
            } => CompiledClasses::Clustered {
                intra: *intra,
                inter: *inter,
                cluster_of: (0..partition.n())
                    .map(|i| partition.cluster_of(ProcessId(i)).index() as u32)
                    .collect(),
                overrides: links
                    .iter()
                    .map(|l| ((l.from.index() as u32, l.to.index() as u32), l.dist))
                    .collect(),
            },
        };
        NetIndex {
            min: self.min_delay(),
            classes,
            loss_ppm: self.loss_ppm,
            dup_ppm: self.dup_ppm,
        }
    }
}

impl Default for NetworkModel {
    /// The legacy default network, flat and lossless.
    fn default() -> Self {
        NetworkModel::flat(DelayModel::default_network())
    }
}

/// Serialized as `{classes, loss_ppm, dup_ppm}`; a bare [`DelayModel`]
/// value (the pre-network-model `delay` field of stored scenarios) is
/// accepted and lifts to the equivalent flat lossless network.
impl Serialize for NetworkModel {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("classes".to_string(), self.classes.to_value()),
            (
                "loss_ppm".to_string(),
                serde::Value::U64(self.loss_ppm as u64),
            ),
            (
                "dup_ppm".to_string(),
                serde::Value::U64(self.dup_ppm as u64),
            ),
        ])
    }
}

impl Deserialize for NetworkModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(classes) = v.get("classes") {
            return Ok(NetworkModel {
                classes: Deserialize::from_value(classes)?,
                loss_ppm: Deserialize::from_value(v.get("loss_ppm").ok_or_else(|| {
                    serde::Error::msg("NetworkModel: missing field \"loss_ppm\"")
                })?)?,
                dup_ppm: Deserialize::from_value(v.get("dup_ppm").ok_or_else(|| {
                    serde::Error::msg("NetworkModel: missing field \"dup_ppm\"")
                })?)?,
            });
        }
        // Back-compat: a stored DelayModel value is a flat network.
        DelayModel::from_value(v).map(NetworkModel::flat)
    }
}

#[derive(Debug, Clone)]
enum CompiledClasses {
    Flat(DelayModel),
    Clustered {
        intra: LatencyDist,
        inter: LatencyDist,
        cluster_of: Vec<u32>,
        overrides: HashMap<(u32, u32), LatencyDist>,
    },
}

/// A [`NetworkModel`] compiled against one partition: link classes are
/// resolved to a per-process cluster table so every per-message query is
/// O(1). This is what the engines hold; all its answers are pure
/// functions of `(seed, from, to, k)`.
#[derive(Debug, Clone)]
pub struct NetIndex {
    classes: CompiledClasses,
    loss_ppm: u32,
    dup_ppm: u32,
    min: u64,
}

impl NetIndex {
    fn dist_of(&self, from: ProcessId, to: ProcessId) -> Option<&LatencyDist> {
        match &self.classes {
            CompiledClasses::Flat(_) => None,
            CompiledClasses::Clustered {
                intra,
                inter,
                cluster_of,
                overrides,
            } => {
                let (f, t) = (from.index() as u32, to.index() as u32);
                Some(overrides.get(&(f, t)).unwrap_or({
                    if cluster_of[from.index()] == cluster_of[to.index()] {
                        intra
                    } else {
                        inter
                    }
                }))
            }
        }
    }

    /// The transit time of the sender's `k`-th network handoff to `to` —
    /// same PRF contract as [`DelayModel::delay_of`], extended to link
    /// classes. A flat network delegates to the legacy model unchanged,
    /// so pre-network-model delay streams replay byte-for-byte.
    pub fn delay_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        match self.dist_of(from, to) {
            None => match &self.classes {
                CompiledClasses::Flat(d) => d.delay_of(seed, from, to, k),
                CompiledClasses::Clustered { .. } => unreachable!(),
            },
            Some(LatencyDist::Constant(d)) => *d,
            Some(dist) => dist.sample(mix_delay_seed(seed, from, to, k)),
        }
    }

    /// The send-time fate of the sender's `k`-th handoff to `to`: a pure
    /// PRF decision in a domain separate from delays, so adding loss or
    /// duplication perturbs no existing delay stream.
    pub fn fate_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> Fate {
        if self.loss_ppm == 0 && self.dup_ppm == 0 {
            return Fate::Deliver;
        }
        let mut rng = StdRng::seed_from_u64(mix_delay_seed(seed ^ FATE_DOMAIN_SEP, from, to, k));
        if distributions::bernoulli_ppm(rng.next_u64(), self.loss_ppm) {
            return Fate::Lost;
        }
        if distributions::bernoulli_ppm(rng.next_u64(), self.dup_ppm) {
            return Fate::Dup;
        }
        Fate::Deliver
    }

    /// The extra transit time of a duplicated message's second copy
    /// (delivered at `original_at + dup_extra`): a fresh sample of the
    /// same link class in its own PRF domain. Because every class sample
    /// is `>= min_delay()`, the copy always lands at least one epoch
    /// lookahead past the original, which is what keeps lazily-created
    /// duplicates out of already-collected parallel epochs.
    pub fn dup_extra_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        let seed = seed ^ DUP_DOMAIN_SEP;
        match self.dist_of(from, to) {
            None => match &self.classes {
                CompiledClasses::Flat(d) => d.delay_of(seed, from, to, k),
                CompiledClasses::Clustered { .. } => unreachable!(),
            },
            Some(LatencyDist::Constant(d)) => *d,
            Some(dist) => dist.sample(mix_delay_seed(seed, from, to, k)),
        }
    }

    /// The model-wide minimum transit time (cached from
    /// [`NetworkModel::min_delay`]).
    pub fn min_delay(&self) -> u64 {
        self.min
    }

    /// `Some(d)` iff every link delivers in exactly `d` ticks — the
    /// condition for a broadcast's one heap entry to expand as a batch,
    /// all destinations at once. Loss and duplication do **not** disable
    /// batching: fates are resolved lazily, per destination, when the
    /// batch drains.
    pub fn constant_broadcast_delay(&self) -> Option<u64> {
        match &self.classes {
            CompiledClasses::Flat(DelayModel::Constant(d)) => Some(*d),
            CompiledClasses::Flat(_) => None,
            CompiledClasses::Clustered {
                intra,
                inter,
                overrides,
                ..
            } => {
                let d = intra.constant()?;
                if inter.constant() != Some(d) {
                    return None;
                }
                if overrides.values().any(|o| o.constant() != Some(d)) {
                    return None;
                }
                Some(d)
            }
        }
    }

    /// The configured loss rate, in parts per million.
    pub fn loss_ppm(&self) -> u32 {
        self.loss_ppm
    }

    /// The configured duplication rate, in parts per million.
    pub fn dup_ppm(&self) -> u32 {
        self.dup_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_core::Algorithm;
    use ofa_topology::Partition;

    fn compile(net: &NetworkModel) -> NetIndex {
        net.compile(&Partition::even(6, 2))
    }

    #[test]
    fn flat_network_replays_the_legacy_delay_stream_exactly() {
        let delay = DelayModel::Uniform { lo: 200, hi: 900 };
        let net = compile(&NetworkModel::flat(delay.clone()));
        for k in 0..64 {
            assert_eq!(
                net.delay_of(9, ProcessId(1), ProcessId(4), k),
                delay.delay_of(9, ProcessId(1), ProcessId(4), k),
                "flat network must be byte-compatible with DelayModel"
            );
            assert_eq!(net.fate_of(9, ProcessId(1), ProcessId(4), k), Fate::Deliver);
        }
        assert_eq!(net.min_delay(), 200);
        assert_eq!(net.constant_broadcast_delay(), None);
        assert_eq!(
            compile(&NetworkModel::flat(DelayModel::Constant(700))).constant_broadcast_delay(),
            Some(700)
        );
    }

    #[test]
    fn clustered_classes_route_by_cluster_and_overrides_win() {
        let net = NetworkModel::clustered(LatencyDist::Constant(100), LatencyDist::Constant(1_000))
            .with_link(ProcessId(0), ProcessId(5), LatencyDist::Constant(7));
        let idx = compile(&net);
        // Partition::even(6, 2): clusters {0,1,2} and {3,4,5}.
        assert_eq!(idx.delay_of(1, ProcessId(0), ProcessId(2), 0), 100);
        assert_eq!(idx.delay_of(1, ProcessId(0), ProcessId(4), 0), 1_000);
        assert_eq!(
            idx.delay_of(1, ProcessId(0), ProcessId(5), 3),
            7,
            "override"
        );
        // Directed: the reverse link keeps its class.
        assert_eq!(idx.delay_of(1, ProcessId(5), ProcessId(0), 3), 1_000);
        assert_eq!(net.min_delay(), 7);
        assert_eq!(idx.constant_broadcast_delay(), None, "classes differ");
    }

    #[test]
    fn lognormal_is_deterministic_clamped_and_varies() {
        let dist = LatencyDist::LogNormal {
            median: 1_000,
            sigma_milli: 1_000,
            floor: 200,
            cap: 20_000,
        };
        let net = NetworkModel::clustered(dist, dist);
        let idx = compile(&net);
        let (p, q) = (ProcessId(0), ProcessId(4));
        let first = idx.delay_of(9, p, q, 0);
        assert_eq!(idx.delay_of(9, p, q, 0), first, "pure PRF");
        let samples: Vec<u64> = (0..256).map(|k| idx.delay_of(9, p, q, k)).collect();
        assert!(samples.iter().all(|&s| (200..=20_000).contains(&s)));
        assert!(samples.iter().any(|&s| s != first), "jitter must vary");
        assert_eq!(net.min_delay(), 200, "lookahead is the clamp floor");
    }

    #[test]
    fn fates_are_pure_exclusive_and_rate_shaped() {
        let net = compile(
            &NetworkModel::flat(DelayModel::Constant(500))
                .with_loss_ppm(200_000)
                .with_dup_ppm(200_000),
        );
        let mut lost = 0;
        let mut dup = 0;
        for k in 0..10_000 {
            let f = net.fate_of(3, ProcessId(0), ProcessId(1), k);
            assert_eq!(f, net.fate_of(3, ProcessId(0), ProcessId(1), k), "pure");
            match f {
                Fate::Lost => lost += 1,
                Fate::Dup => dup += 1,
                Fate::Deliver => {}
            }
        }
        // 20% loss; 20% dup of the surviving 80% ⇒ ~16%.
        assert!((1_500..2_500).contains(&lost), "lost={lost}");
        assert!((1_100..2_100).contains(&dup), "dup={dup}");
    }

    #[test]
    fn dup_extra_is_bounded_below_by_the_class_minimum() {
        let net = compile(
            &NetworkModel::clustered(
                LatencyDist::Uniform { lo: 300, hi: 800 },
                LatencyDist::Uniform { lo: 600, hi: 900 },
            )
            .with_dup_ppm(1_000_000),
        );
        for k in 0..512 {
            let intra = net.dup_extra_of(5, ProcessId(0), ProcessId(1), k);
            let inter = net.dup_extra_of(5, ProcessId(0), ProcessId(4), k);
            assert!((300..=800).contains(&intra), "{intra}");
            assert!((600..=900).contains(&inter), "{inter}");
            assert!(intra >= net.min_delay());
            // A different PRF domain than the delay itself.
            let _ = net.delay_of(5, ProcessId(0), ProcessId(1), k);
        }
    }

    #[test]
    fn serde_round_trips_and_lifts_bare_delay_models() {
        let net = NetworkModel::clustered(
            LatencyDist::LogNormal {
                median: 900,
                sigma_milli: 700,
                floor: 100,
                cap: 9_000,
            },
            LatencyDist::Uniform { lo: 500, hi: 1_500 },
        )
        .with_link(ProcessId(2), ProcessId(3), LatencyDist::Constant(42))
        .with_loss_ppm(1_000)
        .with_dup_ppm(50);
        let json = serde_json::to_string(&net).unwrap();
        let copy: NetworkModel = serde_json::from_str(&json).unwrap();
        assert_eq!(copy, net);
        // A bare DelayModel value (a stored pre-PR scenario's "delay"
        // field) lifts to the flat lossless network.
        let legacy = serde_json::to_string(&DelayModel::Uniform { lo: 10, hi: 40 }).unwrap();
        let lifted: NetworkModel = serde_json::from_str(&legacy).unwrap();
        assert_eq!(
            lifted,
            NetworkModel::flat(DelayModel::Uniform { lo: 10, hi: 40 })
        );
    }

    #[test]
    fn out_of_range_override_is_rejected() {
        let err = NetworkModel::clustered(LatencyDist::Constant(1), LatencyDist::Constant(2))
            .with_link(ProcessId(9), ProcessId(0), LatencyDist::Constant(3))
            .validate(4)
            .unwrap_err();
        assert!(err.contains("names a process index"), "{err}");
    }

    #[test]
    fn inverted_flat_delay_bounds_are_rejected() {
        let inverted = DelayModel::Uniform { lo: 9, hi: 3 };
        let err = NetworkModel::flat(inverted.clone())
            .validate(4)
            .unwrap_err();
        assert!(err.contains("bounds inverted (9 > 3)"), "{err}");
        // At every laggard level, and for the laggard set itself.
        let nested = DelayModel::Laggard {
            slow: vec![ProcessId(1)],
            factor: 3,
            base: Box::new(DelayModel::Laggard {
                slow: vec![ProcessId(2)],
                factor: 2,
                base: Box::new(inverted),
            }),
        };
        let err = NetworkModel::flat(nested).validate(4).unwrap_err();
        assert!(err.contains("bounds inverted (9 > 3)"), "{err}");
        let far = DelayModel::Laggard {
            slow: vec![ProcessId(4)],
            factor: 3,
            base: Box::new(DelayModel::Uniform { lo: 3, hi: 9 }),
        };
        let err = NetworkModel::flat(far.clone()).validate(4).unwrap_err();
        assert!(err.contains("laggard set names process index 4"), "{err}");
        assert_eq!(NetworkModel::flat(far).validate(5), Ok(()));
    }

    #[test]
    fn scenario_default_is_the_legacy_network() {
        let sc = crate::Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin);
        assert_eq!(sc.network, NetworkModel::default());
        assert_eq!(sc.network.min_delay(), 500);
    }
}
