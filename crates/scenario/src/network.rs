//! The network model: link-class latencies, jitter, loss, duplication.
//!
//! The paper's reliable asynchronous channels are a flat network: one
//! [`crate::DelayModel`] for every link. [`NetworkModel`] adds the
//! dimensions a realistic deployment has, and [`NetworkModel::compile`]
//! lowers every network, flat or not, into one class table ([`NetIndex`]):
//!
//! * **Link classes** — intra-cluster and inter-cluster links draw from
//!   different [`LatencyDist`]s (the paper's hybrid premise made
//!   quantitative), with directed per-pair [`LinkOverride`]s for
//!   asymmetric routes. A flat network's two classes are its base delay.
//! * **Laggards** — each `DelayModel::Laggard` level is one layer
//!   multiplying the delays of links from or to its slow processes,
//!   applied innermost first.
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

use crate::lanes::{self, Lanes};
use crate::DelayModel;
use ofa_topology::{Partition, ProcessId};
use rand::rngs::StdRng;
use rand::{distributions, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Domain separator folded into the per-message delay PRF so delay
/// randomness never collides with coin or local-coin streams derived
/// from the same master seed.
const DELAY_DOMAIN_SEP: u64 = 0x5DEE_CE66_D1CE_5EED;

/// Domain separator for the loss/duplication fate PRF, so fate words
/// never correlate with delay samples drawn from the same master seed.
const FATE_DOMAIN_SEP: u64 = 0x000F_A7E0_FD00_5EED;

/// Domain separator for the duplicate-offset PRF (the second copy's
/// extra transit time), distinct from both the delay and fate domains.
const DUP_DOMAIN_SEP: u64 = 0xD09B_1E0F_F5E7;

/// SplitMix64-style mix of the delay PRF inputs into one RNG seed. Also
/// the mixer behind the fate PRF and the churn arrivals, which feed it
/// domain-separated master seeds.
pub(crate) fn mix_delay_seed(seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
    mix_tail(mix_head(seed, from), to.index() as u64, k)
}

/// The part of [`mix_delay_seed`] every message of one sender shares.
fn mix_head(seed: u64, from: ProcessId) -> u64 {
    mix_step(seed ^ DELAY_DOMAIN_SEP, from.index() as u64)
}

/// The rest of [`mix_delay_seed`], from its sender's [`mix_head`].
fn mix_tail(head: u64, to: u64, k: u64) -> u64 {
    mix_step(mix_step(head, to), k)
}

fn mix_step(z: u64, w: u64) -> u64 {
    let z = z
        .wrapping_add(w)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

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
            LatencyDist::Uniform { lo, hi } => uniform(lo, hi, mixed),
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
            LatencyDist::LogNormal { floor, cap, .. } if floor == cap => Some(floor),
            _ => None,
        }
    }
}

/// A uniform sample in `[lo, hi]` (inclusive) from the PRF stream seeded
/// by `mixed`.
#[inline(always)]
fn uniform(lo: u64, hi: u64, mixed: u64) -> u64 {
    debug_assert!(lo <= hi, "uniform latency bounds inverted");
    let span = hi.wrapping_sub(lo).wrapping_add(1);
    let word = StdRng::seed_from_u64(mixed).next_u64();
    if span == 0 {
        return word;
    }
    lo + high_word(word, span)
}

/// `(word·span) >> 64`, the high word of the 128-bit product. For
/// `span ≤ 2³²` it is `(hi·span + (lo·span) >> 32) >> 32` over the
/// 32-bit halves `hi` and `lo` of `word`, exactly: neither product nor
/// the sum overflows 64 bits, and the low bits dropped are the same. That
/// form takes 64-bit multiplies only, which a vector unit does per lane
/// ([`UniformDelays`]) and a 128-bit multiply it cannot. Wider spans keep
/// the 128-bit form.
#[inline(always)]
fn high_word(word: u64, span: u64) -> u64 {
    if span <= 1 << 32 {
        let (hi, lo) = (word >> 32, word & 0xFFFF_FFFF);
        (hi * span + ((lo * span) >> 32)) >> 32
    } else {
        ((u128::from(word) * u128::from(span)) >> 64) as u64
    }
}

/// The one-class `Uniform` delays of one broadcast: `out[i]` is the
/// delay of the sender's `(k0 + g)`-th handoff to `g = to[i]`, from the
/// sender's [`mix_head`]. The lane loop of [`NetIndex::delays_of`].
pub(crate) struct UniformDelays<'a> {
    pub(crate) head: u64,
    pub(crate) lo: u64,
    pub(crate) hi: u64,
    pub(crate) k0: u64,
    pub(crate) to: &'a [u32],
    pub(crate) out: &'a mut [u64],
}

impl Lanes for UniformDelays<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let UniformDelays {
            head,
            lo,
            hi,
            k0,
            to,
            out,
        } = self;
        for (delay, &g) in out.iter_mut().zip(to) {
            let g = u64::from(g);
            *delay = uniform(lo, hi, mix_tail(head, g, k0 + g));
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
    /// One [`DelayModel`] for every link: compiled as the class table
    /// whose two classes are its base delay, with one laggard layer per
    /// `Laggard` level.
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
///
/// Serialized as `{classes, loss_ppm, dup_ppm}`; a bare [`DelayModel`]
/// value (the pre-network-model `delay` field of stored scenarios) is
/// accepted and lifts to the equivalent flat lossless network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "NetworkForm")]
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

    /// The class table every network lowers to, read off the stored
    /// model. A flat network is the table whose two classes are its base
    /// delay, with one laggard layer per `Laggard` level.
    fn table(&self) -> Table<'_> {
        let mut delay = match &self.classes {
            LinkClasses::Clustered {
                intra,
                inter,
                links,
            } => {
                return Table {
                    intra: *intra,
                    inter: *inter,
                    links,
                    laggards: Vec::new(),
                }
            }
            LinkClasses::Flat(delay) => delay,
        };
        let mut laggards = Vec::new();
        let base = loop {
            match delay {
                DelayModel::Constant(d) => break LatencyDist::Constant(*d),
                DelayModel::Uniform { lo, hi } => break LatencyDist::Uniform { lo: *lo, hi: *hi },
                DelayModel::Laggard { slow, factor, base } => {
                    laggards.push((slow.as_slice(), *factor));
                    delay = base;
                }
            }
        };
        laggards.reverse();
        Table {
            intra: base,
            inter: base,
            links: &[],
            laggards,
        }
    }

    /// A lower bound on every transit time this model can produce,
    /// *independent of the partition*: the minimum over all link
    /// classes, through every laggard layer. This is the parallel
    /// engine's conservative lookahead — and also what bounds a
    /// duplicate's extra offset from below, so lazily-expanded
    /// duplicates always land outside the current epoch.
    pub fn min_delay(&self) -> u64 {
        let table = self.table();
        let classes = (table.links.iter().map(|l| l.dist.min()))
            .fold(table.intra.min().min(table.inter.min()), u64::min);
        // A layer with no slow process never applies; a factor below 1
        // can shrink a delay.
        (table.laggards.iter()).fold(classes, |min, &(slow, factor)| {
            if slow.is_empty() {
                min
            } else {
                min.min(min.saturating_mul(factor))
            }
        })
    }

    /// Checks internal consistency against a universe of `n` processes.
    ///
    /// # Errors
    ///
    /// An inverted distribution bound, a rate above 10⁶ ppm, or an
    /// override or laggard set naming a process index `>= n`, as a
    /// one-line message.
    pub fn validate(&self, n: usize) -> Result<(), String> {
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
        let table = self.table();
        let mut slow = table.laggards.iter().flat_map(|&(slow, _)| slow);
        if let Some(p) = slow.find(|p| p.index() >= n) {
            return Err(format!(
                "laggard set names process index {} but n={n}",
                p.index()
            ));
        }
        check_dist(&table.intra)?;
        check_dist(&table.inter)?;
        for l in table.links {
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

    /// Resolves the class table against a partition, producing the
    /// compiled form the engines query per message.
    pub fn compile(&self, partition: &Partition) -> NetIndex {
        let Table {
            intra,
            inter,
            links,
            laggards,
        } = self.table();
        let overrides: HashMap<_, _> = (links.iter())
            .map(|l| ((l.from.index() as u32, l.to.index() as u32), l.dist))
            .collect();
        // A flat network has always batched only on a `Constant` delay,
        // not on a `Uniform` whose bounds meet; a broadcast's path stays
        // what it was for every stored model.
        let flat_uniform = matches!(self.classes, LinkClasses::Flat(DelayModel::Uniform { .. }));
        let constant = intra.constant().filter(|&d| {
            !flat_uniform
                && laggards.is_empty()
                && inter.constant() == Some(d)
                && overrides.values().all(|o| o.constant() == Some(d))
        });
        NetIndex {
            cluster_of: if intra == inter {
                Vec::new()
            } else {
                (0..partition.n())
                    .map(|i| partition.cluster_of(ProcessId(i)).index() as u32)
                    .collect()
            },
            intra,
            inter,
            overrides,
            laggards: (laggards.into_iter())
                .map(|(slow, factor)| (slow.to_vec(), factor))
                .collect(),
            constant,
            min: self.min_delay(),
            loss_ppm: self.loss_ppm,
            dup_ppm: self.dup_ppm,
            loss: PpmThreshold::new(self.loss_ppm),
            dup: PpmThreshold::new(self.dup_ppm),
        }
    }
}

/// The one class table, borrowed from a [`NetworkModel`]: the two class
/// distributions, the directed overrides, and `(slow, factor)` per
/// laggard layer, innermost first.
struct Table<'a> {
    intra: LatencyDist,
    inter: LatencyDist,
    links: &'a [LinkOverride],
    laggards: Vec<(&'a [ProcessId], u64)>,
}

impl Default for NetworkModel {
    /// The legacy default network, flat and lossless.
    fn default() -> Self {
        NetworkModel::flat(DelayModel::default_network())
    }
}

/// The forms a [`NetworkModel`] is read from.
#[derive(Deserialize)]
#[serde(untagged)]
enum NetworkForm {
    Model {
        classes: LinkClasses,
        loss_ppm: u32,
        dup_ppm: u32,
    },
    Flat(DelayModel),
}

impl From<NetworkForm> for NetworkModel {
    fn from(form: NetworkForm) -> NetworkModel {
        match form {
            NetworkForm::Model {
                classes,
                loss_ppm,
                dup_ppm,
            } => NetworkModel {
                classes,
                loss_ppm,
                dup_ppm,
            },
            NetworkForm::Flat(delay) => NetworkModel::flat(delay),
        }
    }
}

/// A [`NetworkModel`] compiled against one partition into its class
/// table, with each process's cluster resolved once so that no
/// per-message query walks the partition. This is what the engines hold; all its answers are
/// pure functions of `(seed, from, to, k)`.
#[derive(Debug, Clone)]
pub struct NetIndex {
    /// The class of links within one cluster.
    intra: LatencyDist,
    /// The class of links between two clusters.
    inter: LatencyDist,
    /// Each process's cluster; empty when the two classes are equal, so
    /// that no link's class depends on it.
    cluster_of: Vec<u32>,
    /// Directed per-pair exceptions to the two classes.
    overrides: HashMap<(u32, u32), LatencyDist>,
    /// `(slow, factor)` per laggard layer, innermost first.
    laggards: Vec<(Vec<ProcessId>, u64)>,
    /// What [`NetIndex::constant_broadcast_delay`] answers.
    constant: Option<u64>,
    loss_ppm: u32,
    dup_ppm: u32,
    /// The two rates as the thresholds a fate word is compared against.
    loss: PpmThreshold,
    dup: PpmThreshold,
    min: u64,
}

/// A parts-per-million rate as the threshold of
/// [`distributions::bernoulli_ppm`]: a word below it is a hit. The
/// division is done once, when the network is compiled, instead of per
/// message; `ppm >= 10⁶` is `2⁶⁴`, which every word is below.
#[derive(Debug, Clone, Copy)]
struct PpmThreshold(u128);

impl PpmThreshold {
    fn new(ppm: u32) -> Self {
        if ppm >= 1_000_000 {
            return PpmThreshold(1 << 64);
        }
        PpmThreshold((u128::from(ppm) << 64) / 1_000_000)
    }

    fn hit(self, word: u64) -> bool {
        u128::from(word) < self.0
    }
}

impl NetIndex {
    /// The one sampler behind [`NetIndex::delay_of`] and
    /// [`NetIndex::dup_extra_of`]: a draw from the link's class (a
    /// `Constant` class mixes no seed), then each laggard layer, innermost
    /// first, multiplying (saturating) a delay from or to one of its slow
    /// processes. A slow index no process has is never matched.
    fn sample(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        let (f, t) = (from.index(), to.index());
        let dist = match self.overrides.get(&(f as u32, t as u32)) {
            Some(dist) => dist,
            None if self.cluster_of.is_empty() || self.cluster_of[f] == self.cluster_of[t] => {
                &self.intra
            }
            None => &self.inter,
        };
        let delay = match dist {
            LatencyDist::Constant(d) => *d,
            dist => dist.sample(mix_delay_seed(seed, from, to, k)),
        };
        (self.laggards.iter()).fold(delay, |delay, (slow, factor)| {
            if slow.contains(&from) || slow.contains(&to) {
                delay.saturating_mul(*factor)
            } else {
                delay
            }
        })
    }

    /// The transit time of the sender's `k`-th network handoff (counted
    /// per sending process across the whole run) to `to`.
    ///
    /// A *pure function* of `(seed, from, to, k)`: the delay does not
    /// depend on the order in which messages are registered with a
    /// scheduler. That is what lets the sharded parallel engine assign
    /// delays shard-locally and still agree bit-for-bit with the
    /// single-threaded engines — every engine uses this derivation.
    pub fn delay_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        self.sample(seed, from, to, k)
    }

    /// The send-time fate of the sender's `k`-th handoff to `to`: a pure
    /// PRF decision in a domain separate from delays, so adding loss or
    /// duplication perturbs no existing delay stream.
    pub fn fate_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> Fate {
        if self.loss_ppm == 0 && self.dup_ppm == 0 {
            return Fate::Deliver;
        }
        let mut rng = StdRng::seed_from_u64(mix_delay_seed(seed ^ FATE_DOMAIN_SEP, from, to, k));
        if self.loss.hit(rng.next_u64()) {
            return Fate::Lost;
        }
        if self.dup.hit(rng.next_u64()) {
            return Fate::Dup;
        }
        Fate::Deliver
    }

    /// The delays of one broadcast's sends: `out[i]` becomes
    /// [`NetIndex::delay_of`] of the sender's `(k0 + g)`-th handoff to
    /// `g = to[i]` (destination `g` of a broadcast holds sender-counter
    /// `k0 + g`). Where one `Uniform` class serves every link, with no
    /// override and no laggard, the part of the PRF input the sends share
    /// is mixed once, so the loop is one independent chain per
    /// destination, run on the widest vector unit the CPU has; every
    /// other sampled network answers each send with
    /// [`NetIndex::delay_of`].
    pub fn delays_of(&self, seed: u64, from: ProcessId, k0: u64, to: &[u32], out: &mut Vec<u64>) {
        out.clear();
        let one_class =
            self.cluster_of.is_empty() && self.overrides.is_empty() && self.laggards.is_empty();
        match (self.constant, self.intra) {
            (Some(d), _) => out.resize(to.len(), d),
            (None, LatencyDist::Uniform { lo, hi }) if one_class => {
                out.resize(to.len(), 0);
                lanes::widest(UniformDelays {
                    head: mix_head(seed, from),
                    lo,
                    hi,
                    k0,
                    to,
                    out,
                });
            }
            _ => out.extend(
                (to.iter())
                    .map(|&g| self.delay_of(seed, from, ProcessId(g as usize), k0 + u64::from(g))),
            ),
        }
    }

    /// The extra transit time of a duplicated message's second copy
    /// (delivered at `original_at + dup_extra`): a fresh sample of the
    /// same link class in its own PRF domain. Because every class sample
    /// is `>= min_delay()`, the copy always lands at least one epoch
    /// lookahead past the original, which is what keeps lazily-created
    /// duplicates out of already-collected parallel epochs.
    pub fn dup_extra_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        self.sample(seed ^ DUP_DOMAIN_SEP, from, to, k)
    }

    /// The model-wide minimum transit time (cached from
    /// [`NetworkModel::min_delay`]).
    pub fn min_delay(&self) -> u64 {
        self.min
    }

    /// `Some(d)` iff every link delivers in exactly `d` ticks — the
    /// condition for a broadcast to stay one batched queue entry whose
    /// destinations all land in one tick. Loss and duplication do **not**
    /// disable batching: fates are resolved lazily, per destination, when
    /// that tick reads the batch. Any laggard layer, even one with no
    /// slow process, and a flat `Uniform` delay answer `None`.
    pub fn constant_broadcast_delay(&self) -> Option<u64> {
        self.constant
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

    /// Seven network shapes, one per way a network lowers into the class
    /// table: a flat uniform, a lossy constant, a nested laggard with a
    /// zero factor (and a slow index no process has), a laggard with no
    /// slow process, a `u64::MAX` laggard, a clustered lognormal with
    /// overrides and loss and duplication, and two equal constant classes.
    fn seven_networks() -> [NetworkModel; 7] {
        let lognormal = LatencyDist::LogNormal {
            median: 900,
            sigma_milli: 700,
            floor: 100,
            cap: 9_000,
        };
        let laggard = |slow: Vec<usize>, factor, base| DelayModel::Laggard {
            slow: slow.into_iter().map(ProcessId).collect(),
            factor,
            base: Box::new(base),
        };
        [
            NetworkModel::flat(DelayModel::Uniform { lo: 500, hi: 1_500 }),
            NetworkModel::flat(DelayModel::Constant(700))
                .with_loss_ppm(300_000)
                .with_dup_ppm(200_000),
            NetworkModel::flat(laggard(
                vec![2, 40],
                3,
                laggard(vec![5], 0, DelayModel::Uniform { lo: 5, hi: 90 }),
            ))
            .with_dup_ppm(250_000),
            NetworkModel::flat(laggard(vec![], 0, DelayModel::Constant(50))),
            NetworkModel::flat(laggard(
                vec![7],
                u64::MAX,
                DelayModel::Uniform { lo: 0, hi: 3 },
            ))
            .with_loss_ppm(100_000),
            NetworkModel::clustered(LatencyDist::Uniform { lo: 3, hi: 40 }, lognormal)
                .with_link(ProcessId(1), ProcessId(7), LatencyDist::Constant(2))
                .with_link(ProcessId(8), ProcessId(0), lognormal)
                .with_loss_ppm(100_000)
                .with_dup_ppm(100_000),
            NetworkModel::clustered(LatencyDist::Constant(300), LatencyDist::Constant(300))
                .with_dup_ppm(500_000),
        ]
    }

    /// Every PRF answer of the seven shapes folded into one word:
    /// `delay_of`, `dup_extra_of`, `fate_of` and `delays_of` on every
    /// directed link, and each network's `min_delay` and
    /// `constant_broadcast_delay`. The digest was derived from the
    /// per-shape samplers the class table replaced; any change to a
    /// delay, fate, duplicate offset or batching decision moves it.
    #[test]
    fn seven_network_shapes_replay_their_pinned_streams() {
        let part = Partition::from_sizes(&[1, 4, 2, 5]).unwrap();
        let n = part.n();
        let mut digest = 0xCBF2_9CE4_8422_2325_u64;
        let mut fold = |w: u64| digest = (digest ^ w).wrapping_mul(0x100_0000_01B3);
        let to: Vec<u32> = (0..n as u32).rev().chain([3, 5, 7]).collect();
        let mut delays = Vec::new();
        for net in &seven_networks() {
            let idx = net.compile(&part);
            fold(idx.min_delay());
            fold(
                idx.constant_broadcast_delay()
                    .map_or(u64::MAX, |d| d ^ 1 << 63),
            );
            for seed in [1, 9, u64::MAX] {
                for (from, to) in (0..n).flat_map(|f| (0..n).map(move |t| (f, t))) {
                    let (from, to) = (ProcessId(from), ProcessId(to));
                    for k in [0, 1, 2, 63, 1 << 40] {
                        fold(idx.delay_of(seed, from, to, k));
                        fold(idx.dup_extra_of(seed, from, to, k));
                        fold(idx.fate_of(seed, from, to, k) as u64);
                    }
                }
                for (from, k0) in [(0, 0), (2, 12), (11, 1 << 40)] {
                    idx.delays_of(seed, ProcessId(from), k0, &to, &mut delays);
                    delays.iter().for_each(|&d| fold(d));
                }
            }
        }
        assert_eq!(digest, 0x03e9_6ba0_a5a6_0671, "{digest:#018x}");
    }

    #[test]
    fn a_flat_delay_model_draws_from_its_class_table() {
        let (p, q) = (ProcessId(0), ProcessId(1));
        // A constant delay is constant, and batches.
        let constant = compile(&NetworkModel::flat(DelayModel::Constant(7)));
        assert!((0..10).all(|k| constant.delay_of(1, p, q, k) == 7));
        assert_eq!(constant.constant_broadcast_delay(), Some(7));
        // A uniform one stays in its bounds, varies, never batches and
        // never loses a message.
        let uniform = compile(&NetworkModel::flat(DelayModel::Uniform { lo: 10, hi: 20 }));
        let samples: Vec<u64> = (0..200).map(|k| uniform.delay_of(2, p, q, k)).collect();
        assert!(samples.iter().all(|&s| (10..=20).contains(&s)));
        assert!(samples.iter().any(|&s| s != samples[0]), "should vary");
        assert_eq!(uniform.constant_broadcast_delay(), None);
        assert!((0..64).all(|k| uniform.fate_of(2, p, q, k) == Fate::Deliver));
        // A laggard multiplies only the links from or to a slow process.
        let laggard = compile(&NetworkModel::flat(DelayModel::Laggard {
            slow: vec![ProcessId(2)],
            factor: 10,
            base: Box::new(DelayModel::Constant(5)),
        }));
        assert_eq!(laggard.delay_of(3, ProcessId(0), ProcessId(1), 0), 5);
        assert_eq!(laggard.delay_of(3, ProcessId(2), ProcessId(1), 1), 50);
        assert_eq!(laggard.delay_of(3, ProcessId(0), ProcessId(2), 2), 50);
    }

    #[test]
    fn keyed_delay_is_a_pure_function_and_respects_bounds() {
        let d = compile(&NetworkModel::flat(DelayModel::Uniform { lo: 10, hi: 20 }));
        let (p, q) = (ProcessId(3), ProcessId(5));
        // Pure: same inputs, same delay, in any evaluation order.
        let first = d.delay_of(9, p, q, 0);
        let later = d.delay_of(9, p, q, 5);
        assert_eq!(d.delay_of(9, p, q, 5), later);
        assert_eq!(d.delay_of(9, p, q, 0), first);
        assert!((10..=20).contains(&first));
        // Distinct keys vary (statistically: over 64 keys at least one
        // differs from the first for an 11-value range).
        assert!((0..64).any(|k| d.delay_of(9, p, q, k) != first));
        // Distinct seeds decorrelate the whole stream.
        assert!((0..64).any(|k| d.delay_of(10, p, q, k) != d.delay_of(9, p, q, k)));
    }

    #[test]
    fn min_delay_bounds_every_sample() {
        let laggard = |slow, factor, base| DelayModel::Laggard {
            slow,
            factor,
            base: Box::new(base),
        };
        let rows = [
            (DelayModel::Constant(7), 7),
            (DelayModel::Uniform { lo: 200, hi: 900 }, 200),
            (
                laggard(
                    vec![ProcessId(0)],
                    7,
                    DelayModel::Uniform { lo: 300, hi: 800 },
                ),
                300,
            ),
            // A zero factor can *shrink* delays on slow links.
            (laggard(vec![ProcessId(1)], 0, DelayModel::Constant(50)), 0),
            // No slow processes: the factor never applies.
            (laggard(vec![], 0, DelayModel::Constant(50)), 50),
        ];
        for (delay, min) in rows {
            let net = NetworkModel::flat(delay);
            assert_eq!(net.min_delay(), min, "{net:?}");
            let idx = compile(&net);
            assert_eq!(idx.min_delay(), min);
            for (f, t, k) in
                (0..6).flat_map(|f| (0..6).flat_map(move |t| (0..8).map(move |k| (f, t, k))))
            {
                assert!(
                    idx.delay_of(4, ProcessId(f), ProcessId(t), k) >= min,
                    "{net:?}"
                );
            }
        }
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
    fn compiled_fate_thresholds_agree_with_bernoulli_ppm() {
        for ppm in [0, 1, 9_999, 10_000, 999_999, 1_000_000, u32::MAX] {
            let threshold = PpmThreshold::new(ppm);
            let mut rng = StdRng::seed_from_u64(u64::from(ppm));
            let edges = [
                0,
                1,
                u64::MAX,
                (threshold.0.min(u128::from(u64::MAX))) as u64,
            ];
            let words = (0..10_000).map(|_| rng.next_u64()).chain(edges);
            for word in words {
                let want = distributions::bernoulli_ppm(word, ppm);
                assert_eq!(threshold.hit(word), want, "ppm {ppm}, word {word:#x}");
            }
        }
    }

    #[test]
    fn the_32_bit_halves_take_the_high_word_of_the_128_bit_product() {
        let mut rng = StdRng::seed_from_u64(45);
        let edges = [
            0,
            1,
            0xFFFF_FFFF,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let words: Vec<u64> = (0..10_000).map(|_| rng.next_u64()).chain(edges).collect();
        for span in [1, 2, 1001, 1 << 32, (1 << 32) + 1] {
            for &word in &words {
                let want = ((u128::from(word) * u128::from(span)) >> 64) as u64;
                assert_eq!(high_word(word, span), want, "span {span}, word {word:#x}");
            }
            for mixed in 0..1_000 {
                let (lo, hi) = (300, 300 + span - 1);
                let word = StdRng::seed_from_u64(mixed).next_u64();
                let want = lo + ((u128::from(word) * u128::from(span)) >> 64) as u64;
                assert_eq!(uniform(lo, hi, mixed), want, "span {span}, mixed {mixed}");
            }
        }
        // The span of `[0, u64::MAX]` wraps to 0: the word itself.
        for mixed in 0..1_000 {
            let word = StdRng::seed_from_u64(mixed).next_u64();
            assert_eq!(uniform(0, u64::MAX, mixed), word);
        }
    }

    #[test]
    fn a_broadcasts_lanes_draw_what_its_single_sends_draw() {
        let part = Partition::even(12, 3);
        let to: Vec<u32> = (0..12).rev().chain([3, 5, 7]).collect();
        for net in seven_networks() {
            let idx = net.compile(&part);
            let mut delays = Vec::new();
            for (seed, from, k0) in [(1, 1, 0), (9, 2, 12), (u64::MAX, 11, 1 << 40)] {
                let from = ProcessId(from);
                idx.delays_of(seed, from, k0, &to, &mut delays);
                assert_eq!(delays.len(), to.len());
                for (i, &g) in to.iter().enumerate() {
                    let (g, k) = (ProcessId(g as usize), k0 + g as u64);
                    assert_eq!(delays[i], idx.delay_of(seed, from, g, k), "{net:?}");
                }
            }
        }
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
