//! Client traffic for the replicated-log workload: deterministic arrival
//! processes, proposer-side bounded queues with batching/backpressure,
//! and the per-replica service accounting behind
//! [`ofa_metrics::ServiceStats`].
//!
//! Every arrival is a pure PRF of `(seed, client, k)` — no scheduler
//! events, no extra randomness streams. A replica *pulls* due arrivals at
//! each slot boundary by comparing the PRF-derived arrival times against
//! its own virtual clock. Per-process clocks are bit-identical across all
//! three engines (the equivalence corpus pins them), so the traffic a
//! replica sees — and every latency it records — is automatically
//! engine-identical for any worker count, with zero changes to the
//! schedulers or the parallel engine's epoch barriers.

use crate::payload::Payload;
use ofa_metrics::ServiceStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Domain separator for the traffic PRF (keeps arrival randomness
/// disjoint from delay, coin, and rejoin streams).
const TRAFFIC_DOMAIN_SEP: u64 = 0xC11E_27A1_5EED_0F0A;

/// First byte of a batch-descriptor payload. Deliberately invalid UTF-8,
/// so a descriptor can never collide with (or decode as) a KV
/// [`Command`](https://docs.rs/ofa-smr)-encoded payload.
pub const BATCH_MAGIC: u8 = 0xB7;

/// How client commands arrive at a replica over virtual time.
///
/// Open-loop profiles (`Periodic`, `Poisson`, `Bursty`) generate arrival
/// `k` of client `c` at a time that is a pure function of
/// `(seed, c, k)` — clients keep submitting regardless of service speed,
/// which is what exercises backpressure. `ClosedLoop` clients keep at
/// most one command in flight and think for a PRF-drawn pause between a
/// commit and their next submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// One arrival every `period` ticks, client `c` offset by
    /// `phase + c % period` (deterministic stagger).
    Periodic {
        /// Ticks between consecutive arrivals of one client (≥ 1).
        period: u64,
        /// Offset of every client's first arrival.
        phase: u64,
    },
    /// Exponential-ish inter-arrival gaps with the given mean, drawn from
    /// the PRF via a fixed-point `-ln U` approximation (integer-only).
    Poisson {
        /// Mean inter-arrival gap per client, in ticks (≥ 1).
        mean_gap: u64,
    },
    /// Every client submits `burst` commands at once every `period`
    /// ticks, starting at `phase` — the adversarial profile for queue
    /// caps and shedding.
    Bursty {
        /// Commands per burst per client (≥ 1).
        burst: u64,
        /// Ticks between bursts (≥ 1).
        period: u64,
        /// Time of the first burst.
        phase: u64,
    },
    /// At most one in-flight command per client; after each commit the
    /// client thinks for a PRF-uniform pause in `[think_lo, think_hi]`.
    ClosedLoop {
        /// Minimum think time in ticks.
        think_lo: u64,
        /// Maximum think time in ticks (≥ `think_lo`).
        think_hi: u64,
    },
}

impl ArrivalProcess {
    /// Checks that no parameter would stall the process (zero periods)
    /// or is inconsistent (`think_hi < think_lo`).
    ///
    /// # Errors
    ///
    /// The first parameter that fails, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        let fault = match *self {
            ArrivalProcess::Periodic { period: 0, .. } => "Periodic arrivals need period >= 1",
            ArrivalProcess::Poisson { mean_gap: 0 } => "Poisson arrivals need mean_gap >= 1",
            ArrivalProcess::Bursty { burst: 0, .. } => "Bursty arrivals need burst >= 1",
            ArrivalProcess::Bursty { period: 0, .. } => "Bursty arrivals need period >= 1",
            ArrivalProcess::ClosedLoop { think_lo, think_hi } if think_hi < think_lo => {
                "ClosedLoop think_hi must be >= think_lo"
            }
            ArrivalProcess::Periodic { .. }
            | ArrivalProcess::Poisson { .. }
            | ArrivalProcess::Bursty { .. }
            | ArrivalProcess::ClosedLoop { .. } => return Ok(()),
        };
        Err(fault.to_string())
    }
}

impl Serialize for ArrivalProcess {
    fn to_value(&self) -> serde::Value {
        let entry = |tag: &str, fields: Vec<(&str, u64)>| {
            serde::Value::Map(vec![(
                tag.to_string(),
                serde::Value::Map(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), serde::Value::U64(v)))
                        .collect(),
                ),
            )])
        };
        match *self {
            ArrivalProcess::Periodic { period, phase } => {
                entry("Periodic", vec![("period", period), ("phase", phase)])
            }
            ArrivalProcess::Poisson { mean_gap } => entry("Poisson", vec![("mean_gap", mean_gap)]),
            ArrivalProcess::Bursty {
                burst,
                period,
                phase,
            } => entry(
                "Bursty",
                vec![("burst", burst), ("period", period), ("phase", phase)],
            ),
            ArrivalProcess::ClosedLoop { think_lo, think_hi } => entry(
                "ClosedLoop",
                vec![("think_lo", think_lo), ("think_hi", think_hi)],
            ),
        }
    }
}

impl Deserialize for ArrivalProcess {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let num = |m: &serde::Value, name: &str| -> Result<u64, serde::Error> {
            Deserialize::from_value(m.get(name).ok_or_else(|| {
                serde::Error::msg(format!("ArrivalProcess: missing field {name:?}"))
            })?)
        };
        if let Some(m) = v.get("Periodic") {
            return Ok(ArrivalProcess::Periodic {
                period: num(m, "period")?,
                phase: num(m, "phase")?,
            });
        }
        if let Some(m) = v.get("Poisson") {
            return Ok(ArrivalProcess::Poisson {
                mean_gap: num(m, "mean_gap")?,
            });
        }
        if let Some(m) = v.get("Bursty") {
            return Ok(ArrivalProcess::Bursty {
                burst: num(m, "burst")?,
                period: num(m, "period")?,
                phase: num(m, "phase")?,
            });
        }
        if let Some(m) = v.get("ClosedLoop") {
            return Ok(ArrivalProcess::ClosedLoop {
                think_lo: num(m, "think_lo")?,
                think_hi: num(m, "think_hi")?,
            });
        }
        Err(serde::Error::msg(
            "ArrivalProcess: expected Periodic | Poisson | Bursty | ClosedLoop",
        ))
    }
}

/// The serializable client-traffic axis of a replicated-log scenario:
/// who arrives when ([`ArrivalProcess`]), and how the proposer batches
/// and sheds (`queue_cap`, `batch_min`, `batch_max`).
///
/// Client `c` (of `clients` total) submits to replica `c % n`. A
/// replica's bounded queue holds at most `queue_cap` pending commands;
/// open-loop arrivals beyond that are shed and counted. At each slot
/// boundary the replica proposes a batch of up to `batch_max` pending
/// commands — or an empty filler payload if fewer than `batch_min` are
/// pending (the slot boundary is the virtual-time analogue of a
/// fill-or-timeout batching deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSpec {
    /// The arrival process shared by all clients.
    pub arrival: ArrivalProcess,
    /// Total number of clients, attached round-robin to replicas.
    pub clients: u64,
    /// Bounded proposer-queue depth (≥ 1); open-loop overflow is shed.
    pub queue_cap: u32,
    /// Largest batch a slot proposal may carry (≥ 1).
    pub batch_max: u32,
    /// Smallest pending count worth proposing; below it the slot
    /// proposes an empty filler payload (≥ 1 effective).
    pub batch_min: u32,
}

impl TrafficSpec {
    /// Checks for parameters that would stall or misbehave.
    ///
    /// # Errors
    ///
    /// The first parameter that fails, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        self.arrival.validate()?;
        let fault = if self.clients == 0 {
            "traffic needs at least one client"
        } else if self.queue_cap == 0 {
            "traffic needs queue_cap >= 1"
        } else if self.batch_max == 0 {
            "traffic needs batch_max >= 1"
        } else if self.batch_min > self.batch_max {
            "batch_min must be <= batch_max"
        } else {
            return Ok(());
        };
        Err(fault.to_string())
    }
}

impl Serialize for TrafficSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("arrival".to_string(), self.arrival.to_value()),
            ("clients".to_string(), self.clients.to_value()),
            ("queue_cap".to_string(), self.queue_cap.to_value()),
            ("batch_max".to_string(), self.batch_max.to_value()),
            ("batch_min".to_string(), self.batch_min.to_value()),
        ])
    }
}

impl Deserialize for TrafficSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("TrafficSpec: missing field {name:?}")))
        };
        Ok(TrafficSpec {
            arrival: Deserialize::from_value(field("arrival")?)?,
            clients: Deserialize::from_value(field("clients")?)?,
            queue_cap: Deserialize::from_value(field("queue_cap")?)?,
            batch_max: Deserialize::from_value(field("batch_max")?)?,
            batch_min: Deserialize::from_value(field("batch_min")?)?,
        })
    }
}

/// splitmix64 finalizer — the same mixing quality as the delay PRF.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The traffic PRF: one uniform 64-bit word per `(seed, client, k)`.
pub fn traffic_word(seed: u64, client: u64, k: u64) -> u64 {
    mix(mix(mix(seed ^ TRAFFIC_DOMAIN_SEP) ^ client) ^ k)
}

/// Maps a PRF word to a uniform draw in `[lo, hi]` (inclusive).
fn uniform_in(word: u64, lo: u64, hi: u64) -> u64 {
    let span = hi - lo + 1;
    lo + ((word as u128 * span as u128) >> 64) as u64
}

/// `-log2(word / 2⁶⁴)` in Q16 fixed point, via a linear-in-mantissa
/// approximation — monotone, integer-only, and exact at powers of two.
fn neg_log2_q16(word: u64) -> u64 {
    let u = word | 1;
    let lz = u.leading_zeros() as u64;
    let norm = u << lz; // top bit set
    let frac = (norm << 1) >> 48; // top 16 fractional bits
    ((lz + 1) << 16).saturating_sub(frac)
}

/// An exponential-ish gap with the given mean: `mean · (-ln U)` in
/// integer fixed point (`45426 ≈ ln 2 · 2¹⁶`), clamped to ≥ 1 so a
/// client can never stall.
fn exp_gap(word: u64, mean: u64) -> u64 {
    let q = (mean as u128 * neg_log2_q16(word) as u128 * 45_426) >> 32;
    (q as u64).max(1)
}

/// One client's arrival cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClientCursor {
    /// Global client id (the PRF key).
    id: u64,
    /// Next arrival index `k`.
    next_k: u64,
    /// Virtual time of arrival `next_k`.
    next_at: u64,
    /// Closed loop only: `true` while a command is in flight.
    waiting: bool,
}

/// One pending command in a proposer queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingCmd {
    /// When the client submitted it (arrival time, ≤ enqueue time).
    submitted_at: u64,
    /// Index into the replica's client cursor vector.
    client: u32,
}

/// A replica's live traffic state: its clients' arrival cursors, the
/// bounded pending queue, and the accumulated [`ServiceStats`].
///
/// Pure pull model: [`TrafficState::pull`] materializes every arrival
/// due at or before `now`, [`TrafficState::next_batch`] encodes the next
/// slot proposal, and [`TrafficState::on_committed`] pops and accounts a
/// decided batch. None of these touch the environment, so the replica's
/// send/receive/coin streams are byte-identical with and without
/// metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficState {
    spec: TrafficSpec,
    seed: u64,
    me: u32,
    clients: Vec<ClientCursor>,
    pending: VecDeque<PendingCmd>,
    /// Total commands this replica has committed (the next batch's base
    /// sequence number).
    popped: u64,
    stats: ServiceStats,
}

impl TrafficState {
    /// Fresh state for replica `me` of `n` under `spec`: client `c`
    /// attaches here iff `c % n == me`.
    pub fn new(spec: &TrafficSpec, seed: u64, me: u32, n: u32) -> TrafficState {
        let clients = (0..spec.clients)
            .filter(|c| c % n as u64 == me as u64)
            .map(|id| ClientCursor {
                id,
                next_k: 0,
                next_at: first_arrival(&spec.arrival, seed, id),
                waiting: false,
            })
            .collect();
        TrafficState {
            spec: *spec,
            seed,
            me,
            clients,
            pending: VecDeque::new(),
            popped: 0,
            stats: ServiceStats::new(),
        }
    }

    /// Materializes every arrival due at or before `now` into the
    /// bounded queue, shedding (and counting) open-loop overflow.
    pub fn pull(&mut self, now: u64) {
        let cap = self.spec.queue_cap as usize;
        let closed = matches!(self.spec.arrival, ArrivalProcess::ClosedLoop { .. });
        for ci in 0..self.clients.len() {
            if closed {
                let c = self.clients[ci];
                // At most one in flight; a full queue just delays the
                // submission to a later pull (closed-loop clients wait,
                // they do not shed).
                if !c.waiting && c.next_at <= now && self.pending.len() < cap {
                    self.pending.push_back(PendingCmd {
                        submitted_at: c.next_at,
                        client: ci as u32,
                    });
                    self.stats.submitted += 1;
                    self.clients[ci].waiting = true;
                }
            } else {
                while self.clients[ci].next_at <= now {
                    let at = self.clients[ci].next_at;
                    if self.pending.len() < cap {
                        self.pending.push_back(PendingCmd {
                            submitted_at: at,
                            client: ci as u32,
                        });
                        self.stats.submitted += 1;
                    } else {
                        self.stats.shed += 1;
                    }
                    let c = &mut self.clients[ci];
                    c.next_k += 1;
                    c.next_at = next_arrival(&self.spec.arrival, self.seed, c.id, c.next_k, at);
                }
            }
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len() as u64);
    }

    /// The next slot proposal: a batch descriptor covering up to
    /// `batch_max` pending commands, or an empty filler payload when
    /// fewer than `batch_min` are pending.
    pub fn next_batch(&self) -> Payload {
        let avail = self.pending.len() as u32;
        if avail < self.spec.batch_min.max(1) {
            return Payload::empty();
        }
        encode_batch(self.me, self.popped, avail.min(self.spec.batch_max))
    }

    /// Accounts a decided slot payload: if it is this replica's own
    /// batch descriptor (matching proposer *and* base sequence number),
    /// pops the covered commands, records their submit→commit latencies
    /// at `now`, and releases closed-loop clients. Foreign payloads and
    /// stale descriptors are ignored.
    pub fn on_committed(&mut self, payload: &Payload, now: u64) {
        let Some((proposer, base, count)) = decode_batch(payload) else {
            return;
        };
        if proposer != self.me || base != self.popped {
            return;
        }
        let take = (count as usize).min(self.pending.len());
        for _ in 0..take {
            let cmd = self.pending.pop_front().expect("take <= len");
            self.stats
                .latency
                .record(now.saturating_sub(cmd.submitted_at));
            self.stats.committed += 1;
            if let ArrivalProcess::ClosedLoop { think_lo, think_hi } = self.spec.arrival {
                let c = &mut self.clients[cmd.client as usize];
                c.waiting = false;
                c.next_k += 1;
                let think = uniform_in(traffic_word(self.seed, c.id, c.next_k), think_lo, think_hi);
                c.next_at = now + think;
            }
        }
        if take > 0 {
            self.popped += take as u64;
            self.stats.batches += 1;
            self.stats.last_commit_at = self.stats.last_commit_at.max(now);
        }
    }

    /// The accumulated service statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Current pending-queue depth (the backpressure gauge).
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Serializes the live state (cursors, queue, accounting) for a
    /// checkpoint. The spec, seed, and identity are scenario inputs and
    /// are re-supplied on restore.
    pub fn snapshot(&self) -> serde::Value {
        let clients: Vec<(u64, u64, u64, bool)> = self
            .clients
            .iter()
            .map(|c| (c.id, c.next_k, c.next_at, c.waiting))
            .collect();
        let pending: Vec<(u64, u32)> = self
            .pending
            .iter()
            .map(|p| (p.submitted_at, p.client))
            .collect();
        serde::Value::Map(vec![
            ("clients".to_string(), clients.to_value()),
            ("pending".to_string(), pending.to_value()),
            ("popped".to_string(), self.popped.to_value()),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }

    /// Restores a [`TrafficState::snapshot`] under the same scenario
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns a decode error on a malformed snapshot.
    pub fn from_snapshot(
        spec: &TrafficSpec,
        seed: u64,
        me: u32,
        v: &serde::Value,
    ) -> Result<TrafficState, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("TrafficState: missing field {name:?}")))
        };
        let clients: Vec<(u64, u64, u64, bool)> = Deserialize::from_value(field("clients")?)?;
        let pending: Vec<(u64, u32)> = Deserialize::from_value(field("pending")?)?;
        Ok(TrafficState {
            spec: *spec,
            seed,
            me,
            clients: clients
                .into_iter()
                .map(|(id, next_k, next_at, waiting)| ClientCursor {
                    id,
                    next_k,
                    next_at,
                    waiting,
                })
                .collect(),
            pending: pending
                .into_iter()
                .map(|(submitted_at, client)| PendingCmd {
                    submitted_at,
                    client,
                })
                .collect(),
            popped: Deserialize::from_value(field("popped")?)?,
            stats: Deserialize::from_value(field("stats")?)?,
        })
    }
}

/// Arrival time of `(client, k = 0)`.
fn first_arrival(arrival: &ArrivalProcess, seed: u64, client: u64) -> u64 {
    match *arrival {
        ArrivalProcess::Periodic { period, phase } => phase + client % period,
        ArrivalProcess::Poisson { mean_gap } => exp_gap(traffic_word(seed, client, 0), mean_gap),
        ArrivalProcess::Bursty { phase, .. } => phase,
        ArrivalProcess::ClosedLoop { think_lo, think_hi } => {
            uniform_in(traffic_word(seed, client, 0), think_lo, think_hi)
        }
    }
}

/// Arrival time of open-loop arrival `k > 0`, given arrival `k - 1`
/// happened at `prev` (closed-loop cursors advance in `on_committed`
/// instead).
fn next_arrival(arrival: &ArrivalProcess, seed: u64, client: u64, k: u64, prev: u64) -> u64 {
    match *arrival {
        ArrivalProcess::Periodic { period, phase } => phase + client % period + k * period,
        ArrivalProcess::Poisson { mean_gap } => {
            prev + exp_gap(traffic_word(seed, client, k), mean_gap)
        }
        ArrivalProcess::Bursty {
            burst,
            period,
            phase,
        } => phase + (k / burst) * period,
        ArrivalProcess::ClosedLoop { .. } => prev,
    }
}

/// Encodes a batch descriptor: magic byte, proposer, base sequence
/// number, and command count — 17 bytes, well inside the payload limit.
pub fn encode_batch(proposer: u32, base: u64, count: u32) -> Payload {
    let mut bytes = [0u8; 17];
    bytes[0] = BATCH_MAGIC;
    bytes[1..5].copy_from_slice(&proposer.to_le_bytes());
    bytes[5..13].copy_from_slice(&base.to_le_bytes());
    bytes[13..17].copy_from_slice(&count.to_le_bytes());
    Payload::from_bytes(&bytes).expect("descriptor fits the payload limit")
}

/// Decodes a batch descriptor back to `(proposer, base, count)`; `None`
/// for anything that is not a descriptor (empty fillers, KV commands).
pub fn decode_batch(payload: &Payload) -> Option<(u32, u64, u32)> {
    let b = payload.as_bytes();
    if b.len() != 17 || b[0] != BATCH_MAGIC {
        return None;
    }
    let proposer = u32::from_le_bytes(b[1..5].try_into().ok()?);
    let base = u64::from_le_bytes(b[5..13].try_into().ok()?);
    let count = u32::from_le_bytes(b[13..17].try_into().ok()?);
    Some((proposer, base, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrival: ArrivalProcess) -> TrafficSpec {
        TrafficSpec {
            arrival,
            clients: 3,
            queue_cap: 4,
            batch_max: 2,
            batch_min: 1,
        }
    }

    #[test]
    fn batch_descriptor_round_trips_and_rejects_foreign_payloads() {
        let p = encode_batch(7, 123_456, 42);
        assert_eq!(decode_batch(&p), Some((7, 123_456, 42)));
        assert_eq!(decode_batch(&Payload::empty()), None);
        let text = Payload::from_bytes(b"P\x1fk\x1fv").unwrap();
        assert_eq!(decode_batch(&text), None);
    }

    #[test]
    fn arrivals_are_pure_functions_of_seed_client_k() {
        for arrival in [
            ArrivalProcess::Periodic {
                period: 10,
                phase: 3,
            },
            ArrivalProcess::Poisson { mean_gap: 50 },
            ArrivalProcess::Bursty {
                burst: 4,
                period: 100,
                phase: 7,
            },
        ] {
            let s = spec(arrival);
            let mut a = TrafficState::new(&s, 99, 0, 1);
            let mut b = TrafficState::new(&s, 99, 0, 1);
            a.pull(1_000);
            b.pull(400);
            b.pull(1_000); // pulling in two hops sees the same arrivals
            assert_eq!(
                a.stats().submitted + a.stats().shed,
                b.stats().submitted + b.stats().shed
            );
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn exp_gap_mean_is_roughly_right() {
        let mean = 1_000u64;
        let n = 10_000u64;
        let total: u128 = (0..n)
            .map(|k| exp_gap(traffic_word(1, 0, k), mean) as u128)
            .sum();
        let avg = (total / n as u128) as u64;
        assert!(
            (500..=1_500).contains(&avg),
            "mean gap {avg} too far from {mean}"
        );
    }

    #[test]
    fn open_loop_sheds_beyond_the_cap_and_counts_it() {
        let s = TrafficSpec {
            arrival: ArrivalProcess::Bursty {
                burst: 10,
                period: 1_000,
                phase: 0,
            },
            clients: 1,
            queue_cap: 4,
            batch_max: 8,
            batch_min: 1,
        };
        let mut t = TrafficState::new(&s, 5, 0, 1);
        t.pull(0);
        assert_eq!(t.stats().submitted, 4);
        assert_eq!(t.stats().shed, 6);
        assert_eq!(t.stats().max_queue_depth, 4);
        assert_eq!(t.queue_depth(), 4);
    }

    #[test]
    fn batches_pop_in_order_and_record_latency() {
        let s = TrafficSpec {
            arrival: ArrivalProcess::Periodic {
                period: 10,
                phase: 0,
            },
            clients: 3,
            queue_cap: 100,
            batch_max: 3,
            batch_min: 1,
        };
        let mut t = TrafficState::new(&s, 5, 2, 4);
        // Client 2 (2 % 4 == 2) arrives at 2, 12, 22, 32, 42.
        t.pull(45);
        assert_eq!(t.stats().submitted, 5);
        let batch = t.next_batch();
        assert_eq!(decode_batch(&batch), Some((2, 0, 3)));
        // A foreign commit does nothing…
        t.on_committed(&encode_batch(1, 0, 3), 50);
        assert_eq!(t.stats().committed, 0);
        // …a stale base does nothing…
        t.on_committed(&encode_batch(2, 9, 3), 50);
        assert_eq!(t.stats().committed, 0);
        // …the real one pops three and records latencies 48, 38, 28.
        t.on_committed(&batch, 50);
        assert_eq!(t.stats().committed, 3);
        assert_eq!(t.stats().batches, 1);
        assert_eq!(t.stats().last_commit_at, 50);
        assert_eq!(t.stats().latency.total(), 3);
        assert_eq!(t.queue_depth(), 2);
        assert_eq!(decode_batch(&t.next_batch()), Some((2, 3, 2)));
    }

    #[test]
    fn empty_queue_proposes_the_filler() {
        let s = spec(ArrivalProcess::Periodic {
            period: 5,
            phase: 1_000,
        });
        let mut t = TrafficState::new(&s, 5, 0, 1);
        t.pull(10); // nothing due yet
        assert!(t.next_batch().is_empty());
    }

    #[test]
    fn batch_min_holds_small_batches_back() {
        let s = TrafficSpec {
            arrival: ArrivalProcess::Periodic {
                period: 100,
                phase: 0,
            },
            clients: 1,
            queue_cap: 10,
            batch_max: 8,
            batch_min: 3,
        };
        let mut t = TrafficState::new(&s, 5, 0, 1);
        t.pull(110); // two arrivals (0, 100)
        assert_eq!(t.stats().submitted, 2);
        assert!(t.next_batch().is_empty(), "below batch_min proposes filler");
        t.pull(210); // third arrival
        assert_eq!(decode_batch(&t.next_batch()), Some((0, 0, 3)));
    }

    #[test]
    fn closed_loop_keeps_one_in_flight_and_thinks_after_commit() {
        let s = TrafficSpec {
            arrival: ArrivalProcess::ClosedLoop {
                think_lo: 10,
                think_hi: 20,
            },
            clients: 2,
            queue_cap: 8,
            batch_max: 8,
            batch_min: 1,
        };
        let mut t = TrafficState::new(&s, 42, 0, 1);
        t.pull(1_000);
        assert_eq!(t.stats().submitted, 2, "one in flight per client");
        t.pull(2_000);
        assert_eq!(t.stats().submitted, 2, "still waiting");
        let batch = t.next_batch();
        t.on_committed(&batch, 2_000);
        assert_eq!(t.stats().committed, 2);
        // Next submissions land within think time of the commit.
        for c in &t.clients {
            assert!(!c.waiting);
            assert!(
                (2_010..=2_020).contains(&c.next_at),
                "next_at {}",
                c.next_at
            );
        }
        t.pull(2_020);
        assert_eq!(t.stats().submitted, 4);
    }

    #[test]
    fn snapshot_round_trips_mid_burst() {
        let s = TrafficSpec {
            arrival: ArrivalProcess::Poisson { mean_gap: 30 },
            clients: 4,
            queue_cap: 6,
            batch_max: 2,
            batch_min: 1,
        };
        let mut t = TrafficState::new(&s, 7, 1, 2);
        t.pull(500);
        let batch = t.next_batch();
        t.on_committed(&batch, 520);
        t.pull(700);
        let copy = TrafficState::from_snapshot(&s, 7, 1, &t.snapshot()).expect("round trip");
        assert_eq!(copy, t);
        // The restored state continues identically.
        let mut live = t.clone();
        let mut resumed = copy;
        live.pull(1_200);
        resumed.pull(1_200);
        assert_eq!(live, resumed);
        assert_eq!(live.next_batch(), resumed.next_batch());
    }

    #[test]
    fn spec_serde_round_trips() {
        for arrival in [
            ArrivalProcess::Periodic {
                period: 10,
                phase: 3,
            },
            ArrivalProcess::Poisson { mean_gap: 50 },
            ArrivalProcess::Bursty {
                burst: 4,
                period: 100,
                phase: 7,
            },
            ArrivalProcess::ClosedLoop {
                think_lo: 5,
                think_hi: 25,
            },
        ] {
            let s = TrafficSpec {
                arrival,
                clients: 9,
                queue_cap: 3,
                batch_max: 2,
                batch_min: 2,
            };
            s.validate().unwrap();
            let copy = TrafficSpec::from_value(&s.to_value()).expect("round trip");
            assert_eq!(copy, s);
        }
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let spec = TrafficSpec {
            arrival: ArrivalProcess::Poisson { mean_gap: 1 },
            clients: 1,
            queue_cap: 1,
            batch_max: 1,
            batch_min: 2,
        };
        assert_eq!(
            spec.validate().unwrap_err(),
            "batch_min must be <= batch_max"
        );
    }
}
