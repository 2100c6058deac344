//! Multivalued consensus from binary consensus (blocking reference).
//!
//! The paper's algorithms decide a *bit*. Replicated services need to
//! agree on arbitrary values, so we implement the classic reduction from
//! multivalued to binary consensus (in the style of Mostéfaoui–Raynal),
//! adapted to the hybrid model's primitives:
//!
//! 1. **Dissemination.** Every process broadcasts its proposal as an
//!    `APP` message over the reliable channels.
//! 2. **Stage loop.** Stages `s = 1, 2, …` consider proposer
//!    `k = (s-1) mod n` and run one *binary* hybrid consensus instance on
//!    the question "shall we adopt `p_k`'s proposal?", each process voting
//!    1 iff it holds that proposal. The first stage that decides 1 fixes
//!    the outcome: everyone waits (if needed) for the proposal and
//!    decides it.
//! 3. **Relay on first use.** Before a process's 1-vote for stage `s` can
//!    influence the binary outcome, the process completes a relay
//!    broadcast of `p_k`'s proposal (its own initial broadcast counts as
//!    the relay of its own proposal). So if stage `s` decides 1, some
//!    correct process voted 1 (binary validity), and that process's relay
//!    put the proposal on reliable channels to everyone — the wait in
//!    step 2 terminates.
//!
//! Earlier revisions relayed *every* first-seen proposal eagerly, which
//! preserves the same invariant but costs `Θ(n³)` messages (`n` proposals
//! × `n` relayers × `n` destinations). Relay-on-first-use keeps the
//! liveness argument — only 1-votes need a completed relay behind them —
//! at one relay broadcast per process per stage, `O(n²)` per stage like
//! the binary exchanges themselves. That is the difference between
//! replicated logs at `n = 50` and at `n = 1 000` (the benchmark's
//! `kv-serve` cell).
//!
//! Termination: correct proposers' initial broadcasts reach every correct
//! process, so a stage naming a correct proposer eventually gets
//! unanimous 1-votes and binary validity decides 1. Agreement and
//! validity follow from binary agreement plus the relay argument above.
//! The binary instances inherit the hybrid model's fault tolerance — with
//! a majority cluster, multivalued consensus also survives `n - 1`
//! crashes.
//!
//! The event-driven twin of this module is [`crate::sm::MultivaluedSm`]:
//! the same reduction as a resumable state machine, step-for-step
//! equivalent (every environment interaction happens in the same order
//! with the same arguments), so the two execution engines produce
//! bit-identical traces.
//!
//! The two differ in one internal respect, on purpose. Here a proposal
//! is received *inside* a binary instance, which can only put it in the
//! [`Mailbox`]'s app stash; the reduction absorbs the stash into its
//! `ProposalStore` at every stage boundary and in the proposal wait. The
//! machine sees each delivery before its binary stage does and offers a
//! proposal of its own instance to the store on arrival, never stashing
//! it (the module docs of `sm/multivalued.rs` say why nothing can tell).
//! Both go through `ProposalStore::offer`, first arrival wins, and the
//! stash keeps the first copy of a key too, so the store ends up with the
//! same copy whichever way — and since this blocking form is what the
//! thread conductor runs, `tests/engine_equivalence.rs` checks the direct
//! path against the stash path on every multivalued and replicated-log
//! scenario it draws.

use crate::{
    ben_or_hybrid_instance, common_coin_hybrid_instance, Algorithm, Bit, Decision, Env, Halt,
    Mailbox, MsgKind, ObsEvent, Payload, ProtocolConfig,
};
use ofa_topology::ProcessId;
use serde::Serialize as _;

/// Binary-instance ids used by one multivalued instance `j`:
/// `j * INSTANCE_STRIDE + s` for stage `s >= 1`; the `APP` dissemination
/// uses instance `j * INSTANCE_STRIDE` itself.
pub const INSTANCE_STRIDE: u64 = 1 << 20;

/// Outcome of a multivalued consensus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvDecision {
    /// The decided proposal.
    pub payload: Payload,
    /// The proposer whose value was adopted.
    pub proposer: ProcessId,
    /// How many binary stages were needed.
    pub stages: u64,
}

/// Known proposals of one multivalued instance, by proposer, plus which
/// of them this process has already relayed. Shared between the blocking
/// reduction below and [`crate::sm::MultivaluedSm`] so both absorb and
/// relay identically.
#[derive(Debug)]
pub(crate) struct ProposalStore {
    base: u64,
    have: Vec<Option<Payload>>,
    relayed: Vec<bool>,
}

impl ProposalStore {
    /// A store for multivalued instance `base / INSTANCE_STRIDE` in which
    /// `me` already holds (and has broadcast) its own `proposal`.
    pub(crate) fn new(n: usize, base: u64, me: ProcessId, proposal: Payload) -> Self {
        let mut store = ProposalStore {
            base,
            have: vec![None; n],
            relayed: vec![false; n],
        };
        store.have[me.index()] = Some(proposal);
        store.relayed[me.index()] = true; // the initial broadcast is the relay
        store
    }

    pub(crate) fn holds(&self, k: ProcessId) -> bool {
        self.have[k.index()].is_some()
    }

    pub(crate) fn payload_of(&self, k: ProcessId) -> Payload {
        self.have[k.index()].expect("caller checked holds()")
    }

    /// Takes proposer `seq`'s proposal as carried by one `APP` message of
    /// this instance — the only way a message's payload enters the store.
    /// First arrival wins (relays and duplicates of a held proposal change
    /// nothing) and a `seq` that names no process is ignored.
    pub(crate) fn offer(&mut self, seq: u64, payload: Payload) {
        let slot = usize::try_from(seq).ok().and_then(|k| self.have.get_mut(k));
        if let Some(slot @ None) = slot {
            *slot = Some(payload);
        }
    }

    /// Moves this instance's stashed APP messages into the store.
    /// Messages of later multivalued instances stay stashed (instances
    /// are processed in increasing order, so they belong to the future);
    /// messages of earlier ones are dropped as stale — retaining them
    /// would rescan and hold dead payloads for the rest of a log run.
    /// Served in place via [`Mailbox::absorb_apps`], so a relay storm
    /// never round-trips through a temporary `Vec`. No environment
    /// interaction.
    pub(crate) fn absorb(&mut self, mailbox: &mut Mailbox) {
        mailbox.absorb_apps(self.base, |app| self.offer(app.seq, app.payload));
    }

    /// The relay-on-first-use message for stage proposer `k`, if this
    /// process holds `p_k`'s proposal and has not relayed it yet. The
    /// caller must complete the returned broadcast *before* voting 1.
    pub(crate) fn relay_due(&mut self, k: ProcessId) -> Option<MsgKind> {
        if self.have[k.index()].is_some() && !self.relayed[k.index()] {
            self.relayed[k.index()] = true;
            Some(MsgKind::App {
                instance: self.base,
                seq: k.index() as u64,
                payload: self.have[k.index()].expect("present"),
            })
        } else {
            None
        }
    }

    /// Serializes the store for a checkpoint: known proposals plus the
    /// relay ledger (`base` is recomputed from the owning layer's index).
    pub(crate) fn snapshot(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("have".to_string(), self.have.to_value()),
            ("relayed".to_string(), self.relayed.to_value()),
        ])
    }

    /// Rebuilds a store from a [`ProposalStore::snapshot`] value.
    pub(crate) fn from_snapshot(base: u64, v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("ProposalStore: missing field {name}")))
        };
        Ok(ProposalStore {
            base,
            have: serde::Deserialize::from_value(field("have")?)?,
            relayed: serde::Deserialize::from_value(field("relayed")?)?,
        })
    }
}

/// The stage budget: a doomed run terminates even when `cfg.max_rounds`
/// is small relative to `n` (every live proposer must get a chance).
pub(crate) fn stage_budget(cfg: &ProtocolConfig, n: usize) -> Option<u64> {
    cfg.max_rounds.map(|max| max.max(4 * n as u64))
}

/// Runs multivalued consensus instance `mv_index` proposing `proposal`.
///
/// All processes of the run must use the same `mv_index` and `algorithm`,
/// execute their multivalued instances in increasing `mv_index` order, and
/// share `mailbox` across them. Emits [`ObsEvent::MvDecided`] just before
/// returning, so observers can reconstruct decided sequences.
///
/// # Errors
///
/// Propagates the binary layer's [`Halt`] (crash, round/stage budget).
pub fn multivalued_propose(
    env: &mut dyn Env,
    mailbox: &mut Mailbox,
    mv_index: u64,
    proposal: Payload,
    algorithm: Algorithm,
    cfg: &ProtocolConfig,
) -> Result<MvDecision, Halt> {
    let n = env.partition().n();
    let me = env.me();
    let base = mv_index * INSTANCE_STRIDE;
    let budget = stage_budget(cfg, n);

    env.broadcast(MsgKind::App {
        instance: base,
        seq: me.index() as u64,
        payload: proposal,
    })?;
    let mut store = ProposalStore::new(n, base, me, proposal);

    let mut stage: u64 = 0;
    loop {
        stage += 1;
        if let Some(max) = budget {
            if stage > max {
                return Err(Halt::Stopped);
            }
        }
        // Absorb any proposals that arrived during earlier stages.
        store.absorb(mailbox);

        let k = ProcessId(((stage - 1) as usize) % n);
        let vote = Bit::from(store.holds(k));
        // Relay on first use: complete the relay broadcast before the
        // 1-vote can influence the binary outcome.
        if let Some(relay) = store.relay_due(k) {
            env.broadcast(relay)?;
        }
        let instance = base + stage;
        let decision = match algorithm {
            Algorithm::LocalCoin => ben_or_hybrid_instance(env, mailbox, instance, vote, cfg)?,
            Algorithm::CommonCoin => {
                common_coin_hybrid_instance(env, mailbox, instance, vote, cfg)?
            }
        };
        if decision.value == Bit::One {
            // Whoever voted 1 completed a relay of p_k's proposal before
            // voting: it is on the wire to us (possibly already in the
            // stash — absorb before the first check, otherwise a process
            // could block for a pump that never comes after everyone
            // else terminated). Wait for it.
            loop {
                store.absorb(mailbox);
                if store.holds(k) {
                    break;
                }
                mailbox.pump(env)?;
            }
            let mv = MvDecision {
                payload: store.payload_of(k),
                proposer: k,
                stages: stage,
            };
            env.observe(ObsEvent::MvDecided {
                mv_index,
                proposer: mv.proposer,
                payload: mv.payload,
                stages: mv.stages,
            });
            return Ok(mv);
        }
    }
}

/// Order-sensitive digest of a decided log: agreement on every slot's
/// `(proposer, payload)` pair implies agreement on the digest, so
/// replicas can cross-check whole histories with one `u64` (FNV-1a over
/// the slot sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogDigest(u64);

impl LogDigest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// The digest of the empty log.
    pub fn new() -> Self {
        LogDigest(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    /// Folds one decided slot into the digest.
    pub fn absorb(&mut self, decision: &MvDecision) {
        for b in (decision.proposer.index() as u64).to_le_bytes() {
            self.byte(b);
        }
        self.byte(decision.payload.len() as u8);
        for &b in decision.payload.as_bytes() {
            self.byte(b);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Rebuilds a digest from a previously captured [`LogDigest::value`] —
    /// checkpointed log runs resume the rolling hash mid-stream.
    pub fn from_raw(value: u64) -> Self {
        LogDigest(value)
    }
}

impl Default for LogDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// The binary [`Decision`] a multivalued *body* reports in an
/// [`crate::Env`]-level outcome: the parity of the decided slot's digest
/// (agreement on payloads implies agreement on the bit), deciding "round"
/// = stages used. Both execution engines use exactly this conversion.
pub fn mv_body_decision(mv: &MvDecision) -> Decision {
    let mut digest = LogDigest::new();
    digest.absorb(mv);
    Decision {
        value: Bit::from(digest.value() & 1 == 1),
        round: mv.stages,
        relayed: false,
    }
}

/// The binary [`Decision`] a replicated-log *body* reports: the parity of
/// the full log digest, deciding "round" = number of slots.
pub fn log_body_decision(digest: &LogDigest, slots: u64) -> Decision {
    Decision {
        value: Bit::from(digest.value() & 1 == 1),
        round: slots,
        relayed: false,
    }
}

/// The proposal process queues make for `slot`: queues cycle, and an
/// empty queue proposes the empty payload (a no-op slot filler).
pub fn queue_proposal(queue: &[Payload], slot: u64) -> Payload {
    if queue.is_empty() {
        Payload::empty()
    } else {
        queue[(slot as usize) % queue.len()]
    }
}

/// Runs a whole replicated log on `env` (blocking reference): `slots`
/// multivalued instances in order, proposing from `queue` (cycled), and
/// reports the [`log_body_decision`]. Every decided slot is emitted as
/// [`ObsEvent::MvDecided`], which is how log collectors reconstruct the
/// committed sequence.
///
/// With `traffic`, the pre-seeded queue is replaced by a live
/// [`crate::TrafficState`]: each slot boundary pulls the arrivals due by
/// [`Env::now`] into the bounded proposer queue and proposes a batch
/// descriptor ([`crate::traffic::encode_batch`]); a slot committing this
/// replica's own descriptor pops the covered commands and records their
/// submit→commit latencies. The accumulated service statistics are
/// reported through [`Env::service_stats`] exactly once per body
/// incarnation, at the terminal point — decided *or* halted — mirroring
/// [`crate::sm::LogSm`] step for step.
///
/// # Errors
///
/// Propagates the reduction's [`Halt`].
pub fn run_replicated_log(
    env: &mut dyn Env,
    queue: &[Payload],
    slots: u64,
    algorithm: Algorithm,
    cfg: &ProtocolConfig,
    traffic: Option<&crate::TrafficSpec>,
) -> Result<Decision, Halt> {
    let mut mailbox = Mailbox::new();
    let mut digest = LogDigest::new();
    // Processes that do not serve traffic ([`Env::serves_traffic`] —
    // churn-planned replicas) propose empty filler slots instead: their
    // clock-dependent batches could not be re-broadcast identically by a
    // restarted incarnation, which the reduction's agreement requires.
    let mut state = traffic.filter(|_| env.serves_traffic()).map(|spec| {
        let n = env.partition().n() as u32;
        crate::TrafficState::new(spec, env.seed(), env.me().index() as u32, n)
    });
    let result = (|| {
        for slot in 0..slots {
            let proposal = match &mut state {
                Some(t) => {
                    t.pull(env.now());
                    t.next_batch()
                }
                None => queue_proposal(queue, slot),
            };
            let mv = multivalued_propose(env, &mut mailbox, slot, proposal, algorithm, cfg)?;
            if let Some(t) = &mut state {
                t.on_committed(&mv.payload, env.now());
            }
            digest.absorb(&mv);
        }
        Ok(log_body_decision(&digest, slots))
    })();
    if let Some(t) = &state {
        env.service_stats(t.stats());
    }
    result
}

/// Runs one multivalued instance on `env` (blocking reference) and
/// reports the [`mv_body_decision`].
///
/// # Errors
///
/// Propagates the reduction's [`Halt`].
pub fn run_multivalued_body(
    env: &mut dyn Env,
    proposal: Payload,
    algorithm: Algorithm,
    cfg: &ProtocolConfig,
) -> Result<Decision, Halt> {
    let mut mailbox = Mailbox::new();
    let mv = multivalued_propose(env, &mut mailbox, 0, proposal, algorithm, cfg)?;
    Ok(mv_body_decision(&mv))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_leaves_room_for_a_million_stages() {
        const { assert!(INSTANCE_STRIDE >= 1 << 20) }
    }

    #[test]
    fn log_digest_is_order_sensitive() {
        let a = MvDecision {
            payload: Payload::from_bytes(b"a").unwrap(),
            proposer: ProcessId(0),
            stages: 1,
        };
        let b = MvDecision {
            payload: Payload::from_bytes(b"b").unwrap(),
            proposer: ProcessId(1),
            stages: 2,
        };
        let mut ab = LogDigest::new();
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = LogDigest::new();
        ba.absorb(&b);
        ba.absorb(&a);
        assert_ne!(ab.value(), ba.value());
        assert_ne!(ab.value(), LogDigest::new().value());
        // Stage counts do not enter the digest: replicas may reach the
        // same slot in different stages only via relayed decides, but the
        // *decided pair* is what agreement is about.
        let b_fast = MvDecision { stages: 7, ..b };
        let mut ab2 = LogDigest::new();
        ab2.absorb(&a);
        ab2.absorb(&b_fast);
        assert_eq!(ab.value(), ab2.value());
    }

    #[test]
    fn queue_proposals_cycle_and_default_to_empty() {
        let q = [
            Payload::from_bytes(b"x").unwrap(),
            Payload::from_bytes(b"y").unwrap(),
        ];
        assert_eq!(queue_proposal(&q, 0).as_bytes(), b"x");
        assert_eq!(queue_proposal(&q, 1).as_bytes(), b"y");
        assert_eq!(queue_proposal(&q, 2).as_bytes(), b"x");
        assert!(queue_proposal(&[], 5).is_empty());
    }

    #[test]
    fn proposal_store_relays_once_per_proposer() {
        let me = ProcessId(0);
        let mine = Payload::from_bytes(b"mine").unwrap();
        let mut store = ProposalStore::new(3, 0, me, mine);
        assert!(store.holds(me));
        // Own proposal: the initial broadcast already counts as the relay.
        assert_eq!(store.relay_due(me), None);
        // Unknown proposer: nothing to relay.
        assert_eq!(store.relay_due(ProcessId(1)), None);
        // Absorb p2's proposal via the mailbox stash.
        let mut mb = Mailbox::new();
        mb.stash_app(crate::AppMsg {
            from: ProcessId(2),
            instance: 0,
            seq: 1,
            payload: Payload::from_bytes(b"other").unwrap(),
        });
        store.absorb(&mut mb);
        assert!(store.holds(ProcessId(1)));
        let relay = store.relay_due(ProcessId(1)).expect("first use relays");
        assert!(matches!(relay, MsgKind::App { seq: 1, .. }));
        assert_eq!(store.relay_due(ProcessId(1)), None, "only once");
    }

    /// One rule for duplicates: of two *different* payloads under one
    /// `(instance, seq)` the store holds the first to arrive, whether
    /// both were offered directly, both went through the mailbox stash,
    /// or one each way.
    #[test]
    fn proposal_store_keeps_the_first_arrival_on_every_path() {
        let (first, second) = (
            Payload::from_bytes(b"first").unwrap(),
            Payload::from_bytes(b"second").unwrap(),
        );
        let direct = |store: &mut ProposalStore, _: &mut Mailbox, p| store.offer(1, p);
        let stashed = |_: &mut ProposalStore, mb: &mut Mailbox, p| {
            mb.buffer(crate::Msg {
                from: ProcessId(2),
                kind: MsgKind::App {
                    instance: 0,
                    seq: 1,
                    payload: p,
                },
            })
        };
        type Feed = fn(&mut ProposalStore, &mut Mailbox, Payload);
        let feeds: [(&str, Feed, Feed, bool); 4] = [
            ("both direct", direct, direct, false),
            ("both stashed", stashed, stashed, false),
            // A machine absorbs the stash when it starts, before its
            // first delivery: stashed copies precede direct ones.
            ("stashed, then direct", stashed, direct, true),
            ("direct, then stashed", direct, stashed, false),
        ];
        for (what, feed_first, feed_second, absorb_between) in feeds {
            let mine = Payload::from_bytes(b"mine").unwrap();
            let mut store = ProposalStore::new(3, 0, ProcessId(0), mine);
            let mut mb = Mailbox::new();
            feed_first(&mut store, &mut mb, first);
            if absorb_between {
                store.absorb(&mut mb);
            }
            feed_second(&mut store, &mut mb, second);
            store.absorb(&mut mb);
            assert_eq!(store.payload_of(ProcessId(1)), first, "{what}");
            assert!(mb.take_apps().is_empty(), "{what}: stash drained");
            assert_eq!(mb.stale_dropped(), 0, "{what}");
        }
        // A `seq` that names no process is ignored, not a panic.
        let mut store = ProposalStore::new(3, 0, ProcessId(0), first);
        store.offer(3, second);
        store.offer(u64::MAX, second);
        assert!(!store.holds(ProcessId(1)) && !store.holds(ProcessId(2)));
    }
}
