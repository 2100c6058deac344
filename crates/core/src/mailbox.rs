//! Per-process message buffering, across rounds and protocol instances.
//!
//! Rounds are asynchronous: while `p_i` waits in `(instance, r, ph)` it
//! can receive messages for **future** rounds/phases/instances from faster
//! processes. Those must be retained (dropping them would lose the
//! majority the pattern waits for later), while messages from **past**
//! slots are stale and can be discarded — the pattern that needed them has
//! already returned. `DECIDE` messages short-circuit their own instance
//! (lines 12/17 of Algorithm 2) and are remembered per instance.
//!
//! Higher layers (multivalued consensus, replicated logs) run instances in
//! increasing order at each process; the staleness rule relies on that
//! monotonicity. The same monotonicity powers *hygiene*: whenever the
//! served slot advances, everything buffered below it — phase queues **and**
//! remembered decides of completed instances — is pruned, so long SMR runs
//! do not retain dead instances forever. Pruned entries count into
//! [`Mailbox::stale_dropped`], which the algorithms report through
//! [`crate::ObsEvent::MailboxStats`] so substrates can expose it via
//! `ofa_metrics::CounterSnapshot::stale_dropped`.
//!
//! Application payloads ([`MsgKind::App`] — the proposals the multivalued
//! reduction disseminates) are neither served nor dropped by a binary
//! instance: they go into the *app stash*, keyed by `(instance, seq)`,
//! first arrival wins, for the layer above to collect
//! ([`Mailbox::absorb_apps`]). The blocking reduction
//! ([`crate::multivalued_propose`]) receives every proposal this way — a
//! running binary instance is the only code that sees the message. The
//! resumable [`crate::sm::MultivaluedSm`] sees each delivery before its
//! binary stage does and takes its *own* instance's proposals straight
//! into its proposal store; for it the stash only holds what belongs to
//! another instance: a later slot's proposals until that slot's machine
//! starts, and an earlier slot's late duplicates until the next absorb
//! counts them as stale. (At `n = 1000` the stash used to take `n`
//! B-tree entries per replica per slot, most of a served run's memory.)
//!
//! The routing itself is split into two non-blocking primitives so that
//! both execution styles share one implementation:
//!
//! * [`Mailbox::take_buffered`] — serve the next already-buffered item for
//!   a slot (sticky decide first, then the slot's queue);
//! * [`Mailbox::accept`] — route one freshly delivered message relative to
//!   a slot (serve / buffer / drop / stash).
//!
//! The blocking [`Mailbox::next_for`] used by the `Env`-trait algorithms
//! is a thin loop over these; the resumable state machines of
//! [`crate::sm`] call them directly.

use crate::{Bit, Env, Est, Halt, Msg, MsgKind, Payload, Phase};
use ofa_topology::ProcessId;
use std::collections::{BTreeMap, VecDeque};

/// What the mailbox hands to the communication pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MailboxItem {
    /// A phase message matching the requested `(instance, round, phase)`.
    Phase {
        /// The sender (needed for cluster amplification).
        from: ofa_topology::ProcessId,
        /// The carried estimate.
        est: Est,
    },
    /// A `DECIDE(v)` for the requested instance was received (possibly
    /// earlier, while buffered).
    Decide {
        /// The decided value.
        value: Bit,
    },
}

/// An application payload received via [`MsgKind::App`], stashed by the
/// mailbox for the layer above binary consensus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AppMsg {
    /// The sending process.
    pub from: ProcessId,
    /// Protocol instance.
    pub instance: u64,
    /// Application-defined sequence/tag.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

/// A remembered `DECIDE(value)`; `served` tracks whether the instance
/// ever consumed it, so pruning can tell a used entry from a stale one.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct DecideEntry {
    value: Bit,
    served: bool,
}

/// Buffers out-of-slot messages for one process.
///
/// Mailboxes serialize their complete buffered state — future-slot phase
/// queues, sticky decides, the app stash, the hygiene position, and the
/// staleness counters — so checkpointed runs resume with identical
/// routing behaviour. The tuple-keyed maps are written as pair lists.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[serde(from = "MailboxState", into = "MailboxState")]
pub struct Mailbox {
    future: BTreeMap<(u64, u64, Phase), VecDeque<Msg>>,
    decides: BTreeMap<u64, DecideEntry>,
    /// App stash keyed by `(instance, seq)`: duplicate deliveries (e.g.
    /// the relay storms of multivalued dissemination, where every process
    /// re-broadcasts the stage proposer's payload) collapse into one
    /// entry — the first to arrive — instead of growing the stash
    /// linearly with the storm.
    apps: BTreeMap<(u64, u64), AppMsg>,
    /// The highest slot ever served; everything strictly below it is dead.
    position: (u64, u64, Phase),
    stale_dropped: u64,
    stale_reported: u64,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

/// Lexicographic position of a message within the instance/round/phase
/// order.
fn key(instance: u64, round: u64, phase: Phase) -> (u64, u64, u8) {
    (instance, round, phase.slot_index())
}

/// A freshly materialized per-slot queue. Pre-sized for the common case —
/// under an all-to-all exchange a future slot's queue fills with several
/// messages within one tick's deliveries, so starting above `VecDeque`'s
/// minimal capacity skips the first growth reallocations on the relay
/// hot path.
fn slot_queue() -> VecDeque<Msg> {
    VecDeque::with_capacity(8)
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            future: BTreeMap::new(),
            decides: BTreeMap::new(),
            apps: BTreeMap::new(),
            position: (0, 0, Phase::One),
            stale_dropped: 0,
            stale_reported: 0,
        }
    }

    /// Advances the served position to `(instance, round, phase)` and
    /// prunes everything the protocol has moved past: buffered phase
    /// queues below the slot and remembered decides of earlier instances.
    fn advance_to(&mut self, instance: u64, round: u64, phase: Phase) {
        let new = (instance, round, phase);
        if key(new.0, new.1, new.2) <= key(self.position.0, self.position.1, self.position.2) {
            return;
        }
        self.position = new;
        let kept = self.future.split_off(&new);
        let dropped = std::mem::replace(&mut self.future, kept);
        self.stale_dropped += dropped.values().map(|q| q.len() as u64).sum::<u64>();
        let kept = self.decides.split_off(&instance);
        let dropped = std::mem::replace(&mut self.decides, kept);
        // A decide the instance actually consumed did its job — only
        // never-served entries count as stale.
        self.stale_dropped += dropped.values().filter(|e| !e.served).count() as u64;
    }

    /// Serves the next already-buffered item for `(instance, round,
    /// phase)`: the sticky `DECIDE` of the instance if one was seen,
    /// otherwise the slot's oldest buffered phase message. Advances the
    /// hygiene position (pruning dead buffers) as a side effect.
    pub fn take_buffered(
        &mut self,
        instance: u64,
        round: u64,
        phase: Phase,
    ) -> Option<MailboxItem> {
        self.advance_to(instance, round, phase);
        if let Some(entry) = self.decides.get_mut(&instance) {
            entry.served = true;
            return Some(MailboxItem::Decide { value: entry.value });
        }
        let msg = self
            .future
            .get_mut(&(instance, round, phase))?
            .pop_front()?;
        let est = match msg.kind {
            MsgKind::Phase { est, .. } => est,
            MsgKind::Decide { .. } | MsgKind::App { .. } => {
                unreachable!("only phase messages are buffered by slot")
            }
        };
        Some(MailboxItem::Phase {
            from: msg.from,
            est,
        })
    }

    /// Routes one freshly delivered message relative to the slot the
    /// process is serving. Returns `Some` iff the message is immediately
    /// relevant (a phase message of the slot, or a `DECIDE` of the
    /// instance); otherwise the message is buffered (future slots),
    /// dropped as stale (past slots), or stashed (application payloads).
    pub fn accept(
        &mut self,
        msg: Msg,
        instance: u64,
        round: u64,
        phase: Phase,
    ) -> Option<MailboxItem> {
        match msg.kind {
            MsgKind::Decide { instance: i, value } => {
                if i < instance {
                    self.stale_dropped += 1;
                    return None;
                }
                // Remember every current-or-future decide; only the
                // current instance's short-circuits this call.
                let entry = self.decides.entry(i).or_insert(DecideEntry {
                    value,
                    served: false,
                });
                entry.served |= i == instance;
                (i == instance).then_some(MailboxItem::Decide { value })
            }
            MsgKind::Phase {
                instance: i,
                round: r,
                phase: ph,
                est,
            } => {
                let incoming = key(i, r, ph);
                let current = key(instance, round, phase);
                match incoming.cmp(&current) {
                    std::cmp::Ordering::Equal => Some(MailboxItem::Phase {
                        from: msg.from,
                        est,
                    }),
                    std::cmp::Ordering::Greater => {
                        self.future
                            .entry((i, r, ph))
                            .or_insert_with(slot_queue)
                            .push_back(msg);
                        None
                    }
                    std::cmp::Ordering::Less => {
                        self.stale_dropped += 1;
                        None
                    }
                }
            }
            MsgKind::App {
                instance: i,
                seq,
                payload,
            } => {
                self.stash(AppMsg {
                    from: msg.from,
                    instance: i,
                    seq,
                    payload,
                });
                None
            }
        }
    }

    /// Returns the next item relevant to `(instance, round, phase)`,
    /// pulling from the buffer first and then from `env.recv()`.
    ///
    /// A `DECIDE` for the current instance is returned immediately and is
    /// *sticky* (returned again on subsequent calls for that instance).
    /// Messages for later slots are buffered; messages for earlier slots
    /// are dropped as stale.
    ///
    /// # Errors
    ///
    /// Propagates `Halt` from `env.recv()`.
    pub fn next_for(
        &mut self,
        env: &mut dyn Env,
        instance: u64,
        round: u64,
        phase: Phase,
    ) -> Result<MailboxItem, Halt> {
        loop {
            if let Some(item) = self.take_buffered(instance, round, phase) {
                return Ok(item);
            }
            let msg = env.recv()?;
            if let Some(item) = self.accept(msg, instance, round, phase) {
                return Ok(item);
            }
        }
    }

    /// Blocks for one incoming message and routes it into the buffers via
    /// [`Mailbox::buffer`] without serving any slot. Layers above binary
    /// consensus use this to wait for payloads between instances.
    ///
    /// # Errors
    ///
    /// Propagates `Halt` from `env.recv()`.
    pub fn pump(&mut self, env: &mut dyn Env) -> Result<(), Halt> {
        let msg = env.recv()?;
        self.buffer(msg);
        Ok(())
    }

    /// Routes one delivered message into the buffers (phase messages by
    /// slot, decides into the sticky map, application payloads into the
    /// app stash) without serving any slot — the non-blocking half of
    /// [`Mailbox::pump`], used directly by the resumable state machines.
    pub fn buffer(&mut self, msg: Msg) {
        match msg.kind {
            MsgKind::Decide { instance, value } => {
                self.decides.entry(instance).or_insert(DecideEntry {
                    value,
                    served: false,
                });
            }
            MsgKind::Phase {
                instance,
                round,
                phase,
                ..
            } => {
                self.future
                    .entry((instance, round, phase))
                    .or_insert_with(slot_queue)
                    .push_back(msg);
            }
            MsgKind::App {
                instance,
                seq,
                payload,
            } => {
                self.stash(AppMsg {
                    from: msg.from,
                    instance,
                    seq,
                    payload,
                });
            }
        }
    }

    /// Drains the stashed application payloads, in `(instance, seq)`
    /// order.
    ///
    /// Layers that only want *one* instance's payloads should prefer
    /// [`Mailbox::absorb_apps`], which serves them in place — this method
    /// allocates a fresh `Vec` per call.
    pub fn take_apps(&mut self) -> Vec<AppMsg> {
        std::mem::take(&mut self.apps).into_values().collect()
    }

    /// Serves every stashed payload of instance `instance` to `f` (in
    /// `seq` order), drops earlier instances' payloads as stale, and
    /// leaves later instances' payloads stashed — without round-tripping
    /// the whole stash through a temporary `Vec` and re-stashing the
    /// survivors, which is what the multivalued layer's per-stage absorb
    /// used to do on the hot path.
    pub fn absorb_apps(&mut self, instance: u64, mut f: impl FnMut(AppMsg)) {
        if self
            .apps
            .first_key_value()
            .is_none_or(|((i, _), _)| *i > instance)
        {
            return; // nothing at or below the instance: common fast path
        }
        let future = self.apps.split_off(&(instance + 1, 0));
        for ((i, _), app) in std::mem::replace(&mut self.apps, future) {
            if i == instance {
                f(app);
            } else {
                self.stale_dropped += 1;
            }
        }
    }

    /// Puts an application payload back into the stash (e.g. one drained
    /// by [`Mailbox::take_apps`] but belonging to a later layer instance).
    pub fn stash_app(&mut self, app: AppMsg) {
        self.stash(app);
    }

    /// The one insert into the app stash. First arrival wins — the rule
    /// `ProposalStore` applies to what it is offered — so a proposal is
    /// the same copy whether it reached the store directly, through the
    /// stash, or one duplicate each way.
    fn stash(&mut self, app: AppMsg) {
        self.apps.entry((app.instance, app.seq)).or_insert(app);
    }

    /// The sticky `DECIDE` value for `instance`, if one has been received
    /// and the instance has not been pruned yet (decides of instances the
    /// process has moved past are discarded).
    pub fn seen_decide(&self, instance: u64) -> Option<Bit> {
        self.decides.get(&instance).map(|e| e.value)
    }

    /// Number of stale messages discarded so far: past-slot arrivals plus
    /// buffered entries pruned when the served slot advanced.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Drops since the previous call — the delta the algorithms report via
    /// [`crate::ObsEvent::MailboxStats`] at the end of each instance, so
    /// multi-instance layers account each run exactly once.
    pub fn take_stale_delta(&mut self) -> u64 {
        let delta = self.stale_dropped - self.stale_reported;
        self.stale_reported = self.stale_dropped;
        delta
    }

    /// Whether [`Mailbox::take_buffered`] would serve anything for
    /// `(instance, round, phase)`: a remembered `DECIDE` of the instance,
    /// or a phase message buffered for the slot.
    pub(crate) fn holds_for(&self, instance: u64, round: u64, phase: Phase) -> bool {
        self.decides.contains_key(&instance)
            || self
                .future
                .get(&(instance, round, phase))
                .is_some_and(|q| !q.is_empty())
    }

    /// Number of messages currently buffered for future slots.
    pub fn buffered(&self) -> usize {
        self.future.values().map(VecDeque::len).sum()
    }
}

/// The encoded form of a [`Mailbox`].
#[derive(serde::Serialize, serde::Deserialize)]
struct MailboxState {
    future: Vec<((u64, u64, Phase), VecDeque<Msg>)>,
    decides: Vec<(u64, DecideEntry)>,
    apps: Vec<AppMsg>,
    position: (u64, u64, Phase),
    stale_dropped: u64,
    stale_reported: u64,
}

impl From<Mailbox> for MailboxState {
    fn from(m: Mailbox) -> MailboxState {
        MailboxState {
            future: m.future.into_iter().collect(),
            decides: m.decides.into_iter().collect(),
            apps: m.apps.into_values().collect(),
            position: m.position,
            stale_dropped: m.stale_dropped,
            stale_reported: m.stale_reported,
        }
    }
}

impl From<MailboxState> for Mailbox {
    fn from(m: MailboxState) -> Mailbox {
        Mailbox {
            future: m.future.into_iter().collect(),
            decides: m.decides.into_iter().collect(),
            apps: m
                .apps
                .into_iter()
                .map(|a| ((a.instance, a.seq), a))
                .collect(),
            position: m.position,
            stale_dropped: m.stale_dropped,
            stale_reported: m.stale_reported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_topology::{Partition, ProcessId};

    /// Env stub whose `recv` pops from a script.
    struct Script {
        part: Partition,
        incoming: VecDeque<Msg>,
    }

    impl Script {
        fn new(msgs: Vec<Msg>) -> Self {
            Script {
                part: Partition::singletons(3),
                incoming: msgs.into(),
            }
        }
    }

    impl Env for Script {
        fn me(&self) -> ProcessId {
            ProcessId(0)
        }
        fn partition(&self) -> &Partition {
            &self.part
        }
        fn send(&mut self, _to: ProcessId, _msg: MsgKind) -> Result<(), Halt> {
            Ok(())
        }
        fn recv(&mut self) -> Result<Msg, Halt> {
            self.incoming.pop_front().ok_or(Halt::Stopped)
        }
        fn cluster_propose(&mut self, _slot: ofa_sharedmem::Slot, enc: u64) -> Result<u64, Halt> {
            Ok(enc)
        }
        fn local_coin(&mut self) -> Result<Bit, Halt> {
            Ok(Bit::Zero)
        }
        fn common_coin(&mut self, _round: u64) -> Result<Bit, Halt> {
            Ok(Bit::Zero)
        }
    }

    fn phase_msg(from: usize, instance: u64, round: u64, phase: Phase, est: Est) -> Msg {
        Msg {
            from: ProcessId(from),
            kind: MsgKind::Phase {
                instance,
                round,
                phase,
                est,
            },
        }
    }

    fn decide_msg(from: usize, instance: u64, value: Bit) -> Msg {
        Msg {
            from: ProcessId(from),
            kind: MsgKind::Decide { instance, value },
        }
    }

    #[test]
    fn current_slot_message_is_delivered() {
        let mut env = Script::new(vec![phase_msg(1, 0, 1, Phase::One, Some(Bit::One))]);
        let mut mb = Mailbox::new();
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert_eq!(
            item,
            MailboxItem::Phase {
                from: ProcessId(1),
                est: Some(Bit::One)
            }
        );
    }

    #[test]
    fn future_messages_are_buffered_and_served_later() {
        let mut env = Script::new(vec![
            phase_msg(2, 0, 3, Phase::One, Some(Bit::Zero)), // future round
            phase_msg(1, 0, 1, Phase::Two, None),            // future phase
            phase_msg(0, 2, 1, Phase::One, Some(Bit::One)),  // future instance
            phase_msg(1, 0, 1, Phase::One, Some(Bit::One)),  // current
        ]);
        let mut mb = Mailbox::new();
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert_eq!(
            item,
            MailboxItem::Phase {
                from: ProcessId(1),
                est: Some(Bit::One)
            }
        );
        assert_eq!(mb.buffered(), 3);
        // Now in (0, 1, Two): buffered phase-2 message surfaces.
        let item = mb.next_for(&mut env, 0, 1, Phase::Two).unwrap();
        assert_eq!(
            item,
            MailboxItem::Phase {
                from: ProcessId(1),
                est: None
            }
        );
        // Round 3, then instance 2, are all served from the buffer.
        let item = mb.next_for(&mut env, 0, 3, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { from, .. } if from == ProcessId(2)));
        let item = mb.next_for(&mut env, 2, 1, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { from, .. } if from == ProcessId(0)));
        assert_eq!(mb.buffered(), 0);
    }

    #[test]
    fn stale_messages_are_dropped() {
        let mut env = Script::new(vec![
            phase_msg(1, 0, 1, Phase::One, Some(Bit::Zero)), // stale round
            phase_msg(1, 0, 2, Phase::One, Some(Bit::Zero)), // stale phase
            decide_msg(2, 0, Bit::One),                      // stale instance decide
            phase_msg(1, 1, 2, Phase::Two, Some(Bit::One)),  // current
        ]);
        let mut mb = Mailbox::new();
        let item = mb.next_for(&mut env, 1, 2, Phase::Two).unwrap();
        assert_eq!(
            item,
            MailboxItem::Phase {
                from: ProcessId(1),
                est: Some(Bit::One)
            }
        );
        assert_eq!(mb.stale_dropped(), 3);
    }

    #[test]
    fn moving_past_a_slot_prunes_its_buffers() {
        let mut env = Script::new(vec![
            phase_msg(1, 0, 2, Phase::One, Some(Bit::Zero)), // buffered, then skipped
            phase_msg(2, 0, 2, Phase::One, Some(Bit::One)),  // buffered, then skipped
            decide_msg(1, 1, Bit::One),                      // decide for instance 1
            phase_msg(1, 0, 1, Phase::One, Some(Bit::One)),  // current
            phase_msg(1, 2, 1, Phase::One, Some(Bit::One)),  // for the last slot
        ]);
        let mut mb = Mailbox::new();
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { .. }));
        assert_eq!(mb.buffered(), 2);
        assert_eq!(mb.seen_decide(1), Some(Bit::One));
        // Jump straight past round 2 (e.g. a relayed decide ended the
        // instance): the round-2 buffer is pruned and counted.
        let item = mb.next_for(&mut env, 1, 1, Phase::One).unwrap();
        assert_eq!(item, MailboxItem::Decide { value: Bit::One });
        assert_eq!(mb.buffered(), 0, "dead round-2 queue was pruned");
        assert_eq!(mb.stale_dropped(), 2);
        // Moving to instance 2 prunes the remembered instance-1 decide;
        // it was *served* (it ended instance 1), so it is not stale.
        let item = mb.next_for(&mut env, 2, 1, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { .. }));
        assert_eq!(mb.seen_decide(1), None, "dead decide was pruned");
        assert_eq!(mb.stale_dropped(), 2, "served decides are not stale");
    }

    #[test]
    fn pruned_unserved_decides_count_as_stale() {
        let mut env = Script::new(vec![
            decide_msg(2, 1, Bit::One),                     // never served
            phase_msg(1, 0, 1, Phase::One, Some(Bit::One)), // current
            phase_msg(1, 3, 1, Phase::One, Some(Bit::One)), // jump target
        ]);
        let mut mb = Mailbox::new();
        let _ = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        // Jump straight to instance 3: the instance-1 decide was buffered
        // but never consumed — that is a genuinely wasted message.
        let _ = mb.next_for(&mut env, 3, 1, Phase::One).unwrap();
        assert_eq!(mb.stale_dropped(), 1);
    }

    #[test]
    fn stale_delta_is_reported_once() {
        let mut env = Script::new(vec![
            phase_msg(1, 0, 1, Phase::One, Some(Bit::Zero)), // stale after advance
            phase_msg(1, 0, 3, Phase::One, Some(Bit::One)),  // current
        ]);
        let mut mb = Mailbox::new();
        let _ = mb.next_for(&mut env, 0, 3, Phase::One).unwrap();
        assert_eq!(mb.take_stale_delta(), 1);
        assert_eq!(mb.take_stale_delta(), 0, "delta resets");
        assert_eq!(mb.stale_dropped(), 1, "cumulative count is unchanged");
    }

    #[test]
    fn decide_short_circuits_and_is_sticky_per_instance() {
        let mut env = Script::new(vec![
            phase_msg(1, 0, 5, Phase::One, Some(Bit::Zero)),
            decide_msg(2, 0, Bit::One),
        ]);
        let mut mb = Mailbox::new();
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert_eq!(item, MailboxItem::Decide { value: Bit::One });
        assert_eq!(mb.seen_decide(0), Some(Bit::One));
        assert_eq!(mb.seen_decide(1), None);
        // Sticky within instance 0.
        let again = mb.next_for(&mut env, 0, 9, Phase::Two).unwrap();
        assert_eq!(again, MailboxItem::Decide { value: Bit::One });
    }

    #[test]
    fn decide_for_future_instance_waits_its_turn() {
        let mut env = Script::new(vec![
            decide_msg(2, 3, Bit::One),
            phase_msg(1, 0, 1, Phase::One, Some(Bit::Zero)),
        ]);
        let mut mb = Mailbox::new();
        // Instance 0 work proceeds despite the instance-3 decide.
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { .. }));
        // Reaching instance 3: the remembered decide fires immediately.
        let item = mb.next_for(&mut env, 3, 1, Phase::One).unwrap();
        assert_eq!(item, MailboxItem::Decide { value: Bit::One });
    }

    #[test]
    fn halt_propagates() {
        let mut env = Script::new(vec![]);
        let mut mb = Mailbox::new();
        assert_eq!(mb.next_for(&mut env, 0, 1, Phase::One), Err(Halt::Stopped));
    }

    fn app_msg(from: usize, instance: u64, seq: u64, text: &[u8]) -> Msg {
        Msg {
            from: ProcessId(from),
            kind: MsgKind::App {
                instance,
                seq,
                payload: Payload::from_bytes(text).unwrap(),
            },
        }
    }

    #[test]
    fn app_messages_are_stashed_not_served() {
        let mut env = Script::new(vec![
            app_msg(1, 0, 1, b"proposal"),
            phase_msg(2, 0, 1, Phase::One, Some(Bit::One)),
        ]);
        let mut mb = Mailbox::new();
        // The APP message is absorbed silently; the phase message is served.
        let item = mb.next_for(&mut env, 0, 1, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { from, .. } if from == ProcessId(2)));
        let apps = mb.take_apps();
        assert_eq!(apps.len(), 1);
        assert_eq!(apps[0].from, ProcessId(1));
        assert_eq!(apps[0].seq, 1);
        assert_eq!(apps[0].payload.as_bytes(), b"proposal");
        // Draining empties the stash.
        assert!(mb.take_apps().is_empty());
    }

    #[test]
    fn absorb_apps_serves_one_instance_in_place() {
        let mut env = Script::new(vec![
            app_msg(1, 2, 0, b"past"),   // earlier instance: stale
            app_msg(2, 5, 1, b"now-a"),  // current instance
            app_msg(0, 5, 0, b"now-b"),  // current instance, lower seq
            app_msg(1, 9, 0, b"future"), // later instance: stays stashed
        ]);
        let mut mb = Mailbox::new();
        for _ in 0..4 {
            mb.pump(&mut env).unwrap();
        }
        let mut served = Vec::new();
        mb.absorb_apps(5, |app| served.push((app.seq, app.payload)));
        assert_eq!(served.len(), 2, "both instance-5 payloads served");
        assert_eq!(served[0].0, 0, "seq order");
        assert_eq!(served[1].0, 1);
        assert_eq!(mb.stale_dropped(), 1, "the instance-2 payload was stale");
        // The future payload survived in place.
        let rest = mb.take_apps();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].instance, 9);
        // Absorbing with an empty stash is a no-op.
        mb.absorb_apps(9, |_| panic!("stash is empty"));
    }

    #[test]
    fn stash_app_returns_a_message_to_the_stash() {
        let mut env = Script::new(vec![app_msg(0, 7, 2, b"later")]);
        let mut mb = Mailbox::new();
        mb.pump(&mut env).unwrap();
        let apps = mb.take_apps();
        assert_eq!(apps.len(), 1);
        mb.stash_app(apps[0]);
        assert_eq!(mb.take_apps(), apps);
    }

    /// Every way into the stash keeps the first copy of an
    /// `(instance, seq)` key, whatever a later copy carries.
    #[test]
    fn stash_keeps_the_first_copy_of_a_key() {
        let (first, second) = (app_msg(1, 4, 2, b"first"), app_msg(2, 4, 2, b"second"));
        let as_app = |m: Msg| match m.kind {
            MsgKind::App {
                instance,
                seq,
                payload,
            } => AppMsg {
                from: m.from,
                instance,
                seq,
                payload,
            },
            _ => unreachable!(),
        };
        let feeds: [fn(&mut Mailbox, Msg); 2] = [
            |mb, m| assert_eq!(mb.accept(m, 4, 1, Phase::One), None),
            |mb, m| mb.buffer(m),
        ];
        for feed_first in feeds {
            for feed_second in feeds {
                let mut mb = Mailbox::new();
                feed_first(&mut mb, first);
                feed_second(&mut mb, second);
                mb.stash_app(as_app(second));
                assert_eq!(mb.take_apps(), vec![as_app(first)]);
            }
        }
    }

    #[test]
    fn pump_routes_every_message_kind() {
        let mut env = Script::new(vec![
            phase_msg(1, 0, 2, Phase::One, Some(Bit::Zero)),
            decide_msg(2, 5, Bit::One),
            app_msg(0, 3, 0, b"x"),
        ]);
        let mut mb = Mailbox::new();
        for _ in 0..3 {
            mb.pump(&mut env).unwrap();
        }
        // The phase message was buffered by slot and is served on demand.
        assert_eq!(mb.buffered(), 1);
        let item = mb.next_for(&mut env, 0, 2, Phase::One).unwrap();
        assert!(matches!(item, MailboxItem::Phase { from, .. } if from == ProcessId(1)));
        // The decide is sticky for its instance.
        assert_eq!(mb.seen_decide(5), Some(Bit::One));
        // The app payload is in the stash.
        assert_eq!(mb.take_apps().len(), 1);
        // And pumping an empty env propagates the halt.
        assert_eq!(mb.pump(&mut env), Err(Halt::Stopped));
    }
}
