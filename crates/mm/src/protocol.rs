//! The m&m comparator protocol.
//!
//! **Reconstruction note (documented substitution).** The paper compares
//! its Algorithm 2 against the consensus algorithm of Aguilera et al.
//! (PODC 2018) only *structurally*: per phase of a round, an m&m process
//! touches `α_i + 1` consensus objects (its own memory plus one per
//! neighbor) out of `n` memories system-wide, and the model cannot
//! support the "one for all" amplification. The comparator is therefore
//! Algorithm 2 itself ([`Algorithm::LocalCoin`]) with two changes:
//!
//! * its memory step is the m&m **domain step**: at the start of each
//!   phase, `p_i` proposes its estimate to the phase's consensus object in
//!   **every memory of its domain** `S_i` (α_i + 1 invocations, in index
//!   order) and adopts the value decided by its *own* memory's object — a
//!   neighborhood agreement attempt;
//! * amplification is off, so the message exchange counts senders
//!   **individually** (amplification would be unsound: domains overlap,
//!   so "neighborhood agreement" does not make all members of any fixed
//!   set broadcast equal values).
//!
//! Safety is inherited from Ben-Or: the memory step only substitutes one
//! proposed estimate for another, and the phase logic is untouched. What
//! the reconstruction reproduces faithfully are the §III-C quantities —
//! which is exactly what experiment E6 measures. The domain step runs
//! outside the substrate: it charges no shared-memory cost and records no
//! trace event, so the run's messages, rounds and coins are Algorithm 2's.

use crate::MmMemories;
use ofa_core::{Algorithm, Bit, Decision, Env, Halt, Msg, MsgKind, ObsEvent, ProtocolConfig};
use ofa_metrics::ServiceStats;
use ofa_scenario::{Backend, Outcome, ProcessBody, Scenario};
use ofa_sharedmem::Slot;
use ofa_sim::Sim;
use ofa_topology::{MmGraph, Partition, ProcessId};
use std::sync::Arc;

/// Ben-Or over the m&m substrate (see module docs for the reconstruction
/// rationale). Runs on any backend via
/// [`ofa_scenario::Scenario::custom_body`], typically the deterministic
/// simulator.
#[derive(Debug)]
pub struct MmBenOr {
    memories: Arc<MmMemories>,
}

impl MmBenOr {
    /// Creates the comparator over the given memory family.
    pub fn new(memories: Arc<MmMemories>) -> Self {
        MmBenOr { memories }
    }

    /// The shared memory family (for post-run accounting).
    pub fn memories(&self) -> &Arc<MmMemories> {
        &self.memories
    }
}

impl ProcessBody for MmBenOr {
    fn run(
        &self,
        env: &mut dyn Env,
        proposal: Bit,
        cfg: &ProtocolConfig,
    ) -> Result<Decision, Halt> {
        let cfg = ProtocolConfig {
            cluster_preagree: true,
            amplify: false, // no amplification in the m&m model
            ..*cfg
        };
        let mut env = DomainEnv {
            inner: env,
            memories: &self.memories,
        };
        Algorithm::LocalCoin.run(&mut env, proposal, &cfg)
    }
}

/// The substrate's environment with the cluster memory step replaced by
/// the m&m domain step; everything else is delegated unchanged.
struct DomainEnv<'a> {
    inner: &'a mut dyn Env,
    memories: &'a MmMemories,
}

impl Env for DomainEnv<'_> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }
    fn partition(&self) -> &Partition {
        self.inner.partition()
    }
    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<(), Halt> {
        self.inner.send(to, msg)
    }
    fn recv(&mut self) -> Result<Msg, Halt> {
        self.inner.recv()
    }
    /// The domain step: propose to every memory of `S_i`, adopt the own
    /// memory's decision.
    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
        let me = self.inner.me();
        self.memories.note_phase_entry(me);
        let mut own = enc;
        for owner in self.memories.graph().domain(me).iter() {
            let decided = self.memories.propose(me, owner, slot, enc);
            if owner == me {
                own = decided;
            }
        }
        Ok(own)
    }
    fn local_coin(&mut self) -> Result<Bit, Halt> {
        self.inner.local_coin()
    }
    fn common_coin(&mut self, round: u64) -> Result<Bit, Halt> {
        self.inner.common_coin(round)
    }
    fn observe(&mut self, event: ObsEvent) {
        self.inner.observe(event)
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn service_stats(&mut self, stats: &ServiceStats) {
        self.inner.service_stats(stats)
    }
    fn serves_traffic(&self) -> bool {
        self.inner.serves_traffic()
    }
    fn broadcast(&mut self, msg: MsgKind) -> Result<(), Halt> {
        self.inner.broadcast(msg)
    }
}

/// Runs the comparator on `graph` under the simulator, `ones` processes
/// proposing 1. The message layer of the m&m model is plain all-to-all:
/// it is modelled with singleton clusters (the partition's memories are
/// unused — the comparator talks to [`MmMemories`] directly).
pub(crate) fn run_mm(graph: &MmGraph, ones: usize, seed: u64) -> (Outcome, Arc<MmMemories>) {
    let memories = Arc::new(MmMemories::new(graph.clone()));
    let body = Arc::new(MmBenOr::new(Arc::clone(&memories)));
    let out = Sim.run(
        &Scenario::new(Partition::singletons(graph.n()), Algorithm::LocalCoin)
            .custom_body(body)
            .proposals_split(ones)
            .seed(seed),
    );
    (out, memories)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_ben_or_reaches_agreement() {
        for seed in 0..4 {
            let (out, _) = run_mm(&MmGraph::fig2(), 2, seed);
            assert!(out.all_correct_decided, "seed {seed}");
            assert!(out.agreement_holds(), "seed {seed}");
        }
    }

    #[test]
    fn unanimous_validity() {
        let (out, _) = run_mm(&MmGraph::ring(5), 5, 1);
        assert!(out.decided(Bit::One));
        let (out, _) = run_mm(&MmGraph::ring(5), 0, 1);
        assert!(out.decided(Bit::Zero));
    }

    #[test]
    fn invocations_per_phase_equal_degree_plus_one() {
        let g = MmGraph::fig2();
        let (out, mems) = run_mm(&g, 2, 3);
        assert!(out.all_correct_decided);
        for i in 0..g.n() {
            let me = ProcessId(i);
            let got = mems.invocations_per_phase(me).expect("ran some phase");
            let want = g.invocations_per_phase(me) as f64;
            assert!(
                (got - want).abs() < 1e-9,
                "{me}: measured {got}, analytic {want}"
            );
        }
        // n memories in use, vs m for the hybrid model.
        assert_eq!(mems.memory_count(), 5);
        assert_eq!(mems.touched_memories(), 5);
    }
}
