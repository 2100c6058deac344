//! Smoke tests for the build surface itself: the facade's re-exports
//! resolve and do what the README promises, and the serde plumbing
//! (vendored shim + derive) round-trips a real config type.
//!
//! These tests exist so a manifest/workspace regression (a dropped
//! re-export, a crate falling out of the facade, a broken derive) fails
//! `cargo test` loudly instead of surfacing in downstream code.

use one_for_all::consensus::{Algorithm, ProtocolConfig};
use one_for_all::prelude::*;
use one_for_all::topology::Partition;

/// Every facade module path named in the crate-level table resolves and
/// exposes its headline type.
#[test]
fn facade_reexports_resolve() {
    // consensus (ofa-core)
    let cfg: one_for_all::consensus::ProtocolConfig = ProtocolConfig::paper();
    assert!(cfg.cluster_preagree && cfg.amplify);

    // topology (ofa-topology)
    let part: one_for_all::topology::Partition = Partition::fig1_right();
    assert_eq!(part.n(), 7);

    // sharedmem (ofa-sharedmem)
    let mem: one_for_all::sharedmem::ClusterMemory = one_for_all::sharedmem::ClusterMemory::new();
    assert_eq!(mem.propose(one_for_all::sharedmem::Slot::new(1, 1), 3u8), 3);

    // coins (ofa-coins)
    let bit = one_for_all::coins::common_bit;
    assert_eq!(bit(1, 5), bit(1, 5));

    // metrics (ofa-metrics)
    let s = one_for_all::metrics::Summary::of([1.0, 2.0, 3.0]);
    assert_eq!(s.count, 3);

    // scenario (ofa-scenario) + sim (ofa-sim), via the prelude names:
    // one Scenario, run on the Sim backend through the Backend trait.
    let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
        .proposals_split(3)
        .seed(42);
    let outcome: Outcome = Sim.run(&scenario);
    assert!(outcome.all_correct_decided);
    assert!(outcome.agreement_holds());
    let _ = std::any::type_name::<Sweep>();

    // runtime (ofa-runtime): the Threads backend is reachable through the
    // prelude (constructing real threads is exercised in cross_substrate).
    let _ = std::any::type_name::<Threads>();

    // The simulator's engine knob is part of the prelude surface —
    // including the cluster-sharded parallel engine.
    let _: Engine = Engine::EventDriven;
    let _: Engine = Engine::parallel();
    let _: Engine = Engine::ParallelEvent { workers: 4 };

    // smr (ofa-smr)
    let cmd = one_for_all::smr::Command::put("k", "v");
    let payload = cmd.encode().expect("short command encodes");
    assert_eq!(one_for_all::smr::Command::decode(&payload).unwrap(), cmd);

    // mm (ofa-mm) re-export resolves.
    let _ = std::any::type_name::<one_for_all::mm::MmBenOr>();

    // prelude names stay usable.
    let _ = (
        ClusterId(0),
        ProcessId(0),
        ProcessSet::empty(4),
        CrashPlan::new(),
    );
    let _ = Bit::from(true);
    let _: Option<Decision> = None;
    let _: Option<Halt> = None;
}

/// `ProtocolConfig::paper()` survives a serde round-trip, including the
/// `Option<u64>` round bound in both states.
#[test]
fn protocol_config_round_trips_through_serde() {
    for cfg in [
        ProtocolConfig::paper(),
        ProtocolConfig::pure_message_passing(),
        ProtocolConfig::ablation_no_preagree(),
        ProtocolConfig::paper().with_max_rounds(64),
    ] {
        let json = serde_json::to_string(&cfg).expect("config serializes");
        let back: ProtocolConfig = serde_json::from_str(&json).expect("config deserializes");
        assert_eq!(back, cfg, "round-trip changed the config: {json}");
    }

    // The wire shape is a plain field map (stable across shim/real serde).
    let json = serde_json::to_string(&ProtocolConfig::paper()).unwrap();
    assert!(
        json.contains("\"cluster_preagree\":true"),
        "json was {json}"
    );
    assert!(json.contains("\"amplify\":true"), "json was {json}");
    assert!(json.contains("\"max_rounds\":null"), "json was {json}");
}
