//! Property-based tests of the substrate crates (shared memory, graphs,
//! coins, metrics).

use one_for_all::coins::common_bit;
use one_for_all::metrics::{Histogram, Summary};
use one_for_all::scenario::CoinSpec;
use one_for_all::sharedmem::{ClusterMemory, CodableValue, Slot};
use one_for_all::topology::{MmGraph, ProcessId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A consensus object decides the first proposed word and never
    /// changes; every proposal is counted.
    #[test]
    fn cas_consensus_is_first_wins(proposals in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mem = ClusterMemory::new();
        let slot = Slot::new(1, 1);
        let first = proposals[0];
        for &p in &proposals {
            prop_assert_eq!(mem.propose_raw(slot, p), first);
        }
        prop_assert_eq!(mem.checkpoint().0, vec![(slot, first)]);
        prop_assert_eq!(mem.propose_count(), proposals.len() as u64);
    }

    /// Codable round-trips for nested Option encodings (the est2 domain).
    #[test]
    fn codable_option_round_trips(v in proptest::option::of(proptest::option::of(any::<bool>()))) {
        let enc = v.encode();
        prop_assert!(enc < u64::MAX);
        prop_assert_eq!(Option::<Option<bool>>::decode(enc), v);
    }

    /// Distinct slots of one cluster memory are independent; the same slot
    /// always agrees.
    #[test]
    fn cluster_memory_slot_independence(
        slots in proptest::collection::vec((0u64..4, 1u64..4, 0u8..3, 0u64..100), 1..40),
    ) {
        let mem = ClusterMemory::new();
        let mut model: std::collections::HashMap<(u64, u64, u8), u64> =
            std::collections::HashMap::new();
        for (instance, round, phase, value) in slots {
            let slot = Slot::in_instance(instance, round, phase);
            let got = mem.propose_raw(slot, value);
            let want = *model.entry((instance, round, phase)).or_insert(value);
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(mem.object_count(), model.len());
    }

    /// Graph degree sums equal twice the edge count, and every domain
    /// contains its center.
    #[test]
    fn graph_handshake_lemma(n in 2usize..20, p in 0.0f64..1.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = MmGraph::random_gnp(n, p, &mut rng);
        let degree_sum: usize = (0..n).map(|i| g.degree(ProcessId(i))).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for i in 0..n {
            prop_assert!(g.domain(ProcessId(i)).contains(ProcessId(i)));
            prop_assert_eq!(g.invocations_per_phase(ProcessId(i)), g.degree(ProcessId(i)) + 1);
        }
        prop_assert!(g.is_connected(), "spanning path guarantees connectivity");
    }

    /// The seeded common coin is the pure function of (seed, round).
    #[test]
    fn common_coin_is_deterministic(seed in any::<u64>(), round in 1u64..10_000) {
        prop_assert_eq!(CoinSpec::Seeded.bit(seed, round), common_bit(seed, round));
    }

    /// Summary statistics respect basic order axioms.
    #[test]
    fn summary_axioms(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::of(xs.iter().copied());
        prop_assert_eq!(s.count, xs.len());
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.p99 <= s.max);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Histogram counts and CDF are consistent.
    #[test]
    fn histogram_cdf_is_monotone(xs in proptest::collection::vec(0u64..50, 1..200)) {
        let h: Histogram = xs.iter().copied().collect();
        prop_assert_eq!(h.count(), xs.len() as u64);
        let mut prev = 0.0;
        for v in 0..=50 {
            let c = h.cdf(v);
            prop_assert!(c >= prev);
            prev = c;
        }
        prop_assert!((h.cdf(50) - 1.0).abs() < 1e-12);
        let mode = h.mode().unwrap();
        let max_freq = (0..=50).map(|v| h.frequency(v)).max().unwrap();
        prop_assert_eq!(h.frequency(mode), max_freq);
    }
}
