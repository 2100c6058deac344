//! Lane loops, built for the widest vector unit the CPU has.
//!
//! Two loops run once per destination of every broadcast: the `Send`
//! fingerprints that [`crate::TraceRecorder::record_broadcast`] sums, and
//! the sampled delays of [`crate::NetIndex::delays_of`]. Each is one
//! independent chain of 64-bit multiplies per destination. The baseline
//! x86-64 target has no 64-bit lane multiply, so it runs them one lane at
//! a time. A [`Lanes`] body is written once, `#[inline(always)]`, and
//! compiled three ways: for AVX-512 (F, DQ and VL, whose `vpmullq`
//! multiplies eight lanes at once), for AVX2, and for the baseline.
//! [`widest`] runs the widest build the CPU it runs on supports, decided
//! when it runs, so every binary stays portable. Off x86-64 there is only
//! the baseline. Integer arithmetic is exact in every build, so each build
//! returns the baseline's answer bit for bit; the tests below check that
//! on every build the host can run.
//!
//! This module holds the workspace's only `unsafe`. Calling a function
//! compiled for a CPU feature is undefined behaviour on a CPU without it,
//! so the call is `unsafe`, and it sits right behind the run-time check
//! that the CPU has every feature the build enables.

/// One lane loop. Implementations mark [`Lanes::run`] `#[inline(always)]`,
/// so every build inlines its own copy of the loop.
pub(crate) trait Lanes {
    /// What the loop returns.
    type Output;

    /// Runs the loop.
    fn run(self) -> Self::Output;
}

/// Runs `lanes` as compiled for the widest build this CPU runs.
#[inline]
pub(crate) fn widest<L: Lanes>(lanes: L) -> L::Output {
    Build::widest()
        .run(lanes)
        .expect("the widest build runs here")
}

/// One compilation of every lane loop, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    /// AVX-512 F, DQ and VL: eight 64-bit lanes, with a lane multiply.
    Avx512,
    /// AVX2: four 64-bit lanes; a 64-bit multiply takes three 32-bit ones.
    Avx2,
    /// The target's baseline features.
    Baseline,
}

impl Build {
    /// Every build, widest first.
    #[cfg(test)]
    pub(crate) const ALL: [Build; 3] = [Build::Avx512, Build::Avx2, Build::Baseline];

    /// `true` if this CPU has every feature the build enables.
    pub(crate) fn runs_here(self) -> bool {
        match self {
            Build::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Build::Avx512 | Build::Avx2 => false,
        }
    }

    /// The widest build this CPU runs.
    pub(crate) fn widest() -> Build {
        if Build::Avx512.runs_here() {
            Build::Avx512
        } else if Build::Avx2.runs_here() {
            Build::Avx2
        } else {
            Build::Baseline
        }
    }

    /// Runs `lanes` as compiled for this build, or `None` if this CPU
    /// cannot run it.
    #[allow(unsafe_code)]
    #[inline]
    pub(crate) fn run<L: Lanes>(self, lanes: L) -> Option<L::Output> {
        if !self.runs_here() {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        match self {
            // SAFETY: `runs_here` has just checked that this CPU has
            // every feature the called build enables.
            Build::Avx512 => return Some(unsafe { x86::avx512(lanes) }),
            // SAFETY: as above.
            Build::Avx2 => return Some(unsafe { x86::avx2(lanes) }),
            Build::Baseline => {}
        }
        Some(lanes.run())
    }
}

/// The x86-64 builds: the same body, compiled with more features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn avx512<L: Lanes>(lanes: L) -> L::Output {
        lanes.run()
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn avx2<L: Lanes>(lanes: L) -> L::Output {
        lanes.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::UniformDelays;
    use crate::trace::SendSum;
    use proptest::prelude::*;
    use std::sync::Once;

    const SIZES: [u64; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 1000, 5003];

    /// The builds this host runs other than the baseline. The first call
    /// with each `printed` prints which builds `what` checks and skips.
    fn wider_builds(what: &str, printed: &Once) -> Vec<Build> {
        let (runs, skips): (Vec<Build>, Vec<Build>) = (Build::ALL.into_iter())
            .filter(|&b| b != Build::Baseline)
            .partition(|b| b.runs_here());
        printed
            .call_once(|| println!("{what}: checked {runs:?} against Baseline; skipped {skips:?}"));
        runs
    }

    fn check_send_sums(builds: &[Build], at: u64, stride: u64, who: u64, n: u64, code: u64) {
        let lanes = SendSum {
            at,
            stride,
            who,
            n,
            code,
        };
        let want = Build::Baseline
            .run(lanes)
            .expect("the baseline runs anywhere");
        for &build in builds {
            assert_eq!(build.run(lanes), Some(want), "{build:?} {lanes:?}");
        }
    }

    fn check_delays(builds: &[Build], head: u64, lo: u64, hi: u64, k0: u64, to: &[u32]) {
        let draw = |build: Build| {
            let mut out = vec![0; to.len()];
            let lanes = UniformDelays {
                head,
                lo,
                hi,
                k0,
                to,
                out: &mut out,
            };
            build.run(lanes).expect("checked to run here");
            out
        };
        let want = draw(Build::Baseline);
        for &build in builds {
            assert_eq!(draw(build), want, "{build:?} lo {lo} hi {hi} k0 {k0}");
        }
    }

    #[test]
    fn every_build_sums_what_the_baseline_sums() {
        let builds = wider_builds("send sums", &Once::new());
        for n in SIZES {
            for stride in [0, 1, 7] {
                for (at, who, code) in [(40, 4, 0x8000_0000_0000_0301), (1 << 40, 4_999, 7)] {
                    check_send_sums(&builds, at, stride, who, n, code);
                }
            }
        }
    }

    #[test]
    fn every_build_draws_what_the_baseline_draws() {
        let builds = wider_builds("uniform delays", &Once::new());
        let spans = [
            (5, 5),
            (0, 1),
            (300, 1300),
            (7, 7 + (1 << 32) - 1),
            (7, 7 + (1 << 32)),
        ];
        for n in SIZES {
            let to: Vec<u32> = (0..n as u32).rev().collect();
            for (lo, hi) in spans.into_iter().chain([(0, u64::MAX)]) {
                check_delays(&builds, 0x5DEE_CE66, lo, hi, 1 << 40, &to);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_send_sums_agree_on_every_build(
            at in 0..1u64 << 48,
            stride in 0..1u64 << 12,
            who in any::<u32>(),
            n in 0..3000u64,
            code in any::<u64>(),
        ) {
            static PRINTED: Once = Once::new();
            let builds = wider_builds("random send sums", &PRINTED);
            check_send_sums(&builds, at, stride, u64::from(who), n, code);
        }

        #[test]
        fn random_delays_agree_on_every_build(
            head in any::<u64>(),
            lo in 0..1u64 << 40,
            span in any_span(),
            k0 in 0..1u64 << 48,
            to in proptest::collection::vec(any::<u32>(), 0..600),
        ) {
            static PRINTED: Once = Once::new();
            let builds = wider_builds("random uniform delays", &PRINTED);
            check_delays(&builds, head, lo, lo + span - 1, k0, &to);
        }
    }

    /// A span as small as a network's, near `2³²` on either side, or wide.
    fn any_span() -> impl Strategy<Value = u64> {
        (0..4u32, any::<u64>()).prop_map(|(kind, word)| match kind {
            0 => 1 + word % 2_000,
            1 => (1 << 32) - word % 3,
            2 => (1 << 32) + 1 + word % 3,
            _ => 1 + word % (1 << 60),
        })
    }
}
