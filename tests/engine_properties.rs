//! Property tests on the paging engine: for random access streams over
//! every system, the engine must preserve its structural invariants.

use memory_disaggregation::prelude::*;
use memory_disaggregation::swap::{build_system, SystemKind};
use memory_disaggregation::types::DistributionRatio;
use proptest::prelude::*;

fn all_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Linux,
        SystemKind::Nbdx,
        SystemKind::Infiniswap,
        SystemKind::fastswap_default(),
        SystemKind::FastSwap {
            ratio: DistributionRatio::FS_5_5,
            compression: CompressionMode::TwoGranularity,
            pbs: false,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resident_set_never_exceeds_frames(
        accesses in proptest::collection::vec((0u64..96, any::<bool>()), 1..300),
        system_idx in 0usize..all_systems().len(),
    ) {
        let mut scale = SwapScale::small();
        scale.working_set_pages = 96;
        scale.memory_fraction = 0.33; // 32 frames
        let kind = all_systems()[system_idx];
        let mut engine = build_system(kind, &scale).unwrap();
        let frames = scale.frames();
        for (pfn, write) in accesses {
            engine.access(pfn, write).unwrap();
            prop_assert!(
                engine.resident_pages() <= frames,
                "{}: resident {} > frames {frames}",
                engine.system_name(),
                engine.resident_pages()
            );
        }
        let stats = engine.stats();
        // Conservation: every access is a hit, a writeback-buffer hit, or
        // one of the fault kinds.
        prop_assert!(stats.major_faults + stats.minor_faults + stats.writeback_hits <= stats.accesses);
        // Clean evictions never exceed total evictions implied by faults.
        prop_assert!(stats.swap_ins >= stats.major_faults, "{stats:?}");
    }

    #[test]
    fn time_is_monotone_and_positive(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..100),
    ) {
        let mut scale = SwapScale::small();
        scale.working_set_pages = 64;
        let mut engine = build_system(SystemKind::fastswap_default(), &scale).unwrap();
        let mut last = engine.clock().now();
        for (pfn, write) in accesses {
            engine.access(pfn, write).unwrap();
            let now = engine.clock().now();
            prop_assert!(now > last, "every access must consume virtual time");
            last = now;
        }
    }

    #[test]
    fn identical_streams_identical_outcomes(
        accesses in proptest::collection::vec((0u64..64, any::<bool>()), 1..120),
    ) {
        let mut scale = SwapScale::small();
        scale.working_set_pages = 64;
        let run = |accesses: &[(u64, bool)]| {
            let mut engine = build_system(SystemKind::fastswap_default(), &scale).unwrap();
            for &(pfn, write) in accesses {
                engine.access(pfn, write).unwrap();
            }
            (engine.stats(), engine.clock().now())
        };
        prop_assert_eq!(run(&accesses), run(&accesses));
    }
}
