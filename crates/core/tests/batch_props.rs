//! Property tests for the batched analysis front-end on the shared
//! claim-cursor sweep: `map_nest_batch` must be bit-identical to serial
//! per-nest mapping at any worker count and any task-cost skew (mixed
//! kernel families of mixed sizes), and its [`SweepReport`] must tell
//! the truth about the workers actually used.

use proptest::prelude::*;
use rescomm::substrate::loopnest::examples;
use rescomm::{map_nest, map_nest_batch, MappingOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn map_nest_batch_is_bit_identical_to_serial_at_any_worker_count(
        fleet_spec in proptest::collection::vec((0u32..4, 2i64..8), 1..10),
        workers in 1usize..9,
    ) {
        // Mixed families at mixed sizes: the per-task cost skew the
        // shared cursor has to level out without changing any answer.
        let nests: Vec<_> = fleet_spec
            .iter()
            .map(|&(kind, n)| match kind {
                0 => examples::matmul(n),
                1 => examples::gauss_elim(n),
                2 => examples::adi_sweep(n),
                _ => examples::motivating_example(n, 2).0,
            })
            .collect();
        let opts = MappingOptions::new(2);
        let serial: Vec<_> = nests
            .iter()
            .map(|n| map_nest(n, &opts).unwrap())
            .collect();
        let (batch, report) = map_nest_batch(&nests, &opts, workers);
        let batch = batch.unwrap();
        prop_assert_eq!(report.requested, workers);
        prop_assert_eq!(report.workers, workers.clamp(1, nests.len()));
        prop_assert_eq!(report.tasks, nests.len());
        prop_assert_eq!(batch.len(), serial.len());
        for (i, (s, b)) in serial.iter().zip(&batch).enumerate() {
            prop_assert_eq!(&s.outcomes, &b.outcomes, "outcomes diverged on nest {}", i);
            prop_assert_eq!(&s.rotations, &b.rotations, "rotations diverged on nest {}", i);
            for (sa, ba) in s.alignment.stmt_alloc.iter().zip(&b.alignment.stmt_alloc) {
                prop_assert_eq!(&sa.mat, &ba.mat, "statement allocation diverged on nest {}", i);
            }
        }
    }
}
