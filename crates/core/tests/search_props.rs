//! Property tests on the search engine and configuration space.

use at_core::config::Config;
use at_core::knobs::KnobId;
use at_core::search::{Autotuner, SearchSpace};
use proptest::prelude::*;

fn space_strategy() -> impl Strategy<Value = SearchSpace> {
    proptest::collection::vec(1usize..8, 1..12).prop_map(|sizes| {
        SearchSpace::new(
            sizes
                .into_iter()
                .map(|n| (0..n as u16).map(KnobId).collect())
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn random_configs_stay_in_space(space in space_strategy(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = space.random(&mut rng);
        for (node, knobs) in space.node_knobs().iter().enumerate() {
            prop_assert!(knobs.contains(&c.knob(node)));
        }
    }

    #[test]
    fn index_roundtrip_for_any_space(space in space_strategy(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = space.random(&mut rng);
        prop_assert_eq!(space.from_indices(&space.to_indices(&c)), c);
    }

    #[test]
    fn tuner_terminates_and_tracks_best(
        space in space_strategy(),
        budget in 5usize..60,
    ) {
        let mut tuner = Autotuner::new(space, budget, budget, 7);
        let mut best_seen = f64::NEG_INFINITY;
        let mut iters = 0usize;
        while tuner.continue_tuning() {
            for p in tuner.propose_batch(1) {
                // Arbitrary deterministic fitness.
                let f = p.config.knobs().iter().map(|k| k.0 as f64).sum::<f64>();
                best_seen = best_seen.max(f);
                tuner.report_proposal(&p, f);
                iters += 1;
            }
            prop_assert!(iters <= budget + 1);
        }
        // The incumbent equals the best fitness ever reported.
        let (_, bf) = tuner.best().expect("at least one iteration ran");
        prop_assert!((bf - best_seen).abs() < 1e-12);
    }

    #[test]
    fn mutation_only_touches_tunable_sites(
        space in space_strategy(),
        seed in 0u64..500,
        sites in 1usize..4,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nk = space.node_knobs().to_vec();
        let base = Config::baseline_like(nk.len());
        let mutated = base.mutate(&nk, sites, &mut rng);
        for (node, knobs) in nk.iter().enumerate() {
            if knobs.len() <= 1 {
                prop_assert_eq!(mutated.knob(node), base.knob(node),
                    "non-tunable site {} changed", node);
            } else {
                prop_assert!(knobs.contains(&mutated.knob(node)));
            }
        }
    }
}

/// Helper mirroring `Config::baseline` without a graph.
trait BaselineLike {
    fn baseline_like(n: usize) -> Config;
}

impl BaselineLike for Config {
    fn baseline_like(n: usize) -> Config {
        Config::from_knobs(vec![KnobId::BASELINE; n])
    }
}
