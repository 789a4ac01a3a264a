//! Property tests on the fleet router. [`route`] is a pure function of
//! `(policy, views, cursor, key)`, which lets proptest pin down the four
//! invariants every balancer must hold before any simulation runs on top:
//! join-shortest-queue never routes to a strictly longer queue than the
//! minimum, power-of-two-choices only ever picks from its sampled pair,
//! round-robin cycles through the available replicas permutation-fairly,
//! and *no* policy routes to an open-breaker or unreachable (crashed /
//! partitioned / gray-ejected) replica while an available one exists. The
//! simulator does not call `route` but [`select_replica`], the selection
//! rule underneath it; one property holds the two to the same choice.

use at_core::fleet::{route, select_replica, ReplicaView, RouteDecision, RouterPolicy};
use at_core::guard::splitmix64;
use proptest::prelude::*;

/// An arbitrary replica view: bounded queue depth, busy flag, breaker
/// flag, degradation rung, reachability flag.
fn view_s() -> impl Strategy<Value = ReplicaView> {
    (
        0usize..50,
        prop::bool::ANY,
        prop::bool::ANY,
        0usize..6,
        prop::bool::ANY,
    )
        .prop_map(
            |(queue_len, busy, breaker_open, degradation, unreachable)| ReplicaView {
                queue_len,
                busy,
                breaker_open,
                degradation,
                unreachable,
            },
        )
}

fn available(v: &ReplicaView) -> bool {
    !v.breaker_open && !v.unreachable
}

fn views_s() -> impl Strategy<Value = Vec<ReplicaView>> {
    prop::collection::vec(view_s(), 1..12)
}

/// Views with at least `k` available replicas.
fn views_closed_s(k: usize) -> impl Strategy<Value = Vec<ReplicaView>> {
    prop::collection::vec(view_s(), 1..12).prop_filter("needs available replicas", move |vs| {
        vs.iter().filter(|v| available(v)).count() >= k
    })
}

/// Views with the corners forced often: nobody available, or exactly one.
fn views_with_corners_s() -> impl Strategy<Value = Vec<ReplicaView>> {
    (views_s(), 0usize..4, 0usize..12).prop_map(|(mut views, corner, keep)| {
        if corner < 2 {
            let keep = (corner == 1).then_some(keep % views.len());
            for (i, v) in views.iter_mut().enumerate() {
                v.breaker_open = keep != Some(i);
                v.unreachable &= keep != Some(i);
            }
        }
        views
    })
}

fn closed_of(views: &[ReplicaView]) -> Vec<usize> {
    views
        .iter()
        .enumerate()
        .filter(|(_, v)| available(v))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    /// No policy routes to an open-breaker replica while any closed
    /// replica exists; with every breaker open the decision is `None`;
    /// any chosen index is in bounds.
    #[test]
    fn never_routes_to_open_breaker(
        views in views_s(),
        cursor0 in 0usize..32,
        key in 0u64..u64::MAX,
        policy_ix in 0usize..3,
    ) {
        let policy = RouterPolicy::ALL[policy_ix];
        let closed = closed_of(&views);
        let mut cursor = cursor0;
        let RouteDecision { chosen, sampled } = route(policy, &views, &mut cursor, key);
        match chosen {
            Some(i) => {
                prop_assert!(i < views.len());
                prop_assert!(available(&views[i]),
                    "{policy:?} routed to open/unreachable replica {i}");
                prop_assert!(!closed.is_empty());
            }
            None => prop_assert!(closed.is_empty(),
                "{policy:?} returned None with available replicas {closed:?}"),
        }
        // Sampled sets only ever contain available replicas.
        for &s in &sampled {
            prop_assert!(available(&views[s]));
        }
    }

    /// Join-shortest-queue never routes to a strictly longer queue than
    /// the minimum over closed replicas.
    #[test]
    fn jsq_routes_to_a_minimum_queue(
        views in views_s(),
        key in 0u64..u64::MAX,
    ) {
        let closed = closed_of(&views);
        let mut cursor = 0;
        let d = route(RouterPolicy::JoinShortestQueue, &views, &mut cursor, key);
        if let Some(i) = d.chosen {
            let min_q = closed.iter().map(|&j| views[j].queue_len).min().unwrap();
            prop_assert_eq!(views[i].queue_len, min_q,
                "JSQ chose queue_len {} but the minimum is {}",
                views[i].queue_len, min_q);
        } else {
            prop_assert!(closed.is_empty());
        }
    }

    /// Power-of-two-choices only ever chooses one of its sampled replicas,
    /// samples at most two, both closed, and the choice minimises the
    /// QoS-aware score (queue depth + degradation rung) over the sample.
    #[test]
    fn po2_only_considers_sampled_replicas(
        views in views_s(),
        key in 0u64..u64::MAX,
    ) {
        let mut cursor = 0;
        let d = route(RouterPolicy::PowerOfTwoChoices, &views, &mut cursor, key);
        prop_assert!(d.sampled.len() <= 2, "po2 sampled {:?}", d.sampled);
        for &s in &d.sampled {
            prop_assert!(available(&views[s]));
        }
        if let Some(i) = d.chosen {
            prop_assert!(d.sampled.contains(&i),
                "po2 chose {} outside its sample {:?}", i, d.sampled);
            let score = |j: usize| views[j].queue_len + views[j].degradation;
            let best = d.sampled.iter().map(|&j| score(j)).min().unwrap();
            prop_assert_eq!(score(i), best);
        }
    }

    /// Power-of-two sampling is stateless: the same key over the same
    /// views yields the identical decision.
    #[test]
    fn po2_is_deterministic_in_its_key(
        views in views_s(),
        key in 0u64..u64::MAX,
    ) {
        let mut c1 = 0;
        let mut c2 = 0;
        let d1 = route(RouterPolicy::PowerOfTwoChoices, &views, &mut c1, key);
        let d2 = route(RouterPolicy::PowerOfTwoChoices, &views, &mut c2, key);
        prop_assert_eq!(d1, d2);
    }

    /// Round-robin is a permutation-fair cycle: over any window of
    /// `closed.len()` consecutive decisions with fixed views, every closed
    /// replica is chosen exactly once — regardless of the starting cursor.
    #[test]
    fn round_robin_is_permutation_fair(
        views in views_closed_s(1),
        cursor0 in 0usize..32,
    ) {
        let closed = closed_of(&views);
        let mut cursor = cursor0 % views.len();
        let mut counts = vec![0usize; views.len()];
        for k in 0..closed.len() {
            let d = route(RouterPolicy::RoundRobin, &views, &mut cursor, k as u64);
            let i = d.chosen.unwrap();
            counts[i] += 1;
        }
        for &i in &closed {
            prop_assert_eq!(counts[i], 1,
                "round-robin visited replica {} {} times in one cycle", i, counts[i]);
        }
        for (i, v) in views.iter().enumerate() {
            if !available(v) {
                prop_assert_eq!(counts[i], 0);
            }
        }
    }

    /// The round-robin cursor always lands one past the chosen replica, so
    /// consecutive arrivals never pile onto one replica while others are
    /// closed.
    #[test]
    fn round_robin_advances_past_its_choice(
        views in views_closed_s(2),
        cursor0 in 0usize..32,
    ) {
        let mut cursor = cursor0;
        let first = route(RouterPolicy::RoundRobin, &views, &mut cursor, 0)
            .chosen
            .unwrap();
        let second = route(RouterPolicy::RoundRobin, &views, &mut cursor, 1)
            .chosen
            .unwrap();
        prop_assert_ne!(first, second,
            "consecutive round-robin choices must differ with ≥2 available replicas");
    }

    /// The event loop's [`select_replica`] and the public [`route`] are one
    /// rule: same choice, same cursor advance, for every policy — nobody
    /// available and a single available replica included. What `route`
    /// adds, the examined set, is the hash-sampled pair (sorted, collapsed
    /// when both draws coincide) for power-of-two and every available
    /// replica otherwise.
    #[test]
    fn select_replica_and_route_agree(
        views in views_with_corners_s(),
        cursor0 in 0usize..32,
        key in 0u64..u64::MAX,
        policy_ix in 0usize..3,
    ) {
        let policy = RouterPolicy::ALL[policy_ix];
        let mut route_cursor = cursor0;
        let RouteDecision { chosen, sampled } = route(policy, &views, &mut route_cursor, key);
        let mut cursor = cursor0;
        let selected = select_replica(
            policy,
            views.len(),
            |i| available(&views[i]),
            |i| views[i],
            &mut cursor,
            key,
        );
        prop_assert_eq!(selected, chosen);
        prop_assert_eq!(cursor, route_cursor);

        let closed = closed_of(&views);
        let expected = if policy != RouterPolicy::PowerOfTwoChoices {
            closed
        } else if closed.is_empty() {
            Vec::new()
        } else {
            let draw = |k: u64| closed[(splitmix64(k) % closed.len() as u64) as usize];
            let (a, b) = (draw(key), draw(key ^ 0x9E37_79B9_7F4A_7C15));
            let mut pair = vec![a.min(b), a.max(b)];
            pair.dedup();
            pair
        };
        prop_assert_eq!(sampled, expected);
    }
}
