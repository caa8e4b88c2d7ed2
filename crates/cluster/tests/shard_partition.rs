//! How the admission-round conflict partition relates to static shard
//! ownership, probed at the adversarial corners.
//!
//! A conflict component is a set of requests transitively coupled
//! through shared ports; a [`ShardMap`] is a static cut of the port
//! space. The invariant that makes single-shard forwarding sound is
//! directional: a component whose every route respects the map lives
//! entirely on one shard (its ports never straddle the cut), so that
//! shard's engine sees the whole conflict neighbourhood of any request
//! it decides. The converse is false by design — a component may
//! straddle shards, and exactly those need the two-phase protocol.

use gridband_cluster::{Placement, ShardMap};
use gridband_net::{Route, Topology};

/// Connected components of a batch's port-conflict graph (two routes are
/// coupled when they share an ingress or an egress port), each a list of
/// indices into `routes`.
fn components(routes: &[Route]) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    // Node 2p is ingress p, node 2p + 1 is egress p.
    let node = |r: &Route| (2 * r.ingress.0 as usize, 2 * r.egress.0 as usize + 1);
    let nodes = routes.iter().map(|r| node(r).0.max(node(r).1) + 1).max();
    let mut parent: Vec<usize> = (0..nodes.unwrap_or(0)).collect();
    for r in routes {
        let (a, b) = (find(&mut parent, node(r).0), find(&mut parent, node(r).1));
        parent[a] = b;
    }
    let mut by_root = std::collections::BTreeMap::<usize, Vec<usize>>::new();
    for (i, r) in routes.iter().enumerate() {
        by_root
            .entry(find(&mut parent, node(r).0))
            .or_default()
            .push(i);
    }
    by_root.into_values().collect()
}

/// Every route of every component that respects the map must land on
/// the same shard as the rest of its component.
fn assert_components_confined(routes: &[Route], map: &ShardMap) {
    for comp in components(routes) {
        if comp.iter().all(|&i| map.respects(routes[i])) {
            let owners: std::collections::BTreeSet<usize> = comp
                .iter()
                .map(
                    |&i| match map.placement(routes[i].ingress.0, routes[i].egress.0) {
                        Placement::Single(s) => s,
                        Placement::Cross { .. } => unreachable!("respects() said single"),
                    },
                )
                .collect();
            assert_eq!(
                owners.len(),
                1,
                "a partition-respecting component spans shards {owners:?}"
            );
        }
    }
}

#[test]
fn every_route_crossing_the_cut_is_classified_cross() {
    // Adversarial: a batch where *every* request straddles the cut.
    // Each component then contains no single-shard member at all, and
    // the router must run the protocol for the entire batch.
    let topo = Topology::uniform(4, 4, 100.0);
    let map = ShardMap::new(&topo, 2); // shard 0: ports 0-1, shard 1: ports 2-3
    let routes: Vec<Route> = (0..2u32)
        .flat_map(|i| (2..4u32).map(move |e| Route::new(i, e)))
        .chain((2..4u32).flat_map(|i| (0..2u32).map(move |e| Route::new(i, e))))
        .collect();
    for r in &routes {
        assert!(
            matches!(
                map.placement(r.ingress.0, r.egress.0),
                Placement::Cross { .. }
            ),
            "route {r:?} should cross the cut"
        );
        assert!(!map.respects(*r));
    }
    // The conflict graph still partitions them (shared ports couple
    // them into components); none of those components is confined.
    let partition = components(&routes);
    assert!(!partition.is_empty());
    assert_components_confined(&routes, &map); // vacuously: no confined component
    for comp in &partition {
        assert!(
            comp.iter().any(|&i| !map.respects(routes[i])),
            "an all-cross batch produced a respecting component"
        );
    }
}

#[test]
fn single_giant_shard_confines_every_component() {
    // Degenerate cut: one shard owns everything, so every component —
    // including one giant component coupling all ports — is confined.
    let topo = Topology::uniform(6, 6, 100.0);
    let map = ShardMap::new(&topo, 1);
    // A chain i -> i and i -> i+1 that couples the whole port space
    // into one component.
    let mut routes = Vec::new();
    for i in 0..6u32 {
        routes.push(Route::new(i, i));
        routes.push(Route::new(i, (i + 1) % 6));
    }
    assert_eq!(
        components(&routes).iter().map(Vec::len).max(),
        Some(routes.len()),
        "the chain should couple everything into one component"
    );
    for r in &routes {
        assert_eq!(map.placement(r.ingress.0, r.egress.0), Placement::Single(0));
    }
    assert_components_confined(&routes, &map);
}

#[test]
fn block_boundary_ties_break_toward_the_lower_shard() {
    // Exact tie-break: 8 ports over 4 shards puts the block edges at
    // 2, 4, 6. Port 2k is the *first* port of shard k, port 2k+1 the
    // last — a route (2k-1, 2k) is adjacent in port space yet cross.
    let topo = Topology::uniform(8, 8, 100.0);
    let map = ShardMap::new(&topo, 4);
    for k in 0..4u32 {
        assert_eq!(map.ingress_owner(2 * k), k as usize);
        assert_eq!(map.ingress_owner(2 * k + 1), k as usize);
        assert_eq!(map.egress_owner(2 * k), k as usize);
    }
    assert_eq!(
        map.placement(1, 2),
        Placement::Cross {
            ingress: 0,
            egress: 1
        },
        "adjacent ports across a block edge must be cross-shard"
    );
    assert_eq!(map.placement(2, 3), Placement::Single(1));

    // Components built exactly on the boundary: {(1,1), (1,2), (2,2)}
    // is one conflict component (coupled through ingress 1 and egress
    // 2) containing both respecting and crossing members — so it is
    // NOT confined, and the confinement check must not claim it.
    let routes = vec![Route::new(1, 1), Route::new(1, 2), Route::new(2, 2)];
    assert_eq!(
        components(&routes).len(),
        1,
        "boundary chain should be one component"
    );
    assert!(
        !routes.iter().all(|r| map.respects(*r)),
        "the boundary component must contain a crossing member"
    );
    assert_components_confined(&routes, &map);
}

#[test]
fn confinement_holds_on_random_batches_across_shard_counts() {
    // Pseudo-random batches (seeded arithmetic, no rng needed): the
    // confinement invariant must hold for every shard count, including
    // ones that do not divide the port count.
    let topo = Topology::uniform(7, 7, 100.0);
    for shards in 1..=7usize {
        let map = ShardMap::new(&topo, shards);
        let routes: Vec<Route> = (0..64u32)
            .map(|i| Route::new((i * 5 + 3) % 7, (i * 11 + shards as u32) % 7))
            .collect();
        assert_components_confined(&routes, &map);
    }
}
