//! CAN — the Content-Addressable Network (Ratnasamy et al., SIGCOMM
//! 2001), the first of the paper's four canonical DHTs (\[5\]).
//!
//! The keyspace is a 2-d unit torus partitioned into axis-aligned
//! zones, one per node. Joins split the zone that contains a random
//! point; routing greedily forwards towards the target through zone
//! neighbors, giving `O(sqrt(n))` hops in two dimensions — the paper's
//! example of how early DHT geometry choices traded state for hops
//! (CAN keeps O(d) neighbors versus Chord/Pastry's O(log n)).
//!
//! Zone-takeover repair after failures is out of scope (the experiment
//! uses CAN for routing-geometry comparison); churn experiments use
//! Kademlia/Chord, which implement their repair protocols in full.

use rand::Rng;

use decent_sim::prelude::*;

use crate::lookup::{Hop, Lookups, Outcome, Route, Routed};

/// A point in the unit torus.
pub type Point = [f64; 2];

/// An axis-aligned zone `[lo, hi)` per dimension.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Zone {
    /// Inclusive lower corner.
    pub lo: Point,
    /// Exclusive upper corner.
    pub hi: Point,
}

impl Zone {
    /// The whole unit square.
    pub const UNIT: Zone = Zone {
        lo: [0.0, 0.0],
        hi: [1.0, 1.0],
    };

    /// Whether the zone contains `p`.
    pub fn contains(&self, p: &Point) -> bool {
        p.iter()
            .zip(&self.lo)
            .zip(&self.hi)
            .all(|((x, lo), hi)| lo <= x && x < hi)
    }

    /// Zone area.
    pub fn area(&self) -> f64 {
        (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1])
    }

    /// Splits along the longer dimension; returns `(kept, new)`.
    pub fn split(&self) -> (Zone, Zone) {
        let d = if self.hi[0] - self.lo[0] >= self.hi[1] - self.lo[1] {
            0
        } else {
            1
        };
        let mid = (self.lo[d] + self.hi[d]) / 2.0;
        let mut a = *self;
        let mut b = *self;
        a.hi[d] = mid;
        b.lo[d] = mid;
        (a, b)
    }

    /// Torus distance from the zone to a point (0 if contained).
    pub fn distance(&self, p: &Point) -> f64 {
        let mut acc = 0.0;
        for ((&x, &lo), &hi) in p.iter().zip(&self.lo).zip(&self.hi) {
            // Closest offset within [lo, hi) on the torus.
            let delta = if x >= lo && x < hi {
                0.0
            } else {
                let to_lo = torus_1d(x, lo);
                let to_hi = torus_1d(x, hi);
                to_lo.min(to_hi)
            };
            acc += delta * delta;
        }
        acc.sqrt()
    }

    /// Whether two zones abut (share a border segment) on the torus.
    pub fn is_neighbor(&self, other: &Zone) -> bool {
        let mut touching = 0;
        let mut overlapping = 0;
        for d in 0..2 {
            let touch = close(self.hi[d], other.lo[d])
                || close(self.lo[d], other.hi[d])
                || close(self.hi[d] - 1.0, other.lo[d])
                || close(self.lo[d], other.hi[d] - 1.0);
            let overlap = self.lo[d] < other.hi[d] && other.lo[d] < self.hi[d];
            if touch {
                touching += 1;
            }
            if overlap {
                overlapping += 1;
            }
        }
        touching >= 1 && overlapping >= 1
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn torus_1d(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// CAN's messages: the lookup core's route/deliver pair, owner by node.
pub type CanMsg = Routed<Point, NodeId>;

/// A CAN node. Implements [`Node`] for the engine.
#[derive(Debug)]
pub struct CanNode {
    zone: Zone,
    neighbors: Vec<(NodeId, Zone)>,
    lookups: Lookups<Point>,
    /// Completed lookups, harvested by the experiment harness.
    pub results: Vec<Outcome<Point, NodeId>>,
}

impl CanNode {
    /// Creates a node owning `zone`.
    pub fn new(zone: Zone) -> Self {
        CanNode {
            zone,
            neighbors: Vec::new(),
            lookups: Lookups::default(),
            results: Vec::new(),
        }
    }

    /// This node's zone.
    pub fn zone(&self) -> Zone {
        self.zone
    }

    /// Current neighbor count (CAN's O(d) state).
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Issues a lookup for `target`. CAN arms no deadline: zones tile
    /// the torus and are never repaired, so every lookup resolves.
    pub fn start_lookup(&mut self, target: Point, ctx: &mut Context<'_, CanMsg>) -> u64 {
        let first = self.lookups.start(target, (), None, ctx);
        self.route(first, ctx);
        first.rpc
    }

    /// Deliver if our zone holds the target, else greedy: the neighbor
    /// zone closest to it. Zones tile the torus, so some neighbor is
    /// strictly closer than we are.
    fn route(&mut self, route: Route<Point>, ctx: &mut Context<'_, CanMsg>) {
        let target = route.target;
        let hop = if self.zone.contains(&target) {
            Hop::Deliver(ctx.id())
        } else {
            self.neighbors
                .iter()
                .min_by(|(_, a), (_, b)| a.distance(&target).total_cmp(&b.distance(&target)))
                .map_or(Hop::Drop, |&(id, _)| Hop::Forward(id))
        };
        let done = self.lookups.step(hop, route, ctx);
        self.results.extend(done.map(|(_, o)| o));
    }
}

impl Node for CanNode {
    type Msg = CanMsg;

    fn on_message(&mut self, _from: NodeId, msg: CanMsg, ctx: &mut Context<'_, CanMsg>) {
        match msg {
            Routed::Route(route) => self.route(route, ctx),
            Routed::Delivered { rpc, owner, hops } => {
                let done = self.lookups.complete(rpc, owner, hops, ctx.now());
                self.results.extend(done.map(|(_, o)| o));
            }
        }
    }
}

/// Builds a CAN by `n - 1` random-point joins of the unit square and
/// wires up zone neighbors. Returns the node ids.
pub fn build_network(sim: &mut Simulation<CanNode>, n: usize, seed: u64) -> Vec<NodeId> {
    assert!(n >= 1);
    let mut rng = rng_from_seed(seed);
    let mut zones: Vec<Zone> = vec![Zone::UNIT];
    while zones.len() < n {
        let p = [rng.gen::<f64>(), rng.gen::<f64>()];
        let owner = zones
            .iter()
            .position(|z| z.contains(&p))
            .expect("zones tile the torus");
        let (kept, new) = zones[owner].split();
        zones[owner] = kept;
        zones.push(new);
    }
    let ids: Vec<NodeId> = zones
        .iter()
        .map(|&z| sim.add_node(CanNode::new(z)))
        .collect();
    for i in 0..n {
        let mut neighbors = Vec::new();
        for j in 0..n {
            if i != j && zones[i].is_neighbor(&zones[j]) {
                neighbors.push((ids[j], zones[j]));
            }
        }
        sim.node_mut(ids[i]).neighbors = neighbors;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn network(n: usize, seed: u64) -> (Simulation<CanNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
        let ids = build_network(&mut sim, n, seed ^ 1);
        sim.run_until(SimTime::from_secs(0.1));
        (sim, ids)
    }

    #[test]
    fn zones_tile_the_unit_square() {
        let (sim, ids) = network(200, 21);
        let total: f64 = ids.iter().map(|&i| sim.node(i).zone().area()).sum();
        assert!((total - 1.0).abs() < 1e-9, "area {total}");
        // Any point belongs to exactly one zone.
        let mut rng = rng_from_seed(22);
        use rand::Rng;
        for _ in 0..200 {
            let p = [rng.gen::<f64>(), rng.gen::<f64>()];
            let owners = ids
                .iter()
                .filter(|&&i| sim.node(i).zone().contains(&p))
                .count();
            assert_eq!(owners, 1, "point {p:?}");
        }
    }

    #[test]
    fn routing_reaches_the_owner() {
        let (mut sim, ids) = network(150, 23);
        use rand::Rng;
        let targets: Vec<Point> = {
            let rng = sim.rng();
            (0..30)
                .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
                .collect()
        };
        for (i, &t) in targets.iter().enumerate() {
            let origin = ids[(i * 17) % ids.len()];
            sim.invoke(origin, |n, ctx| {
                n.start_lookup(t, ctx);
            });
        }
        sim.run_until(SimTime::from_secs(60.0));
        let mut checked = 0;
        for &id in &ids {
            for r in &sim.node(id).results {
                assert!(
                    sim.node(r.owner.unwrap()).zone().contains(&r.target),
                    "delivered to a non-owner"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 30, "every lookup must complete");
    }

    #[test]
    fn hops_scale_like_sqrt_n() {
        let mean_hops = |n: usize, seed: u64| {
            let (mut sim, ids) = network(n, seed);
            use rand::Rng;
            let targets: Vec<Point> = {
                let rng = sim.rng();
                (0..40)
                    .map(|_| [rng.gen::<f64>(), rng.gen::<f64>()])
                    .collect()
            };
            for (i, &t) in targets.iter().enumerate() {
                let origin = ids[(i * 13) % ids.len()];
                sim.invoke(origin, |node, ctx| {
                    node.start_lookup(t, ctx);
                });
            }
            sim.run_until(SimTime::from_secs(120.0));
            let mut h = Histogram::new();
            for &id in &ids {
                for r in &sim.node(id).results {
                    h.record(r.hops as f64);
                }
            }
            assert_eq!(h.count(), 40);
            h.mean()
        };
        let small = mean_hops(64, 25);
        let big = mean_hops(576, 26); // 9x nodes -> ~3x hops
        assert!(
            big > 1.8 * small,
            "CAN hops must grow ~sqrt(n): {small} -> {big}"
        );
        assert!(big < 6.0 * small, "but not linearly: {small} -> {big}");
    }

    #[test]
    fn neighbor_state_stays_small() {
        let (sim, ids) = network(400, 27);
        let mean: f64 = ids
            .iter()
            .map(|&i| sim.node(i).neighbor_count() as f64)
            .sum::<f64>()
            / ids.len() as f64;
        // O(2d) with split imbalance slack — far below log2(400) ~ 8.6
        // entries *per row* that prefix DHTs keep.
        assert!(mean < 10.0, "mean neighbors {mean}");
        assert!(
            mean >= 4.0,
            "2-d zones must average >= 2d neighbors: {mean}"
        );
    }

    #[test]
    fn zone_split_preserves_area_and_adjacency() {
        let (a, b) = Zone::UNIT.split();
        assert!((a.area() + b.area() - 1.0).abs() < 1e-12);
        assert!(a.is_neighbor(&b));
        // Splits alternate dimensions via the longest-side rule.
        let (aa, ab) = a.split();
        assert!(aa.is_neighbor(&ab));
        assert!((aa.area() - 0.25).abs() < 1e-12);
    }
}
