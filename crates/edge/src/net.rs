//! The edge/cloud network: devices, nano-datacenters and a cloud region.
//!
//! Latency structure follows the paper's Fig. 1 world: devices sit next
//! to a nano-DC in their own region (single-digit milliseconds), while
//! the cloud datacenter lives in one region and is reached over the
//! inter-continental RTT matrix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use decent_sim::net::{NetworkModel, Region};
use decent_sim::prelude::*;

/// The tier a node belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tier {
    /// An end-user device (phone, sensor, PC).
    Device,
    /// A nano-datacenter at the network edge of its region.
    EdgeServer,
    /// The (centralized) cloud datacenter.
    Cloud,
}

/// Where a node lives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Tier of the node.
    pub tier: Tier,
    /// Geographic region.
    pub region: Region,
}

/// Network model over [`Placement`]s.
///
/// - device ↔ edge server, same region: `edge_latency` (~5 ms);
/// - anything ↔ cloud or cross-region: inter-region RTT matrix
///   plus `wan_extra` (last-mile + peering overhead);
/// - ±10% multiplicative jitter everywhere.
#[derive(Clone, Debug)]
pub struct EdgeNet {
    placements: Vec<Placement>,
    edge_latency: SimDuration,
    wan_extra: SimDuration,
    /// WAN byte tally, shared with [`wan_counter`](Self::wan_counter)
    /// handles. An atomic rather than `Rc<Cell>` so the model — and any
    /// node state holding a counter handle — is `Send` for sharded
    /// runs. The model itself is only ever driven from the engine's
    /// single routing thread (serial loop or sharded commit phase), so
    /// `Relaxed` ordering suffices and the tally stays deterministic.
    wan_bytes: Arc<AtomicU64>,
}

impl EdgeNet {
    /// Creates the model from per-node placements.
    pub fn new(placements: Vec<Placement>) -> Self {
        EdgeNet {
            placements,
            edge_latency: SimDuration::from_millis(5.0),
            wan_extra: SimDuration::from_millis(10.0),
            wan_bytes: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shared handle to the WAN-bytes counter; keep a clone before
    /// handing the model to the simulation to read traffic afterwards
    /// (read it with `load(Ordering::Relaxed)`).
    pub fn wan_counter(&self) -> Arc<AtomicU64> {
        self.wan_bytes.clone()
    }

    /// The placement of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned a placement.
    pub fn placement(&self, id: NodeId) -> Placement {
        self.placements[id]
    }

    fn base_delay(&self, a: Placement, b: Placement) -> (SimDuration, bool) {
        // (delay, crosses the WAN?)
        if a.region == b.region && a.tier != Tier::Cloud && b.tier != Tier::Cloud {
            (self.edge_latency, false)
        } else {
            (
                decent_sim::net::RegionNet::base_latency(a.region, b.region) + self.wan_extra,
                true,
            )
        }
    }
}

impl NetworkModel for EdgeNet {
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        use rand::Rng;
        if src == decent_sim::engine::EXTERNAL {
            return Some(SimDuration::from_millis(1.0));
        }
        let (base, wan) = self.base_delay(self.placements[src], self.placements[dst]);
        if wan {
            #[expect(
                clippy::disallowed_methods,
                reason = "merge-only WAN byte counter: Relaxed fetch_add, read solely after the run completes"
            )]
            self.wan_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        let jitter = 0.9 + 0.2 * rng.gen::<f64>();
        Some(base * jitter)
    }

    fn lookahead(&self) -> Option<SimDuration> {
        // Cheapest link between any two distinct placements, at the low
        // end of the jitter band (0.9×). `base_delay` depends only on
        // the placement pair, so the scan over distinct placements
        // covers every node pair.
        let mut distinct: Vec<Placement> = Vec::new();
        for &p in &self.placements {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        let mut min: Option<SimDuration> = None;
        for &a in &distinct {
            for &b in &distinct {
                let (d, _) = self.base_delay(a, b);
                min = Some(min.map_or(d, |m: SimDuration| m.min(d)));
            }
        }
        min.map(|d| d * 0.9)
    }

    fn shard_lookahead(&self, nodes: usize, shards: usize) -> Option<Vec<SimDuration>> {
        // Cheapest link between the placements actually present in each
        // shard pair: two shards without a shared region pay at least a
        // WAN hop, far above the same-region edge floor.
        let mut present: Vec<Vec<Placement>> = vec![Vec::new(); shards];
        for id in 0..nodes.min(self.placements.len()) {
            let p = self.placements[id];
            if !present[id % shards].contains(&p) {
                present[id % shards].push(p);
            }
        }
        let mut mat = Vec::with_capacity(shards * shards);
        for pj in &present {
            for pk in &present {
                let mut min: Option<SimDuration> = None;
                for &a in pj {
                    for &b in pk {
                        let (d, _) = self.base_delay(a, b);
                        min = Some(min.map_or(d, |m: SimDuration| m.min(d)));
                    }
                }
                // Empty shards: zero = "unknown", the executor falls
                // back to the global bound (and they never send anyway).
                mat.push(min.map_or(SimDuration::ZERO, |d| d * 0.9));
            }
        }
        Some(mat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decent_sim::rng::rng_from_seed;

    fn world() -> EdgeNet {
        EdgeNet::new(vec![
            Placement {
                tier: Tier::Device,
                region: Region::Europe,
            },
            Placement {
                tier: Tier::EdgeServer,
                region: Region::Europe,
            },
            Placement {
                tier: Tier::Cloud,
                region: Region::NorthAmerica,
            },
            Placement {
                tier: Tier::Device,
                region: Region::AsiaPacific,
            },
        ])
    }

    #[test]
    fn local_edge_is_fast_cloud_is_slow() {
        let mut net = world();
        let mut rng = rng_from_seed(1);
        let edge = net.delay(0, 1, 100, SimTime::ZERO, &mut rng).unwrap();
        let cloud = net.delay(0, 2, 100, SimTime::ZERO, &mut rng).unwrap();
        assert!(edge.as_millis() < 7.0, "edge {edge}");
        assert!(cloud.as_millis() > 100.0, "cloud {cloud}");
    }

    #[test]
    fn wan_bytes_counted_only_across_regions() {
        let mut net = world();
        let mut rng = rng_from_seed(2);
        let counter = net.wan_counter();
        net.delay(0, 1, 500, SimTime::ZERO, &mut rng);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
        net.delay(0, 2, 500, SimTime::ZERO, &mut rng);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        net.delay(3, 1, 200, SimTime::ZERO, &mut rng); // AP -> EU edge
        assert_eq!(counter.load(Ordering::Relaxed), 700);
    }

    #[test]
    fn lookahead_is_the_jittered_edge_floor() {
        let net = world();
        // Device↔edge in Europe is the cheapest link: 5 ms × 0.9.
        let la = net.lookahead().unwrap();
        assert_eq!(la, SimDuration::from_millis(5.0) * 0.9);
    }

    #[test]
    fn shard_lookahead_widens_wan_only_pairs() {
        let net = world();
        // One node per shard. Shard 0 → shard 1 (EU device → EU edge)
        // sits on the global edge floor; shard 0 → shard 2 (EU device →
        // NA cloud) can only be a WAN hop, so its bound is far wider.
        let mat = net.shard_lookahead(4, 4).unwrap();
        assert_eq!(mat.len(), 16);
        let global = net.lookahead().unwrap();
        assert_eq!(mat[4], global, "EU edge → EU device");
        assert!(
            mat[2] > global * 10.0,
            "EU device → NA cloud is a WAN link: {:?}",
            mat[2]
        );
    }
}
