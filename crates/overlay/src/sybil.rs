//! Sybil and eclipse attacks on the Kademlia overlay (Douceur, IPTPS
//! 2002; Steiner et al. on KAD; Problem 3 of the paper's Section II-B).
//!
//! The adversary injects `s` identities from a few physical machines.
//! Each sybil answers FIND requests with *other sybils only*, so once a
//! lookup touches one sybil it tends to be steered entirely into the
//! adversary's identity set. The **eclipse** variant concentrates sybil
//! keys around a victim key, capturing its closest set.

use rand::Rng;

use decent_sim::prelude::*;

use crate::id::Key;
use crate::kademlia::{build_network, Contact, KadConfig, KadNode};

/// How the adversary chooses sybil identities.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SybilPlacement {
    /// Uniformly random keys (whole-keyspace pollution).
    Uniform,
    /// Keys sharing a long prefix with a victim key (eclipse).
    Eclipse {
        /// Shared prefix length in bits.
        prefix_bits: usize,
    },
}

/// Attack configuration.
#[derive(Clone, Debug)]
pub struct SybilConfig {
    /// Honest population size.
    pub honest: usize,
    /// Number of sybil identities.
    pub sybils: usize,
    /// Identity placement strategy.
    pub placement: SybilPlacement,
    /// Key the eclipse variant targets (and lookups aim at).
    pub victim_key: Key,
    /// Kademlia parameters shared by everyone.
    pub kad: KadConfig,
}

impl Default for SybilConfig {
    fn default() -> Self {
        SybilConfig {
            honest: 500,
            sybils: 500,
            placement: SybilPlacement::Uniform,
            victim_key: Key::from_u64(0xBEEF),
            kad: KadConfig {
                k: 8,
                ..KadConfig::default()
            },
        }
    }
}

/// Measured effect of the attack on honest lookups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SybilOutcome {
    /// Lookups whose entire k-closest result set is sybil identities.
    pub fully_captured: usize,
    /// Lookups whose majority of the result set is sybil.
    pub majority_captured: usize,
    /// Lookups whose single closest result is a sybil.
    pub top_captured: usize,
    /// Total completed lookups.
    pub lookups: usize,
}

impl SybilOutcome {
    /// Fraction of lookups with a sybil-majority result set.
    pub fn capture_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.majority_captured as f64 / self.lookups as f64
        }
    }
}

/// Builds an attacked network and returns `(sim, honest_ids, sybil_ids)`.
///
/// Honest nodes are pre-converged as in
/// [`build_network`]; sybils then insert
/// themselves into honest routing tables (modelling the crawl-and-inject
/// phase measured on KAD by Steiner et al.).
pub fn build_attacked_network(
    cfg: &SybilConfig,
    seed: u64,
) -> (Simulation<KadNode>, Vec<NodeId>, Vec<NodeId>) {
    let mut sim = Simulation::new(seed, UniformLatency::from_millis(20.0, 80.0));
    let honest = build_network(&mut sim, cfg.honest, &cfg.kad, 0.0, 8, seed ^ 0xABCD);
    let mut rng = rng_from_seed(seed ^ 0x515);
    // Generate sybil identities.
    let sybil_keys: Vec<Key> = (0..cfg.sybils)
        .map(|_| match cfg.placement {
            SybilPlacement::Uniform => Key::random(&mut rng),
            SybilPlacement::Eclipse { prefix_bits } => {
                // Copy the victim prefix, randomize the tail.
                let mut k = Key::random(&mut rng);
                let v = cfg.victim_key.as_bytes();
                let mut b = *k.as_bytes();
                let whole = prefix_bits / 8;
                b[..whole].copy_from_slice(&v[..whole]);
                let rem = prefix_bits % 8;
                if rem > 0 {
                    let idx = prefix_bits / 8;
                    let mask = 0xFFu8 << (8 - rem);
                    b[idx] = (v[idx] & mask) | (b[idx] & !mask);
                }
                k = Key::from_bytes(b);
                k
            }
        })
        .collect();
    let sybil_ids: Vec<NodeId> = sybil_keys
        .iter()
        .map(|&k| sim.add_node(KadNode::new(k, cfg.kad.clone())))
        .collect();
    let directory: Vec<Contact> = sybil_ids
        .iter()
        .zip(&sybil_keys)
        .map(|(&node, &key)| Contact { node, key })
        .collect();
    for &id in &sybil_ids {
        sim.node_mut(id).make_sybil(directory.clone());
    }
    // Injection phase: each honest node learns a handful of sybils.
    // Forced insertion models the adversary keeping its identities fresh
    // in honest buckets (crawl-and-inject, as measured on KAD).
    let per_node = ((cfg.sybils * 8) / cfg.honest.max(1)).clamp(1, 16);
    let now = sim.now();
    for &h in &honest {
        let picks: Vec<Contact> = (0..per_node)
            .map(|_| directory[rng.gen_range(0..directory.len())])
            .collect();
        sim.node_mut(h).force_insert(&picks, now);
    }
    (sim, honest, sybil_ids)
}

/// Runs `lookups` honest lookups for the victim key and measures capture.
pub fn measure_capture(
    sim: &mut Simulation<KadNode>,
    honest: &[NodeId],
    sybils: &[NodeId],
    victim_key: Key,
    lookups: usize,
) -> SybilOutcome {
    sim.run_until(sim.now() + SimDuration::from_secs(1.0));
    for i in 0..lookups {
        let origin = honest[i % honest.len()];
        sim.invoke(origin, |n, ctx| n.start_lookup(victim_key, false, ctx));
    }
    let deadline = sim.now() + SimDuration::from_secs(300.0);
    sim.run_until(deadline);
    let sybil_set: std::collections::HashSet<NodeId> = sybils.iter().copied().collect();
    let mut out = SybilOutcome::default();
    for &h in honest {
        for r in &sim.node(h).results {
            out.lookups += 1;
            let total = r.closest.len();
            let captured = r
                .closest
                .iter()
                .filter(|c| sybil_set.contains(&c.node))
                .count();
            if total > 0 {
                if captured == total {
                    out.fully_captured += 1;
                }
                if 2 * captured > total {
                    out.majority_captured += 1;
                }
                if sybil_set.contains(&r.closest[0].node) {
                    out.top_captured += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attack(sybils: usize, placement: SybilPlacement) -> SybilOutcome {
        let cfg = SybilConfig {
            honest: 300,
            sybils,
            placement,
            ..SybilConfig::default()
        };
        let (mut sim, honest, sybil_ids) = build_attacked_network(&cfg, 81);
        measure_capture(&mut sim, &honest, &sybil_ids, cfg.victim_key, 60)
    }

    #[test]
    fn no_sybils_no_capture() {
        let out = attack(1, SybilPlacement::Uniform);
        assert!(out.lookups >= 50);
        assert!(
            out.capture_rate() < 0.1,
            "one sybil cannot capture: {out:?}"
        );
    }

    #[test]
    fn equal_sybils_capture_many_lookups() {
        let out = attack(300, SybilPlacement::Uniform);
        assert!(out.lookups >= 50);
        assert!(
            out.capture_rate() > 0.3,
            "50% sybil identities should poison lookups: {out:?}"
        );
    }

    #[test]
    fn eclipse_needs_far_fewer_identities() {
        let targeted = attack(30, SybilPlacement::Eclipse { prefix_bits: 24 });
        let untargeted = attack(30, SybilPlacement::Uniform);
        assert!(
            targeted.top_captured > untargeted.top_captured,
            "eclipse {targeted:?} vs uniform {untargeted:?}"
        );
        assert!(
            targeted.top_captured as f64 / targeted.lookups as f64 > 0.5,
            "30 targeted identities should own the victim's closest set: {targeted:?}"
        );
    }
}
