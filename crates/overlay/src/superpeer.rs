//! Two-tier superpeer overlay (Kazaa / eMule / early-Skype style).
//!
//! Leaves register their shared-file index with one superpeer; queries go
//! leaf → superpeer → (flood among superpeers) → hit. The paper notes
//! (Section II) that superpeer overlays "solved the problem" of
//! Gnutella's slow flooding by concentrating routing on stable peers —
//! at the price of load concentration, which the tests quantify.

use std::collections::{HashMap, HashSet};

use rand::Rng;

use decent_sim::prelude::*;

use crate::flood::FileId;

/// Superpeer-overlay messages.
#[derive(Clone, Debug)]
pub enum SpMsg {
    /// Leaf registers its file list with its superpeer.
    Register {
        /// Files shared by the leaf.
        files: Vec<FileId>,
    },
    /// Query from a leaf to its superpeer.
    Query {
        /// Query id.
        id: u64,
        /// File searched.
        file: FileId,
        /// Leaf that issued the query.
        origin: NodeId,
    },
    /// Query forwarded among superpeers.
    SpQuery {
        /// Query id.
        id: u64,
        /// File searched.
        file: FileId,
        /// Leaf that issued the query.
        origin: NodeId,
        /// Remaining superpeer hops.
        ttl: u32,
    },
    /// Hit delivered to the querying leaf: `provider` holds the file.
    Hit {
        /// Query id this answers.
        id: u64,
        /// A node sharing the file.
        provider: NodeId,
    },
}

/// Role and state of a node in the two-tier overlay.
#[derive(Debug)]
pub enum SpNode {
    /// An index-holding superpeer.
    Super {
        /// Other superpeers (flooding mesh).
        peers: Vec<NodeId>,
        /// file -> providers among registered leaves.
        index: HashMap<FileId, Vec<NodeId>>,
        /// Duplicate suppression.
        seen: HashSet<u64>,
        /// Queries processed (load).
        load: u64,
    },
    /// An ordinary leaf.
    Leaf {
        /// This leaf's superpeer.
        parent: NodeId,
        /// Files this leaf shares.
        files: Vec<FileId>,
        /// Hits received: `(query, provider, when)`.
        hits: Vec<(u64, NodeId, SimTime)>,
    },
}

impl SpNode {
    /// Queries processed, when this is a superpeer.
    pub fn load(&self) -> u64 {
        match self {
            SpNode::Super { load, .. } => *load,
            SpNode::Leaf { .. } => 0,
        }
    }

    /// Hits received, when this is a leaf.
    pub fn hits(&self) -> &[(u64, NodeId, SimTime)] {
        match self {
            SpNode::Leaf { hits, .. } => hits,
            SpNode::Super { .. } => &[],
        }
    }

    /// Issues a query from a leaf.
    ///
    /// # Panics
    ///
    /// Panics if called on a superpeer.
    pub fn query(&mut self, id: u64, file: FileId, ctx: &mut Context<'_, SpMsg>) {
        match self {
            SpNode::Leaf { parent, .. } => {
                let origin = ctx.id();
                ctx.send(*parent, SpMsg::Query { id, file, origin });
            }
            SpNode::Super { .. } => panic!("superpeers do not issue leaf queries"),
        }
    }
}

impl Node for SpNode {
    type Msg = SpMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, SpMsg>) {
        if let SpNode::Leaf { parent, files, .. } = self {
            if !files.is_empty() {
                ctx.send(
                    *parent,
                    SpMsg::Register {
                        files: files.clone(),
                    },
                );
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: SpMsg, ctx: &mut Context<'_, SpMsg>) {
        match (&mut *self, msg) {
            (SpNode::Super { index, .. }, SpMsg::Register { files }) => {
                for f in files {
                    index.entry(f).or_default().push(from);
                }
            }
            (
                SpNode::Super {
                    peers,
                    index,
                    seen,
                    load,
                },
                SpMsg::Query { id, file, origin },
            ) => {
                seen.insert(id);
                *load += 1;
                if let Some(providers) = index.get(&file) {
                    let provider = providers[ctx.rng().gen_range(0..providers.len())];
                    ctx.send(origin, SpMsg::Hit { id, provider });
                    return;
                }
                for &p in peers.iter() {
                    ctx.send(
                        p,
                        SpMsg::SpQuery {
                            id,
                            file,
                            origin,
                            ttl: 2,
                        },
                    );
                }
            }
            (
                SpNode::Super {
                    peers,
                    index,
                    seen,
                    load,
                },
                SpMsg::SpQuery {
                    id,
                    file,
                    origin,
                    ttl,
                },
            ) => {
                if !seen.insert(id) {
                    return;
                }
                *load += 1;
                if let Some(providers) = index.get(&file) {
                    let provider = providers[ctx.rng().gen_range(0..providers.len())];
                    ctx.send(origin, SpMsg::Hit { id, provider });
                    return;
                }
                if ttl > 1 {
                    for &p in peers.iter() {
                        if p != from {
                            ctx.send(
                                p,
                                SpMsg::SpQuery {
                                    id,
                                    file,
                                    origin,
                                    ttl: ttl - 1,
                                },
                            );
                        }
                    }
                }
            }
            (SpNode::Leaf { hits, .. }, SpMsg::Hit { id, provider }) => {
                hits.push((id, provider, ctx.now()));
            }
            // Stray messages after role confusion (e.g. hit to a superpeer)
            // are ignored.
            _ => {}
        }
    }
}

/// Builds a two-tier overlay: `n_super` superpeers in a full mesh, each
/// leaf attached to a random superpeer. Returns `(superpeers, leaves)`.
pub fn build_network(
    sim: &mut Simulation<SpNode>,
    n_super: usize,
    n_leaves: usize,
    files_per_leaf: impl Fn(usize, &mut SimRng) -> Vec<FileId>,
    seed: u64,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut rng = rng_from_seed(seed);
    let supers: Vec<NodeId> = (0..n_super)
        .map(|_| {
            sim.add_node(SpNode::Super {
                peers: Vec::new(),
                index: HashMap::new(),
                seen: HashSet::new(),
                load: 0,
            })
        })
        .collect();
    for &s in &supers {
        let peers: Vec<NodeId> = supers.iter().copied().filter(|&p| p != s).collect();
        if let SpNode::Super { peers: p, .. } = sim.node_mut(s) {
            *p = peers;
        }
    }
    let leaves: Vec<NodeId> = (0..n_leaves)
        .map(|i| {
            let parent = supers[rng.gen_range(0..supers.len())];
            let files = files_per_leaf(i, &mut rng);
            sim.add_node(SpNode::Leaf {
                parent,
                files,
                hits: Vec::new(),
            })
        })
        .collect();
    (supers, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_files(i: usize, _rng: &mut SimRng) -> Vec<FileId> {
        // A third of leaves share files; file ids cluster small.
        if i.is_multiple_of(3) {
            vec![(i % 50) as FileId]
        } else {
            Vec::new()
        }
    }

    fn network() -> (Simulation<SpNode>, Vec<NodeId>, Vec<NodeId>) {
        let mut sim = Simulation::new(51, UniformLatency::from_millis(20.0, 80.0));
        let (supers, leaves) = build_network(&mut sim, 10, 500, shared_files, 52);
        sim.run_until(SimTime::from_secs(1.0));
        (sim, supers, leaves)
    }

    #[test]
    fn queries_resolve_in_few_hops() {
        let (mut sim, _s, leaves) = network();
        let start = sim.now();
        sim.invoke(leaves[1], |n, ctx| n.query(1, 3, ctx));
        sim.run_until(SimTime::from_secs(10.0));
        let hits = sim.node(leaves[1]).hits();
        // A superpeer flood can yield one hit per indexing superpeer.
        assert!(!hits.is_empty(), "query should hit at least once");
        assert!(hits.iter().all(|(id, _, _)| *id == 1));
        let rtt = hits[0].2.saturating_since(start);
        // Leaf -> SP -> (<=2 SP hops) -> leaf: well under a second.
        assert!(rtt.as_secs() < 1.0, "rtt {rtt}");
    }

    #[test]
    fn load_concentrates_on_superpeers() {
        let (mut sim, supers, leaves) = network();
        for q in 0..200u64 {
            let leaf = leaves[(q as usize * 7) % leaves.len()];
            let file = (q % 50) as FileId;
            sim.invoke(leaf, |n, ctx| n.query(q, file, ctx));
        }
        sim.run_until(SimTime::from_secs(60.0));
        let sp_load: u64 = supers.iter().map(|&s| sim.node(s).load()).sum();
        assert!(sp_load >= 200, "superpeers carry all query load: {sp_load}");
        for &l in &leaves {
            assert_eq!(sim.node(l).load(), 0);
        }
    }

    #[test]
    fn missing_files_produce_no_hits() {
        let (mut sim, _s, leaves) = network();
        sim.invoke(leaves[0], |n, ctx| n.query(9, 40_000, ctx));
        sim.run_until(SimTime::from_secs(10.0));
        assert!(sim.node(leaves[0]).hits().is_empty());
    }
}
