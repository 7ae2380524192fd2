//! Gnutella-style unstructured overlay with TTL-limited query flooding.
//!
//! Reproduces the setting of Adar & Huberman's "Free riding on Gnutella"
//! (First Monday, 2000), which the paper cites as Problem 1 of open P2P
//! networks: most peers share nothing, and a tiny fraction of peers
//! answer nearly all queries.
//!
//! Files have Zipf popularity; sharers hold Zipf-sampled file sets, free
//! riders hold none. Queries flood the random overlay with a TTL.

use rand::Rng;

use decent_sim::prelude::*;

/// Identifier of a shareable file.
pub type FileId = u32;

/// Flooding-overlay messages.
#[derive(Clone, Debug)]
pub enum FloodMsg {
    /// A flooded query.
    Query {
        /// Unique query id (for duplicate suppression).
        id: u64,
        /// File being searched.
        file: FileId,
        /// Remaining hops.
        ttl: u32,
        /// Node that issued the query (receives hits directly).
        origin: NodeId,
    },
    /// A query hit sent straight back to the origin.
    Hit {
        /// Query id this answers.
        id: u64,
        /// File found.
        file: FileId,
    },
}

/// Per-node behaviour and measurement state.
#[derive(Debug)]
pub struct FloodNode {
    neighbors: Vec<NodeId>,
    shared: IdSet,
    seen: IdSet,
    /// Queries this node answered (it held the file).
    pub hits_served: u64,
    /// Query messages this node processed (relay load).
    pub queries_relayed: u64,
    /// Hits received for queries issued by this node: `(query, file, when)`.
    pub hits_received: Vec<(u64, FileId, SimTime)>,
}

impl FloodNode {
    /// Creates a node sharing the given files; repeats collapse.
    pub fn new(neighbors: Vec<NodeId>, shared: impl IntoIterator<Item = FileId>) -> Self {
        FloodNode {
            neighbors,
            shared: shared.into_iter().map(u64::from).collect(),
            seen: IdSet::new(),
            hits_served: 0,
            queries_relayed: 0,
            hits_received: Vec::new(),
        }
    }

    /// Whether the node shares nothing (a free rider).
    pub fn is_free_rider(&self) -> bool {
        self.shared.is_empty()
    }

    /// Number of files shared.
    pub fn shared_count(&self) -> usize {
        self.shared.len()
    }

    /// Issues a flooded query for `file` with the given TTL.
    pub fn query(&mut self, id: u64, file: FileId, ttl: u32, ctx: &mut Context<'_, FloodMsg>) {
        self.seen.insert(id);
        for &n in &self.neighbors {
            ctx.send(
                n,
                FloodMsg::Query {
                    id,
                    file,
                    ttl,
                    origin: ctx.id(),
                },
            );
        }
    }
}

impl Node for FloodNode {
    type Msg = FloodMsg;

    fn on_message(&mut self, from: NodeId, msg: FloodMsg, ctx: &mut Context<'_, FloodMsg>) {
        match msg {
            FloodMsg::Query {
                id,
                file,
                ttl,
                origin,
            } => {
                if !self.seen.insert(id) {
                    return; // duplicate
                }
                self.queries_relayed += 1;
                if self.shared.contains(u64::from(file)) {
                    self.hits_served += 1;
                    ctx.send(origin, FloodMsg::Hit { id, file });
                }
                if ttl > 1 {
                    for &n in &self.neighbors {
                        if n != from {
                            ctx.send(
                                n,
                                FloodMsg::Query {
                                    id,
                                    file,
                                    ttl: ttl - 1,
                                    origin,
                                },
                            );
                        }
                    }
                }
            }
            FloodMsg::Hit { id, file } => {
                self.hits_received.push((id, file, ctx.now()));
            }
        }
    }
}

/// Parameters of the Gnutella-like population.
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// Total number of distinct files in the system.
    pub catalog_size: usize,
    /// Zipf exponent of file popularity.
    pub popularity_exponent: f64,
    /// Fraction of peers sharing nothing (Adar & Huberman measured ~0.66).
    pub free_rider_fraction: f64,
    /// Mean files shared by an ordinary sharer.
    pub mean_files_per_sharer: f64,
    /// Fraction of sharers that are "power sharers" with huge
    /// libraries. Adar & Huberman's concentration ("top 1% provide 37%
    /// of all files") requires this measured mixture: most sharers hold
    /// a handful of files, a few hold hundreds.
    pub power_sharer_fraction: f64,
    /// Library size range of a power sharer.
    pub power_library: (usize, usize),
    /// Overlay out-degree.
    pub degree: usize,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            catalog_size: 1000,
            popularity_exponent: 0.8,
            free_rider_fraction: 0.66,
            mean_files_per_sharer: 12.0,
            power_sharer_fraction: 0.05,
            power_library: (200, 1000),
            degree: 4,
        }
    }
}

/// Builds a Gnutella-like network; returns node ids.
pub fn build_network<S: SchedulerFor<FloodNode>>(
    sim: &mut Simulation<FloodNode, S>,
    n: usize,
    cfg: &FloodConfig,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let graph = Graph::random_outbound(n, cfg.degree, &mut rng);
    let zipf = Zipf::new(cfg.catalog_size, cfg.popularity_exponent);
    (0..n)
        .map(|i| {
            let count = if rng.gen::<f64>() >= cfg.free_rider_fraction {
                // Measured mixture: a few power sharers with huge
                // libraries, everyone else with a handful of files.
                if rng.gen::<f64>() < cfg.power_sharer_fraction {
                    rng.gen_range(cfg.power_library.0..=cfg.power_library.1)
                } else {
                    (Exp::with_mean(cfg.mean_files_per_sharer)
                        .sample(&mut rng)
                        .ceil() as usize)
                        .max(1)
                }
            } else {
                0
            };
            let files =
                (0..count.min(cfg.catalog_size)).map(|_| zipf.sample_rank(&mut rng) as FileId);
            sim.add_node(FloodNode::new(graph.neighbors(i).to_vec(), files))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn population() -> (Simulation<FloodNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(41, UniformLatency::from_millis(30.0, 120.0));
        let ids = build_network(&mut sim, 600, &FloodConfig::default(), 42);
        sim.run_until(SimTime::from_secs(0.1));
        (sim, ids)
    }

    #[test]
    fn popular_queries_succeed_rare_ones_fail_more() {
        let (mut sim, ids) = population();
        // 40 queries for the most popular file, 40 for a very rare one.
        for q in 0..40u64 {
            let origin = ids[(q as usize * 11) % ids.len()];
            sim.invoke(origin, |n, ctx| n.query(q, 0, 5, ctx));
            sim.invoke(origin, |n, ctx| n.query(1000 + q, 987, 5, ctx));
        }
        sim.run_until(SimTime::from_secs(30.0));
        let hits = |lo: u64, hi: u64| {
            ids.iter()
                .flat_map(|&i| sim.node(i).hits_received.iter())
                .filter(|(q, _, _)| *q >= lo && *q < hi)
                .count()
        };
        let answered = |lo: u64, hi: u64| {
            ids.iter()
                .flat_map(|&i| sim.node(i).hits_received.iter())
                .filter(|(q, _, _)| *q >= lo && *q < hi)
                .map(|(q, _, _)| *q)
                .collect::<HashSet<u64>>()
                .len()
        };
        // A TTL-5 flood over 600 well-connected nodes reaches nearly
        // everyone, so even rare files are *found*; the popularity skew
        // shows up in the number of providers answering.
        let popular_hits = hits(0, 40);
        let rare_hits = hits(1000, 1040);
        assert!(
            popular_hits as f64 > 3.0 * rare_hits as f64,
            "popular hits {popular_hits} rare hits {rare_hits}"
        );
        assert!(
            answered(0, 40) >= 35,
            "popular file should almost always be found"
        );
    }

    #[test]
    fn free_riders_still_get_answers_but_serve_none() {
        let (mut sim, ids) = population();
        let rider = ids
            .iter()
            .copied()
            .find(|&i| sim.node(i).is_free_rider())
            .expect("66% free riders");
        sim.invoke(rider, |n, ctx| n.query(1, 0, 5, ctx));
        sim.run_until(SimTime::from_secs(30.0));
        assert!(!sim.node(rider).hits_received.is_empty());
        assert_eq!(sim.node(rider).hits_served, 0);
    }

    #[test]
    fn ttl_bounds_the_flood() {
        let (mut sim, ids) = population();
        sim.invoke(ids[0], |n, ctx| n.query(1, 0, 2, ctx));
        sim.run_until(SimTime::from_secs(30.0));
        let reached: usize = ids
            .iter()
            .filter(|&&i| sim.node(i).queries_relayed > 0)
            .count();
        assert!(
            reached < ids.len() / 2,
            "TTL 2 should not blanket 600 nodes, reached {reached}"
        );
    }

    #[test]
    fn duplicate_suppression() {
        let (mut sim, ids) = population();
        sim.invoke(ids[0], |n, ctx| n.query(1, 0, 7, ctx));
        sim.run_until(SimTime::from_secs(30.0));
        // Each node processes a given query at most once.
        for &i in &ids {
            assert!(sim.node(i).queries_relayed <= 1);
        }
    }
}
