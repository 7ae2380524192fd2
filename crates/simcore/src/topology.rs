//! Undirected graphs for overlay topologies.
//!
//! Blockchains and unstructured overlays connect peers in (near-)random
//! graphs. The experiments use one family, [`Graph::random_outbound`]:
//! each node opens a fixed number of outbound connections, the
//! Bitcoin-like peer-selection shape. It draws only from a
//! caller-supplied [`SimRng`], so a seed fully determines the graph:
//!
//! ```
//! use decent_sim::rng::rng_from_seed;
//! use decent_sim::topology::Graph;
//!
//! let g = Graph::random_outbound(64, 4, &mut rng_from_seed(7));
//! assert_eq!(g.len(), 64);
//! assert!(g.is_connected());
//! assert_eq!(g, Graph::random_outbound(64, 4, &mut rng_from_seed(7)));
//! ```

use std::collections::VecDeque;

use rand::Rng;

use crate::rng::SimRng;

/// A simple undirected graph over nodes `0..n`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph with `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns true if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge, ignoring self-loops and duplicates.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b || self.adj[a].contains(&b) {
            return;
        }
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// Neighbors of node `i`.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Whether the graph is connected (true for the empty graph).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut q = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = q.pop_front() {
            for &w in &self.adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    q.push_back(w);
                }
            }
        }
        count == self.adj.len()
    }

    /// A ring over `n` nodes (each node linked to its successor).
    pub fn ring(n: usize) -> Self {
        let mut g = Graph::empty(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    /// Random graph where each node opens `k` connections to distinct
    /// random peers (the Bitcoin peer-selection shape); resulting degrees
    /// average `2k`. Always connected in practice for `k >= 2`; a ring is
    /// added underneath to guarantee it.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`.
    pub fn random_outbound(n: usize, k: usize, rng: &mut SimRng) -> Self {
        assert!(k < n, "k must be smaller than n");
        let mut g = Graph::ring(n);
        for i in 0..n {
            let mut tries = 0;
            let mut added = 0;
            while added < k && tries < 20 * k {
                let j = rng.gen_range(0..n);
                tries += 1;
                if j != i && !g.adj[i].contains(&j) {
                    g.add_edge(i, j);
                    added += 1;
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn ring_shape() {
        let g = Graph::ring(10);
        assert_eq!(g.edge_count(), 10);
        assert!(g.is_connected());
        assert!((0..10).all(|i| g.degree(i) == 2));
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn random_outbound_is_connected_and_dense_enough() {
        let mut rng = rng_from_seed(1);
        let g = Graph::random_outbound(500, 8, &mut rng);
        assert!(g.is_connected());
        let mean_deg: f64 = (0..500).map(|i| g.degree(i) as f64).sum::<f64>() / 500.0;
        assert!(mean_deg >= 16.0, "mean degree {mean_deg}");
    }
}
