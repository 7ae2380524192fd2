//! BitTorrent-style swarm with tit-for-tat choking.
//!
//! Reproduces the incentive mechanism the paper credits for mitigating
//! free riding (Section II-B, Problem 1): every rechoke period a peer
//! unchokes its top reciprocators plus one optimistic slot. The model is
//! round-based — BitTorrent's rechoke really does run on a 10-second
//! clock — with piece transfers resolved per round from per-peer upload
//! budgets.
//!
//! Turning tit-for-tat off (random unchoking) lets free riders download
//! as fast as contributors; turning it on relegates them to optimistic
//! slots only. The paper's second observation — "collaboration is only
//! enforced during the download" — appears as peers leaving at
//! completion, starving the tail of the swarm.

use rand::seq::SliceRandom;
use rand::Rng;

use decent_sim::prelude::*;

/// Behaviour class of a peer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PeerClass {
    /// Uploads according to its capacity and seeds briefly when done.
    Contributor,
    /// Never uploads; leaves the instant its download completes.
    FreeRider,
    /// Starts with all pieces and only uploads.
    Seed,
}

/// Swarm parameters.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Number of pieces in the torrent.
    pub pieces: usize,
    /// Upload budget of a contributor, in pieces per round.
    pub upload_per_round: usize,
    /// Upload budget of a seed, in pieces per round.
    pub seed_upload_per_round: usize,
    /// Unchoke slots per peer (the classic 4 = 3 reciprocal + 1 optimistic).
    pub unchoke_slots: usize,
    /// Whether the reciprocal slots use tit-for-tat ranking
    /// (false = all slots random, the "no incentives" ablation).
    pub tit_for_tat: bool,
    /// Rounds a contributor seeds after completing before leaving.
    pub linger_rounds: usize,
    /// Rechoke period (one round) in simulated seconds, for reporting.
    pub round_secs: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            pieces: 200,
            upload_per_round: 4,
            seed_upload_per_round: 8,
            unchoke_slots: 4,
            tit_for_tat: true,
            linger_rounds: 6,
            round_secs: 10.0,
        }
    }
}

#[derive(Clone, Debug)]
struct Peer {
    class: PeerClass,
    have: Vec<bool>,
    have_count: usize,
    /// Pieces received from each peer during the previous round.
    received_from: Vec<u32>,
    completed_round: Option<usize>,
    departed: bool,
    optimistic: Option<usize>,
    optimistic_age: usize,
}

impl Peer {
    fn new(class: PeerClass, pieces: usize, n: usize) -> Self {
        let done = class == PeerClass::Seed;
        Peer {
            class,
            have: vec![done; pieces],
            have_count: if done { pieces } else { 0 },
            received_from: vec![0; n],
            completed_round: Some(0).filter(|_| done),
            departed: false,
            optimistic: None,
            optimistic_age: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.have_count == self.have.len()
    }

    fn active(&self) -> bool {
        !self.departed
    }
}

/// Per-class completion statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwarmReport {
    /// Completion times (seconds) of contributors.
    pub contributor_times: Histogram,
    /// Completion times (seconds) of free riders.
    pub free_rider_times: Histogram,
    /// Peers that never finished within the horizon.
    pub unfinished: usize,
    /// Rounds simulated.
    pub rounds: usize,
}

/// A round-based swarm simulation.
///
/// # Examples
///
/// ```
/// use decent_overlay::swarm::{SwarmConfig, SwarmSim};
///
/// let mut swarm = SwarmSim::with_population(SwarmConfig::default(), 60, 0.25, 2, 1);
/// let report = swarm.run(2000);
/// assert_eq!(report.unfinished, 0);
/// ```
#[derive(Debug)]
pub struct SwarmSim {
    cfg: SwarmConfig,
    peers: Vec<Peer>,
    rng: SimRng,
    round: usize,
    /// Global piece availability, for rarest-first selection.
    availability: Vec<u32>,
}

impl SwarmSim {
    /// Creates a swarm with the given class for each peer.
    pub fn new(cfg: SwarmConfig, classes: &[PeerClass], seed: u64) -> Self {
        let n = classes.len();
        let peers: Vec<Peer> = classes
            .iter()
            .map(|&c| Peer::new(c, cfg.pieces, n))
            .collect();
        let mut availability = vec![0u32; cfg.pieces];
        for p in &peers {
            for (i, &h) in p.have.iter().enumerate() {
                if h {
                    availability[i] += 1;
                }
            }
        }
        SwarmSim {
            cfg,
            peers,
            rng: rng_from_seed(seed),
            round: 0,
            availability,
        }
    }

    /// Convenience constructor: `seeds` seeds, then contributors with the
    /// given fraction replaced by free riders.
    pub fn with_population(
        cfg: SwarmConfig,
        n_leechers: usize,
        free_rider_fraction: f64,
        seeds: usize,
        seed: u64,
    ) -> Self {
        let mut rng = rng_from_seed(seed ^ 0x5347);
        let mut classes = vec![PeerClass::Seed; seeds];
        for _ in 0..n_leechers {
            classes.push(if rng.gen::<f64>() < free_rider_fraction {
                PeerClass::FreeRider
            } else {
                PeerClass::Contributor
            });
        }
        SwarmSim::new(cfg, &classes, seed)
    }

    /// Number of peers (including departed ones).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Returns true if the swarm has no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Class of peer `i`.
    pub fn class(&self, i: usize) -> PeerClass {
        self.peers[i].class
    }

    /// Completion round of peer `i`, if it finished.
    pub fn completed_round(&self, i: usize) -> Option<usize> {
        self.peers[i].completed_round
    }

    /// Runs until everyone finished/departed or `max_rounds` elapsed, and
    /// reports per-class completion times.
    pub fn run(&mut self, max_rounds: usize) -> SwarmReport {
        while self.round < max_rounds && self.someone_downloading() {
            self.step();
        }
        let mut report = SwarmReport {
            rounds: self.round,
            ..SwarmReport::default()
        };
        for p in &self.peers {
            match (p.class, p.completed_round) {
                (PeerClass::Seed, _) => {}
                (PeerClass::Contributor, Some(r)) => report
                    .contributor_times
                    .record(r as f64 * self.cfg.round_secs),
                (PeerClass::FreeRider, Some(r)) => report
                    .free_rider_times
                    .record(r as f64 * self.cfg.round_secs),
                (_, None) => report.unfinished += 1,
            }
        }
        report
    }

    fn someone_downloading(&self) -> bool {
        self.peers.iter().any(|p| p.active() && !p.is_done())
    }

    /// Executes one rechoke round.
    #[expect(clippy::needless_range_loop, reason = "indices address several arrays")]
    pub fn step(&mut self) {
        self.round += 1;
        let n = self.peers.len();
        // 1. Each uploader picks its unchoke set.
        let mut unchokes: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if !self.peers[i].active() {
                continue;
            }
            let budget_ok = match self.peers[i].class {
                PeerClass::FreeRider => false,
                PeerClass::Seed | PeerClass::Contributor => true,
            };
            if !budget_ok
                || (self.peers[i].class == PeerClass::Contributor && self.peers[i].have_count == 0)
            {
                continue;
            }
            // Interested peers: active, not done, missing something we have.
            let interested: Vec<usize> = (0..n)
                .filter(|&j| {
                    j != i
                        && self.peers[j].active()
                        && !self.peers[j].is_done()
                        && self.has_wanted_piece(i, j)
                })
                .collect();
            if interested.is_empty() {
                continue;
            }
            let slots = self.cfg.unchoke_slots;
            let mut chosen: Vec<usize> = Vec::with_capacity(slots);
            if self.cfg.tit_for_tat && self.peers[i].class == PeerClass::Contributor {
                // Top (slots - 1) reciprocators by pieces received last round.
                let mut ranked = interested.clone();
                ranked.sort_by_key(|&j| std::cmp::Reverse(self.peers[i].received_from[j]));
                for &j in ranked
                    .iter()
                    .filter(|&&j| self.peers[i].received_from[j] > 0)
                    .take(slots.saturating_sub(1))
                {
                    chosen.push(j);
                }
                // One rotating optimistic unchoke.
                let rotate = self.peers[i].optimistic_age.is_multiple_of(3);
                let current = self.peers[i].optimistic;
                let keep = current.filter(|c| !rotate && interested.contains(c));
                let opt = keep.or_else(|| {
                    interested
                        .iter()
                        .copied()
                        .filter(|j| !chosen.contains(j))
                        .collect::<Vec<_>>()
                        .choose(&mut self.rng)
                        .copied()
                });
                if let Some(o) = opt {
                    if !chosen.contains(&o) {
                        chosen.push(o);
                    }
                    self.peers[i].optimistic = Some(o);
                }
                self.peers[i].optimistic_age += 1;
            } else {
                // Seeds and the no-TFT ablation: random unchokes.
                let mut pool = interested.clone();
                pool.shuffle(&mut self.rng);
                chosen.extend(pool.into_iter().take(slots));
            }
            unchokes[i] = chosen;
        }
        // 2. Resolve transfers: split each uploader's budget across its
        //    unchoked peers; receivers pick rarest-first pieces.
        let mut received: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (from, count)
        for i in 0..n {
            if unchokes[i].is_empty() {
                continue;
            }
            let budget = match self.peers[i].class {
                PeerClass::Seed => self.cfg.seed_upload_per_round,
                PeerClass::Contributor => self.cfg.upload_per_round,
                PeerClass::FreeRider => 0,
            };
            // Per-slot bandwidth: budget is split across the configured
            // slot count, so a lone optimistic unchoke does not receive
            // the uploader's entire capacity.
            let share = (budget / self.cfg.unchoke_slots).max(1);
            for &j in &unchokes[i] {
                received[j].push((i, share));
            }
        }
        // Reset reciprocation ledgers before crediting this round.
        for p in &mut self.peers {
            p.received_from.iter_mut().for_each(|x| *x = 0);
        }
        for j in 0..n {
            for &(i, count) in &received[j] {
                let got = self.transfer(i, j, count);
                self.peers[j].received_from[i] += got as u32;
            }
        }
        // 3. Completions and departures.
        for i in 0..n {
            let done = self.peers[i].is_done();
            let p = &mut self.peers[i];
            if !p.active() {
                continue;
            }
            if done && p.completed_round.is_none() {
                p.completed_round = Some(self.round);
            }
            if let Some(r) = p.completed_round {
                let leave_after = match p.class {
                    PeerClass::FreeRider => 0,
                    PeerClass::Contributor => self.cfg.linger_rounds,
                    PeerClass::Seed => usize::MAX,
                };
                if leave_after != usize::MAX && self.round >= r + leave_after {
                    p.departed = true;
                }
            }
        }
    }

    fn has_wanted_piece(&self, from: usize, to: usize) -> bool {
        self.peers[from]
            .have
            .iter()
            .zip(&self.peers[to].have)
            .any(|(&f, &t)| f && !t)
    }

    /// Moves up to `count` pieces from `from` to `to`, rarest first.
    fn transfer(&mut self, from: usize, to: usize, count: usize) -> usize {
        let mut wanted: Vec<usize> = (0..self.cfg.pieces)
            .filter(|&k| self.peers[from].have[k] && !self.peers[to].have[k])
            .collect();
        wanted.sort_by_key(|&k| self.availability[k]);
        let mut moved = 0;
        for k in wanted.into_iter().take(count) {
            self.peers[to].have[k] = true;
            self.peers[to].have_count += 1;
            self.availability[k] += 1;
            moved += 1;
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(tft: bool, free_riders: f64) -> SwarmReport {
        let cfg = SwarmConfig {
            pieces: 100,
            tit_for_tat: tft,
            ..SwarmConfig::default()
        };
        let mut swarm = SwarmSim::with_population(cfg, 120, free_riders, 3, 71);
        swarm.run(2000)
    }

    #[test]
    fn everyone_finishes_eventually() {
        let r = run(true, 0.25);
        assert_eq!(r.unfinished, 0, "report: {r:?}");
        assert!(r.contributor_times.count() > 0);
        assert!(r.free_rider_times.count() > 0);
    }

    #[test]
    fn tit_for_tat_penalizes_free_riders() {
        let mut r = run(true, 0.25);
        let contributors = r.contributor_times.percentile(0.5);
        let riders = r.free_rider_times.percentile(0.5);
        assert!(
            riders > 1.5 * contributors,
            "riders {riders}s vs contributors {contributors}s"
        );
    }

    #[test]
    fn without_tit_for_tat_free_riding_is_free() {
        let mut r = run(false, 0.25);
        let contributors = r.contributor_times.percentile(0.5);
        let riders = r.free_rider_times.percentile(0.5);
        assert!(
            riders < 1.5 * contributors,
            "random choking should not single out riders: {riders} vs {contributors}"
        );
    }

    #[test]
    fn pure_contributor_swarm_is_fast_and_fair() {
        let mut r = run(true, 0.0);
        assert_eq!(r.unfinished, 0);
        let spread = r.contributor_times.max() / r.contributor_times.percentile(0.5);
        assert!(spread < 4.0, "completion spread {spread}");
    }

    #[test]
    fn seeds_never_depart_and_rescue_the_tail() {
        // Even 100% free riders eventually finish off seeds alone.
        let cfg = SwarmConfig {
            pieces: 50,
            tit_for_tat: true,
            ..SwarmConfig::default()
        };
        let mut swarm = SwarmSim::with_population(cfg, 30, 1.0, 2, 72);
        let r = swarm.run(5000);
        assert_eq!(r.unfinished, 0, "seeds must carry a rider-only swarm");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(true, 0.3);
        let b = run(true, 0.3);
        assert_eq!(a, b);
    }
}
