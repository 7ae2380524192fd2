//! Network models: how long a message takes from `src` to `dst`.
//!
//! Models are composable — wrap an inner model in
//! [`Faulty`](crate::fault::Faulty) to add scripted loss, delay,
//! partitions and duplication. The workhorse for planet-scale
//! experiments is [`RegionNet`], which combines a measured
//! inter-continental RTT matrix with per-region bandwidth (the same
//! approach as the SimBlock blockchain simulator).

use rand::Rng;

use crate::engine::NodeId;
use crate::fault::FaultStats;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Decides delivery delay (or loss) for each message.
pub trait NetworkModel {
    /// Returns the one-way delay for `bytes` bytes from `src` to `dst`
    /// sent at `now`, or `None` if the message is lost.
    ///
    /// Models may keep state across calls (e.g. per-sender transmit
    /// queues, as in [`LanNet`]).
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration>;

    /// Optionally schedules a second, duplicate delivery of the message.
    ///
    /// The engine calls this once per message whose [`delay`] returned
    /// `Some`; a `Some(d)` here delivers an extra copy after `d`. The
    /// default implementation never duplicates and — by contract —
    /// consumes no RNG, so plain models are unaffected by the extra call.
    /// Overridden by [`Faulty`](crate::fault::Faulty) during scripted
    /// duplication windows.
    ///
    /// [`delay`]: NetworkModel::delay
    fn duplicate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let _ = (src, dst, bytes, now, rng);
        None
    }

    /// Fault-injection statistics, when this model records them.
    ///
    /// `None` for plain models (the default). [`Faulty`](crate::fault::Faulty)
    /// returns its counters here, which is how
    /// [`Simulation::metrics_snapshot`](crate::engine::Simulation::metrics_snapshot)
    /// surfaces `faults_active`, `msgs_dropped_partition`, and friends
    /// without downcasting the boxed model.
    fn fault_stats(&self) -> Option<FaultStats> {
        None
    }

    /// A lower bound on every delay [`delay`](NetworkModel::delay) can
    /// ever return (its *lookahead*), or `None` when no bound is known.
    ///
    /// Sharded execution ([`Simulation::set_shards`]) uses this as its
    /// only window bound: a window opens at the earliest pending event
    /// `t0` and ends at `t0 + lookahead`, since no message sent inside it
    /// can reach another node before it closes, so shards may advance
    /// that far without synchronizing. The bound must hold for
    /// *all* argument combinations and internal states; when in doubt,
    /// return something smaller (it costs parallelism, never
    /// correctness). Models returning `None` — or a zero bound — make
    /// sharded simulations fall back to serial-equivalent stepping.
    ///
    /// [`Simulation::set_shards`]: crate::engine::Simulation::set_shards
    fn lookahead(&self) -> Option<SimDuration> {
        None
    }
}

/// Fixed one-way latency, no loss, infinite bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstantLatency {
    latency: SimDuration,
}

impl ConstantLatency {
    /// Creates a model with the given one-way latency.
    pub fn new(latency: SimDuration) -> Self {
        ConstantLatency { latency }
    }

    /// Convenience constructor from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        ConstantLatency::new(SimDuration::from_millis(ms))
    }
}

impl NetworkModel for ConstantLatency {
    fn delay(
        &mut self,
        _s: NodeId,
        _d: NodeId,
        _b: u64,
        _now: SimTime,
        _r: &mut SimRng,
    ) -> Option<SimDuration> {
        Some(self.latency)
    }

    fn lookahead(&self) -> Option<SimDuration> {
        Some(self.latency)
    }
}

/// Latency drawn uniformly from `[min, max]` per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformLatency {
    min: SimDuration,
    max: SimDuration,
}

impl UniformLatency {
    /// Creates a model with latency uniform in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min latency must not exceed max");
        UniformLatency { min, max }
    }

    /// Convenience constructor from milliseconds.
    pub fn from_millis(min_ms: f64, max_ms: f64) -> Self {
        UniformLatency::new(
            SimDuration::from_millis(min_ms),
            SimDuration::from_millis(max_ms),
        )
    }
}

impl NetworkModel for UniformLatency {
    fn delay(
        &mut self,
        _s: NodeId,
        _d: NodeId,
        _b: u64,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let span = (self.max - self.min).as_nanos();
        let extra = if span == 0 {
            0
        } else {
            rng.gen_range(0..=span)
        };
        Some(self.min + SimDuration::from_nanos(extra))
    }

    fn lookahead(&self) -> Option<SimDuration> {
        Some(self.min)
    }
}

/// A switched LAN/datacenter network with per-sender transmit queues.
///
/// Each node has a NIC of `bandwidth_bps`; concurrent sends from the
/// same node serialize behind each other, so a primary broadcasting a
/// large batch to `n` replicas pays O(n) transmit time — the bottleneck
/// that makes PBFT throughput fall with the replica count.
#[derive(Clone, Debug)]
pub struct LanNet {
    latency: SimDuration,
    bandwidth_bps: f64,
    busy_until: Vec<SimTime>,
}

impl LanNet {
    /// Creates a LAN model with the given propagation latency and
    /// per-node NIC bandwidth in bits/s.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        LanNet {
            latency,
            bandwidth_bps,
            busy_until: Vec::new(),
        }
    }

    /// A typical datacenter network: 0.5 ms latency, 1 Gbit/s NICs.
    pub fn datacenter() -> Self {
        LanNet::new(SimDuration::from_millis(0.5), 1e9)
    }
}

impl NetworkModel for LanNet {
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        _rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let _ = dst;
        if src == crate::engine::EXTERNAL {
            return Some(self.latency);
        }
        if src >= self.busy_until.len() {
            self.busy_until.resize(src + 1, SimTime::ZERO);
        }
        let tx = SimDuration::from_secs(bytes as f64 * 8.0 / self.bandwidth_bps);
        let start = self.busy_until[src].max(now);
        self.busy_until[src] = start + tx;
        Some(start.saturating_since(now) + tx + self.latency)
    }

    fn lookahead(&self) -> Option<SimDuration> {
        // NIC queueing and serialization only ever add to propagation.
        Some(self.latency)
    }
}

/// Geographic region of a node, for planet-scale latency modelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// North America.
    NorthAmerica,
    /// Europe.
    Europe,
    /// South America.
    SouthAmerica,
    /// Asia-Pacific (excluding Japan).
    AsiaPacific,
    /// Japan.
    Japan,
    /// Australia / Oceania.
    Australia,
}

impl Region {
    /// All regions, in matrix order.
    pub const ALL: [Region; 6] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::SouthAmerica,
        Region::AsiaPacific,
        Region::Japan,
        Region::Australia,
    ];

    /// Approximate distribution of Bitcoin nodes across regions circa
    /// 2019 (as used by the SimBlock simulator).
    pub const BITCOIN_2019_DISTRIBUTION: [f64; 6] = [0.33, 0.50, 0.02, 0.08, 0.04, 0.03];

    fn index(self) -> usize {
        match self {
            Region::NorthAmerica => 0,
            Region::Europe => 1,
            Region::SouthAmerica => 2,
            Region::AsiaPacific => 3,
            Region::Japan => 4,
            Region::Australia => 5,
        }
    }

    /// Samples a region from a probability distribution over
    /// [`Region::ALL`] (weights need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any weight is negative.
    pub fn sample(weights: &[f64; 6], rng: &mut SimRng) -> Region {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative and not all zero"
        );
        let mut u = rng.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return Region::ALL[i];
            }
        }
        Region::Australia
    }
}

/// Measured average one-way latencies between regions, in milliseconds
/// (SimBlock / Bitcoin network measurement values, 2019).
const REGION_LATENCY_MS: [[f64; 6]; 6] = [
    [32.0, 124.0, 184.0, 198.0, 151.0, 189.0],
    [124.0, 11.0, 227.0, 237.0, 252.0, 294.0],
    [184.0, 227.0, 88.0, 325.0, 301.0, 322.0],
    [198.0, 237.0, 325.0, 85.0, 58.0, 198.0],
    [151.0, 252.0, 301.0, 58.0, 12.0, 126.0],
    [189.0, 294.0, 322.0, 126.0, 126.0, 16.0],
];

/// Per-region download bandwidth in Mbit/s (SimBlock 2019 values).
const REGION_DOWNLOAD_MBPS: [f64; 6] = [52.0, 40.0, 18.0, 22.0, 23.0, 16.0];
/// Per-region upload bandwidth in Mbit/s (SimBlock 2019 values).
const REGION_UPLOAD_MBPS: [f64; 6] = [19.0, 15.0, 5.0, 7.0, 9.0, 6.0];

/// Per `[src][dst]` region pair: one-way latency in ms, and the link's
/// bits/s (the sender's upload capped by the receiver's download).
const REGION_LINKS: [[(f64, f64); 6]; 6] = {
    let mut links = [[(0.0, 0.0); 6]; 6];
    let mut a = 0;
    while a < 6 {
        let mut b = 0;
        while b < 6 {
            let mbps = REGION_UPLOAD_MBPS[a].min(REGION_DOWNLOAD_MBPS[b]);
            links[a][b] = (REGION_LATENCY_MS[a][b], mbps * 1e6);
            b += 1;
        }
        a += 1;
    }
    links
};

/// Planet-scale model: region latency matrix + per-region bandwidth +
/// multiplicative jitter.
///
/// Delay = `latency(src_region, dst_region) * U(0.9, 1.1)
/// + bytes / min(upload(src), download(dst))`.
///
/// # Examples
///
/// ```
/// use decent_sim::net::{NetworkModel, Region, RegionNet};
/// use decent_sim::rng::rng_from_seed;
///
/// let mut rng = rng_from_seed(1);
/// let mut net = RegionNet::new(vec![Region::Europe, Region::Japan]);
/// let d = net.delay(0, 1, 256, decent_sim::time::SimTime::ZERO, &mut rng).unwrap();
/// assert!(d.as_millis() > 200.0); // EU <-> JP is a long haul
/// ```
#[derive(Clone, Debug)]
pub struct RegionNet {
    regions: Vec<Region>,
    jitter: f64,
}

impl RegionNet {
    /// Creates a region model from per-node region assignments.
    pub fn new(regions: Vec<Region>) -> Self {
        RegionNet {
            regions,
            jitter: 0.1,
        }
    }

    /// Samples `n` node regions from `weights` and builds the model.
    pub fn sampled(n: usize, weights: &[f64; 6], rng: &mut SimRng) -> Self {
        RegionNet::new((0..n).map(|_| Region::sample(weights, rng)).collect())
    }

    /// Sets the multiplicative jitter half-width (default 0.1 = ±10%).
    pub fn jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter));
        self.jitter = jitter;
        self
    }

    /// The region of node `id`.
    ///
    /// Nodes beyond the assignment list default to Europe (useful for
    /// late-joining nodes).
    pub fn region_of(&self, id: NodeId) -> Region {
        self.regions.get(id).copied().unwrap_or(Region::Europe)
    }

    /// Mean one-way latency between two regions.
    pub fn base_latency(a: Region, b: Region) -> SimDuration {
        SimDuration::from_millis(REGION_LATENCY_MS[a.index()][b.index()])
    }
}

impl NetworkModel for RegionNet {
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        _now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let (ra, rb) = (self.region_of(src), self.region_of(dst));
        let (base, bps) = REGION_LINKS[ra.index()][rb.index()];
        let jitter = 1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0);
        let total_ms = base * jitter + (bytes as f64 * 8.0) / bps * 1e3;
        Some(SimDuration::from_millis(total_ms))
    }

    fn lookahead(&self) -> Option<SimDuration> {
        // Cheapest matrix entry at the far low end of the jitter band;
        // the bandwidth term only adds.
        let min_ms = REGION_LATENCY_MS
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        Some(SimDuration::from_millis(min_ms * (1.0 - self.jitter)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn constant_latency() {
        let mut m = ConstantLatency::from_millis(25.0);
        let mut rng = rng_from_seed(1);
        assert_eq!(
            m.delay(0, 1, 100, SimTime::ZERO, &mut rng),
            Some(SimDuration::from_millis(25.0))
        );
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let mut m = UniformLatency::from_millis(10.0, 20.0);
        let mut rng = rng_from_seed(2);
        for _ in 0..1000 {
            let d = m
                .delay(0, 1, 0, SimTime::ZERO, &mut rng)
                .unwrap()
                .as_millis();
            assert!((10.0..=20.0).contains(&d), "{d}");
        }
    }

    #[test]
    fn lossy_drops_expected_fraction() {
        // Plain random loss is a whole-run Degrade in a fault plan.
        use crate::fault::{FaultPlan, Faulty, LinkSet};
        let end = SimTime::from_secs(10.0);
        let plan = FaultPlan::new().degrade(SimTime::ZERO, end, LinkSet::All, 1.0, 0.3);
        let mut m = Faulty::new(ConstantLatency::from_millis(1.0), plan);
        let mut rng = rng_from_seed(3);
        let drops = (0..10_000)
            .filter(|_| m.delay(0, 1, 0, SimTime::ZERO, &mut rng).is_none())
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        assert_eq!(m.fault_stats().unwrap().dropped_degraded, drops as u64);
    }

    #[test]
    fn region_matrix_diagonal_is_cheap() {
        // Intra-region latency is well below the row average everywhere
        // (Asia-Pacific spans a wide area, so its diagonal is not the row
        // minimum in the measured data — only "much cheaper than average"
        // holds universally).
        for (i, row) in REGION_LATENCY_MS.iter().enumerate() {
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            assert!(row[i] < mean * 0.6, "row {i}: diag {} mean {mean}", row[i]);
        }
    }

    #[test]
    fn region_net_bandwidth_term_scales_with_size() {
        let mut net = RegionNet::new(vec![Region::Europe, Region::Europe]);
        let mut rng = rng_from_seed(4);
        let small: f64 = (0..200)
            .map(|_| {
                net.delay(0, 1, 1_000, SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_millis()
            })
            .sum::<f64>()
            / 200.0;
        let big: f64 = (0..200)
            .map(|_| {
                net.delay(0, 1, 1_000_000, SimTime::ZERO, &mut rng)
                    .unwrap()
                    .as_millis()
            })
            .sum::<f64>()
            / 200.0;
        // 1 MB over 15 Mbps upload is roughly 530 ms of serialization.
        assert!(big - small > 400.0, "big {big} small {small}");
    }

    #[test]
    fn region_links_table_is_bit_identical_to_the_formula() {
        // The expression `delay` evaluated before the table.
        let formula = |ra: Region, rb: Region, bytes: u64, rng: &mut SimRng| {
            let base = REGION_LATENCY_MS[ra.index()][rb.index()];
            let jitter = 1.0 + 0.1 * (2.0 * rng.gen::<f64>() - 1.0);
            let mbps = REGION_UPLOAD_MBPS[ra.index()].min(REGION_DOWNLOAD_MBPS[rb.index()]);
            SimDuration::from_millis(base * jitter + (bytes as f64 * 8.0) / (mbps * 1e6) * 1e3)
        };
        for (i, ra) in Region::ALL.into_iter().enumerate() {
            for (j, rb) in Region::ALL.into_iter().enumerate() {
                let mut net = RegionNet::new(vec![ra, rb]);
                for bytes in [0, 36, 285, 1_000_080] {
                    let mut rng = rng_from_seed((i * 6 + j) as u64 ^ bytes);
                    let mut same = rng.clone();
                    for _ in 0..1_000 {
                        let table = net.delay(0, 1, bytes, SimTime::ZERO, &mut rng).unwrap();
                        let old = formula(ra, rb, bytes, &mut same);
                        assert_eq!(table.as_nanos(), old.as_nanos(), "{ra:?}->{rb:?} {bytes} B");
                    }
                }
            }
        }
    }

    #[test]
    fn region_sampling_follows_weights() {
        let mut rng = rng_from_seed(5);
        let mut eu = 0;
        for _ in 0..10_000 {
            if Region::sample(&Region::BITCOIN_2019_DISTRIBUTION, &mut rng) == Region::Europe {
                eu += 1;
            }
        }
        let share = eu as f64 / 10_000.0;
        assert!((share - 0.5).abs() < 0.03, "EU share {share}");
    }

    #[test]
    fn region_of_defaults_beyond_assignment() {
        let net = RegionNet::new(vec![Region::Japan]);
        assert_eq!(net.region_of(0), Region::Japan);
        assert_eq!(net.region_of(99), Region::Europe);
    }
}
