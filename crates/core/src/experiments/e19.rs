//! E19 — resilience across a partition–heal cycle (fault injection).
//!
//! The paper's case against permissionless overlays and for managed
//! federations rests on behaviour *under adversity* (II-B P2, IV): open
//! overlays are praised for degrading gracefully through partitions and
//! correlated failures, while quorum systems trade that elasticity for
//! consistency — a partition silences every subset without a quorum.
//! E19 re-derives both halves with the scripted fault layer
//! (`decent_sim::fault`) instead of asserting them:
//!
//! - **Kademlia** value lookups run before, during, and after a scripted
//!   bisection partition, and through a correlated crash burst. With
//!   k-way replication the majority side keeps resolving most values and
//!   recovers fully on heal.
//! - **PBFT** (n = 7, f = 2) is split 5/2. The majority side holds
//!   exactly a commit quorum and keeps executing at millisecond latency;
//!   the minority makes zero progress until the heal — and, lacking
//!   state transfer, cannot close its execution gap even afterwards.

use decent_bft::pbft::{build_cluster, PbftConfig, PbftReplica};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Kademlia network size.
    pub kad_nodes: usize,
    /// Values published into the DHT (stored on the k closest nodes).
    pub values: usize,
    /// Value lookups issued per phase.
    pub lookups_per_phase: usize,
    /// PBFT client requests submitted per phase.
    pub ops_per_phase: u64,
    /// Fraction of DHT nodes cut off by the partition.
    pub partition_frac: f64,
    /// Duration of the DHT partition, seconds.
    pub partition_secs: f64,
    /// Duration of the correlated crash burst, seconds.
    pub burst_secs: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kad_nodes: 400,
            values: 100,
            lookups_per_phase: 150,
            ops_per_phase: 400,
            partition_frac: 0.4,
            partition_secs: 60.0,
            burst_secs: 30.0,
            seed: 0xE19,
        }
    }
}

impl Config {
    /// Nodes on the minority side of the DHT cut.
    fn minority_count(&self) -> usize {
        ((self.kad_nodes as f64 * self.partition_frac).round() as usize)
            .clamp(1, self.kad_nodes - 1)
    }
}

/// The scripted DHT timeline, derived from the config. The partition
/// opens at a fixed 60 s; everything later shifts with its duration and
/// the burst width.
struct Timeline {
    part_at: f64,
    part_heal: f64,
    burst_at: f64,
    burst_end: f64,
}

impl Timeline {
    fn of(cfg: &Config) -> Timeline {
        let part_at = 60.0;
        let part_heal = part_at + cfg.partition_secs;
        let burst_at = part_heal + 60.0;
        Timeline {
            part_at,
            part_heal,
            burst_at,
            burst_end: burst_at + cfg.burst_secs,
        }
    }
}

/// Per-phase DHT measurements.
struct DhtPhase {
    name: &'static str,
    issued: usize,
    done: usize,
    found: usize,
    lat: Histogram,
}

impl DhtPhase {
    fn success(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.found as f64 / self.issued as f64
        }
    }
}

fn run_dht(cfg: &Config) -> (Vec<DhtPhase>, MetricsSnapshot) {
    let n = cfg.kad_nodes;
    let tl = Timeline::of(cfg);
    // The minority side of the cut: the last `partition_frac` of nodes.
    // The crash burst later takes out a correlated quarter (a "provider
    // outage"), chosen disjoint from the lookup origins used during the
    // burst.
    let minority_count = cfg.minority_count();
    let minority: Vec<NodeId> = (n - minority_count..n).collect();
    let burst: Vec<NodeId> = (n / 2..3 * n / 4).collect();
    let plan = FaultPlan::new()
        .partition(
            SimTime::from_secs(tl.part_at),
            SimTime::from_secs(tl.part_heal),
            minority,
        )
        .crash_burst(
            SimTime::from_secs(tl.burst_at),
            SimTime::from_secs(tl.burst_end),
            burst,
        );
    let mut sim: Simulation<KadNode> = Simulation::new(
        cfg.seed,
        Faulty::new(UniformLatency::from_millis(20.0, 80.0), plan.clone()),
    );
    let kcfg = KadConfig::default();
    let ids = build_network(&mut sim, n, &kcfg, 0.0, 4, cfg.seed ^ 0x19);
    plan.schedule_crashes(&mut sim);
    sim.run_until(SimTime::from_secs(1.0));

    // Publish values on their k XOR-closest nodes (a completed STORE).
    let mut rng = rng_from_seed(cfg.seed ^ 0x5707);
    let keys: Vec<Key> = ids.iter().map(|&id| sim.node(id).key()).collect();
    let values: Vec<Key> = (0..cfg.values).map(|_| Key::random(&mut rng)).collect();
    for &v in &values {
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by_key(|&i| keys[i].xor_distance(&v));
        for &i in ranked.iter().take(kcfg.k) {
            sim.node_mut(ids[i]).store_value(v);
        }
    }

    // One batch of value lookups per phase, spread across the phase
    // window, from origins that are online and on the majority side of
    // whatever fault is active at the time.
    // Phase windows scale with the fault schedule; at the default
    // durations these evaluate to the historical 65-105 / 130-165 /
    // 183-203 windows exactly.
    let part_scale = cfg.partition_secs / 60.0;
    let burst_scale = cfg.burst_secs / 30.0;
    let phases: [(&str, f64, f64, usize); 4] = [
        ("pre-partition", 20.0, 50.0, 0),
        (
            "partitioned (majority)",
            tl.part_at + 5.0 * part_scale,
            tl.part_heal - 15.0 * part_scale,
            1,
        ),
        ("healed", tl.part_heal + 10.0, tl.part_heal + 45.0, 0),
        (
            "crash burst (survivors)",
            tl.burst_at + 3.0 * burst_scale,
            tl.burst_end - 7.0 * burst_scale,
            2,
        ),
    ];
    let mut out = Vec::new();
    for (pi, &(name, start, end, origin_mode)) in phases.iter().enumerate() {
        let l = cfg.lookups_per_phase;
        let dt = (end - start) / l as f64;
        let mut issued: Vec<(NodeId, u64)> = Vec::new();
        for j in 0..l {
            sim.run_until(SimTime::from_secs(start + j as f64 * dt));
            let origin = match origin_mode {
                // Anywhere; the majority (first 60%) during the cut; a
                // survivor (first half, disjoint from the burst set)
                // while the burst is active.
                1 => ids[(j * 13) % (n - minority_count)],
                2 => ids[(j * 13) % (n / 2)],
                _ => ids[(j * 13) % n],
            };
            let target = values[(pi + j) % values.len()];
            let id = sim.invoke(origin, |node, ctx| node.start_lookup(target, true, ctx));
            issued.push((origin, id));
        }
        // Let the tail of the batch finish inside its own fault regime
        // before the next phase starts (timeout budgets bound this).
        sim.run_until(SimTime::from_secs(end + 8.0));
        let mut phase = DhtPhase {
            name,
            issued: issued.len(),
            done: 0,
            found: 0,
            lat: Histogram::new(),
        };
        for (origin, lookup) in issued {
            if let Some(r) = sim.node(origin).results.iter().find(|r| r.id == lookup) {
                phase.done += 1;
                if r.found_value {
                    phase.found += 1;
                }
                phase.lat.record(r.latency.as_secs());
            }
        }
        out.push(phase);
    }
    sim.run_until(SimTime::from_secs(tl.burst_end + 30.0));
    (out, sim.metrics_snapshot())
}

/// Per-phase PBFT measurements: the majority replica's commit latencies
/// of each batch (their count is its executed requests) and the
/// minority replica's executed counts.
struct PbftOutcome {
    maj_pre: Histogram,
    maj_during: Histogram,
    maj_post: Histogram,
    min_pre: usize,
    min_during: usize,
    min_post: usize,
    min_view_changes: u64,
}

fn run_pbft(cfg: &Config) -> (PbftOutcome, MetricsSnapshot) {
    let pcfg = PbftConfig {
        n: 7,
        ..PbftConfig::default()
    };
    // Split 5/2: replicas {0..4} hold exactly a commit quorum (2f+1 =
    // 5); replicas {5, 6} are cut off from t = 10 s to t = 25 s.
    // `build_cluster` assigns ids sequentially from 0, so the plan can
    // name them up front.
    let plan = FaultPlan::new().partition(
        SimTime::from_secs(10.0),
        SimTime::from_secs(25.0),
        vec![5, 6],
    );
    let mut sim: Simulation<PbftReplica> =
        Simulation::new(cfg.seed ^ 0xBF7, Faulty::new(LanNet::datacenter(), plan));
    let ids = build_cluster(&mut sim, &pcfg, &[]);
    sim.run_until(SimTime::from_secs(0.5));

    let submit = |sim: &mut Simulation<PbftReplica>, t: f64, base: u64| {
        sim.run_until(SimTime::from_secs(t));
        let now = sim.now();
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(base..base + cfg.ops_per_phase, now);
        }
        now
    };
    let t_pre = submit(&mut sim, 1.0, 0);
    let t_during = submit(&mut sim, 12.0, 1 << 20);
    let t_post = submit(&mut sim, 27.0, 2 << 20);
    sim.run_until(SimTime::from_secs(40.0));

    let majority = sim.node(ids[0]);
    let minority = sim.node(ids[6]);
    let out = PbftOutcome {
        maj_pre: majority.executed.submitted_at(t_pre).latencies(),
        maj_during: majority.executed.submitted_at(t_during).latencies(),
        maj_post: majority.executed.submitted_at(t_post).latencies(),
        min_pre: minority.executed.submitted_at(t_pre).len(),
        min_during: minority.executed.submitted_at(t_during).len(),
        min_post: minority.executed.submitted_at(t_post).len(),
        min_view_changes: minority.view_changes,
    };
    (out, sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E19";
    const TITLE: &'static str =
        "Resilience across a partition-heal cycle: DHT vs. PBFT (II-B P2, IV)";
    /// Sweepable knobs: the FaultPlan itself is the axis here. The
    /// `Timeline` is derived from these so a sweep moves the scripted
    /// faults, and at the defaults every derived time lands exactly on the
    /// historical schedule (partition `[60 s, 120 s)`, burst `[180 s, 210 s)`).
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "partition_frac",
            help: "fraction of DHT nodes cut off by the partition (0.05-0.9)",
            get: |c| c.partition_frac,
            set: |c, v| c.partition_frac = v.clamp(0.05, 0.9),
        },
        Param {
            name: "partition_secs",
            help: "partition duration before the heal, seconds (30-600)",
            get: |c| c.partition_secs,
            set: |c, v| c.partition_secs = v.clamp(30.0, 600.0),
        },
        Param {
            name: "burst_secs",
            help: "correlated crash-burst width, seconds (10-300)",
            get: |c| c.burst_secs,
            set: |c, v| c.burst_secs = v.clamp(10.0, 300.0),
        },
        Param {
            name: "lookups_per_phase",
            help: "value lookups issued per phase (min 10)",
            get: |c| c.lookups_per_phase as f64,
            set: |c, v| c.lookups_per_phase = v.round().max(10.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            kad_nodes: 150,
            values: 40,
            lookups_per_phase: 60,
            ops_per_phase: 150,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();

        let (dht, dht_metrics) = run_dht(self);
        let mut t = Table::new(
            "Kademlia value lookups under scripted faults",
            &["phase", "issued", "completed", "success", "p50 latency"],
        );
        for p in &dht {
            let mut lat = p.lat.clone();
            t.row([
                p.name.to_string(),
                p.issued.to_string(),
                p.done.to_string(),
                fmt_pct(p.success()),
                format!("{:.2} s", lat.percentile(0.5)),
            ]);
        }
        report.table(t);

        let (mut pbft, pbft_metrics) = run_pbft(self);
        let mut t = Table::new(
            "PBFT (n=7, f=2) across a 5/2 partition",
            &[
                "phase",
                "majority executed",
                "commit p50",
                "minority executed",
            ],
        );
        let pbft_rows = [
            ("pre-partition", &mut pbft.maj_pre, pbft.min_pre),
            ("partitioned", &mut pbft.maj_during, pbft.min_during),
            ("healed", &mut pbft.maj_post, pbft.min_post),
        ];
        for (name, maj, min_execd) in pbft_rows {
            t.row([
                name.to_string(),
                maj.count().to_string(),
                format!("{:.1} ms", maj.percentile(0.5) * 1e3),
                min_execd.to_string(),
            ]);
        }
        report.table(t);

        // --- DHT claims -----------------------------------------------------
        let pre = dht[0].success();
        let during = &dht[1];
        let healed = &dht[2];
        let burst = &dht[3];
        report.check_with(
            "E19.dht-degrades-gracefully",
            "DHT keeps resolving through a partition",
            "open overlays degrade gracefully where quorum systems halt (II-B P2)",
            format!(
                "majority-side success {} during the cut (pre-partition {}); all {} lookups terminated",
                fmt_pct(during.success()),
                fmt_pct(pre),
                during.issued
            ),
            during.success(),
            Expect::AtLeast(0.75),
            during.done == during.issued,
        );
        report.check_with(
            "E19.dht-recovers-after-heal",
            "lookup success returns to baseline after the heal",
            "churn-tolerant overlays re-absorb healed segments (II-B P2)",
            format!(
                "healed success {} vs. pre-partition {}",
                fmt_pct(healed.success()),
                fmt_pct(pre)
            ),
            healed.success(),
            Expect::AtLeast(0.95),
            healed.success() >= pre - 0.05,
        );
        report.check(
            "E19.dht-survives-crash-burst",
            "k-replication rides out a correlated crash burst",
            "replication masks correlated failures short of a full replica-set loss",
            format!(
                "survivor-side success {} with a quarter of the network down",
                fmt_pct(burst.success())
            ),
            burst.success(),
            Expect::AtLeast(0.70),
        );

        // --- PBFT claims ----------------------------------------------------
        let ops = self.ops_per_phase as f64;
        report.check(
            "E19.pbft-stalls-in-minority",
            "the minority partition commits nothing",
            "consensus is confined to subsets holding a quorum (IV)",
            format!(
                "minority executed {} of {} requests during the cut ({} view-change attempts)",
                pbft.min_during, self.ops_per_phase, pbft.min_view_changes
            ),
            pbft.min_during as f64,
            Expect::AtMost(0.0),
        );
        report.check_with(
            "E19.pbft-majority-lives",
            "the quorum side keeps committing at LAN latency",
            "a 2f+1 subset makes progress regardless of the rest (IV)",
            format!(
                "majority executed {} of {} during the cut, commit p50 {:.1} ms",
                pbft.maj_during.count(),
                self.ops_per_phase,
                pbft.maj_during.percentile(0.5) * 1e3
            ),
            pbft.maj_during.count() as f64 / ops,
            Expect::AtLeast(0.999),
            pbft.maj_during.percentile(0.5) < 1.0,
        );
        report.check(
            "E19.pbft-heals",
            "post-heal requests commit cluster-wide again",
            "progress resumes once the partition heals (IV)",
            format!(
                "majority executed {} of {} post-heal requests",
                pbft.maj_post.count(),
                self.ops_per_phase
            ),
            pbft.maj_post.count() as f64 / ops,
            Expect::AtLeast(0.999),
        );
        report.structural(
            "E19.minority-needs-state-transfer",
            "a healed minority needs state transfer to catch up",
            "managed deployments must provision recovery, not just consensus (IV)",
            format!(
                "minority executed {} requests post-heal: it re-joins consensus on new \
                 instances but cannot execute past its partition-era sequence gap \
                 without a state-transfer protocol, which this PBFT model omits",
                pbft.min_post
            ),
        );
        report.structural(
            "E19.partition-drops-counted",
            "the fault layer accounts for every boundary crossing",
            "scripted faults make partition sensitivity measurable, not asserted",
            format!(
                "{} messages dropped at partition boundaries across both runs",
                dht_metrics.counter("msgs_dropped_partition")
                    + pbft_metrics.counter("msgs_dropped_partition")
            ),
        );
        report.absorb_metrics(dht_metrics);
        report.absorb_metrics(pbft_metrics);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_survives_partition_heal_cycle() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
