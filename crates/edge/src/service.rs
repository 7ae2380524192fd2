//! Edge-centric vs. centralized-cloud service placement (Fig. 1).
//!
//! Devices issue latency-sensitive requests. Under the **centralized**
//! strategy every request crosses the WAN to the cloud, and trust is
//! established through a cloud-side trusted third party. Under the
//! **edge-centric** strategy requests go to the nano-DC in the device's
//! region, credentials are verified locally against state anchored in a
//! permissioned blockchain (one federation-join commit, then cached),
//! and only periodic digests flow to the cloud.
//!
//! Metrics: response-latency distribution, WAN bytes, and *control
//! locality* — the fraction of requests fully handled inside the
//! device's own region, the paper's "control must be at the edge".

use std::collections::BTreeMap;

use decent_sim::prelude::*;

use crate::net::{EdgeNet, Placement, Tier};

/// How requests are routed and trust established.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Everything goes to the cloud; per-session trust via a cloud TTP.
    CentralizedCloud,
    /// Requests go to the regional nano-DC; trust via credentials
    /// anchored in a permissioned chain and verified locally.
    EdgeCentric,
}

/// Edge-service messages.
#[derive(Clone, Debug)]
pub enum EdgeMsg {
    /// A device request.
    Request {
        /// Request id.
        id: u64,
        /// Issue time.
        issued: SimTime,
        /// Whether the sender's session is already trusted by the server.
        session_token: bool,
    },
    /// Server's answer to the device.
    Response {
        /// Request id.
        id: u64,
        /// Issue time (echoed).
        issued: SimTime,
        /// Whether the request stayed within the device's region.
        local: bool,
    },
    /// Server → TTP: verify a credential (centralized trust).
    VerifyCredential {
        /// Request id being held.
        id: u64,
        /// The device waiting.
        device: NodeId,
        /// Issue time (echoed).
        issued: SimTime,
    },
    /// TTP → server: credential verdict.
    CredentialOk {
        /// Request id.
        id: u64,
        /// The device waiting.
        device: NodeId,
        /// Issue time (echoed).
        issued: SimTime,
    },
    /// Edge → cloud: periodic anchored digest of local activity.
    AnchorDigest {
        /// Number of requests summarized.
        count: u64,
    },
}

/// Service parameters.
#[derive(Clone, Debug)]
pub struct EdgeConfig {
    /// Devices per region.
    pub devices_per_region: usize,
    /// Regions with device populations (cloud lives in the first).
    pub regions: Vec<Region>,
    /// Nano-DCs per region.
    pub edges_per_region: usize,
    /// Request processing time at any server.
    pub service_time: SimDuration,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Placement/trust strategy.
    pub strategy: Strategy,
    /// Interval between edge → cloud anchored digests.
    pub anchor_interval: SimDuration,
    /// Fraction of requests that arrive with a cached/valid session
    /// (the rest need a fresh credential verification).
    pub warm_session_fraction: f64,
    /// Parallel capacity of the cloud datacenter relative to one
    /// nano-DC (the cloud scales out; the comparison is about distance,
    /// not provisioning).
    pub cloud_parallelism: f64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            devices_per_region: 100,
            regions: vec![Region::NorthAmerica, Region::Europe, Region::AsiaPacific],
            edges_per_region: 2,
            service_time: SimDuration::from_millis(2.0),
            request_bytes: 2_000,
            strategy: Strategy::EdgeCentric,
            anchor_interval: SimDuration::from_secs(10.0),
            warm_session_fraction: 0.5,
            cloud_parallelism: 32.0,
        }
    }
}

const TIMER_ANCHOR: u64 = 1;
const REPLY_TAG_BASE: u64 = 1 << 16;

/// A node in the edge-service world. Implements [`Node`].
#[derive(Debug)]
pub enum EdgeNode {
    /// An end-user device.
    Device {
        /// The server this device sends requests to.
        server: NodeId,
        /// Completed requests: `(id, issued, completed, stayed local)`.
        completions: Vec<(u64, SimTime, SimTime, bool)>,
    },
    /// A nano-DC or cloud application server.
    Server {
        /// Placement (decides the `local` flag on responses).
        placement: Placement,
        /// Strategy (decides trust verification path).
        strategy: Strategy,
        /// Cloud TTP node for credential checks (centralized trust).
        ttp: Option<NodeId>,
        /// Cloud node digests are anchored to (edge servers only).
        anchor_to: Option<NodeId>,
        /// Per-request service time.
        service_time: SimDuration,
        /// FIFO server: when the CPU frees up.
        busy_until: SimTime,
        /// Requests served.
        served: u64,
        /// Requests served since the last anchored digest.
        since_anchor: u64,
        /// Interval between anchored digests.
        anchor_interval: SimDuration,
        /// Responses waiting for their service delay to elapse.
        /// Ordered (BTreeMap) per the determinism contract: accesses
        /// are point lookups today, but reply timers are the event
        /// spine of the experiment and must stay hasher-independent.
        pending_replies: BTreeMap<u64, (NodeId, EdgeMsg)>,
        /// Next reply-timer tag.
        next_reply_tag: u64,
    },
    /// The cloud-side trusted third party (and digest sink).
    Ttp {
        /// Credential verifications performed.
        verifications: u64,
        /// Digests received from edge servers.
        digests: u64,
    },
}

impl EdgeNode {
    /// Completed requests, when this is a device.
    pub fn completions(&self) -> &[(u64, SimTime, SimTime, bool)] {
        match self {
            EdgeNode::Device { completions, .. } => completions,
            _ => &[],
        }
    }

    /// Requests served, when this is a server.
    pub fn served(&self) -> u64 {
        match self {
            EdgeNode::Server { served, .. } => *served,
            _ => 0,
        }
    }

    /// Sends one request from this device.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-device node.
    pub fn issue(&mut self, id: u64, warm: bool, bytes: u64, ctx: &mut Context<'_, EdgeMsg>) {
        let EdgeNode::Device { server, .. } = self else {
            panic!("only devices issue requests");
        };
        ctx.send_sized(
            *server,
            EdgeMsg::Request {
                id,
                issued: ctx.now(),
                session_token: warm,
            },
            bytes,
        );
    }
}

impl Node for EdgeNode {
    type Msg = EdgeMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, EdgeMsg>) {
        if let EdgeNode::Server {
            anchor_to: Some(_),
            anchor_interval,
            ..
        } = self
        {
            ctx.set_timer(*anchor_interval, TIMER_ANCHOR);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: EdgeMsg, ctx: &mut Context<'_, EdgeMsg>) {
        match msg {
            EdgeMsg::Request {
                id,
                issued,
                session_token,
            } => {
                let needs_ttp = match self {
                    EdgeNode::Server { strategy, ttp, .. } => {
                        *strategy == Strategy::CentralizedCloud && !session_token && ttp.is_some()
                    }
                    _ => false,
                };
                if needs_ttp {
                    if let EdgeNode::Server { ttp: Some(t), .. } = self {
                        let t = *t;
                        ctx.send(
                            t,
                            EdgeMsg::VerifyCredential {
                                id,
                                device: from,
                                issued,
                            },
                        );
                    }
                    return;
                }
                self.reply_after_service(id, issued, from, ctx);
            }
            EdgeMsg::VerifyCredential { id, device, issued } => {
                if let EdgeNode::Ttp { verifications, .. } = self {
                    *verifications += 1;
                    ctx.send(from, EdgeMsg::CredentialOk { id, device, issued });
                }
            }
            EdgeMsg::CredentialOk { id, device, issued } => {
                self.reply_after_service(id, issued, device, ctx);
            }
            EdgeMsg::Response { id, issued, local } => {
                if let EdgeNode::Device { completions, .. } = self {
                    completions.push((id, issued, ctx.now(), local));
                }
            }
            EdgeMsg::AnchorDigest { .. } => {
                if let EdgeNode::Ttp { digests, .. } = self {
                    *digests += 1;
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, EdgeMsg>) {
        if tag >= REPLY_TAG_BASE {
            if let EdgeNode::Server {
                pending_replies, ..
            } = self
            {
                if let Some((device, msg)) = pending_replies.remove(&tag) {
                    ctx.send_sized(device, msg, 256);
                }
            }
            return;
        }
        if tag == TIMER_ANCHOR {
            if let EdgeNode::Server {
                anchor_to: Some(a),
                since_anchor,
                anchor_interval,
                ..
            } = self
            {
                let a = *a;
                let count = *since_anchor;
                *since_anchor = 0;
                // A digest is small regardless of the activity volume.
                ctx.send_sized(a, EdgeMsg::AnchorDigest { count }, 512);
                ctx.set_timer(*anchor_interval, TIMER_ANCHOR);
            }
        }
    }
}

impl EdgeNode {
    /// Queues the request on the server's FIFO CPU and schedules the
    /// response to leave once queueing plus service time has elapsed.
    fn reply_after_service(
        &mut self,
        id: u64,
        issued: SimTime,
        device: NodeId,
        ctx: &mut Context<'_, EdgeMsg>,
    ) {
        let EdgeNode::Server {
            placement,
            service_time,
            busy_until,
            served,
            since_anchor,
            pending_replies,
            next_reply_tag,
            ..
        } = self
        else {
            return;
        };
        let start = (*busy_until).max(ctx.now());
        *busy_until = start + *service_time;
        *served += 1;
        *since_anchor += 1;
        let local = placement.tier == Tier::EdgeServer;
        let delay = busy_until.saturating_since(ctx.now());
        let tag = REPLY_TAG_BASE + *next_reply_tag;
        *next_reply_tag += 1;
        pending_replies.insert(tag, (device, EdgeMsg::Response { id, issued, local }));
        ctx.set_timer(delay, tag);
    }
}

/// A built edge world.
#[derive(Debug)]
pub struct EdgeWorld {
    /// Device node ids.
    pub devices: Vec<NodeId>,
    /// Edge-server node ids.
    pub edge_servers: Vec<NodeId>,
    /// The cloud application server.
    pub cloud: NodeId,
    /// The cloud TTP / digest sink.
    pub ttp: NodeId,
    /// WAN-byte counter handle (shared with the network model; read
    /// with `load(Ordering::Relaxed)` after the run).
    pub wan_bytes: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

/// Builds the world and returns the simulation plus id handles.
pub fn build_world(cfg: &EdgeConfig, seed: u64) -> (Simulation<EdgeNode>, EdgeWorld) {
    let mut placements = Vec::new();
    let cloud_region = cfg.regions[0];
    // Layout: all devices, then edge servers, then cloud, then TTP.
    let mut device_regions = Vec::new();
    for &r in &cfg.regions {
        for _ in 0..cfg.devices_per_region {
            placements.push(Placement {
                tier: Tier::Device,
                region: r,
            });
            device_regions.push(r);
        }
    }
    let first_edge = placements.len();
    for &r in &cfg.regions {
        for _ in 0..cfg.edges_per_region {
            placements.push(Placement {
                tier: Tier::EdgeServer,
                region: r,
            });
        }
    }
    let cloud_idx = placements.len();
    placements.push(Placement {
        tier: Tier::Cloud,
        region: cloud_region,
    });
    let ttp_idx = placements.len();
    placements.push(Placement {
        tier: Tier::Cloud,
        region: cloud_region,
    });
    let net = EdgeNet::new(placements.clone());
    let wan = net.wan_counter();
    let mut sim = Simulation::new(seed, net);
    // Devices point at their server per strategy.
    let mut devices = Vec::new();
    let mut region_edge_cursor: BTreeMap<Region, usize> = BTreeMap::new();
    for (i, &r) in device_regions.iter().enumerate() {
        let _ = i;
        let server = match cfg.strategy {
            Strategy::CentralizedCloud => cloud_idx,
            Strategy::EdgeCentric => {
                // Round-robin across the region's nano-DCs.
                let cursor = region_edge_cursor.entry(r).or_insert(0);
                let region_pos = cfg.regions.iter().position(|&x| x == r).expect("region");
                let id = first_edge
                    + region_pos * cfg.edges_per_region
                    + (*cursor % cfg.edges_per_region);
                *cursor += 1;
                id
            }
        };
        devices.push(sim.add_node(EdgeNode::Device {
            server,
            completions: Vec::new(),
        }));
    }
    let mut edge_servers = Vec::new();
    for (i, p) in placements[first_edge..cloud_idx].iter().enumerate() {
        let _ = i;
        edge_servers.push(sim.add_node(EdgeNode::Server {
            placement: *p,
            strategy: cfg.strategy,
            ttp: match cfg.strategy {
                Strategy::CentralizedCloud => Some(ttp_idx),
                Strategy::EdgeCentric => None,
            },
            anchor_to: Some(ttp_idx),
            service_time: cfg.service_time,
            busy_until: SimTime::ZERO,
            served: 0,
            since_anchor: 0,
            anchor_interval: cfg.anchor_interval,
            pending_replies: BTreeMap::new(),
            next_reply_tag: 0,
        }));
    }
    let cloud = sim.add_node(EdgeNode::Server {
        placement: placements[cloud_idx],
        strategy: cfg.strategy,
        ttp: match cfg.strategy {
            Strategy::CentralizedCloud => Some(ttp_idx),
            Strategy::EdgeCentric => None,
        },
        anchor_to: None,
        service_time: cfg.service_time / cfg.cloud_parallelism,
        busy_until: SimTime::ZERO,
        served: 0,
        since_anchor: 0,
        anchor_interval: cfg.anchor_interval,
        pending_replies: BTreeMap::new(),
        next_reply_tag: 0,
    });
    let ttp = sim.add_node(EdgeNode::Ttp {
        verifications: 0,
        digests: 0,
    });
    (
        sim,
        EdgeWorld {
            devices,
            edge_servers,
            cloud,
            ttp,
            wan_bytes: wan,
        },
    )
}

/// Runs a uniform request workload and returns the latency histogram,
/// WAN bytes, and control locality.
///
/// # Examples
///
/// ```
/// use decent_edge::service::{run_workload, EdgeConfig, Strategy};
///
/// let cfg = EdgeConfig {
///     strategy: Strategy::EdgeCentric,
///     devices_per_region: 10,
///     ..EdgeConfig::default()
/// };
/// let (mut latency, _wan, locality) = run_workload(&cfg, 1, 7);
/// assert!(latency.percentile(0.5) < 50.0); // milliseconds at the edge
/// assert!(locality > 0.9);
/// ```
pub fn run_workload(
    cfg: &EdgeConfig,
    requests_per_device: usize,
    seed: u64,
) -> (Histogram, u64, f64) {
    use rand::Rng;
    let (mut sim, world) = build_world(cfg, seed);
    sim.run_until(SimTime::from_secs(0.01));
    let mut id = 0u64;
    let n_devices = world.devices.len();
    for round in 0..requests_per_device {
        for (pos, &d) in world.devices.iter().enumerate() {
            id += 1;
            let warm = {
                let r: f64 = sim.rng().gen();
                r < cfg.warm_session_fraction
            };
            let bytes = cfg.request_bytes;
            // Spread each round's arrivals uniformly over 190 ms of the
            // 200 ms round, then advance the clock and issue.
            let spread_us = 190_000.0 * pos as f64 / n_devices as f64;
            let when = SimTime::from_secs(0.01)
                + SimDuration::from_millis((round * 200) as f64)
                + SimDuration::from_micros(spread_us);
            let issue_id = id;
            sim.run_until(when);
            sim.invoke(d, |n, ctx| n.issue(issue_id, warm, bytes, ctx));
        }
    }
    sim.run_until(sim.now() + SimDuration::from_secs(10.0));
    let mut lat = Histogram::new();
    let mut local = 0usize;
    let mut total = 0usize;
    for &d in &world.devices {
        for &(_, issued, done, was_local) in sim.node(d).completions() {
            lat.record(done.saturating_since(issued).as_millis());
            total += 1;
            if was_local {
                local += 1;
            }
        }
    }
    let locality = if total == 0 {
        0.0
    } else {
        local as f64 / total as f64
    };
    let wan = world.wan_bytes.load(std::sync::atomic::Ordering::Relaxed);
    (lat, wan, locality)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: Strategy) -> (Histogram, u64, f64) {
        let cfg = EdgeConfig {
            strategy,
            devices_per_region: 40,
            ..EdgeConfig::default()
        };
        run_workload(&cfg, 3, 51)
    }

    #[test]
    fn edge_centric_is_an_order_of_magnitude_faster() {
        let (mut edge, _, _) = run(Strategy::EdgeCentric);
        let (mut cloud, _, _) = run(Strategy::CentralizedCloud);
        assert!(edge.count() > 0 && cloud.count() > 0);
        let (e50, c50) = (edge.percentile(0.5), cloud.percentile(0.5));
        assert!(
            c50 > 5.0 * e50,
            "cloud p50 {c50}ms should dwarf edge p50 {e50}ms"
        );
        assert!(e50 < 20.0, "edge p50 {e50}ms");
    }

    #[test]
    fn cold_sessions_pay_the_ttp_round_trip() {
        let warm_cfg = EdgeConfig {
            strategy: Strategy::CentralizedCloud,
            devices_per_region: 30,
            warm_session_fraction: 1.0,
            ..EdgeConfig::default()
        };
        let cold_cfg = EdgeConfig {
            warm_session_fraction: 0.0,
            ..warm_cfg.clone()
        };
        let (mut warm, _, _) = run_workload(&warm_cfg, 3, 52);
        let (mut cold, _, _) = run_workload(&cold_cfg, 3, 52);
        assert!(
            cold.percentile(0.5) > warm.percentile(0.5),
            "cold {} <= warm {}",
            cold.percentile(0.5),
            warm.percentile(0.5)
        );
    }

    #[test]
    fn edge_centric_keeps_traffic_and_control_local() {
        let (_, edge_wan, edge_local) = run(Strategy::EdgeCentric);
        let (_, cloud_wan, cloud_local) = run(Strategy::CentralizedCloud);
        assert!(edge_local > 0.95, "locality {edge_local}");
        assert_eq!(cloud_local, 0.0);
        assert!(
            cloud_wan > 10 * edge_wan.max(1),
            "cloud WAN {cloud_wan} vs edge WAN {edge_wan}"
        );
    }

    #[test]
    fn ttp_verifications_match_cold_sessions() {
        let cfg = EdgeConfig {
            strategy: Strategy::CentralizedCloud,
            devices_per_region: 10,
            warm_session_fraction: 0.0, // every request is cold
            ..EdgeConfig::default()
        };
        let (mut sim, world) = build_world(&cfg, 99);
        sim.run_until(SimTime::from_secs(0.01));
        for (i, &d) in world.devices.iter().enumerate() {
            sim.invoke(d, |n, ctx| n.issue(i as u64, false, 1000, ctx));
        }
        sim.run_until(SimTime::from_secs(10.0));
        let EdgeNode::Ttp { verifications, .. } = sim.node(world.ttp) else {
            panic!("ttp expected");
        };
        assert_eq!(
            *verifications,
            world.devices.len() as u64,
            "one TTP round trip per cold request"
        );
        // And every device still got an answer.
        for &d in &world.devices {
            assert_eq!(sim.node(d).completions().len(), 1);
        }
    }

    #[test]
    fn server_fifo_queueing_orders_responses() {
        let cfg = EdgeConfig {
            strategy: Strategy::EdgeCentric,
            devices_per_region: 3,
            regions: vec![Region::Europe],
            edges_per_region: 1,
            service_time: SimDuration::from_millis(50.0),
            ..EdgeConfig::default()
        };
        let (mut sim, world) = build_world(&cfg, 100);
        sim.run_until(SimTime::from_secs(0.01));
        // Three simultaneous requests serialize on the single nano-DC.
        for (i, &d) in world.devices.iter().enumerate() {
            sim.invoke(d, |n, ctx| n.issue(i as u64, true, 500, ctx));
        }
        sim.run_until(SimTime::from_secs(5.0));
        let mut latencies: Vec<f64> = world
            .devices
            .iter()
            .map(|&d| {
                let &(_, issued, done, _) = &sim.node(d).completions()[0];
                done.saturating_since(issued).as_millis()
            })
            .collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        // Roughly 60 / 110 / 160 ms: each queued request waits for the
        // previous one's 50 ms of service.
        assert!(latencies[1] - latencies[0] > 30.0, "{latencies:?}");
        assert!(latencies[2] - latencies[1] > 30.0, "{latencies:?}");
    }

    #[test]
    fn digests_still_reach_the_cloud() {
        let cfg = EdgeConfig {
            strategy: Strategy::EdgeCentric,
            devices_per_region: 20,
            anchor_interval: SimDuration::from_secs(1.0),
            ..EdgeConfig::default()
        };
        let (mut sim, world) = build_world(&cfg, 53);
        sim.run_until(SimTime::from_secs(0.01));
        for (i, &d) in world.devices.iter().enumerate() {
            sim.invoke(d, |n, ctx| n.issue(i as u64, true, 1000, ctx));
        }
        sim.run_until(SimTime::from_secs(30.0));
        if let EdgeNode::Ttp { digests, .. } = sim.node(world.ttp) {
            assert!(*digests > 0, "edges must anchor digests to the cloud");
        } else {
            panic!("ttp node expected");
        }
    }
}
