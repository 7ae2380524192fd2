//! Interoperability between blockchain islands.
//!
//! Paper (Section V): "if the issue of interoperability of multiple
//! blockchains is addressed properly, one can imagine multiple such
//! decentralized groups which each rely on individual blockchains,
//! forming amalgams (within as well as across domains/industries), to
//! add to the degree of decentralization."
//!
//! The model: two independent Fabric-style islands in one simulation,
//! joined by a bridge operator (an org with a gateway on each island)
//! that executes **atomic cross-island transfers** with a two-phase
//! protocol: lock on the source island, prepare on the destination,
//! then release/burn — or unlock on any failure. Atomicity is the
//! tested invariant: value is never released on one island while still
//! locked (or unlocked) inconsistently on the other.

use decent_sim::prelude::*;

use crate::ledger::{build_network, Channel, FabricConfig, FabricNetwork, FabricNode};

/// Phases of a cross-island transfer, encoded into transaction ids.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Lock the asset on the source island.
    Lock = 1,
    /// Prepare the mint on the destination island.
    Prepare = 2,
    /// Release the minted asset on the destination.
    Release = 3,
    /// Burn the locked asset on the source.
    Burn = 4,
    /// Roll back the source lock after a destination failure.
    Unlock = 5,
}

/// Encodes `(transfer, phase, attempt)` into a ledger transaction id.
/// Retries use fresh ids so a transiently conflicting transaction can
/// be resubmitted (MVCC verdicts are per-transaction).
pub fn tx_id(transfer: u64, phase: Phase, attempt: u64) -> u64 {
    transfer << 8 | (attempt & 0x1F) << 3 | phase as u64
}

/// Decodes a ledger transaction id back into `(transfer, phase)`.
pub fn decode(id: u64) -> (u64, u64) {
    (id >> 8, id & 0x7)
}

/// Final state of a transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// Both islands committed; the asset moved.
    Completed,
    /// The destination rejected; the source lock was rolled back.
    Aborted,
    /// The protocol did not finish before the deadline.
    TimedOut,
}

/// Two islands and the bridge between them.
#[derive(Debug)]
pub struct Bridge {
    /// Source island.
    pub island_a: FabricNetwork,
    /// Destination island.
    pub island_b: FabricNetwork,
    /// Channel used on each island.
    pub channel: u32,
}

/// Builds two islands inside one simulation. Island A uses `cfg_a`,
/// island B `cfg_b`; each gets a single all-orgs channel with id 1.
pub fn build_islands(
    sim: &mut Simulation<FabricNode>,
    cfg_a: &FabricConfig,
    cfg_b: &FabricConfig,
) -> Bridge {
    let channel = 1;
    let all_orgs = |cfg: &FabricConfig| Channel {
        id: channel,
        orgs: (0..cfg.orgs as u32).collect(),
    };
    let island_a = build_network(sim, cfg_a, &[all_orgs(cfg_a)]);
    let island_b = build_network(sim, cfg_b, &[all_orgs(cfg_b)]);
    Bridge {
        island_a,
        island_b,
        channel,
    }
}

/// Whether `island`'s ledger (as seen by its first channel peer) has a
/// commit for `(transfer, phase)`; returns its validity when present.
pub fn committed_phase(
    sim: &Simulation<FabricNode>,
    island: &FabricNetwork,
    channel: u32,
    transfer: u64,
    phase: Phase,
) -> Option<bool> {
    let peer = island.channel_peers(channel)[0];
    let matches = sim
        .node(peer)
        .committed()
        .iter()
        .filter(|c| decode(c.tx_id) == (transfer, phase as u64));
    // Any valid attempt wins; otherwise report the (invalid) presence.
    let mut seen = None;
    for c in matches {
        if c.valid {
            return Some(true);
        }
        seen = Some(false);
    }
    seen
}

/// Submits `(transfer, phase)` through `gateway`, retrying with fresh
/// transaction ids until a valid commit, a permanent failure (all
/// `attempts` rejected), or the deadline.
#[expect(
    clippy::too_many_arguments,
    reason = "one retry loop's independent inputs; a struct would only rename them"
)]
fn submit_with_retry(
    sim: &mut Simulation<FabricNode>,
    island: &FabricNetwork,
    gateway: NodeId,
    channel: u32,
    transfer: u64,
    phase: Phase,
    attempts: u64,
    deadline: SimTime,
) -> Option<bool> {
    for attempt in 0..attempts {
        let id = tx_id(transfer, phase, attempt);
        sim.invoke(gateway, |n, ctx| n.submit(id, channel, ctx));
        // Wait for this attempt's verdict.
        loop {
            let peer = island.channel_peers(channel)[0];
            let verdict = sim
                .node(peer)
                .committed()
                .iter()
                .find(|c| c.tx_id == id)
                .map(|c| c.valid);
            match verdict {
                Some(true) => return Some(true),
                Some(false) => break, // retry with a fresh id
                None => {
                    if sim.now() >= deadline {
                        return None;
                    }
                    let step = sim.now() + SimDuration::from_millis(20.0);
                    sim.run_until(step.min(deadline));
                }
            }
        }
    }
    Some(false)
}

/// Executes one atomic transfer from island A to island B.
///
/// Drives the simulation forward internally; returns the outcome and
/// the end-to-end duration.
pub fn atomic_transfer(
    sim: &mut Simulation<FabricNode>,
    bridge: &Bridge,
    transfer: u64,
    timeout: SimDuration,
) -> (TransferOutcome, SimDuration) {
    const ATTEMPTS: u64 = 3;
    let started = sim.now();
    let deadline = started + timeout;
    let ch = bridge.channel;
    let gw_a = bridge.island_a.gateway(ch);
    let gw_b = bridge.island_b.gateway(ch);

    // Phase 1: lock on the source island.
    let lock = submit_with_retry(
        sim,
        &bridge.island_a,
        gw_a,
        ch,
        transfer,
        Phase::Lock,
        ATTEMPTS,
        deadline,
    );
    match lock {
        Some(true) => {}
        Some(false) => {
            return (
                TransferOutcome::Aborted,
                sim.now().saturating_since(started),
            )
        }
        None => {
            return (
                TransferOutcome::TimedOut,
                sim.now().saturating_since(started),
            )
        }
    }

    // Phase 2: prepare the mint on the destination island.
    let prepare = submit_with_retry(
        sim,
        &bridge.island_b,
        gw_b,
        ch,
        transfer,
        Phase::Prepare,
        ATTEMPTS,
        deadline,
    );
    if prepare != Some(true) {
        // Destination failed: roll the source lock back (the rollback is
        // allowed to run past the transfer deadline).
        let rolled = submit_with_retry(
            sim,
            &bridge.island_a,
            gw_a,
            ch,
            transfer,
            Phase::Unlock,
            ATTEMPTS * 2,
            deadline + timeout,
        );
        return match rolled {
            Some(true) => (
                TransferOutcome::Aborted,
                sim.now().saturating_since(started),
            ),
            _ => (
                TransferOutcome::TimedOut,
                sim.now().saturating_since(started),
            ),
        };
    }

    // Phase 3: release on B, then burn on A.
    let released = submit_with_retry(
        sim,
        &bridge.island_b,
        gw_b,
        ch,
        transfer,
        Phase::Release,
        ATTEMPTS * 2,
        deadline,
    );
    let burned = submit_with_retry(
        sim,
        &bridge.island_a,
        gw_a,
        ch,
        transfer,
        Phase::Burn,
        ATTEMPTS * 2,
        deadline,
    );
    match (released, burned) {
        (Some(true), Some(true)) => (
            TransferOutcome::Completed,
            sim.now().saturating_since(started),
        ),
        _ => (
            TransferOutcome::TimedOut,
            sim.now().saturating_since(started),
        ),
    }
}

/// The atomicity invariant over one island pair: for every transfer id,
/// value was released on B only if it was locked and burned (not
/// unlocked) on A.
pub fn atomicity_holds(
    sim: &Simulation<FabricNode>,
    bridge: &Bridge,
    transfers: impl IntoIterator<Item = u64>,
) -> bool {
    let ch = bridge.channel;
    for t in transfers {
        let released = committed_phase(sim, &bridge.island_b, ch, t, Phase::Release) == Some(true);
        let locked = committed_phase(sim, &bridge.island_a, ch, t, Phase::Lock) == Some(true);
        let burned = committed_phase(sim, &bridge.island_a, ch, t, Phase::Burn) == Some(true);
        let unlocked = committed_phase(sim, &bridge.island_a, ch, t, Phase::Unlock) == Some(true);
        if released && !(locked && burned && !unlocked) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn islands(conflict_b: f64, seed: u64) -> (Simulation<FabricNode>, Bridge) {
        let mut sim = Simulation::new(seed, LanNet::datacenter());
        let cfg_a = FabricConfig::default();
        let cfg_b = FabricConfig {
            mvcc_conflict: conflict_b,
            ..FabricConfig::default()
        };
        let bridge = build_islands(&mut sim, &cfg_a, &cfg_b);
        sim.run_until(SimTime::from_secs(0.01));
        (sim, bridge)
    }

    #[test]
    fn happy_path_transfer_completes() {
        let (mut sim, bridge) = islands(0.0, 101);
        let (outcome, took) = atomic_transfer(&mut sim, &bridge, 7, SimDuration::from_secs(10.0));
        assert_eq!(outcome, TransferOutcome::Completed);
        // Four sequential commits of ~100-200 ms each.
        assert!(took < SimDuration::from_secs(2.0), "took {took}");
        assert!(atomicity_holds(&sim, &bridge, [7]));
        // Both sides hold their halves.
        assert_eq!(
            committed_phase(&sim, &bridge.island_a, 1, 7, Phase::Burn),
            Some(true)
        );
        assert_eq!(
            committed_phase(&sim, &bridge.island_b, 1, 7, Phase::Release),
            Some(true)
        );
    }

    #[test]
    fn destination_failure_rolls_back_the_lock() {
        // Every destination transaction MVCC-conflicts: prepare fails.
        let (mut sim, bridge) = islands(1.0, 102);
        let (outcome, _) = atomic_transfer(&mut sim, &bridge, 9, SimDuration::from_secs(10.0));
        assert_eq!(outcome, TransferOutcome::Aborted);
        assert!(atomicity_holds(&sim, &bridge, [9]));
        assert_eq!(
            committed_phase(&sim, &bridge.island_a, 1, 9, Phase::Unlock),
            Some(true),
            "the source lock must be rolled back"
        );
        // Nothing was released on the destination.
        assert_ne!(
            committed_phase(&sim, &bridge.island_b, 1, 9, Phase::Release),
            Some(true)
        );
    }

    #[test]
    fn many_transfers_remain_atomic() {
        // A severely contended destination: even three retries per
        // phase often fail permanently, forcing rollbacks.
        let (mut sim, bridge) = islands(0.85, 103);
        let ids: Vec<u64> = (0..20).collect();
        let mut completed = 0;
        let mut aborted = 0;
        for &t in &ids {
            match atomic_transfer(&mut sim, &bridge, t, SimDuration::from_secs(10.0)).0 {
                TransferOutcome::Completed => completed += 1,
                TransferOutcome::Aborted => aborted += 1,
                TransferOutcome::TimedOut => {}
            }
        }
        assert!(completed > 0, "some transfers should get through");
        assert!(aborted > 0, "a 30%-flaky island should abort some");
        assert!(atomicity_holds(&sim, &bridge, ids));
    }

    #[test]
    fn islands_stay_isolated_outside_the_bridge() {
        let (mut sim, bridge) = islands(0.0, 104);
        atomic_transfer(&mut sim, &bridge, 3, SimDuration::from_secs(10.0));
        // Island A's commits never mention a phase that belongs only to
        // island B's ledger and vice versa.
        let a_peer = bridge.island_a.channel_peers(1)[0];
        for c in sim.node(a_peer).committed() {
            let (_, phase) = decode(c.tx_id);
            assert!(
                phase == Phase::Lock as u64
                    || phase == Phase::Burn as u64
                    || phase == Phase::Unlock as u64,
                "island A saw a destination-side phase: {phase}"
            );
        }
        let b_peer = bridge.island_b.channel_peers(1)[0];
        for c in sim.node(b_peer).committed() {
            let (_, phase) = decode(c.tx_id);
            assert!(
                phase == Phase::Prepare as u64 || phase == Phase::Release as u64,
                "island B saw a source-side phase: {phase}"
            );
        }
    }
}
