//! Kademlia on real sockets: wire codec, deterministic demo roster,
//! and the serve/probe drivers behind `repro --serve kad` / `--probe`.
//!
//! [`KadNode`] is a plain engine `Node`; this module supplies what the
//! TCP backend needs on top of that:
//!
//! - a [`Wire`] codec for [`KadMsg`] (tagged little-endian encoding);
//! - a **deterministic roster**: node keys derived from `(seed, n)`
//!   alone, so a serve mesh and a probe in different processes agree
//!   on every overlay identity without any handshake;
//! - [`serve_mesh`] / [`probe_lookup`], the real-socket counterparts
//!   of `build_network` + `start_lookup`, shared by the repro CLI and
//!   the loopback equivalence test;
//! - [`sim_lookup`], the same topology and lookup driven through the
//!   simulator, so tests can assert both drivers converge to the same
//!   closest-contact set.
//!
//! Every mesh node is seeded with the full roster, which makes the
//! lookup's final `closest` set a pure function of the key material:
//! the initiator's shortlist starts at the true global k-closest and
//! no discovery can displace it, so the sim backend and the TCP
//! backend — wildly different in timing — must return identical
//! values. That is the property `tests/net_loopback.rs` pins.

use std::io;
use std::net::SocketAddr;

use decent_net::tcp::{wait_reachable, TcpNetBuilder, TcpRuntime};
use decent_net::wire::{
    get_exact, get_u32, get_u64, get_u8, put_bytes, put_u32, put_u64, put_u8, Wire, WireError,
};
use decent_sim::prelude::*;

use crate::id::Key;
use crate::kademlia::{Contact, KadConfig, KadMsg, KadNode, LookupResult};

const KEY_BYTES: usize = 20;

fn put_key(buf: &mut Vec<u8>, key: &Key) {
    put_bytes(buf, key.as_bytes());
}

fn get_key(r: &mut &[u8]) -> Result<Key, WireError> {
    let mut b = [0u8; KEY_BYTES];
    get_exact(r, &mut b)?;
    Ok(Key::from_bytes(b))
}

fn put_contacts(buf: &mut Vec<u8>, contacts: &[Contact]) {
    put_u32(buf, contacts.len() as u32);
    for c in contacts {
        put_u64(buf, c.node as u64);
        put_key(buf, &c.key);
    }
}

fn get_contacts(r: &mut &[u8]) -> Result<Interned<[Contact]>, WireError> {
    let count = get_u32(r)? as usize;
    // 28 bytes per entry: a hostile count beyond the remaining payload
    // is rejected before allocating.
    if count > r.len() / (8 + KEY_BYTES) {
        return Err(WireError::Invalid("contact count exceeds payload"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let node = get_u64(r)? as NodeId;
        let key = get_key(r)?;
        out.push(Contact { node, key });
    }
    Ok(Interned::from_vec(out))
}

const TAG_FIND_NODE: u8 = 0;
const TAG_FIND_NODE_REPLY: u8 = 1;
const TAG_FIND_VALUE: u8 = 2;
const TAG_FIND_VALUE_REPLY: u8 = 3;
const TAG_STORE: u8 = 4;

impl Wire for KadMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            KadMsg::FindNode {
                rpc,
                from_key,
                target,
            } => {
                put_u8(buf, TAG_FIND_NODE);
                put_u64(buf, *rpc);
                put_key(buf, from_key);
                put_key(buf, target);
            }
            KadMsg::FindNodeReply {
                rpc,
                from_key,
                closest,
            } => {
                put_u8(buf, TAG_FIND_NODE_REPLY);
                put_u64(buf, *rpc);
                put_key(buf, from_key);
                put_contacts(buf, closest);
            }
            KadMsg::FindValue { rpc, from_key, key } => {
                put_u8(buf, TAG_FIND_VALUE);
                put_u64(buf, *rpc);
                put_key(buf, from_key);
                put_key(buf, key);
            }
            KadMsg::FindValueReply {
                rpc,
                from_key,
                found,
                closest,
            } => {
                put_u8(buf, TAG_FIND_VALUE_REPLY);
                put_u64(buf, *rpc);
                put_key(buf, from_key);
                put_u8(buf, u8::from(*found));
                put_contacts(buf, closest);
            }
            KadMsg::Store { from_key, key } => {
                put_u8(buf, TAG_STORE);
                put_key(buf, from_key);
                put_key(buf, key);
            }
        }
    }

    fn decode(r: &mut &[u8]) -> Result<Self, WireError> {
        match get_u8(r)? {
            TAG_FIND_NODE => Ok(KadMsg::FindNode {
                rpc: get_u64(r)?,
                from_key: get_key(r)?,
                target: get_key(r)?,
            }),
            TAG_FIND_NODE_REPLY => Ok(KadMsg::FindNodeReply {
                rpc: get_u64(r)?,
                from_key: get_key(r)?,
                closest: get_contacts(r)?,
            }),
            TAG_FIND_VALUE => Ok(KadMsg::FindValue {
                rpc: get_u64(r)?,
                from_key: get_key(r)?,
                key: get_key(r)?,
            }),
            TAG_FIND_VALUE_REPLY => {
                let rpc = get_u64(r)?;
                let from_key = get_key(r)?;
                let found = match get_u8(r)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Invalid("found flag")),
                };
                Ok(KadMsg::FindValueReply {
                    rpc,
                    from_key,
                    found,
                    closest: get_contacts(r)?,
                })
            }
            TAG_STORE => Ok(KadMsg::Store {
                from_key: get_key(r)?,
                key: get_key(r)?,
            }),
            _ => Err(WireError::Invalid("message tag")),
        }
    }
}

/// The probe's node id in a demo mesh of `n` servers (servers are
/// `0..n`, the probe is `n`).
pub fn probe_id(n: usize) -> NodeId {
    n
}

/// Deterministic demo identities: `n + 1` overlay keys (mesh nodes
/// `0..n` plus the probe at index `n`) derived from `seed` alone, so
/// independent processes compute identical rosters.
pub fn demo_keys(seed: u64, n: usize) -> Vec<Key> {
    // Fixed stream tag: roster keys come from their own derived stream
    // so they can never collide with the engine's per-node streams.
    let mut rng = rng_from_seed(derive_seed(seed, 0x4B41_4452));
    (0..=n).map(|_| Key::random(&mut rng)).collect()
}

/// The configuration both demo backends run: small buckets (the mesh
/// is small) and a generous RPC timeout so a loaded CI host cannot
/// spuriously fail real-socket RPCs.
pub fn demo_config() -> KadConfig {
    KadConfig {
        k: 8,
        alpha: 3,
        rpc_timeout: SimDuration::from_secs(5.0),
        ..KadConfig::default()
    }
}

/// Contacts `0..n` of the demo roster (the serve mesh; excludes the
/// probe identity).
pub fn demo_contacts(seed: u64, n: usize) -> Vec<Contact> {
    demo_keys(seed, n)
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(node, key)| Contact { node, key })
        .collect()
}

/// A TCP-backed Kademlia mesh of `n` fully-seeded nodes, hosted in one
/// process. Bind addresses may use port 0; resolved addresses are in
/// [`KadMesh::addrs`].
#[derive(Debug)]
pub struct KadMesh {
    /// The runtime hosting all `n` mesh nodes.
    pub runtime: TcpRuntime<KadNode>,
    /// Roster contacts (node id = directory index).
    pub contacts: Vec<Contact>,
    /// Resolved listener addresses, indexed by node id.
    pub addrs: Vec<SocketAddr>,
}

/// Builds and seeds a TCP-backed demo mesh: `n` nodes with roster keys
/// `demo_keys(seed, n)[..n]`, every routing table seeded with the full
/// roster. Drive it with `mesh.runtime.poll(..)` to serve lookups.
pub fn serve_mesh(
    seed: u64,
    n: usize,
    cfg: &KadConfig,
    bind: &[SocketAddr],
) -> io::Result<KadMesh> {
    assert_eq!(bind.len(), n, "one bind address per mesh node");
    let keys = demo_keys(seed, n);
    let mut builder = TcpNetBuilder::new(seed);
    for i in 0..n {
        builder = builder.host(i, bind[i], KadNode::new(keys[i], cfg.clone()));
    }
    let mut runtime = builder.build()?;
    let contacts = demo_contacts(seed, n);
    let now = runtime.now();
    let addrs = (0..n)
        .map(|i| runtime.local_addr(i).expect("hosted node has an address"))
        .collect();
    for i in 0..n {
        runtime.node_mut(i).seed_routing_table(&contacts, now);
    }
    Ok(KadMesh {
        runtime,
        contacts,
        addrs,
    })
}

/// Dials a running serve mesh and performs one real-socket FIND_NODE
/// lookup for `target` from the probe identity, polling until the
/// lookup completes or `timeout` (wall clock) elapses.
///
/// `bind` is the probe's own listener address (port 0 is fine: replies
/// arrive over the connections the probe dials, not its listener).
/// Returns `Ok(None)` on timeout.
pub fn probe_lookup(
    seed: u64,
    cfg: &KadConfig,
    mesh_addrs: &[SocketAddr],
    bind: SocketAddr,
    target: Key,
    timeout: SimDuration,
) -> io::Result<Option<LookupResult>> {
    let n = mesh_addrs.len();
    let keys = demo_keys(seed, n);
    let probe = probe_id(n);
    let mut builder =
        TcpNetBuilder::new(seed).host(probe, bind, KadNode::new(keys[probe], cfg.clone()));
    for (i, &addr) in mesh_addrs.iter().enumerate() {
        builder = builder.peer(i, addr);
    }
    let mut runtime = builder.build()?;
    let contacts = demo_contacts(seed, n);
    let now = runtime.now();
    runtime.node_mut(probe).seed_routing_table(&contacts, now);
    let id = runtime.invoke(probe, |node, net| node.start_lookup(target, false, net));
    loop {
        runtime.poll(SimDuration::from_millis(50.0));
        if let Some(r) = runtime.node(probe).results.iter().find(|r| r.id == id) {
            return Ok(Some(r.clone()));
        }
        if runtime.now().saturating_since(SimTime::ZERO) > timeout {
            return Ok(None);
        }
    }
}

/// Re-exported for CLI drivers: wait until a mesh address accepts
/// connections (probe-side startup barrier).
pub fn wait_mesh_reachable(addr: SocketAddr, attempts: u32, delay: SimDuration) -> bool {
    wait_reachable(addr, attempts, delay)
}

/// The sim-backend twin of [`serve_mesh`] + [`probe_lookup`]: the same
/// roster, the same full-roster seeding, the same lookup — driven
/// through the deterministic engine. Returns the completed
/// [`LookupResult`].
///
/// Because every node knows the whole roster, the lookup's `closest`
/// set is timing-independent and must equal the TCP backend's byte for
/// byte (node ids and keys; latency and RPC counts legitimately
/// differ).
pub fn sim_lookup(seed: u64, n: usize, cfg: &KadConfig, target: Key) -> LookupResult {
    let keys = demo_keys(seed, n);
    let mut sim: Simulation<KadNode> =
        Simulation::new(seed, UniformLatency::from_millis(5.0, 25.0));
    for key in keys.iter().take(n + 1) {
        sim.add_node(KadNode::new(*key, cfg.clone()));
    }
    let contacts = demo_contacts(seed, n);
    let now = sim.now();
    for i in 0..=n {
        sim.node_mut(i).seed_routing_table(&contacts, now);
    }
    sim.run_until(SimTime::from_secs(1.0));
    let probe = probe_id(n);
    let id = sim.invoke(probe, |node, ctx| node.start_lookup(target, false, ctx));
    sim.run_until(SimTime::from_secs(120.0));
    sim.node(probe)
        .results
        .iter()
        .find(|r| r.id == id)
        .expect("sim lookup completes")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kadmsg_wire_roundtrip() {
        let contacts = [
            Contact {
                node: 3,
                key: Key::from_u64(99),
            },
            Contact {
                node: 7,
                key: Key::from_u64(1234),
            },
        ];
        let msgs = vec![
            KadMsg::FindNode {
                rpc: 42,
                from_key: Key::from_u64(1),
                target: Key::from_u64(2),
            },
            KadMsg::FindNodeReply {
                rpc: 42,
                from_key: Key::from_u64(3),
                closest: Interned::from_slice(&contacts),
            },
            KadMsg::FindValue {
                rpc: 43,
                from_key: Key::from_u64(4),
                key: Key::from_u64(5),
            },
            KadMsg::FindValueReply {
                rpc: 43,
                from_key: Key::from_u64(6),
                found: true,
                closest: Interned::from_slice(&[]),
            },
            KadMsg::Store {
                from_key: Key::from_u64(8),
                key: Key::from_u64(9),
            },
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let mut r = &buf[..];
            let back = KadMsg::decode(&mut r).expect("roundtrip decodes");
            assert!(r.is_empty(), "decode must consume the encoding exactly");
            // KadMsg has no PartialEq; compare re-encodings.
            let mut buf2 = Vec::new();
            back.encode(&mut buf2);
            assert_eq!(buf, buf2);
        }
    }

    #[test]
    fn hostile_contact_count_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_FIND_NODE_REPLY);
        put_u64(&mut buf, 1);
        put_key(&mut buf, &Key::from_u64(1));
        put_u32(&mut buf, u32::MAX); // contact count far beyond payload
        let mut r = &buf[..];
        assert!(KadMsg::decode(&mut r).is_err());
    }

    #[test]
    fn roster_is_deterministic_and_seed_sensitive() {
        assert_eq!(demo_keys(42, 8), demo_keys(42, 8));
        assert_ne!(demo_keys(42, 8), demo_keys(43, 8));
        // The probe identity extends the mesh roster without perturbing it.
        assert_eq!(demo_keys(42, 8)[..8], demo_keys(42, 8)[..8]);
    }
}
