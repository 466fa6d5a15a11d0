//! Overlay routing: run any-to-any protocols on sparse topologies.
//!
//! The MCS protocols of the paper assume a logical full mesh — any process
//! may message any other. The nets ([`Simulator`](crate::sim::Simulator)
//! and [`ThreadedNet`](crate::threaded::ThreadedNet)) honour that on any
//! strongly connected [`Topology`] by routing inside themselves, with the
//! pieces in this module:
//!
//! * [`Router`] — per-source BFS shortest-path trees over the topology,
//!   exposing next-hop lookup ([`Router::next_hop`]), hop counts, and the
//!   per-source broadcast tree ([`Router::tree_parent`],
//!   [`Router::tree_children`]). A full mesh needs none: there the next
//!   hop is the destination.
//! * `Packet` — what one channel hop carries: the bare payload when the
//!   hop is the whole route, or the payload boxed with its logical
//!   source and the destination (or destination set) it still serves.
//!   The addressing is free on the wire, so a one-hop send accounts
//!   exactly what a direct send does, and a multi-hop path pays the
//!   payload again on every hop — precisely the relaying cost the
//!   statistics should show.
//! * `launch` and `arrive` — the forwarding rules both nets share. A
//!   unicast travels hop by hop along [`Router::next_hop`]; under a
//!   multicast [`DeliveryMode`](crate::sim::DeliveryMode) one payload
//!   addressed to a destination set is split along the source's
//!   broadcast tree, so it crosses each tree edge at most once instead of
//!   once per destination. Intermediate nodes forward without waking
//!   their protocol node.
//!
//! Every hop is a real channel send, so per-hop latency and per-hop
//! [`NetworkStats`](crate::stats::NetworkStats) accounting come from the
//! net unchanged.

use crate::message::NodeId;
use crate::network::Topology;
use crate::node::Outgoing;
use std::collections::BTreeMap;
use std::fmt;

/// Why a [`Router`] could not be built for a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No directed path exists from `from` to `to`.
    Disconnected {
        /// The source node.
        from: NodeId,
        /// The unreachable destination.
        to: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Disconnected { from, to } => {
                write!(f, "topology has no path from {from} to {to}; routing needs a strongly connected topology")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Shortest-path routing tables for a topology: one BFS tree per source.
///
/// Construction is `O(n · (n + links))`; lookups are array reads. BFS
/// visits neighbours in node-id order, so the tables (and therefore every
/// routed simulation) are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Router {
    n: usize,
    /// `next_hop[src * n + dst]`: first hop on the shortest path src → dst.
    /// `next_hop[src * n + src] = src`.
    next_hop: Vec<NodeId>,
    /// `parent[src * n + dst]`: predecessor of `dst` in `src`'s BFS
    /// broadcast tree (`None` for the root itself).
    parent: Vec<Option<NodeId>>,
    /// `hops[src * n + dst]`: path length in links (0 for src → src).
    hops: Vec<u32>,
}

impl Router {
    /// Build routing tables for `topology`. Fails with
    /// [`RouteError::Disconnected`] unless every node can reach every other
    /// along directed links.
    pub fn new(topology: &Topology) -> Result<Router, RouteError> {
        let n = topology.node_count();
        let mut next_hop = vec![NodeId(0); n * n];
        let mut parent = vec![None; n * n];
        let mut hops = vec![0u32; n * n];
        let neighbours: Vec<Vec<NodeId>> = (0..n).map(|i| topology.neighbours(NodeId(i))).collect();
        let mut queue = Vec::with_capacity(n);
        for src in 0..n {
            let base = src * n;
            let mut seen = vec![false; n];
            seen[src] = true;
            next_hop[base + src] = NodeId(src);
            queue.clear();
            queue.push(NodeId(src));
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in &neighbours[u.index()] {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        parent[base + v.index()] = Some(u);
                        hops[base + v.index()] = hops[base + u.index()] + 1;
                        // First hop: u's own first hop, unless u is the
                        // source (then v itself is the first hop).
                        next_hop[base + v.index()] = if u.index() == src {
                            v
                        } else {
                            next_hop[base + u.index()]
                        };
                        queue.push(v);
                    }
                }
            }
            if let Some(unreached) = (0..n).find(|&i| !seen[i]) {
                return Err(RouteError::Disconnected {
                    from: NodeId(src),
                    to: NodeId(unreached),
                });
            }
        }
        Ok(Router {
            n,
            next_hop,
            parent,
            hops,
        })
    }

    /// Number of nodes routed over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// First hop on the shortest path from `from` to `to` (`from` itself
    /// when `from == to`).
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        self.next_hop[from.index() * self.n + to.index()]
    }

    /// Length in links of the shortest path from `from` to `to`.
    pub fn hop_count(&self, from: NodeId, to: NodeId) -> u32 {
        self.hops[from.index() * self.n + to.index()]
    }

    /// Parent of `node` in `src`'s broadcast tree (`None` for `src`).
    pub fn tree_parent(&self, src: NodeId, node: NodeId) -> Option<NodeId> {
        self.parent[src.index() * self.n + node.index()]
    }

    /// Children of `node` in `src`'s BFS broadcast tree, in id order. A
    /// broadcast from `src` forwarded along these edges reaches every node
    /// exactly once over shortest paths.
    pub fn tree_children(&self, src: NodeId, node: NodeId) -> Vec<NodeId> {
        (0..self.n)
            .map(NodeId)
            .filter(|&v| self.tree_parent(src, v) == Some(node))
            .collect()
    }

    /// The next node after `at` on `src`'s broadcast-tree path to `dst`
    /// (`None` when `at` is not a proper ancestor of `dst` in `src`'s
    /// tree). At the root this agrees with [`Router::next_hop`], since the
    /// next-hop tables are derived from the same BFS trees — so unicast
    /// envelopes and multicast envelopes leave the source on the same
    /// link.
    pub fn tree_next_hop(&self, src: NodeId, at: NodeId, dst: NodeId) -> Option<NodeId> {
        let mut cur = dst;
        loop {
            match self.tree_parent(src, cur) {
                Some(p) if p == at => return Some(cur),
                Some(p) => cur = p,
                None => return None,
            }
        }
    }

    /// The full shortest path `from → … → to` (excluding `from`, including
    /// `to`; empty when `from == to`).
    pub fn path(&self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut rev = Vec::new();
        let mut cur = to;
        while cur != from {
            rev.push(cur);
            match self.tree_parent(from, cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        rev.reverse();
        rev
    }
}

/// Where a routed copy of a payload is still headed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Dst {
    /// A single destination, reached hop by hop along
    /// [`Router::next_hop`].
    One(NodeId),
    /// A destination set served by one copy, deduplicated along the
    /// source's broadcast tree: each node on the way delivers locally if
    /// it is a destination and forwards one copy per subtree that still
    /// holds destinations, so the payload crosses each tree edge at most
    /// once.
    Many(Vec<NodeId>),
}

/// A copy with further to go than one hop, or a tree-split copy: the
/// payload plus the logical addressing the net routes it by.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Routed<Q> {
    /// The node that issued the send (the sender its destinations see).
    pub(crate) src: NodeId,
    /// The destinations this copy still serves.
    pub(crate) dst: Dst,
    /// The payload.
    pub(crate) payload: Q,
}

/// What one channel hop carries. The addressing rides for free — the
/// wire is charged for the payload alone, on every hop — so a one-hop
/// send accounts exactly what a direct send does and a multi-hop path
/// pays the payload once per link it crosses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Packet<Q> {
    /// A payload whose hop is its whole route: the hop's sender is its
    /// source and the hop's receiver its destination. Every send on a
    /// full mesh travels so, with no addressing at all.
    Direct(Q),
    /// A payload that needs its addressing. Boxed, so a queued packet
    /// is no larger than its payload; the box moves from hop to hop.
    Routed(Box<Routed<Q>>),
}

impl<Q> Packet<Q> {
    fn routed(src: NodeId, dst: Dst, payload: Q) -> Self {
        Packet::Routed(Box::new(Routed { src, dst, payload }))
    }

    /// The payload, wherever it sits.
    pub(crate) fn payload(&self) -> &Q {
        match self {
            Packet::Direct(payload) => payload,
            Packet::Routed(r) => &r.payload,
        }
    }

    /// Whether `node`, the receiver of this hop, is the only destination
    /// this copy still serves. A down node loses such traffic (its
    /// process is dead; catch-up recovers it) and parks everything
    /// else: transit traffic belongs to other node pairs and must
    /// survive the outage.
    pub(crate) fn ends_at(&self, node: NodeId) -> bool {
        match self {
            Packet::Direct(_) => true,
            Packet::Routed(r) => match &r.dst {
                Dst::One(d) => *d == node,
                Dst::Many(ds) => ds.iter().all(|&d| d == node),
            },
        }
    }
}

/// Partition destinations by their hop, preserving input order within
/// each group; destinations whose hop is unknown (`None`) are dropped and
/// tallied in the second return value.
fn group_by_hop(
    targets: impl IntoIterator<Item = NodeId>,
    mut hop: impl FnMut(NodeId) -> Option<NodeId>,
) -> (BTreeMap<NodeId, Vec<NodeId>>, u64) {
    let mut groups: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut lost = 0u64;
    for t in targets {
        match hop(t) {
            Some(h) => groups.entry(h).or_default().push(t),
            None => lost += 1,
        }
    }
    (groups, lost)
}

/// The tree-splitting rule both nets share: one copy of `payload` per
/// child of `at` in `src`'s broadcast tree that still has destinations
/// below it, each carrying its subset of `dsts` (copies in child-id
/// order, destinations in input order). At the source the child is the
/// [`Router::next_hop`] (the same BFS trees, so unicast and multicast
/// leave on the same link); further down it is
/// [`Router::tree_next_hop`]. Without a router (a full mesh) every
/// destination is its own child. Destinations `at` cannot reach inside
/// `src`'s tree mean the copy strayed off its path: they are dropped and
/// counted in the return value rather than tearing the run down.
fn split<Q: Clone>(
    router: Option<&Router>,
    src: NodeId,
    at: NodeId,
    dsts: impl IntoIterator<Item = NodeId>,
    payload: &Q,
    out: &mut Vec<(NodeId, Packet<Q>)>,
) -> u64 {
    let (groups, lost) = group_by_hop(dsts, |d| match router {
        None => Some(d),
        Some(r) if at == src => Some(r.next_hop(src, d)),
        Some(r) => r.tree_next_hop(src, at, d),
    });
    for (hop, dsts) in groups {
        out.push((hop, Packet::routed(src, Dst::Many(dsts), payload.clone())));
    }
    lost
}

/// Put one send of `src` on the wire: append to `out` its first-hop
/// copies. A unicast takes its next hop (the destination itself without
/// a router, so a send to oneself takes the loopback link) and travels
/// [`Packet::Direct`] when that hop is its destination; a destination
/// set travels as one tree-split [`Dst::Many`] copy per first hop when
/// `multicast` is on and the net routes, and as one unicast copy per
/// destination, in order, otherwise. Fails with the first destination
/// the router does not know.
pub(crate) fn launch<Q: Clone>(
    router: Option<&Router>,
    multicast: bool,
    src: NodeId,
    send: Outgoing<Q>,
    out: &mut Vec<(NodeId, Packet<Q>)>,
) -> Result<(), NodeId> {
    let targets = match &send {
        Outgoing::One(d, _) => std::slice::from_ref(d),
        Outgoing::Many(ds, _) => ds.as_slice(),
    };
    if let Some(r) = router {
        if let Some(&d) = targets.iter().find(|d| d.index() >= r.node_count()) {
            return Err(d);
        }
    }
    let unicast = |d: NodeId, payload: Q| {
        let hop = router.map_or(d, |r| r.next_hop(src, d));
        let packet = if hop == d {
            Packet::Direct(payload)
        } else {
            Packet::routed(src, Dst::One(d), payload)
        };
        (hop, packet)
    };
    match send {
        Outgoing::One(d, payload) => out.push(unicast(d, payload)),
        Outgoing::Many(ds, payload) if multicast && router.is_some() => {
            split(router, src, src, ds, &payload, out);
        }
        Outgoing::Many(ds, payload) => {
            if let Some((&last, rest)) = ds.split_last() {
                out.extend(rest.iter().map(|&d| unicast(d, payload.clone())));
                out.push(unicast(last, payload));
            }
        }
    }
    Ok(())
}

/// A copy that `at` received from `from`: append to `out` the copies
/// `at` forwards (the next hop of a transit unicast, or one tree-split
/// copy per subtree of a destination set), and return the local
/// delivery — the logical sender and the payload — when `at` is itself
/// a destination. The second value counts destinations dropped as
/// misrouted (see [`split`]).
pub(crate) fn arrive<Q: Clone>(
    router: Option<&Router>,
    from: NodeId,
    at: NodeId,
    packet: Packet<Q>,
    out: &mut Vec<(NodeId, Packet<Q>)>,
) -> (Option<(NodeId, Q)>, u64) {
    let routed = match packet {
        Packet::Direct(payload) => return (Some((from, payload)), 0),
        Packet::Routed(routed) => routed,
    };
    match routed.dst {
        Dst::One(d) if d != at => {
            let hop = router.map_or(d, |r| r.next_hop(at, d));
            out.push((hop, Packet::Routed(routed)));
            (None, 0)
        }
        _ => {
            let Routed { src, dst, payload } = *routed;
            let Dst::Many(ds) = dst else {
                return (Some((src, payload)), 0);
            };
            let here = ds.contains(&at);
            let rest = ds.into_iter().filter(|&d| d != at);
            let lost = split(router, src, at, rest, &payload, out);
            (here.then_some((src, payload)), lost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_routes_are_all_direct() {
        let r = Router::new(&Topology::full_mesh(5)).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(r.next_hop(NodeId(i), NodeId(j)), NodeId(j));
                    assert_eq!(r.hop_count(NodeId(i), NodeId(j)), 1);
                }
            }
        }
        assert_eq!(r.hop_count(NodeId(2), NodeId(2)), 0);
    }

    #[test]
    fn ring_routes_take_the_short_way_round() {
        let r = Router::new(&Topology::ring(6)).unwrap();
        // 0 → 2: via 1, two hops.
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), NodeId(1));
        assert_eq!(r.hop_count(NodeId(0), NodeId(2)), 2);
        // 0 → 5 is a direct ring edge.
        assert_eq!(r.next_hop(NodeId(0), NodeId(5)), NodeId(5));
        // 0 → 3 is distance 3 either way; BFS visits neighbours in id
        // order, so the id-1 side wins deterministically.
        assert_eq!(r.hop_count(NodeId(0), NodeId(3)), 3);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), NodeId(1));
        assert_eq!(
            r.path(NodeId(0), NodeId(3)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn star_routes_all_pass_through_the_hub() {
        let r = Router::new(&Topology::star(5)).unwrap();
        for leaf in 1..5 {
            for other in 1..5 {
                if leaf != other {
                    assert_eq!(r.next_hop(NodeId(leaf), NodeId(other)), NodeId(0));
                    assert_eq!(r.hop_count(NodeId(leaf), NodeId(other)), 2);
                }
            }
        }
    }

    #[test]
    fn broadcast_tree_spans_every_node_once() {
        for topo in [
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::line(5),
        ] {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                let src = NodeId(src);
                assert_eq!(r.tree_parent(src, src), None);
                let mut reached = 1usize;
                let mut frontier = vec![src];
                while let Some(u) = frontier.pop() {
                    for child in r.tree_children(src, u) {
                        assert_eq!(
                            r.hop_count(src, child),
                            r.hop_count(src, u) + 1,
                            "tree edges follow BFS levels"
                        );
                        reached += 1;
                        frontier.push(child);
                    }
                }
                assert_eq!(reached, n, "broadcast tree from {src} spans the topology");
            }
        }
    }

    #[test]
    fn disconnected_topology_is_rejected() {
        // Two islands: {0,1} and {2,3}.
        let topo = Topology::explicit(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let err = Router::new(&topo).unwrap_err();
        assert!(matches!(err, RouteError::Disconnected { .. }));
        assert!(err.to_string().contains("no path"));
    }

    #[test]
    fn one_way_reachability_is_not_enough() {
        // 0 → 1 but never back.
        let topo = Topology::explicit(2, [(0, 1)]);
        assert_eq!(
            Router::new(&topo),
            Err(RouteError::Disconnected {
                from: NodeId(1),
                to: NodeId(0),
            })
        );
    }

    #[test]
    fn tree_next_hop_follows_the_broadcast_tree() {
        for topo in [
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::line(5),
            Topology::full_mesh(5),
        ] {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                let src = NodeId(src);
                for dst in 0..n {
                    let dst = NodeId(dst);
                    if src == dst {
                        assert_eq!(r.tree_next_hop(src, src, dst), None);
                        continue;
                    }
                    // At the root, the tree child agrees with the unicast
                    // next hop (same BFS trees).
                    assert_eq!(r.tree_next_hop(src, src, dst), Some(r.next_hop(src, dst)));
                    // Walking tree_next_hop from the root traces exactly
                    // the parent-chain path.
                    let mut at = src;
                    let mut walked = Vec::new();
                    while at != dst {
                        let next = r.tree_next_hop(src, at, dst).unwrap();
                        walked.push(next);
                        at = next;
                    }
                    assert_eq!(walked, r.path(src, dst));
                    // A node off the path is not an ancestor.
                    for other in 0..n {
                        let other = NodeId(other);
                        if other != dst && !walked.contains(&other) && other != src {
                            assert_eq!(r.tree_next_hop(src, other, dst), None);
                        }
                    }
                }
            }
        }
    }

    /// The per-writer FIFO guarantee in mixed unicast/multicast traffic
    /// rests on this property: the hop-by-hop unicast route (each relay
    /// consulting its *own* `next_hop` table) traces exactly the source's
    /// broadcast-tree path that multicast envelopes follow, because all
    /// tables come from the same id-order BFS. If tie-breaking ever
    /// changed to let the routes diverge, a writer's consecutive sends to
    /// one destination could travel different physical paths and arrive
    /// reordered under latency jitter — so this test pins the property on
    /// the standard topologies and on random strongly connected graphs.
    #[test]
    fn unicast_relay_paths_coincide_with_broadcast_tree_paths() {
        let mut topologies = vec![
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::grid(2, 5),
            Topology::star(6),
            Topology::line(5),
            Topology::full_mesh(5),
        ];
        // Random connected graphs: a ring backbone (strong connectivity)
        // plus deterministic pseudo-random chords.
        for seed in 0..40u64 {
            let n = 5 + (seed % 6) as usize;
            let mut links = Vec::new();
            for i in 0..n {
                links.push((i, (i + 1) % n));
                links.push(((i + 1) % n, i));
            }
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                let b = (state >> 13) as usize % n;
                if a != b {
                    links.push((a, b));
                    links.push((b, a));
                }
            }
            topologies.push(Topology::explicit(n, links));
        }
        for topo in topologies {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                for dst in 0..n {
                    let (src, dst) = (NodeId(src), NodeId(dst));
                    if src == dst {
                        continue;
                    }
                    // Walk the unicast relay route: every hop re-resolved
                    // from the current node's own table, as the nets do.
                    let mut at = src;
                    let mut hop_by_hop = Vec::new();
                    while at != dst {
                        at = r.next_hop(at, dst);
                        hop_by_hop.push(at);
                        assert!(hop_by_hop.len() <= n, "unicast route must terminate");
                    }
                    assert_eq!(
                        hop_by_hop,
                        r.path(src, dst),
                        "unicast route and tree path diverged for {src}->{dst} on {topo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn singleton_topology_routes_trivially() {
        let r = Router::new(&Topology::full_mesh(1)).unwrap();
        assert_eq!(r.node_count(), 1);
        assert_eq!(r.hop_count(NodeId(0), NodeId(0)), 0);
        assert!(r.path(NodeId(0), NodeId(0)).is_empty());
    }

    /// A multicast copy that reaches a node off its broadcast-tree path
    /// (possible only if the packet was corrupted) delivers its local
    /// copy and drops the stray destinations, counting them — it never
    /// panics mid-delivery.
    #[test]
    fn misrouted_multicast_is_counted_not_fatal() {
        let router = Router::new(&Topology::ring(4)).unwrap();
        // On ring(4), node 0's broadcast tree reaches 3 via the direct
        // edge 0→3, so node 2 is not an ancestor of 3 in that tree.
        assert_eq!(router.tree_next_hop(NodeId(0), NodeId(2), NodeId(3)), None);
        let packet = Packet::routed(NodeId(0), Dst::Many(vec![NodeId(2), NodeId(3)]), 8u32);
        let mut out = Vec::new();
        let (local, lost) = arrive(Some(&router), NodeId(1), NodeId(2), packet, &mut out);
        assert_eq!(local, Some((NodeId(0), 8)));
        assert_eq!(lost, 1);
        assert!(out.is_empty());
    }
}
