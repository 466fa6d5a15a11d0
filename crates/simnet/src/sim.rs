//! The discrete-event simulator driver.
//!
//! A [`Simulator`] owns a set of protocol nodes (implementing [`Node`]), the
//! reliable FIFO channels between them, the event queue, and the run
//! statistics. Client code (the DSM runtime in the `dsm` crate) drives the
//! simulation by injecting work into nodes with [`Simulator::with_node`] and
//! then advancing virtual time with [`Simulator::run_until_quiescent`] or
//! [`Simulator::step`].
//!
//! Any node may send to any other: the simulator routes inside itself.
//! On a full mesh the next hop is the destination; on a sparser
//! topology every logical send travels hop by hop over BFS shortest
//! paths ([`crate::route`]), intermediate nodes forward it without
//! waking their protocol node, and each hop is a real channel send with
//! its own latency and accounting.

use crate::channel::{Channel, LatencyModel};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{FaultError, FaultPlan};
use crate::message::{NodeId, Payload, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::pool::{BufferPool, PoolStats};
use crate::route::{self, Packet, RouteError, Router};
use crate::stats::NetworkStats;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::rc::Rc;

/// Why the simulator could not carry a message.
///
/// Routing never fails on a topology the simulator accepted (it is
/// strongly connected by construction). [`SendError::Fault`] is the
/// fault layer's loud failure: a message had to be parked at a node that
/// is crashed with no scheduled restart (see
/// [`crate::fault::FaultError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// A message required a node that is permanently crashed.
    Fault(FaultError),
    /// An operation named a node id the simulator does not host: a send
    /// addressed outside the topology, or a corrupted id the delivery
    /// hot path reports instead of panicking mid-simulation.
    UnknownNode {
        /// The out-of-range node id.
        node: NodeId,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Fault(e) => e.fmt(f),
            SendError::UnknownNode { node } => {
                write!(
                    f,
                    "operation addressed node {node}, which this simulator does not host"
                )
            }
        }
    }
}

impl std::error::Error for SendError {}

impl From<FaultError> for SendError {
    fn from(e: FaultError) -> Self {
        SendError::Fault(e)
    }
}

/// The wire-efficiency knobs of a deployment: how identical-payload
/// fan-outs travel, and whether protocols may batch control records.
///
/// The default (`unicast`, unbatched) reproduces the classical behaviour
/// exactly — one envelope per destination, one control record per write —
/// so existing runs stay bit-identical. The other modes are the
/// wire-efficiency layer this crate measures:
///
/// * `multicast` — a [`NodeContext::send_multi`] group travels as one
///   copy per broadcast-tree edge instead of one copy per destination
///   per hop. Only a sparse net can share edges; on a full mesh every
///   destination is one private link away, so the fan-out stays one
///   copy per destination.
/// * `batching` — protocols that emit per-destination control records
///   (the partially replicated causal protocol) may buffer them per
///   destination, piggyback them on the next data update to that
///   destination, and delta-encode batches, instead of paying a full
///   control message per record. A bounded flush (a zero-delay timer plus
///   a batch-size cap) guarantees quiescence still drains every record.
/// * `delta` — vector-clock-carrying protocols (the causal pair) charge
///   the wire for a sparse delta encoding of each clock against the
///   writer's previous write (the `dsm` crate's `DeltaVc`) instead of
///   the dense `8n` bytes. Writes touch few entries between
///   broadcasts, so the encoded size collapses from `O(n)` to `O(changed
///   entries)`; a dense fallback caps it at the classical size.
///
/// Delivery modes never change *what* is delivered — histories, settled
/// replica contents, and per-destination control-record counts are
/// pinned equal across all modes by differential tests — only what
/// the wire pays for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeliveryMode {
    /// Deduplicate identical-payload fan-outs along broadcast trees.
    pub multicast: bool,
    /// Allow protocols to batch and piggyback control records.
    pub batching: bool,
    /// Charge vector clocks at their delta-encoded wire size.
    #[serde(default)]
    pub delta: bool,
}

impl DeliveryMode {
    /// One envelope per destination, one control record per write — the
    /// classical baseline (the default).
    pub const UNICAST: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: false,
        delta: false,
    };
    /// Tree multicast, unbatched control records.
    pub const MULTICAST: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: false,
        delta: false,
    };
    /// Unicast fan-out, batched/piggybacked control records.
    pub const BATCHED: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: true,
        delta: false,
    };
    /// Tree multicast and batched control records.
    pub const MULTICAST_BATCHED: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: true,
        delta: false,
    };
    /// Unicast fan-out, unbatched, delta-encoded vector clocks.
    pub const DELTA: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: false,
        delta: true,
    };
    /// Every wire optimization at once: tree multicast, batched control
    /// records, and delta-encoded vector clocks.
    pub const MULTICAST_BATCHED_DELTA: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: true,
        delta: true,
    };

    /// All swept delivery modes, baseline first (the sweep order used by
    /// benchmark tables).
    pub const ALL: [DeliveryMode; 6] = [
        DeliveryMode::UNICAST,
        DeliveryMode::MULTICAST,
        DeliveryMode::BATCHED,
        DeliveryMode::MULTICAST_BATCHED,
        DeliveryMode::DELTA,
        DeliveryMode::MULTICAST_BATCHED_DELTA,
    ];

    /// Short label used in tables and benchmark ids.
    pub fn label(self) -> &'static str {
        match (self.multicast, self.batching, self.delta) {
            (false, false, false) => "unicast",
            (true, false, false) => "multicast",
            (false, true, false) => "batched",
            (true, true, false) => "multicast-batched",
            (false, false, true) => "delta",
            (true, false, true) => "multicast-delta",
            (false, true, true) => "batched-delta",
            (true, true, true) => "multicast-batched-delta",
        }
    }

    /// Parse a [`DeliveryMode::label`] back into a mode (any of the eight
    /// knob combinations, not just the swept [`DeliveryMode::ALL`] set).
    pub fn parse(label: &str) -> Option<DeliveryMode> {
        let unswept = [
            DeliveryMode {
                multicast: true,
                batching: false,
                delta: true,
            },
            DeliveryMode {
                multicast: false,
                batching: true,
                delta: true,
            },
        ];
        DeliveryMode::ALL
            .into_iter()
            .chain(unswept)
            .find(|m| m.label() == label)
    }
}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency model applied to every channel.
    pub latency: LatencyModel,
    /// Seed for all channel RNGs.
    pub seed: u64,
    /// Safety valve: abort the run after this many events (0 = unlimited).
    pub max_events: u64,
    /// Topology requested by the client. Drivers that build their own
    /// [`Simulator`] (like the DSM runtime) honour this; `None` means "use
    /// the driver's default" (a full mesh for the DSM protocols).
    pub topology: Option<Topology>,
    /// How identical-payload fan-outs travel the wire (tree multicast) and
    /// whether protocols may batch control records
    /// ([`DeliveryMode::default`] reproduces the classical one-envelope-
    /// per-destination, one-record-per-write behaviour exactly). Multicast
    /// only changes the wire on a sparse topology; a full mesh always
    /// fans out per destination.
    pub delivery: DeliveryMode,
    /// The fault schedule: seeded per-link drop/duplicate rates enforced
    /// by every channel, and per-node crash windows enforced in the
    /// delivery path. The default plan is trivial and reproduces the
    /// reliable-channel model bit for bit.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            seed: 0xD5_0C0DE,
            max_events: 0,
            topology: None,
            delivery: DeliveryMode::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// How a call to [`Simulator::run_until_quiescent`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain; the system is quiescent.
    Quiescent {
        /// Number of events processed by this call.
        events: u64,
    },
    /// The `max_events` budget was exhausted before quiescence.
    Exhausted {
        /// Number of events processed by this call.
        events: u64,
    },
}

impl RunOutcome {
    /// Events processed during the run.
    pub fn events(&self) -> u64 {
        match *self {
            RunOutcome::Quiescent { events } | RunOutcome::Exhausted { events } => events,
        }
    }

    /// Whether the run reached quiescence.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// One entry of the delivery schedule a threaded replay follows: how the
/// named node acts next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Take the next packet off the link from `from` (deliver it, forward
    /// it, or both).
    Deliver {
        /// The hop sender whose FIFO link supplies the packet.
        from: NodeId,
    },
    /// Fire the pending timer with this tag.
    Timer {
        /// Tag passed back to [`Node::on_timer`].
        tag: u64,
    },
}

/// A packet as the event queue holds it.
type Queued<P> = Packet<Payload<P>>;

/// The simulator: nodes, channels, event queue, statistics.
///
/// Channels are stored densely, one slot per ordered node pair indexed by
/// `from * n + to`, so the per-send lookup on the hot path is a direct
/// array access (channels are still created lazily on first use, because a
/// full mesh over `n` nodes has `n·(n-1)` of them and most workloads touch
/// only a fraction). A send to oneself takes the loopback slot.
pub struct Simulator<P, N> {
    topology: Topology,
    config: SimConfig,
    nodes: Vec<N>,
    /// Next-hop tables; `None` on a full mesh, where the next hop is the
    /// destination.
    router: Option<Router>,
    channels: Vec<Option<Channel>>,
    /// Queued payloads are [`Payload`]-wrapped so one fan-out shares a
    /// single allocation across all of its delivery events.
    queue: EventQueue<Queued<P>>,
    now: SimTime,
    stats: NetworkStats,
    events_processed: u64,
    /// Transit copies intermediate nodes forwarded.
    forwarded: u64,
    /// Multicast destinations dropped as off their broadcast-tree path.
    misrouted: u64,
    /// The delivery schedule a threaded replay follows, when recorded
    /// (see [`Simulator::record_schedule`]).
    schedule: Option<Vec<(NodeId, Step)>>,
    started: bool,
    /// Nodes taken down at runtime via [`Simulator::set_down`] (the
    /// scripted crash path; scheduled outages live in
    /// `config.faults.crashes`).
    manual_down: Vec<bool>,
    /// Packets parked at runtime-crashed nodes, redelivered in order by
    /// [`Simulator::set_up`].
    parked: Vec<Vec<(NodeId, u64, Queued<P>)>>,
    /// Recycled outbox buffers for delivery-path [`NodeContext`]s.
    outbox_pool: BufferPool<Outgoing<P>>,
    /// Recycled timer-request buffers for delivery-path [`NodeContext`]s.
    timer_pool: BufferPool<(SimDuration, u64)>,
    /// Recycled scratch buffers for the batched event drain.
    batch_pool: BufferPool<Event<Queued<P>>>,
    /// Scratch list of the addressed copies one step puts on the wire.
    hops: Vec<(NodeId, Queued<P>)>,
}

impl<P, N> Simulator<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    /// Build a simulator over `topology` hosting `nodes` (one per topology
    /// node, in id order). A topology that is not a full mesh gets BFS
    /// routing tables; it fails with [`RouteError::Disconnected`] unless
    /// every node can reach every other.
    ///
    /// Panics if `nodes.len()` differs from the topology's node count, or
    /// if `config.topology` is set but disagrees with `topology` (drivers
    /// that resolve the configured topology themselves — like the DSM
    /// runtime — pass the resolved value in both places; a mismatch means
    /// the caller's intent would be silently dropped).
    pub fn new(topology: Topology, config: SimConfig, nodes: Vec<N>) -> Result<Self, RouteError> {
        assert_eq!(
            nodes.len(),
            topology.node_count(),
            "one protocol node is required per topology node"
        );
        if let Some(configured) = &config.topology {
            assert_eq!(
                configured, &topology,
                "SimConfig.topology disagrees with the topology passed to Simulator::new"
            );
        }
        let router = if topology.is_full_mesh() {
            None
        } else {
            Some(Router::new(&topology)?)
        };
        let n = topology.node_count();
        Ok(Simulator {
            topology,
            config,
            nodes,
            router,
            channels: vec![None; n * n],
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: NetworkStats::with_nodes(n),
            events_processed: 0,
            forwarded: 0,
            misrouted: 0,
            schedule: None,
            started: false,
            manual_down: vec![false; n],
            parked: (0..n).map(|_| Vec::new()).collect(),
            outbox_pool: BufferPool::new(),
            timer_pool: BufferPool::new(),
            batch_pool: BufferPool::new(),
            hops: Vec::new(),
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's state machine. Used by the crash
    /// recovery path to restore a restarted node from its persisted
    /// snapshot; sends are not possible through this accessor (use
    /// [`Simulator::with_node`] for that).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Whether `node` is down at virtual time `at` — either taken down at
    /// runtime ([`Simulator::set_down`]) or inside a scheduled crash
    /// window of the fault plan.
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.manual_down.get(node.index()).copied().unwrap_or(false)
            || self.config.faults.window_covering(node, at).is_some()
    }

    /// Take `node` down at the current virtual time (the scripted crash
    /// path, driven by the DSM runtime). Packets that arrive while it is
    /// down are lost (and counted) when it is their only remaining
    /// destination, and parked for redelivery at restart otherwise —
    /// transit traffic belongs to other node pairs.
    pub fn set_down(&mut self, node: NodeId) {
        if let Some(flag) = self.manual_down.get_mut(node.index()) {
            *flag = true;
        }
    }

    /// Bring a runtime-crashed node back up, redelivering every parked
    /// packet at the current virtual time in its original arrival
    /// order (the event queue's insertion-order tie-break preserves it).
    pub fn set_up(&mut self, node: NodeId) {
        if let Some(flag) = self.manual_down.get_mut(node.index()) {
            *flag = false;
        }
        let parked = self
            .parked
            .get_mut(node.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for (from, seq, payload) in parked {
            self.queue.push(
                self.now,
                EventKind::Deliver {
                    from,
                    to: node,
                    seq,
                    payload,
                },
            );
        }
    }

    /// Packets currently parked at a runtime-crashed node (0 for a node
    /// id the simulator does not host).
    pub fn parked_count(&self, node: NodeId) -> usize {
        self.parked.get(node.index()).map_or(0, Vec::len)
    }

    /// Number of hosted nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulated network statistics (per hop on a sparse topology).
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Transit copies forwarded by intermediate nodes — the extra hops a
    /// sparse topology pays compared to a full mesh (always 0 on one).
    pub fn forwarded_messages(&self) -> u64 {
        self.forwarded
    }

    /// Multicast destinations dropped because a copy strayed off its
    /// broadcast-tree path. Always 0 when copies follow the tree they
    /// were split on; a nonzero count means a packet was corrupted, and
    /// the delivery path drops the stray destination instead of tearing
    /// the whole simulation down.
    pub fn misrouted_messages(&self) -> u64 {
        self.misrouted
    }

    /// Combined buffer-pool counters (outbox + timer + event-batch
    /// pools): how often the delivery hot path reused a recycled buffer
    /// instead of allocating. Purely observational — pooling never
    /// changes simulation results.
    pub fn pool_stats(&self) -> PoolStats {
        let (a, b, c) = (
            self.outbox_pool.stats(),
            self.timer_pool.stats(),
            self.batch_pool.stats(),
        );
        PoolStats {
            hits: a.hits + b.hits + c.hits,
            misses: a.misses + b.misses + c.misses,
            recycled: a.recycled + b.recycled + c.recycled,
            discarded: a.discarded + b.discarded + c.discarded,
        }
    }

    /// A [`NodeContext`] for `me` at the current time, backed by pooled
    /// buffers ([`Simulator::flush_context`] returns them).
    fn recycled_context(&mut self, me: NodeId) -> NodeContext<P> {
        NodeContext::with_buffers(
            me,
            self.now,
            self.outbox_pool.acquire(0),
            self.timer_pool.acquire(0),
        )
    }

    /// Start recording the delivery schedule: one [`Step`] per delivery
    /// and timer firing, in processing order.
    pub(crate) fn record_schedule(&mut self) {
        self.schedule = Some(Vec::new());
    }

    /// The schedule recorded since the previous call (empty when not
    /// recording).
    pub(crate) fn take_schedule(&mut self) -> Vec<(NodeId, Step)> {
        self.schedule
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of messages/timers still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Invoke `on_start` on every node (in id order) if not already done.
    /// Called automatically by the run methods; exposed for tests that want
    /// to inspect the state between start-up and the first delivery.
    ///
    /// Panics if a start-up send cannot be carried (see
    /// [`Simulator::try_with_node`] for the error contract).
    pub fn start(&mut self) {
        self.try_start().unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_start(&mut self) -> Result<(), SendError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut ctx = self.recycled_context(NodeId(i));
            if let Some(node) = self.nodes.get_mut(i) {
                node.on_start(&mut ctx);
            }
            self.flush_context(NodeId(i), ctx)?;
        }
        Ok(())
    }

    /// Run `f` against node `id`'s state machine with a messaging context,
    /// then schedule whatever it sent. This is how application-level
    /// operations (reads/writes issued by application processes) enter the
    /// protocol.
    ///
    /// Panics with a [`SendError`] message if a send cannot be carried;
    /// use [`Simulator::try_with_node`] to handle that case.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> R {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::with_node`]: returns the
    /// [`SendError`] of the first buffered send that names a node the
    /// simulator does not host. The node's state change still applies
    /// (the callback already ran); its timers and the sends buffered
    /// before the offending one are scheduled.
    pub fn try_with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> Result<R, SendError> {
        self.try_start()?;
        let mut ctx = self.recycled_context(id);
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(SendError::UnknownNode { node: id })?;
        let r = f(node, &mut ctx);
        self.flush_context(id, ctx)?;
        Ok(r)
    }

    /// Process the next pending event, if any. Returns `false` when the
    /// queue is empty.
    ///
    /// Panics with a [`SendError`] message if the handled event caused a
    /// failed send; use [`Simulator::try_step`] to handle it.
    pub fn step(&mut self) -> bool {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::step`]: returns the [`SendError`]
    /// of the first failed send triggered by the handled event (the event
    /// itself is still consumed).
    pub fn try_step(&mut self) -> Result<bool, SendError> {
        self.try_start()?;
        let Some(event) = self.queue.pop() else {
            return Ok(false);
        };
        self.process_event(event)?;
        Ok(true)
    }

    /// Handle one drained event: advance virtual time and dispatch to the
    /// destination node. Shared by the single-step path and the batched
    /// drain in [`Simulator::try_run_until_quiescent`].
    fn process_event(&mut self, event: Event<Queued<P>>) -> Result<(), SendError> {
        debug_assert!(event.at >= self.now, "time must not run backwards");
        self.now = event.at;
        self.events_processed += 1;
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                seq,
                payload: packet,
            } => {
                if self.is_down(to, self.now) {
                    return self.handle_down_delivery(from, to, seq, packet);
                }
                let payload = packet.payload();
                self.stats
                    .record_delivery(to, payload.data_bytes(), payload.control_bytes());
                if let Some(schedule) = &mut self.schedule {
                    schedule.push((to, Step::Deliver { from }));
                }
                let mut hops = std::mem::take(&mut self.hops);
                let (local, lost) =
                    route::arrive(self.router.as_ref(), from, to, packet, &mut hops);
                self.misrouted += lost;
                self.forwarded += hops.len() as u64;
                // A delivering node's timers are scheduled before the
                // copies it forwards, and its own sends after them.
                let mut outbox = None;
                if let Some((src, payload)) = local {
                    let mut ctx = self.recycled_context(to);
                    let node = self
                        .nodes
                        .get_mut(to.index())
                        .ok_or(SendError::UnknownNode { node: to })?;
                    node.on_message(&mut ctx, src, payload.into_owned());
                    let (sends, timers) = ctx.into_parts();
                    self.schedule_timers(to, timers);
                    outbox = Some(sends);
                }
                let forwarded = self.send_hops(to, &mut hops);
                self.hops = hops;
                forwarded?;
                if let Some(sends) = outbox {
                    self.send_outbox(to, sends)?;
                }
            }
            EventKind::Timer { node, tag } => {
                if self.is_down(node, self.now) {
                    // A crashed node's timers are volatile state: lost.
                    return Ok(());
                }
                if let Some(schedule) = &mut self.schedule {
                    schedule.push((node, Step::Timer { tag }));
                }
                let mut ctx = self.recycled_context(node);
                let state = self
                    .nodes
                    .get_mut(node.index())
                    .ok_or(SendError::UnknownNode { node })?;
                state.on_timer(&mut ctx, tag);
                self.flush_context(node, ctx)?;
            }
            EventKind::Duplicate { from: _, to: _ } => {
                // Discarded by the receiver's link layer (sequence-number
                // dedup); its wire cost was charged at send time.
            }
        }
        Ok(())
    }

    /// A packet arrived at a crashed node: lose it (and count the loss)
    /// if the node is its only remaining destination, park it otherwise.
    fn handle_down_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        seq: u64,
        packet: Queued<P>,
    ) -> Result<(), SendError> {
        if packet.ends_at(to) {
            self.stats.record_crash_loss(to);
        } else if self.manual_down.get(to.index()).copied().unwrap_or(false) {
            // Runtime crash: restart time unknown; hold the packet until
            // set_up redelivers it.
            self.parked
                .get_mut(to.index())
                .ok_or(SendError::UnknownNode { node: to })?
                .push((from, seq, packet));
        } else {
            // Scheduled crash window: redeliver at the restart boundary,
            // or fail loudly if there is none — parked transit traffic is
            // never dropped on the floor.
            let restart = self
                .config
                .faults
                .window_covering(to, self.now)
                .and_then(|w| w.restart_at());
            match restart {
                Some(at) => self.queue.push(
                    at,
                    EventKind::Deliver {
                        from,
                        to,
                        seq,
                        payload: packet,
                    },
                ),
                None => return Err(SendError::Fault(FaultError { node: to })),
            }
        }
        Ok(())
    }

    /// Run until no events remain or the `max_events` budget is exhausted.
    ///
    /// Panics with a [`SendError`] message on a failed send; use
    /// [`Simulator::try_run_until_quiescent`] to handle it.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.try_run_until_quiescent()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::run_until_quiescent`].
    ///
    /// The run loop drains all events sharing the earliest timestamp in
    /// one heap pass ([`EventQueue::pop_ready_into`]) instead of
    /// re-peeking per event; the interleaving is bit-identical to the
    /// single-step loop because events scheduled while a batch is
    /// processed always carry larger order numbers (see the batch-drain
    /// docs). On budget expiry or a send error mid-batch the unprocessed
    /// remainder is requeued at its original positions.
    pub fn try_run_until_quiescent(&mut self) -> Result<RunOutcome, SendError> {
        self.try_start()?;
        let mut processed = 0u64;
        let mut batch = self.batch_pool.acquire(0);
        while !self.queue.is_empty() {
            self.queue.pop_ready_into(&mut batch);
            let mut events = batch.drain(..);
            while let Some(event) = events.next() {
                if self.config.max_events > 0 && processed >= self.config.max_events {
                    self.queue.requeue(event);
                    for rest in events {
                        self.queue.requeue(rest);
                    }
                    self.batch_pool.release(batch);
                    return Ok(RunOutcome::Exhausted { events: processed });
                }
                match self.process_event(event) {
                    Ok(()) => processed += 1,
                    Err(e) => {
                        for rest in events {
                            self.queue.requeue(rest);
                        }
                        self.batch_pool.release(batch);
                        return Err(e);
                    }
                }
            }
        }
        self.batch_pool.release(batch);
        Ok(RunOutcome::Quiescent { events: processed })
    }

    /// Consume the simulator, returning its nodes (for post-run inspection)
    /// and the accumulated statistics.
    pub fn into_parts(self) -> (Vec<N>, NetworkStats) {
        (self.nodes, self.stats)
    }

    /// Schedule what a callback of `origin` produced: its timers, then
    /// its sends in order. The context's buffers return to the pools.
    fn flush_context(&mut self, origin: NodeId, ctx: NodeContext<P>) -> Result<(), SendError> {
        let (outbox, timers) = ctx.into_parts();
        // Timers cannot fail; schedule them first so a SendError on a later
        // send never silently drops a timer the same callback requested.
        self.schedule_timers(origin, timers);
        self.send_outbox(origin, outbox)
    }

    fn schedule_timers(&mut self, origin: NodeId, mut timers: Vec<(SimDuration, u64)>) {
        for (delay, tag) in timers.drain(..) {
            self.queue
                .push(self.now + delay, EventKind::Timer { node: origin, tag });
        }
        self.timer_pool.release(timers);
    }

    /// Put a callback's sends on the wire in order, each as its first-hop
    /// copies (see [`route::launch`]). A fan-out's copies share one
    /// payload allocation instead of cloning it per destination.
    fn send_outbox(
        &mut self,
        origin: NodeId,
        mut outbox: Vec<Outgoing<P>>,
    ) -> Result<(), SendError> {
        let mut hops = std::mem::take(&mut self.hops);
        let mut result = Ok(());
        for out in outbox.drain(..) {
            let send = match out {
                Outgoing::One(to, payload) => Outgoing::One(to, Payload::Owned(payload)),
                Outgoing::Many(targets, payload) => {
                    Outgoing::Many(targets, Payload::Shared(Rc::new(payload)))
                }
            };
            result = route::launch(
                self.router.as_ref(),
                self.config.delivery.multicast,
                origin,
                send,
                &mut hops,
            )
            .map_err(|node| SendError::UnknownNode { node })
            .and_then(|()| self.send_hops(origin, &mut hops));
            if result.is_err() {
                break;
            }
        }
        hops.clear();
        self.hops = hops;
        self.outbox_pool.release(outbox);
        result
    }

    /// Send every addressed copy in `hops` from `from`, in order.
    fn send_hops(
        &mut self,
        from: NodeId,
        hops: &mut Vec<(NodeId, Queued<P>)>,
    ) -> Result<(), SendError> {
        for (to, packet) in hops.drain(..) {
            self.send_message(from, to, packet)?;
        }
        Ok(())
    }

    fn send_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        packet: Queued<P>,
    ) -> Result<(), SendError> {
        let n = self.topology.node_count();
        if to.index() >= n {
            return Err(SendError::UnknownNode { node: to });
        }
        let payload = packet.payload();
        let (bytes, data, control) = (
            payload.total_bytes(),
            payload.data_bytes(),
            payload.control_bytes(),
        );
        let slot = from.index() * n + to.index();
        let config = &self.config;
        let channel_slot = self
            .channels
            .get_mut(slot)
            .ok_or(SendError::UnknownNode { node: from })?;
        let channel = channel_slot.get_or_insert_with(|| {
            Channel::with_faults(
                from,
                to,
                config.latency.clone(),
                config.seed,
                &config.faults,
            )
        });
        let transmission = channel.transmit(self.now, bytes);
        let seq = channel.sent_count();
        self.stats.record_send(from, to, data, control);
        self.stats
            .record_retransmits(from, to, transmission.drops, data, control);
        if let Some(at) = transmission.duplicate_at {
            self.stats.record_duplicate(from, to, data, control);
            self.queue.push(at, EventKind::Duplicate { from, to });
        }
        self.queue.push(
            transmission.delivery,
            EventKind::Deliver {
                from,
                to,
                seq,
                payload: packet,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;
    use crate::route::{Dst, Routed};
    use crate::time::SimDuration;

    /// A node that relays a token around the ring `k` times, counting hops.
    #[derive(Debug)]
    struct RingRelay {
        id: usize,
        n: usize,
        hops_seen: u64,
        remaining: u64,
    }

    impl Node<RawPayload> for RingRelay {
        fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
            if self.id == 0 && self.remaining > 0 {
                ctx.send(NodeId(1 % self.n), RawPayload::new(8, 4));
            }
        }

        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, _from: NodeId, p: RawPayload) {
            self.hops_seen += 1;
            if self.id == 0 {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                if self.remaining == 0 {
                    return;
                }
            }
            ctx.send(NodeId((self.id + 1) % self.n), p);
        }
    }

    fn ring_sim(n: usize, laps: u64) -> Simulator<RawPayload, RingRelay> {
        let nodes = (0..n)
            .map(|id| RingRelay {
                id,
                n,
                hops_seen: 0,
                remaining: if id == 0 { laps } else { 0 },
            })
            .collect();
        Simulator::new(Topology::ring(n), SimConfig::default(), nodes).unwrap()
    }

    #[test]
    fn token_ring_runs_to_quiescence() {
        let mut sim = ring_sim(5, 3);
        let outcome = sim.run_until_quiescent();
        assert!(outcome.is_quiescent());
        // 3 laps of 5 hops each.
        assert_eq!(outcome.events(), 15);
        assert_eq!(sim.stats().total_messages(), 15);
        assert_eq!(sim.stats().total_data_bytes(), 15 * 8);
        assert_eq!(sim.stats().total_control_bytes(), 15 * 4);
        for i in 0..5 {
            assert_eq!(sim.node(NodeId(i)).hops_seen, 3, "node {i}");
        }
    }

    #[test]
    fn max_events_budget_stops_the_run() {
        let config = SimConfig {
            max_events: 7,
            ..SimConfig::default()
        };
        let nodes = (0..5)
            .map(|id| RingRelay {
                id,
                n: 5,
                hops_seen: 0,
                remaining: if id == 0 { 100 } else { 0 },
            })
            .collect();
        let mut sim = Simulator::new(Topology::ring(5), config, nodes).unwrap();
        let outcome = sim.run_until_quiescent();
        assert_eq!(outcome, RunOutcome::Exhausted { events: 7 });
        assert!(sim.pending_events() > 0);
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let mut sim = ring_sim(4, 1);
        sim.run_until_quiescent();
        // Default latency is 10us per hop; 4 hops.
        assert_eq!(sim.now(), SimTime::from_micros(40));
    }

    #[test]
    fn with_node_flushes_sends() {
        let mut sim = ring_sim(3, 0);
        sim.with_node(NodeId(2), |_n, ctx| {
            ctx.send(NodeId(0), RawPayload::new(1, 1));
        });
        assert_eq!(sim.pending_events(), 1);
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).hops_seen, 1);
    }

    #[test]
    #[should_panic(expected = "does not host")]
    fn sending_outside_topology_panics() {
        let mut sim = ring_sim(5, 0);
        sim.with_node(NodeId(0), |_n, ctx| {
            // The ring has nodes 0..5 only.
            ctx.send(NodeId(9), RawPayload::new(1, 0));
        });
    }

    #[test]
    fn sending_outside_topology_is_a_typed_error() {
        let mut sim = ring_sim(5, 0);
        let err = sim
            .try_with_node(NodeId(0), |_n, ctx| {
                ctx.send(NodeId(9), RawPayload::new(1, 0));
            })
            .unwrap_err();
        assert_eq!(err, SendError::UnknownNode { node: NodeId(9) });
        assert!(err.to_string().contains("n9"));
        // A non-neighbour inside the topology is routed, not rejected, and
        // legal sends keep working afterwards.
        let ok = sim.try_with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
        });
        assert!(ok.is_ok());
        assert!(sim.try_run_until_quiescent().is_ok());
        assert_eq!(sim.node(NodeId(2)).hops_seen, 1);
    }

    #[test]
    fn replay_schedule_lists_deliveries_and_timers() {
        #[derive(Debug, Default)]
        struct Kick;
        impl Node<RawPayload> for Kick {
            fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {
                ctx.set_timer(SimDuration::from_nanos(0), 9);
            }
        }
        // On a line 0 — 1 — 2, a send 0 → 2 is a transit step at n1,
        // then a delivery and a timer firing at n2.
        let mut sim = Simulator::new(
            Topology::line(3),
            SimConfig::default(),
            vec![Kick, Kick, Kick],
        )
        .unwrap();
        assert!(sim.take_schedule().is_empty(), "not recording yet");
        sim.record_schedule();
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
        });
        sim.run_until_quiescent();
        assert_eq!(
            sim.take_schedule(),
            vec![
                (NodeId(1), Step::Deliver { from: NodeId(0) }),
                (NodeId(2), Step::Deliver { from: NodeId(1) }),
                (NodeId(2), Step::Timer { tag: 9 }),
            ]
        );
        // Each call drains what was recorded since the previous one.
        assert!(sim.take_schedule().is_empty());
    }

    #[test]
    fn timers_fire_at_requested_delay() {
        #[derive(Debug, Default)]
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
                ctx.set_timer(SimDuration::from_micros(5), 1);
                ctx.set_timer(SimDuration::from_micros(2), 2);
            }
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(
            Topology::full_mesh(1),
            SimConfig::default(),
            vec![TimerNode::default()],
        )
        .unwrap();
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).fired, vec![2, 1]);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let config = SimConfig {
                latency: LatencyModel::Uniform {
                    min: SimDuration::from_micros(1),
                    max: SimDuration::from_micros(50),
                },
                seed,
                ..SimConfig::default()
            };
            let nodes = (0..6)
                .map(|id| RingRelay {
                    id,
                    n: 6,
                    hops_seen: 0,
                    remaining: if id == 0 { 4 } else { 0 },
                })
                .collect();
            let mut sim = Simulator::new(Topology::ring(6), config, nodes).unwrap();
            sim.run_until_quiescent();
            sim.now()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn into_parts_returns_nodes_and_stats() {
        let mut sim = ring_sim(3, 1);
        sim.run_until_quiescent();
        let (nodes, stats) = sim.into_parts();
        assert_eq!(nodes.len(), 3);
        assert_eq!(stats.total_messages(), 3);
    }

    use crate::fault::{CrashWindow, FaultPlan};

    fn faulted_ring(n: usize, laps: u64, faults: FaultPlan) -> Simulator<RawPayload, RingRelay> {
        let config = SimConfig {
            faults,
            ..SimConfig::default()
        };
        let nodes = (0..n)
            .map(|id| RingRelay {
                id,
                n,
                hops_seen: 0,
                remaining: if id == 0 { laps } else { 0 },
            })
            .collect();
        Simulator::new(Topology::ring(n), config, nodes).unwrap()
    }

    #[test]
    fn lossy_plan_delivers_everything_late_and_counts_retransmits() {
        let mut reliable = ring_sim(5, 4);
        reliable.run_until_quiescent();
        let mut lossy = faulted_ring(5, 4, FaultPlan::lossy(0.4, 3));
        lossy.run_until_quiescent();
        // Same logical traffic: every hop still delivered exactly once…
        assert_eq!(
            lossy.stats().total_messages(),
            reliable.stats().total_messages()
        );
        for i in 0..5 {
            assert_eq!(lossy.node(NodeId(i)).hops_seen, 4, "node {i}");
        }
        // …but drops forced retransmissions, which cost extra bytes and
        // extra virtual time.
        assert!(lossy.stats().total_drops() > 0);
        assert!(lossy.stats().total_data_bytes() > reliable.stats().total_data_bytes());
        assert!(lossy.now() > reliable.now());
        assert_eq!(lossy.stats().total_duplicates(), 0);
    }

    #[test]
    fn duplicating_plan_is_invisible_to_the_nodes() {
        let mut dup = faulted_ring(5, 4, FaultPlan::duplicating(0.5, 3));
        dup.run_until_quiescent();
        // The link layer discarded every duplicate: node-visible traffic
        // is exactly the reliable run's.
        for i in 0..5 {
            assert_eq!(dup.node(NodeId(i)).hops_seen, 4, "node {i}");
        }
        assert!(dup.stats().total_duplicates() > 0);
        // Duplicates paid wire bytes without raising the message count.
        assert_eq!(dup.stats().total_messages(), 20);
        assert!(dup.stats().total_data_bytes() > 20 * 8);
    }

    #[test]
    fn identical_fault_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = faulted_ring(
                6,
                5,
                FaultPlan {
                    drop_rate: 0.3,
                    duplicate_rate: 0.3,
                    seed,
                    ..FaultPlan::default()
                },
            );
            sim.run_until_quiescent();
            (
                sim.now(),
                sim.stats().total_drops(),
                sim.stats().total_duplicates(),
            )
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn scheduled_crash_window_loses_deliveries() {
        // Node 2 is down for the second lap's pass; the token it loses
        // breaks the ring (RingRelay has no recovery), so the run goes
        // quiescent early with the loss counted.
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: NodeId(2),
                at: SimTime::from_micros(15),
                restart_after: Some(SimDuration::from_micros(100)),
            }],
            ..FaultPlan::default()
        };
        let mut sim = faulted_ring(5, 3, plan);
        sim.run_until_quiescent();
        assert_eq!(sim.stats().total_crash_losses(), 1);
        // The token reached n1 at 10µs, then died at n2 (down at 20µs).
        assert_eq!(sim.node(NodeId(1)).hops_seen, 1);
        assert_eq!(sim.node(NodeId(2)).hops_seen, 0);
        assert_eq!(sim.node(NodeId(3)).hops_seen, 0);
    }

    #[test]
    fn manual_down_parks_nothing_by_default_and_counts_losses() {
        let mut sim = ring_sim(4, 0);
        sim.set_down(NodeId(1));
        assert!(sim.is_down(NodeId(1), SimTime::ZERO));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(8, 0));
        });
        sim.run_until_quiescent();
        // n1 was the only destination: the delivery is lost, not parked.
        assert_eq!(sim.node(NodeId(1)).hops_seen, 0);
        assert_eq!(sim.stats().total_crash_losses(), 1);
        assert_eq!(sim.parked_count(NodeId(1)), 0);
        sim.set_up(NodeId(1));
        assert!(!sim.is_down(NodeId(1), sim.now()));
        // The lost message stays lost; the node works again.
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(8, 0));
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(1)).hops_seen, 1);
    }

    /// Counts what reached it and from whom.
    #[derive(Debug, Default)]
    struct Sink {
        got: Vec<(NodeId, usize)>,
    }

    impl Node<RawPayload> for Sink {
        fn on_message(&mut self, _: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
            self.got.push((from, p.data));
        }
    }

    fn sinks(n: usize) -> Vec<Sink> {
        (0..n).map(|_| Sink::default()).collect()
    }

    fn sink_net(topology: Topology, config: SimConfig) -> Simulator<RawPayload, Sink> {
        let n = topology.node_count();
        Simulator::new(topology, config, sinks(n)).unwrap()
    }

    fn crash_plan(node: usize, restart_after: Option<SimDuration>) -> SimConfig {
        SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashWindow {
                    node: NodeId(node),
                    at: SimTime::ZERO,
                    restart_after,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn parked_envelopes_are_redelivered_in_order_at_set_up() {
        // On a line 0 — 1 — 2, traffic 0 → 2 is transit at n1: a down n1
        // parks it instead of losing it.
        let mut sim = sink_net(Topology::line(3), SimConfig::default());
        sim.set_down(NodeId(1));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
            ctx.send(NodeId(2), RawPayload::new(2, 0));
        });
        sim.run_until_quiescent();
        assert!(sim.node(NodeId(2)).got.is_empty());
        assert_eq!(sim.parked_count(NodeId(1)), 2);
        assert_eq!(sim.stats().total_crash_losses(), 0);
        sim.set_up(NodeId(1));
        assert_eq!(sim.parked_count(NodeId(1)), 0);
        sim.run_until_quiescent();
        assert_eq!(
            sim.node(NodeId(2)).got,
            vec![(NodeId(0), 1), (NodeId(0), 2)]
        );
        assert_eq!(sim.forwarded_messages(), 2);
        // A node id the simulator does not host has nothing parked.
        assert_eq!(sim.parked_count(NodeId(9)), 0);
    }

    #[test]
    fn parking_at_a_permanently_crashed_node_is_a_typed_fault() {
        let mut sim = sink_net(Topology::line(3), crash_plan(1, None));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
        });
        let err = sim.try_run_until_quiescent().unwrap_err();
        assert_eq!(err, SendError::Fault(FaultError { node: NodeId(1) }));
        assert!(err.to_string().contains("no scheduled restart"));
    }

    #[test]
    fn scheduled_crash_with_restart_redelivers_parked_traffic() {
        let mut sim = sink_net(
            Topology::line(3),
            crash_plan(1, Some(SimDuration::from_micros(50))),
        );
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
        });
        sim.run_until_quiescent();
        // Forwarded at the restart boundary, one more hop later delivered.
        assert_eq!(sim.node(NodeId(2)).got, vec![(NodeId(0), 1)]);
        assert_eq!(sim.now(), SimTime::from_micros(60));
        assert_eq!(sim.stats().total_crash_losses(), 0);
    }

    #[test]
    fn full_mesh_builds_no_router() {
        let mesh = sink_net(Topology::full_mesh(4), SimConfig::default());
        assert!(mesh.router.is_none());
        let ring = sink_net(Topology::ring(4), SimConfig::default());
        assert!(ring.router.is_some());
    }

    #[test]
    fn disconnected_topology_is_rejected_at_construction() {
        let topo = Topology::explicit(3, [(0, 1), (1, 0)]);
        let err = Simulator::new(topo, SimConfig::default(), sinks(3))
            .err()
            .unwrap();
        assert!(matches!(err, RouteError::Disconnected { .. }));
    }

    #[test]
    fn routed_delivery_crosses_multiple_hops() {
        let mut sim = sink_net(Topology::ring(6), SimConfig::default());
        // 0 → 3 is three ring hops away.
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(8, 4));
        });
        sim.run_until_quiescent();
        // Delivered once, attributed to the logical source.
        assert_eq!(sim.node(NodeId(3)).got, vec![(NodeId(0), 8)]);
        // Three hops on the wire: 0→1, 1→2, 2→3; two of them forwards.
        assert_eq!(sim.stats().total_messages(), 3);
        assert_eq!(sim.stats().total_data_bytes(), 3 * 8);
        assert_eq!(sim.forwarded_messages(), 2);
        assert_eq!(sim.misrouted_messages(), 0);
        // Intermediate protocol nodes never saw the payload.
        assert!(sim.node(NodeId(1)).got.is_empty());
        assert!(sim.node(NodeId(2)).got.is_empty());
    }

    #[test]
    fn multi_hop_delivery_pays_per_hop_latency() {
        let mut sim = sink_net(Topology::line(4), SimConfig::default());
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(1, 0));
        });
        sim.run_until_quiescent();
        // Default constant latency is 10µs per hop; three hops.
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    fn multi_config(multicast: bool) -> SimConfig {
        SimConfig {
            delivery: if multicast {
                DeliveryMode::MULTICAST
            } else {
                DeliveryMode::UNICAST
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn tree_multicast_pays_each_tree_edge_once_on_a_line() {
        // 0 — 1 — 2 — 3: a broadcast from 0 shares the 0→1 and 1→2 edges.
        let run = |multicast: bool| {
            let mut sim = sink_net(Topology::line(4), multi_config(multicast));
            sim.with_node(NodeId(0), |_n, ctx| {
                ctx.send_multi([NodeId(1), NodeId(2), NodeId(3)], RawPayload::new(8, 4));
            });
            sim.run_until_quiescent();
            for i in 1..4 {
                assert_eq!(sim.node(NodeId(i)).got, vec![(NodeId(0), 8)], "node {i}");
            }
            (
                sim.stats().total_messages(),
                sim.stats().total_data_bytes(),
                sim.forwarded_messages(),
                sim.now(),
            )
        };
        // Unicast fan-out: 1 + 2 + 3 = 6 envelopes on the wire.
        assert_eq!(run(false), (6, 6 * 8, 3, SimTime::from_micros(30)));
        // Tree multicast: one envelope per tree edge = 3.
        assert_eq!(run(true), (3, 3 * 8, 2, SimTime::from_micros(30)));
    }

    #[test]
    fn tree_multicast_from_a_star_leaf_shares_the_hub_edge() {
        let n = 6;
        let run = |multicast: bool| {
            let mut sim = sink_net(Topology::star(n), multi_config(multicast));
            // Leaf 1 broadcasts to everyone else (hub 0 + leaves 2..n).
            sim.with_node(NodeId(1), |_n, ctx| {
                ctx.send_multi(
                    (0..n).filter(|&i| i != 1).map(NodeId),
                    RawPayload::new(8, 4),
                );
            });
            sim.run_until_quiescent();
            for i in (0..n).filter(|&i| i != 1) {
                assert_eq!(sim.node(NodeId(i)).got, vec![(NodeId(1), 8)], "node {i}");
            }
            sim.stats().total_messages()
        };
        // Unicast: 1 hop to the hub + 2 hops to each of the n-2 far
        // leaves = 1 + 2(n-2).
        assert_eq!(run(false), 1 + 2 * (n as u64 - 2));
        // Multicast: the leaf→hub edge once, then one copy per far leaf.
        assert_eq!(run(true), 1 + (n as u64 - 2));
    }

    #[test]
    fn multicast_deliveries_match_unicast_deliveries_on_a_ring() {
        let run = |multicast: bool| {
            let mut sim = sink_net(Topology::ring(7), multi_config(multicast));
            for src in 0..7usize {
                sim.with_node(NodeId(src), |_n, ctx| {
                    ctx.send_multi(
                        (0..7).filter(|&i| i != src).map(NodeId),
                        RawPayload::new(8, 4),
                    );
                });
            }
            sim.run_until_quiescent();
            let (nodes, stats) = sim.into_parts();
            (
                nodes.into_iter().map(|s| s.got).collect::<Vec<_>>(),
                stats.total_messages(),
            )
        };
        let (unicast_got, unicast_msgs) = run(false);
        let (multicast_got, multicast_msgs) = run(true);
        // Every node hears the same broadcasts from the same sources…
        assert_eq!(unicast_got, multicast_got);
        // …while the wire carries strictly fewer envelopes.
        assert!(
            multicast_msgs < unicast_msgs,
            "{multicast_msgs} vs {unicast_msgs}"
        );
    }

    #[test]
    fn timers_fire_on_a_sparse_net() {
        #[derive(Debug, Default)]
        struct TimerEcho {
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for TimerEcho {
            fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
                ctx.set_timer(SimDuration::from_micros(3), 7);
            }
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(
            Topology::ring(4),
            SimConfig::default(),
            (0..4).map(|_| TimerEcho::default()).collect(),
        )
        .unwrap();
        sim.run_until_quiescent();
        for i in 0..4 {
            assert_eq!(sim.node(NodeId(i)).fired, vec![7]);
        }
    }

    /// A multicast copy that reaches a node off its broadcast-tree path
    /// (possible only if the packet was corrupted) must drop the stray
    /// destinations and count them — never panic mid-delivery.
    #[test]
    fn misrouted_multicast_is_counted_not_fatal() {
        let mut sim = sink_net(Topology::ring(4), multi_config(true));
        let router = sim.router.as_ref().unwrap();
        // On ring(4), node 0's broadcast tree reaches 3 via the direct
        // edge 0→3, so node 2 is not an ancestor of 3 in that tree.
        assert_eq!(router.tree_next_hop(NodeId(0), NodeId(2), NodeId(3)), None);
        sim.queue.push(
            SimTime::ZERO,
            EventKind::Deliver {
                from: NodeId(1),
                to: NodeId(2),
                seq: 1,
                payload: Packet::Routed(Box::new(Routed {
                    src: NodeId(0),
                    dst: Dst::Many(vec![NodeId(2), NodeId(3)]),
                    payload: Payload::Owned(RawPayload::new(8, 4)),
                })),
            },
        );
        sim.run_until_quiescent();
        // The local copy was delivered, the unreachable destination was
        // dropped and tallied, and nothing was forwarded.
        assert_eq!(sim.node(NodeId(2)).got, vec![(NodeId(0), 8)]);
        assert!(sim.node(NodeId(3)).got.is_empty());
        assert_eq!(sim.misrouted_messages(), 1);
        assert_eq!(sim.forwarded_messages(), 0);
        assert_eq!(sim.stats().total_messages(), 0);
    }

    #[test]
    fn delivery_mode_labels_round_trip() {
        for mode in DeliveryMode::ALL {
            assert_eq!(DeliveryMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(DeliveryMode::parse("nonsense"), None);
        assert_eq!(DeliveryMode::default(), DeliveryMode::UNICAST);
        assert_eq!(DeliveryMode::MULTICAST_BATCHED.label(), "multicast-batched");
        assert_eq!(DeliveryMode::DELTA.label(), "delta");
        assert_eq!(
            DeliveryMode::MULTICAST_BATCHED_DELTA.label(),
            "multicast-batched-delta"
        );
        // The two knob combinations outside the sweep still round-trip.
        for label in ["multicast-delta", "batched-delta"] {
            let mode = DeliveryMode::parse(label).unwrap();
            assert_eq!(mode.label(), label);
            assert!(mode.delta);
        }
    }
}
