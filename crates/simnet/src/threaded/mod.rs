//! Threaded execution backend: one OS thread per node over the SPSC
//! ring-buffer link fabric of [`chan`](crate::chan), pinned (optionally)
//! to a simnet oracle.
//!
//! The discrete-event simulator gives bit-identical runs and exact wire
//! accounting; this module gives real cores. Each protocol node moves
//! onto its own worker thread and exchanges the *same* payload types over
//! pre-allocated per-link rings. The protocol code is reused unchanged:
//! workers drive the [`Node`] trait exactly as the simulator does
//! (handler, then flush timers and outbox in order), with the handler
//! contexts backed by per-worker [`BufferPool`]s so steady-state delivery
//! allocates nothing.
//!
//! Two modes, chosen by [`ThreadedMode`]:
//!
//! * **Replay** — the net embeds a [`Simulator`] oracle (the exact
//!   object the simnet backend runs on) that records its delivery
//!   schedule. Every local operation is applied to the oracle *and* to
//!   the live worker; at settle time the oracle runs to quiescence, the
//!   schedule it recorded (one step per delivery, transit hop or timer
//!   firing, in oracle order) becomes a replay window, and the workers
//!   execute the window step by step: a shared atomic cursor serializes
//!   handler executions in oracle order while every packet still crosses
//!   a real ring between real threads. Settled values, histories, and
//!   control-record counts are therefore bit-identical to a pure simnet
//!   run — that is what the differential tests pin.
//! * **FreeRunning** — no oracle. Sends go straight to the destination
//!   ring and whole mailboxes are drained per wakeup (the batch lengths
//!   land in [`FabricStats`]); quiescence is detected with the
//!   [`InFlight`] counter. Message interleaving is nondeterministic, but
//!   on race-free workloads the settled values still converge to the
//!   simnet outcome. This is the mode the wall-clock throughput
//!   benchmarks (E9) run.
//!
//! A sender whose destination ring is full drains its *own* rings into a
//! local backlog while it retries, so a cycle of full rings always makes
//! progress and total in-flight data is bounded only by the heap — the
//! same guarantee the old unbounded-mpsc fabric gave, now with
//! allocation-free steady state.
//!
//! A worker thread that panics marks itself in a shared [`DeadSet`] on
//! the way down; the coordinator's waits poll that set and surface a
//! typed [`WorkerDead`] error instead of hanging, and peers drop
//! messages addressed to the corpse so their own sends cannot stall
//! forever. Once any worker is dead the net is poisoned: every fallible
//! operation reports the failure.
//!
//! Sparse topologies are routed by the worker loop itself, with the
//! forwarding rules the simulator uses ([`crate::route`]): a packet that
//! arrives at a worker is delivered to its node if the node is a
//! destination, and forwarded one hop further — without waking the node
//! — for every destination beyond it. The ring fabric is a full matrix
//! either way; a sparse net just leaves the links off its topology idle.
//!
//! Remaining scope limits (the DSM layer turns these into typed errors):
//! no fault injection, and no `on_start` hooks that emit messages or
//! timers (none of the DSM protocols use them).
//!
//! Host time is confined to the [`clock`] watchdog module, the sole
//! holder of the `no-wall-clock` lint exemption.

pub(crate) mod clock;

use crate::backend::ThreadedMode;
use crate::chan::{fabric, CtlPost, InFlight, Mailbox, Post};
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::pool::{BufferPool, PoolStats};
use crate::route::{self, Packet, RouteError, Router};
use crate::sim::{RunOutcome, SimConfig, Simulator, Step};
use crate::stats::NetworkStats;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Coordinator-side yield rounds before falling back to a blocking
/// timed receive while waiting on worker acknowledgements. See
/// [`ThreadedNet::await_acks`].
const ACK_YIELD_ROUNDS: usize = 64;

/// How often blocking coordinator waits wake up to poll the [`DeadSet`]
/// (the wait itself returns as soon as the awaited message arrives; this
/// only bounds how stale a death notice can get).
const DEAD_POLL: Duration = Duration::from_millis(2);

/// Per-fabric contention and batching counters, merged across workers at
/// settle time. The free-running numbers are nondeterministic (they
/// describe real scheduling), so they are reported next to — never
/// inside — the deterministic wire accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Times a sender found a destination ring full and had to drain its
    /// own inbox before retrying.
    pub full_stalls: u64,
    /// Mailbox drains that moved at least one message.
    pub batches: u64,
    /// Total messages moved by those drains.
    pub batched_messages: u64,
    /// Histogram of drain batch lengths; bucket `k` counts batches of
    /// length in `(2^(k-1), 2^k]` (so 1, 2, 3–4, 5–8, …), with the last
    /// bucket open-ended.
    pub batch_hist: [u64; 8],
}

impl FabricStats {
    /// Record one mailbox drain that moved `len > 0` messages.
    fn record_batch(&mut self, len: usize) {
        self.batches += 1;
        self.batched_messages += len as u64;
        let bucket = (usize::BITS - (len - 1).leading_zeros()).min(7) as usize;
        self.batch_hist[bucket] += 1;
    }

    /// Accumulate another worker's counters into this one.
    pub fn merge(&mut self, other: &FabricStats) {
        self.full_stalls += other.full_stalls;
        self.batches += other.batches;
        self.batched_messages += other.batched_messages;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(other.batch_hist) {
            *mine += theirs;
        }
    }

    /// Mean messages per mailbox drain (0.0 before any drain) — how much
    /// work one wakeup amortizes.
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_messages as f64 / self.batches as f64
        }
    }
}

/// A worker thread exited abnormally (its node's handler panicked). The
/// net is poisoned from this point on: every fallible operation reports
/// the first dead worker instead of stalling on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerDead {
    /// The node whose worker thread died.
    pub node: NodeId,
}

impl fmt::Display for WorkerDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker thread for node {} died (handler panic)",
            self.node
        )
    }
}

impl std::error::Error for WorkerDead {}

/// Shared liveness flags, one per worker, set by a panicking worker's
/// drop sentinel on its way down.
#[derive(Debug)]
struct DeadSet {
    flags: Vec<AtomicBool>,
}

impl DeadSet {
    fn new(n: usize) -> Self {
        DeadSet {
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn mark(&self, i: usize) {
        self.flags[i].store(true, Ordering::SeqCst);
    }

    fn is_dead(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::SeqCst)
    }

    fn first_dead(&self) -> Option<NodeId> {
        self.flags
            .iter()
            .position(|f| f.load(Ordering::SeqCst))
            .map(NodeId)
    }

    fn count(&self) -> usize {
        self.flags
            .iter()
            .filter(|f| f.load(Ordering::SeqCst))
            .count()
    }
}

/// Marks the owning worker dead if its thread unwinds. Lives on the
/// worker thread's stack around the run loop; a normal exit (Stop)
/// leaves the flag clear.
struct DeathSentinel {
    dead: Arc<DeadSet>,
    me: usize,
}

impl Drop for DeathSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dead.mark(self.me);
        }
    }
}

/// A replay schedule plus the shared cursor that serializes it. Workers
/// spin on `pos`; the worker named by `steps[pos]` executes the step and
/// advances the cursor.
#[derive(Debug)]
struct ReplayWindow {
    steps: Vec<(NodeId, Step)>,
    pos: AtomicUsize,
}

/// A boxed closure run against a worker's live node (the local
/// read/write/query path serialized through the control lane).
type InvokeFn<P, N> = Box<dyn FnOnce(&mut N, &mut NodeContext<P>) + Send>;

/// Hot-path link messages: what travels on the SPSC rings. The sender is
/// implied by the ring's lane, so no per-message sender field is paid.
enum LinkMsg<P> {
    /// A protocol payload, with its addressing when it has further to
    /// go than this hop (a real link message).
    Deliver(Packet<P>),
    /// A free-running timer firing (posted by the owning worker itself
    /// on its self-link).
    Timer(u64),
}

/// Cold-path control messages from the coordinator, carried by the
/// fabric's per-worker control sidecar.
enum Ctl<P, N> {
    /// Run a closure against the node (local read/write/query). With
    /// `ack`, signal the shared ack channel after the closure ran *and*
    /// its outbox flushed.
    Invoke { f: InvokeFn<P, N>, ack: bool },
    /// Run a closure without any acknowledgement — the pipelined write
    /// path. The coordinator counts the invoke in-flight when it posts;
    /// the worker repays the debt after the flush, so a settle is the
    /// barrier that observes it applied. Program order per node is the
    /// control lane's FIFO order.
    InvokeAsync(InvokeFn<P, N>),
    /// Execute a replay window; ack when the cursor passes the end.
    Replay(Arc<ReplayWindow>),
    /// Report local stats/pool/fabric counters on the report channel.
    Collect,
    /// Exit the worker loop, returning the node on the exit channel.
    Stop,
}

/// One worker's answer to [`Ctl::Collect`], or several folded together.
struct WorkerReport {
    stats: NetworkStats,
    pool: PoolStats,
    fabric: FabricStats,
    forwarded: u64,
}

impl WorkerReport {
    fn empty(n: usize) -> Self {
        WorkerReport {
            stats: NetworkStats::with_nodes(n),
            pool: PoolStats::default(),
            fabric: FabricStats::default(),
            forwarded: 0,
        }
    }

    fn merge(&mut self, other: WorkerReport) {
        self.stats.merge(&other.stats);
        self.pool.merge(other.pool);
        self.fabric.merge(&other.fabric);
        self.forwarded += other.forwarded;
    }
}

/// Worker-thread state: the node it owns plus fabric ends and buffers.
struct Worker<P, N> {
    me: NodeId,
    mode: ThreadedMode,
    node: N,
    /// Next-hop tables shared by every worker; `None` on a full mesh.
    router: Option<Arc<Router>>,
    /// Whether destination sets travel tree-split (see
    /// [`route::launch`]).
    multicast: bool,
    mailbox: Mailbox<LinkMsg<P>, Ctl<P, N>>,
    post: Post<LinkMsg<P>, Ctl<P, N>>,
    inflight: Arc<InFlight>,
    events: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
    acks: mpsc::Sender<()>,
    reports: mpsc::Sender<WorkerReport>,
    nodes_out: mpsc::Sender<(usize, N)>,
    stats: NetworkStats,
    fabric: FabricStats,
    /// Transit copies this worker forwarded.
    forwarded: u64,
    /// Recycled outbox buffers for handler contexts (satisfying the
    /// "threaded path reuses the `BufferPool`" plumbing: steady-state
    /// delivery stops allocating two `Vec`s per callback).
    outbox_pool: BufferPool<Outgoing<P>>,
    timer_pool: BufferPool<(SimDuration, u64)>,
    /// Free-running: drained but not yet handled link messages, in
    /// arrival order (also the overflow backlog while a send stalls).
    pending: VecDeque<(NodeId, LinkMsg<P>)>,
    /// Replay mode: per-sender FIFO of packets received but not yet
    /// scheduled by the oracle.
    buffered: Vec<VecDeque<Packet<P>>>,
    /// Replay mode: tags of timers set but not yet fired, in set order.
    pending_timers: Vec<u64>,
    /// Scratch list of the addressed copies one step puts on the wire.
    hops: Vec<(NodeId, Packet<P>)>,
}

impl<P, N> Worker<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Send + 'static,
{
    fn run(mut self) {
        self.mailbox.register();
        loop {
            let drained = self.drain_links();
            while let Some((from, msg)) = self.pending.pop_front() {
                match msg {
                    LinkMsg::Deliver(packet) => {
                        self.deliver(from, packet);
                        self.inflight.down();
                    }
                    LinkMsg::Timer(tag) => {
                        self.fire_timer(tag);
                        self.inflight.down();
                    }
                }
            }
            if let Some(ctl) = self.mailbox.pop_ctl() {
                match ctl {
                    Ctl::Invoke { f, ack } => {
                        let mut ctx = self.context();
                        f(&mut self.node, &mut ctx);
                        self.flush(ctx);
                        if ack {
                            let _ = self.acks.send(());
                        }
                    }
                    Ctl::InvokeAsync(f) => {
                        let mut ctx = self.context();
                        f(&mut self.node, &mut ctx);
                        // Flush first: its sends raise the in-flight
                        // count before the invoke's own debt is repaid,
                        // so the coordinator's settle can never observe
                        // zero between the two.
                        self.flush(ctx);
                        self.inflight.down();
                    }
                    Ctl::Replay(window) => {
                        self.replay(&window);
                        let _ = self.acks.send(());
                    }
                    Ctl::Collect => {
                        let _ = self.reports.send(self.report());
                    }
                    Ctl::Stop => {
                        // A run can end without a final settle (via
                        // `into_nodes()` or drop): report the counters one
                        // last time so teardown can fold them into the
                        // coordinator's caches instead of losing every
                        // event since the previous settle.
                        let _ = self.reports.send(self.report());
                        let _ = self.nodes_out.send((self.me.index(), self.node));
                        return;
                    }
                }
                continue;
            }
            if drained == 0 && self.pending.is_empty() {
                self.mailbox.wait();
            }
        }
    }

    /// This worker's counters, for the coordinator to merge.
    fn report(&self) -> WorkerReport {
        let mut pool = self.outbox_pool.stats();
        pool.merge(self.timer_pool.stats());
        WorkerReport {
            stats: self.stats.clone(),
            pool,
            fabric: self.fabric,
            forwarded: self.forwarded,
        }
    }

    /// Move everything available off the rings: into the arrival queue
    /// in free-running mode (recording the batch length), into the
    /// per-sender replay FIFOs otherwise.
    fn drain_links(&mut self) -> usize {
        match self.mode {
            ThreadedMode::FreeRunning => {
                let got = self.mailbox.drain_into(&mut self.pending);
                if got > 0 {
                    self.fabric.record_batch(got);
                }
                got
            }
            ThreadedMode::Replay => self.buffer_arrivals(),
        }
    }

    /// Replay mode: move ring arrivals into the per-sender FIFOs the
    /// oracle schedule consumes from.
    fn buffer_arrivals(&mut self) -> usize {
        let mut got = 0;
        for from in 0..self.buffered.len() {
            while let Some(msg) = self.mailbox.pop_from(NodeId(from)) {
                match msg {
                    LinkMsg::Deliver(packet) => self.buffered[from].push_back(packet),
                    LinkMsg::Timer(_) => {
                        unreachable!("free-running timer message in replay mode")
                    }
                }
                got += 1;
            }
        }
        got
    }

    /// A handler context backed by recycled buffers.
    fn context(&mut self) -> NodeContext<P> {
        NodeContext::with_buffers(
            self.me,
            SimTime::ZERO,
            self.outbox_pool.acquire(0),
            self.timer_pool.acquire(0),
        )
    }

    /// Take one packet off the link from `from`, with delivery-side
    /// accounting:
    /// forward the copies bound beyond this node, then run the message
    /// handler and flush if this node is a destination — the order the
    /// simulator puts them on the wire.
    fn deliver(&mut self, from: NodeId, packet: Packet<P>) {
        let payload = packet.payload();
        self.stats
            .record_delivery(self.me, payload.data_bytes(), payload.control_bytes());
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut hops = std::mem::take(&mut self.hops);
        // Every packet here was split by `route::launch`/`route::arrive`
        // on its way, so none strays off its tree; the simulator is
        // where a stray would be counted.
        let (local, _misrouted) =
            route::arrive(self.router.as_deref(), from, self.me, packet, &mut hops);
        self.forwarded += hops.len() as u64;
        self.send_hops(&mut hops);
        self.hops = hops;
        if let Some((src, payload)) = local {
            let mut ctx = self.context();
            self.node.on_message(&mut ctx, src, payload);
            self.flush(ctx);
        }
    }

    /// Run the timer handler and flush.
    fn fire_timer(&mut self, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut ctx = self.context();
        self.node.on_timer(&mut ctx, tag);
        self.flush(ctx);
    }

    /// Schedule whatever a handler produced, mirroring the simulator's
    /// flush: timers first, then the outbox in order, each send as its
    /// first-hop copies ([`route::launch`]). The context's buffers return
    /// to the pools afterwards.
    fn flush(&mut self, ctx: NodeContext<P>) {
        let (mut outbox, mut timers) = ctx.into_parts();
        for (_delay, tag) in timers.drain(..) {
            match self.mode {
                // The oracle schedules the firing; remember the tag so
                // the replayed firing can be matched up.
                ThreadedMode::Replay => self.pending_timers.push(tag),
                // No virtual clock: the timer rides the self-link and
                // fires when it drains (all DSM timers are zero-delay
                // flush kicks).
                ThreadedMode::FreeRunning => {
                    self.inflight.up();
                    self.send_link(self.me, LinkMsg::Timer(tag));
                }
            }
        }
        self.timer_pool.release(timers);
        let mut hops = std::mem::take(&mut self.hops);
        for out in outbox.drain(..) {
            let me = self.me;
            route::launch(self.router.as_deref(), self.multicast, me, out, &mut hops)
                .unwrap_or_else(|node| panic!("node {me} sent to unknown node {node}"));
            self.send_hops(&mut hops);
        }
        self.hops = hops;
        self.outbox_pool.release(outbox);
    }

    /// Put every addressed copy in `hops` on the wire, in order, with
    /// send-side accounting.
    fn send_hops(&mut self, hops: &mut Vec<(NodeId, Packet<P>)>) {
        for (to, packet) in hops.drain(..) {
            let payload = packet.payload();
            self.stats
                .record_send(self.me, to, payload.data_bytes(), payload.control_bytes());
            if self.mode == ThreadedMode::FreeRunning {
                self.inflight.up();
            }
            self.send_link(to, LinkMsg::Deliver(packet));
        }
    }

    /// Push a link message, absorbing our own backlog while the
    /// destination ring is full. Messages to a dead worker are dropped
    /// (with their in-flight debt repaid) so this send cannot stall on a
    /// ring nobody will ever drain; the coordinator surfaces the death
    /// as a typed error.
    fn send_link(&mut self, to: NodeId, msg: LinkMsg<P>) {
        let mut msg = msg;
        loop {
            if self.dead.is_dead(to.index()) {
                if self.mode == ThreadedMode::FreeRunning {
                    self.inflight.down();
                }
                return;
            }
            match self.post.to(to, msg) {
                Ok(()) => return,
                Err(back) => {
                    msg = back;
                    self.fabric.full_stalls += 1;
                    // Freeing our own rings is what lets a cycle of
                    // full-ring senders make progress: the peer stalled
                    // on *us* can complete its push and get back to
                    // draining.
                    if self.absorb_backlog() == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Drain our own rings without handling anything (no re-entrant
    /// handler runs mid-send); the run loop processes the backlog next
    /// iteration.
    fn absorb_backlog(&mut self) -> usize {
        match self.mode {
            ThreadedMode::FreeRunning => self.mailbox.drain_into(&mut self.pending),
            ThreadedMode::Replay => self.buffer_arrivals(),
        }
    }

    /// Execute a replay window: spin on the shared cursor, execute the
    /// steps assigned to this node, advance the cursor.
    fn replay(&mut self, window: &ReplayWindow) {
        let mut last_seen = usize::MAX;
        let mut watchdog = clock::Watchdog::standard();
        loop {
            let pos = window.pos.load(Ordering::Acquire);
            if pos >= window.steps.len() {
                return;
            }
            if pos != last_seen {
                last_seen = pos;
                watchdog.reset();
            }
            let (who, step) = window.steps[pos];
            if who != self.me {
                // Keep draining arrivals while another node acts so the
                // rings stay short.
                if self.buffer_arrivals() == 0 {
                    if let Some(node) = self.dead.first_dead() {
                        panic!("worker {node} died mid-replay; aborting on {}", self.me);
                    }
                    assert!(
                        !watchdog.expired(),
                        "replay stalled at step {pos}/{} on {}",
                        window.steps.len(),
                        self.me
                    );
                    std::thread::yield_now();
                }
                continue;
            }
            match step {
                Step::Deliver { from } => {
                    let packet = self.next_delivery_from(from);
                    self.deliver(from, packet);
                }
                Step::Timer { tag } => {
                    if let Some(i) = self.pending_timers.iter().position(|&t| t == tag) {
                        self.pending_timers.remove(i);
                    }
                    self.fire_timer(tag);
                }
            }
            window.pos.store(pos + 1, Ordering::Release);
        }
    }

    /// Pop (or wait for) the next packet in `from`'s FIFO stream.
    fn next_delivery_from(&mut self, from: NodeId) -> Packet<P> {
        let watchdog = clock::Watchdog::standard();
        loop {
            if let Some(p) = self.buffered[from.index()].pop_front() {
                return p;
            }
            // The oracle says this message exists, so it is either on a
            // ring already or a peer is about to send it.
            if self.buffer_arrivals() == 0 {
                if let Some(node) = self.dead.first_dead() {
                    panic!("worker {node} died mid-replay; aborting on {}", self.me);
                }
                assert!(
                    !watchdog.expired(),
                    "replay on {} timed out waiting for a delivery from {from}",
                    self.me
                );
                self.mailbox.wait();
            }
        }
    }
}

/// A set of protocol nodes running on real OS threads, linked by the
/// SPSC ring fabric, optionally pinned to a simnet oracle. See the
/// module docs for the execution model.
pub struct ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    mode: ThreadedMode,
    n: usize,
    topology: Topology,
    ctl: CtlPost<LinkMsg<P>, Ctl<P, N>>,
    handles: Vec<Option<JoinHandle<()>>>,
    inflight: Arc<InFlight>,
    events: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
    acks: mpsc::Receiver<()>,
    reports: mpsc::Receiver<WorkerReport>,
    nodes_out: mpsc::Receiver<(usize, N)>,
    /// Per-worker stats merged at the last settle (free-running) or a
    /// copy of the oracle's stats (replay).
    stats_cache: NetworkStats,
    /// Merged per-worker buffer-pool counters as of the last settle
    /// (free-running; replay reports the oracle's pools instead).
    pool_cache: PoolStats,
    /// Merged per-worker fabric counters as of the last settle.
    fabric_cache: FabricStats,
    /// Merged per-worker forward counts as of the last settle
    /// (free-running; replay reports the oracle's).
    forwarded_cache: u64,
    /// Replay mode: the simulator whose delivery schedule the threads
    /// follow. `None` in free-running mode.
    oracle: Option<Simulator<P, N>>,
    /// Worker event count at the end of the previous settle, so settle
    /// outcomes report per-call deltas like the simulator does.
    events_at_last_settle: u64,
}

impl<P, N> ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Spawn one worker thread per node, deployed over `topology`. A
    /// topology that is not a full mesh gets BFS routing tables shared
    /// by the workers (and the replay oracle, if any); it fails with
    /// [`RouteError::Disconnected`] unless every node can reach every
    /// other. The ring fabric itself is always a full matrix — unused
    /// links cost idle pre-allocated rings, nothing more.
    ///
    /// `config` parameterizes the replay oracle (latency model, seed,
    /// event budget) and the delivery mode; free-running mode only uses
    /// it for the delivery mode. The caller is responsible for rejecting
    /// configurations the threaded backend does not support (fault
    /// injection) — the DSM layer maps them to typed errors before
    /// getting here.
    ///
    /// Panics if `nodes.len()` differs from the topology's node count,
    /// or if an `on_start` hook emits messages or timers: the threaded
    /// backend supports only passive starts (all DSM protocol nodes
    /// qualify).
    pub fn new(
        mode: ThreadedMode,
        topology: Topology,
        config: SimConfig,
        mut nodes: Vec<N>,
    ) -> Result<Self, RouteError> {
        let n = nodes.len();
        assert_eq!(topology.node_count(), n, "topology size mismatch");
        let router = if topology.is_full_mesh() {
            None
        } else {
            Some(Arc::new(Router::new(&topology)?))
        };
        let multicast = config.delivery.multicast;
        let oracle = match mode {
            ThreadedMode::Replay => {
                let config = SimConfig {
                    topology: None,
                    ..config
                };
                // The oracle runs `on_start` on its own copies lazily;
                // clone before the local `on_start` pass so every copy
                // sees the hook exactly once.
                let mut oracle = Simulator::new(topology.clone(), config, nodes.clone())?;
                oracle.record_schedule();
                Some(oracle)
            }
            ThreadedMode::FreeRunning => None,
        };
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut ctx = NodeContext::new(NodeId(i), SimTime::ZERO);
            node.on_start(&mut ctx);
            let (outbox, timers) = ctx.into_parts();
            assert!(
                outbox.is_empty() && timers.is_empty(),
                "threaded backend requires passive on_start hooks (node {i} emitted output)"
            );
        }
        let (ctl, ends) = fabric::<LinkMsg<P>, Ctl<P, N>>(n);
        let inflight = Arc::new(InFlight::default());
        let events = Arc::new(AtomicU64::new(0));
        let dead = Arc::new(DeadSet::new(n));
        let (ack_tx, ack_rx) = mpsc::channel();
        let (report_tx, report_rx) = mpsc::channel();
        let (node_tx, node_rx) = mpsc::channel();
        let mut handles = Vec::with_capacity(n);
        for (i, (node, (post, mailbox))) in nodes.into_iter().zip(ends).enumerate() {
            let worker = Worker {
                me: NodeId(i),
                mode,
                node,
                router: router.clone(),
                multicast,
                mailbox,
                post,
                inflight: Arc::clone(&inflight),
                events: Arc::clone(&events),
                dead: Arc::clone(&dead),
                acks: ack_tx.clone(),
                reports: report_tx.clone(),
                nodes_out: node_tx.clone(),
                stats: NetworkStats::with_nodes(n),
                fabric: FabricStats::default(),
                forwarded: 0,
                outbox_pool: BufferPool::new(),
                timer_pool: BufferPool::new(),
                pending: VecDeque::new(),
                buffered: std::iter::repeat_with(VecDeque::new).take(n).collect(),
                pending_timers: Vec::new(),
                hops: Vec::new(),
            };
            let sentinel_dead = Arc::clone(&dead);
            let handle = std::thread::Builder::new()
                .name(format!("simnet-worker-{i}"))
                .spawn(move || {
                    let _sentinel = DeathSentinel {
                        dead: sentinel_dead,
                        me: i,
                    };
                    worker.run();
                })
                .expect("spawn worker thread");
            handles.push(Some(handle));
        }
        Ok(ThreadedNet {
            mode,
            n,
            topology,
            ctl,
            handles,
            inflight,
            events,
            dead,
            acks: ack_rx,
            reports: report_rx,
            nodes_out: node_rx,
            stats_cache: NetworkStats::with_nodes(n),
            pool_cache: PoolStats::default(),
            fabric_cache: FabricStats::default(),
            forwarded_cache: 0,
            oracle,
            events_at_last_settle: 0,
        })
    }

    /// The scheduling mode this net was built with.
    pub fn mode(&self) -> ThreadedMode {
        self.mode
    }

    /// Number of worker threads (= protocol nodes).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The topology this net was deployed over (the ring fabric itself
    /// is always a full matrix).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// `Err` with the first dead worker if any worker thread has
    /// panicked (the net is then poisoned).
    fn ensure_alive(&self) -> Result<(), WorkerDead> {
        match self.dead.first_dead() {
            Some(node) => Err(WorkerDead { node }),
            None => Ok(()),
        }
    }

    /// Wait for `count` acknowledgements on the shared ack channel,
    /// surfacing a dead worker instead of stalling on it. Yields first:
    /// on a host with fewer cores than threads, `yield_now` hands the CPU
    /// straight to the worker that is about to ack, so the common case
    /// completes without the coordinator ever futex-sleeping.
    fn await_acks(&self, count: usize) -> Result<(), WorkerDead> {
        let watchdog = clock::Watchdog::standard();
        let mut got = 0;
        for _ in 0..ACK_YIELD_ROUNDS {
            if got == count {
                return Ok(());
            }
            while let Ok(()) = self.acks.try_recv() {
                got += 1;
            }
            if got == count {
                return Ok(());
            }
            std::thread::yield_now();
        }
        while got < count {
            match self.acks.recv_timeout(DEAD_POLL) {
                Ok(()) => got += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.ensure_alive()?;
                    assert!(
                        !watchdog.expired(),
                        "threaded backend stalled waiting for worker acknowledgements"
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(WorkerDead {
                        node: self.dead.first_dead().unwrap_or(NodeId(0)),
                    })
                }
            }
        }
        Ok(())
    }

    /// Run a closure against a node, scheduling whatever it sends — the
    /// threaded counterpart of [`Simulator::with_node`]. In replay mode
    /// the closure is applied to the oracle's copy first (to keep the
    /// schedule source in lock-step), then to the live worker; the
    /// worker's result is returned, so callers always observe the
    /// threaded execution.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_with_node`] to handle that case.
    pub fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::with_node`]: reports a
    /// [`WorkerDead`] instead of panicking when a worker thread is gone.
    pub fn try_with_node<R, F>(&mut self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R + Send + 'static,
        R: Send + 'static,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        self.ensure_alive()?;
        if let Some(oracle) = &mut self.oracle {
            let _ = oracle.with_node(id, &f);
        }
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        self.ctl.to(
            id,
            Ctl::Invoke {
                f: Box::new(move |node, ctx| {
                    *out.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(f(node, ctx));
                }),
                ack: true,
            },
        );
        // The ack arrives only after the closure ran *and* its sends
        // were flushed into the fabric.
        self.await_acks(1)?;
        let result = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("acknowledged invoke produced a result");
        Ok(result)
    }

    /// Pipelined variant of [`ThreadedNet::with_node`] for closures whose
    /// result nobody reads (the DSM write path): post the invoke on the
    /// node's control lane and return without waiting for it to run.
    /// Program order is preserved — the lane is FIFO, so a later
    /// [`ThreadedNet::with_node`] or [`ThreadedNet::query`] on the same
    /// node observes this closure applied — and [`ThreadedNet::settle`]
    /// is the global barrier: the invoke is counted in-flight until its
    /// flush completes. This is what makes the threaded backend fast on
    /// few cores: writes stop paying a coordinator⇄worker context-switch
    /// round trip each, and workers drain whole batches of them per
    /// wakeup.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_with_node_async`] to handle that case.
    pub fn with_node_async<F>(&mut self, id: NodeId, f: F)
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        self.try_with_node_async(id, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::with_node_async`]. A death that
    /// happens after this returns `Ok` surfaces at the next settle (or
    /// the next synchronous call) — the closure itself may then never
    /// run, which is indistinguishable from the panic interrupting it.
    pub fn try_with_node_async<F>(&mut self, id: NodeId, f: F) -> Result<(), WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        self.ensure_alive()?;
        if let Some(oracle) = &mut self.oracle {
            oracle.with_node(id, &f);
        }
        self.inflight.up();
        self.ctl.to(
            id,
            Ctl::InvokeAsync(Box::new(move |node, ctx| f(node, ctx))),
        );
        Ok(())
    }

    /// Run a read-only closure against a node's live state. Works from
    /// `&self` because the closure is serialized through the worker's
    /// control lane like any other event.
    ///
    /// Panics if the worker thread has died; use
    /// [`ThreadedNet::try_query`] to handle that case.
    pub fn query<R, F>(&self, id: NodeId, f: F) -> R
    where
        F: FnOnce(&N) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_query(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::query`].
    pub fn try_query<R, F>(&self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: FnOnce(&N) -> R + Send + 'static,
        R: Send + 'static,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        self.ensure_alive()?;
        let (tx, rx) = mpsc::channel();
        self.ctl.to(
            id,
            Ctl::Invoke {
                f: Box::new(move |node, _ctx| {
                    let _ = tx.send(f(node));
                }),
                ack: false,
            },
        );
        // Same yield-first fast path as `await_acks`.
        for _ in 0..ACK_YIELD_ROUNDS {
            if let Ok(result) = rx.try_recv() {
                return Ok(result);
            }
            std::thread::yield_now();
        }
        let watchdog = clock::Watchdog::standard();
        loop {
            match rx.recv_timeout(DEAD_POLL) {
                Ok(result) => return Ok(result),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.ensure_alive()?;
                    assert!(!watchdog.expired(), "query on {id} stalled");
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(WorkerDead {
                        node: self.dead.first_dead().unwrap_or(id),
                    })
                }
            }
        }
    }

    /// Overwrite a node's state (the DSM layer's restore-from-snapshot
    /// path). In replay mode the oracle's copy is overwritten too.
    pub fn restore_node(&mut self, id: NodeId, node: N) {
        if let Some(oracle) = &mut self.oracle {
            *oracle.node_mut(id) = node.clone();
        }
        self.with_node(id, move |slot, _ctx| {
            *slot = node.clone();
        });
    }

    /// Drive the net to quiescence.
    ///
    /// Replay: run the oracle to quiescence, turn the schedule it
    /// recorded into a replay window, execute it on the workers, refresh
    /// the stats cache from the oracle. Free-running: wait for the
    /// in-flight counter to reach zero, then merge worker stats.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_settle`] to handle that case.
    pub fn settle(&mut self) -> RunOutcome {
        self.try_settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::settle`].
    pub fn try_settle(&mut self) -> Result<RunOutcome, WorkerDead> {
        self.ensure_alive()?;
        match self.mode {
            ThreadedMode::Replay => {
                let oracle = self.oracle.as_mut().expect("replay mode has an oracle");
                let outcome = oracle.run_until_quiescent();
                let steps = oracle.take_schedule();
                if !steps.is_empty() {
                    let window = Arc::new(ReplayWindow {
                        steps,
                        pos: AtomicUsize::new(0),
                    });
                    for i in 0..self.n {
                        self.ctl.to(NodeId(i), Ctl::Replay(Arc::clone(&window)));
                    }
                    self.await_acks(self.n)?;
                }
                self.stats_cache = self.oracle.as_ref().expect("oracle").stats().clone();
                Ok(outcome)
            }
            ThreadedMode::FreeRunning => {
                let watchdog = clock::Watchdog::standard();
                while self.inflight.load() > 0 {
                    self.ensure_alive()?;
                    assert!(
                        !watchdog.expired(),
                        "free-running settle stalled with {} event(s) in flight",
                        self.inflight.load()
                    );
                    std::thread::yield_now();
                }
                self.collect_reports()?;
                let total = self.events.load(Ordering::SeqCst);
                let events = total - self.events_at_last_settle;
                self.events_at_last_settle = total;
                Ok(RunOutcome::Quiescent { events })
            }
        }
    }

    /// Merge every worker's local stats / pool / fabric counters into
    /// the caches.
    fn collect_reports(&mut self) -> Result<(), WorkerDead> {
        for i in 0..self.n {
            self.ctl.to(NodeId(i), Ctl::Collect);
        }
        let mut merged = WorkerReport::empty(self.n);
        let watchdog = clock::Watchdog::standard();
        let mut got = 0;
        while got < self.n {
            match self.reports.recv_timeout(DEAD_POLL) {
                Ok(report) => {
                    merged.merge(report);
                    got += 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.ensure_alive()?;
                    assert!(!watchdog.expired(), "worker stat collection stalled");
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(WorkerDead {
                        node: self.dead.first_dead().unwrap_or(NodeId(0)),
                    })
                }
            }
        }
        self.store(merged);
        Ok(())
    }

    /// Replace the caches with a complete set of merged worker reports.
    fn store(&mut self, merged: WorkerReport) {
        self.stats_cache = merged.stats;
        self.pool_cache = merged.pool;
        self.fabric_cache = merged.fabric;
        self.forwarded_cache = merged.forwarded;
    }

    /// Wire statistics as of the last settle. Replay mode reports the
    /// oracle's (simnet-identical) accounting; free-running mode reports
    /// the merged per-worker counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats_cache
    }

    /// Events processed so far: oracle events in replay mode (identical
    /// to the simnet run), handler executions across workers otherwise.
    pub fn events_processed(&self) -> u64 {
        match &self.oracle {
            Some(oracle) => oracle.events_processed(),
            None => self.events.load(Ordering::SeqCst),
        }
    }

    /// Virtual time: the oracle clock in replay mode. Free-running mode
    /// has no virtual clock and always reports zero.
    pub fn now(&self) -> SimTime {
        match &self.oracle {
            Some(oracle) => oracle.now(),
            None => SimTime::ZERO,
        }
    }

    /// Events not yet fully processed (oracle queue length in replay
    /// mode, in-flight counter otherwise).
    pub fn pending(&self) -> usize {
        match &self.oracle {
            Some(oracle) => oracle.pending_events(),
            None => self.inflight.load() as usize,
        }
    }

    /// Buffer-pool statistics: the replay oracle's pools (mirroring the
    /// simnet accounting the replayed run pins), or the merged
    /// per-worker handler-context pools as of the last settle when
    /// free-running.
    pub fn pool_stats(&self) -> PoolStats {
        match &self.oracle {
            Some(oracle) => oracle.pool_stats(),
            None => self.pool_cache,
        }
    }

    /// Transit copies forwarded by intermediate workers (always 0 on a
    /// full mesh): the oracle's count in replay mode (identical to the
    /// simnet run), the merged worker counts as of the last settle when
    /// free-running.
    pub fn forwarded_messages(&self) -> u64 {
        match &self.oracle {
            Some(oracle) => oracle.forwarded_messages(),
            None => self.forwarded_cache,
        }
    }

    /// Link-fabric contention counters (full-ring stalls, drain batch
    /// lengths) merged across workers as of the last settle. Replay mode
    /// reports zeros until a settle has run its window (its drains are
    /// step-paced, so the numbers mostly describe the schedule, not the
    /// fabric).
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric_cache
    }

    /// Stop every worker and collect the nodes in id order. Workers that
    /// died are skipped (their nodes are gone with their threads).
    pub fn into_nodes(mut self) -> Vec<N> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Vec<N> {
        // Discard reports left over from an interrupted collection (a
        // dead-worker bailout mid-settle), so the teardown merge below
        // only folds the final per-worker snapshots.
        while self.reports.try_recv().is_ok() {}
        for i in 0..self.n {
            self.ctl.to(NodeId(i), Ctl::Stop);
        }
        let mut pairs: Vec<(usize, N)> = Vec::with_capacity(self.n);
        let watchdog = clock::Watchdog::standard();
        while pairs.len() + self.dead.count() < self.n {
            match self.nodes_out.recv_timeout(DEAD_POLL) {
                Ok(pair) => pairs.push(pair),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    assert!(!watchdog.expired(), "threaded shutdown stalled");
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        for handle in &mut self.handles {
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
        // Every worker sends a final report before returning its node, so
        // after the joins the channel holds one complete teardown
        // snapshot per live worker. Fold it into the caches: a run that
        // ends without a settle would otherwise lose every counter since
        // the previous one. Replay mode keeps the oracle's
        // (simnet-identical) accounting, and a partial report set (some
        // workers died) keeps the last complete settle snapshot instead
        // of an under-counting merge.
        if self.oracle.is_none() {
            let mut merged = WorkerReport::empty(self.n);
            let mut got = 0;
            while let Ok(report) = self.reports.try_recv() {
                merged.merge(report);
                got += 1;
            }
            if got == self.n {
                self.store(merged);
            }
        }
        pairs.sort_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, node)| node).collect()
    }
}

impl<P, N> Drop for ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    fn drop(&mut self) {
        if self.handles.iter().any(Option::is_some) {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;

    /// Echoes every payload back to the sender once, counting arrivals.
    #[derive(Clone, Debug, Default)]
    struct Echo {
        seen: u64,
        echoed: u64,
    }

    impl Node<RawPayload> for Echo {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
            self.seen += 1;
            if msg.control == 0 {
                self.echoed += 1;
                ctx.send(from, RawPayload::new(msg.data, 1));
            }
        }
    }

    fn net(mode: ThreadedMode, n: usize) -> ThreadedNet<RawPayload, Echo> {
        mesh(mode, vec![Echo::default(); n])
    }

    fn mesh<N>(mode: ThreadedMode, nodes: Vec<N>) -> ThreadedNet<RawPayload, N>
    where
        N: Node<RawPayload> + Clone + Send + 'static,
    {
        let topology = Topology::full_mesh(nodes.len());
        ThreadedNet::new(mode, topology, SimConfig::default(), nodes).unwrap()
    }

    #[test]
    fn free_running_ping_pong_settles() {
        let mut net = net(ThreadedMode::FreeRunning, 4);
        for to in 1..4usize {
            net.with_node(NodeId(0), move |_, ctx| {
                ctx.send(NodeId(to), RawPayload::new(8, 0));
            });
        }
        let outcome = net.settle();
        assert!(outcome.is_quiescent());
        // 3 pings delivered + 3 echoes delivered.
        assert_eq!(outcome.events(), 6);
        let echoes = net.query(NodeId(0), |n| n.seen);
        assert_eq!(echoes, 3);
        for to in 1..4usize {
            assert_eq!(net.query(NodeId(to), |n| (n.seen, n.echoed)), (1, 1));
        }
        assert_eq!(net.stats().total_messages(), 6);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn free_running_reports_pool_and_fabric_counters() {
        let mut net = net(ThreadedMode::FreeRunning, 3);
        for round in 0..20 {
            for to in 1..3usize {
                net.with_node(NodeId(0), move |_, ctx| {
                    ctx.send(NodeId(to), RawPayload::new(round, 0));
                });
            }
        }
        net.settle();
        let pool = net.pool_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "threaded deliveries must run on pooled contexts: {pool:?}"
        );
        assert!(pool.hits > 0, "steady state must recycle buffers: {pool:?}");
        let fabric = net.fabric_stats();
        assert!(fabric.batches > 0, "drains must be recorded: {fabric:?}");
        assert!(fabric.batched_messages >= fabric.batches);
        assert!(fabric.mean_batch_len() >= 1.0);
        assert_eq!(
            fabric.batches,
            fabric.batch_hist.iter().sum::<u64>(),
            "every batch lands in exactly one histogram bucket"
        );
    }

    /// Regression test: a free-running run that never settles used to
    /// lose every stats/pool/fabric counter on teardown — the merge only
    /// happened inside `settle()`. The workers now report one final
    /// snapshot on `Ctl::Stop` and `shutdown()` folds it into the caches.
    #[test]
    fn teardown_merges_counters_for_a_settle_free_run() {
        let mut net = net(ThreadedMode::FreeRunning, 3);
        for round in 0..20 {
            for to in 1..3usize {
                net.with_node(NodeId(0), move |_, ctx| {
                    // control = 1: counted on arrival, never echoed, so
                    // the traffic is exactly 40 deliveries.
                    ctx.send(NodeId(to), RawPayload::new(round, 1));
                });
            }
        }
        // Wait for the workers to drain everything — but never settle, so
        // no collection round runs before teardown.
        let watchdog = clock::Watchdog::standard();
        while net.pending() > 0 {
            assert!(!watchdog.expired(), "settle-free run stalled");
            std::thread::yield_now();
        }
        assert_eq!(
            net.fabric_stats().batches,
            0,
            "no settle ran, so the caches must still be empty"
        );
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1].seen + nodes[2].seen, 40);
        // The teardown reports carried everything the run did.
        assert_eq!(net.stats().total_messages(), 40);
        let fabric = net.fabric_stats();
        assert!(
            fabric.batches > 0,
            "drains must survive teardown: {fabric:?}"
        );
        assert!(fabric.batched_messages >= fabric.batches);
        let pool = net.pool_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "pooled-context accounting must survive teardown: {pool:?}"
        );
    }

    #[test]
    fn async_invokes_apply_in_lane_order_and_settle_is_their_barrier() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = net(mode, 3);
            // A burst of pipelined sends from node 0 — nothing waits.
            for round in 0..50usize {
                net.with_node_async(NodeId(0), move |_, ctx| {
                    ctx.send(NodeId(1 + (round % 2)), RawPayload::new(round, 1));
                });
            }
            // A synchronous call on the same lane acts as a FIFO barrier:
            // it returns only after all 50 invokes have applied.
            net.with_node(NodeId(0), |_, _ctx| ());
            assert!(net.settle().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.seen), 25, "{mode:?}");
            assert_eq!(net.query(NodeId(2), |n| n.seen), 25, "{mode:?}");
            assert_eq!(net.stats().total_messages(), 50, "{mode:?}");
            assert_eq!(net.pending(), 0, "{mode:?}");
        }
    }

    #[test]
    fn replay_matches_pure_simulation() {
        let mut sim = Simulator::new(
            Topology::full_mesh(3),
            SimConfig::default(),
            vec![Echo::default(); 3],
        )
        .unwrap();
        sim.with_node(NodeId(0), |_, ctx| {
            ctx.send_multi([NodeId(1), NodeId(2)], RawPayload::new(4, 0));
        });
        sim.run_until_quiescent();

        let mut net = net(ThreadedMode::Replay, 3);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send_multi([NodeId(1), NodeId(2)], RawPayload::new(4, 0));
        });
        let outcome = net.settle();
        assert!(outcome.is_quiescent());
        assert_eq!(net.events_processed(), sim.events_processed());
        assert_eq!(net.now(), sim.now());
        assert_eq!(net.stats(), sim.stats());
        assert_eq!(net.query(NodeId(0), |n| n.seen), sim.node(NodeId(0)).seen);
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 3);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.seen, sim.node(NodeId(i)).seen, "node {i}");
            assert_eq!(node.echoed, sim.node(NodeId(i)).echoed, "node {i}");
        }
    }

    #[test]
    fn replay_settle_is_incremental() {
        let mut net = net(ThreadedMode::Replay, 2);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        assert!(net.settle().is_quiescent());
        let after_first = net.events_processed();
        assert!(after_first > 0);
        net.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(0), RawPayload::new(2, 0));
        });
        assert!(net.settle().is_quiescent());
        assert!(net.events_processed() > after_first);
        assert_eq!(net.query(NodeId(1), |n| n.seen), 2); // ping + echo
    }

    /// A node that arms a zero-delay timer on every message and counts
    /// firings — the flush-kick pattern `CausalPartial` uses.
    #[derive(Clone, Debug, Default)]
    struct TimerKick {
        fired: u64,
    }

    impl Node<RawPayload> for TimerKick {
        fn on_message(
            &mut self,
            ctx: &mut NodeContext<RawPayload>,
            _from: NodeId,
            _msg: RawPayload,
        ) {
            ctx.set_timer(crate::time::SimDuration::from_nanos(0), 7);
        }

        fn on_timer(&mut self, _ctx: &mut NodeContext<RawPayload>, tag: u64) {
            assert_eq!(tag, 7);
            self.fired += 1;
        }
    }

    #[test]
    fn timers_fire_in_both_modes() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = mesh(mode, vec![TimerKick::default(); 2]);
            net.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), RawPayload::new(1, 1));
            });
            assert!(net.settle().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.fired), 1, "{mode:?}");
        }
    }

    #[test]
    fn restore_node_overwrites_live_state() {
        let mut net = net(ThreadedMode::Replay, 2);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        net.settle();
        assert_eq!(net.query(NodeId(1), |n| n.seen), 1);
        net.restore_node(NodeId(1), Echo::default());
        assert_eq!(net.query(NodeId(1), |n| n.seen), 0);
    }

    /// A node that panics when poked with a marked payload.
    #[derive(Clone, Debug, Default)]
    struct Grenade {
        seen: u64,
    }

    impl Node<RawPayload> for Grenade {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
            assert!(msg.control != 99, "grenade node detonated");
            self.seen += 1;
            if msg.control == 0 {
                ctx.send(from, RawPayload::new(msg.data, 1));
            }
        }
    }

    #[test]
    fn dead_worker_surfaces_as_a_typed_error() {
        let mut net = mesh(ThreadedMode::FreeRunning, vec![Grenade::default(); 3]);
        // Poke the doomed node; its handler panics on delivery.
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 99));
        });
        // The panic is asynchronous; keep operating until it surfaces.
        let watchdog = clock::Watchdog::standard();
        let err = loop {
            match net.try_settle() {
                Ok(_) => {
                    assert!(!watchdog.expired(), "worker death never surfaced");
                    std::thread::yield_now();
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, WorkerDead { node: NodeId(2) });
        assert!(err.to_string().contains("node n2"), "{err}");
        // The net is poisoned: every subsequent fallible op reports it.
        assert_eq!(
            net.try_with_node(NodeId(0), |_, _| ()).unwrap_err(),
            WorkerDead { node: NodeId(2) }
        );
        assert_eq!(
            net.try_query(NodeId(1), |n| n.seen).unwrap_err(),
            WorkerDead { node: NodeId(2) }
        );
        // Shutdown still returns the survivors (in id order).
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 2);
    }

    /// Counts deliveries and remembers who sent what.
    #[derive(Clone, Debug, Default)]
    struct Sink {
        got: Vec<(NodeId, usize)>,
    }

    impl Node<RawPayload> for Sink {
        fn on_message(&mut self, _ctx: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
            self.got.push((from, p.data));
        }
    }

    fn sinks(mode: ThreadedMode, topology: Topology) -> ThreadedNet<RawPayload, Sink> {
        let n = topology.node_count();
        ThreadedNet::new(
            mode,
            topology,
            SimConfig::default(),
            vec![Sink::default(); n],
        )
        .unwrap()
    }

    #[test]
    fn free_running_routed_delivery_crosses_real_hops() {
        let mut t = sinks(ThreadedMode::FreeRunning, Topology::ring(6));
        // 0 → 3 is three ring hops; workers 1 and 2 must forward.
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(8, 4));
        });
        assert!(t.settle().is_quiescent());
        assert_eq!(t.query(NodeId(3), |n| n.got.clone()), vec![(NodeId(0), 8)]);
        assert!(t.query(NodeId(1), |n| n.got.is_empty()));
        assert_eq!(t.stats().total_messages(), 3);
        assert_eq!(t.forwarded_messages(), 2);
    }

    #[test]
    fn routed_replay_is_bit_identical_to_the_simulator() {
        let script = |t: &mut dyn FnMut(NodeId, NodeId, usize)| {
            t(NodeId(0), NodeId(2), 11);
            t(NodeId(3), NodeId(1), 22);
            t(NodeId(2), NodeId(0), 33);
        };

        let mut sim = Simulator::new(
            Topology::ring(4),
            SimConfig::default(),
            vec![Sink::default(); 4],
        )
        .unwrap();
        script(&mut |from, to, v| {
            sim.with_node(from, |_n, ctx| ctx.send(to, RawPayload::new(v, 0)));
        });
        sim.run_until_quiescent();

        let mut thr = sinks(ThreadedMode::Replay, Topology::ring(4));
        script(&mut |from, to, v| {
            thr.with_node(from, move |_n, ctx| ctx.send(to, RawPayload::new(v, 0)));
        });
        assert!(thr.settle().is_quiescent());

        assert_eq!(thr.stats(), sim.stats());
        assert_eq!(thr.events_processed(), sim.events_processed());
        assert_eq!(thr.now(), sim.now());
        assert_eq!(thr.forwarded_messages(), sim.forwarded_messages());
        assert!(thr.forwarded_messages() > 0);
        let threaded_nodes = thr.into_nodes();
        let (sim_nodes, _) = sim.into_parts();
        for (i, (a, b)) in threaded_nodes.iter().zip(&sim_nodes).enumerate() {
            assert_eq!(a.got, b.got, "node {i}");
        }
    }

    #[test]
    fn restore_node_keeps_routing() {
        let mut t = sinks(ThreadedMode::FreeRunning, Topology::line(3));
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(5, 0));
        });
        t.settle();
        assert_eq!(t.query(NodeId(2), |n| n.got.len()), 1);
        t.restore_node(NodeId(2), Sink::default());
        assert_eq!(t.query(NodeId(2), |n| n.got.len()), 0);
        // The net still routes: a fresh send crosses the middle hop.
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(6, 0));
        });
        t.settle();
        assert_eq!(t.query(NodeId(2), |n| n.got.clone()), vec![(NodeId(0), 6)]);
        assert_eq!(t.forwarded_messages(), 2);
    }

    #[test]
    fn disconnected_topology_is_rejected_at_construction() {
        let topology = Topology::explicit(3, [(0, 1), (1, 0)]);
        let err = ThreadedNet::new(
            ThreadedMode::FreeRunning,
            topology,
            SimConfig::default(),
            vec![Sink::default(); 3],
        )
        .err()
        .unwrap();
        assert!(matches!(err, RouteError::Disconnected { .. }));
    }
}
