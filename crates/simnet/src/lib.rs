//! # simnet — deterministic cluster emulation for DSM protocols
//!
//! The paper ("About the efficiency of partial replication to implement
//! Distributed Shared Memory", Hélary & Milani) assumes a classical
//! asynchronous distributed system: a finite set of nodes, each hosting an
//! application process and a Memory Consistency System (MCS) process,
//! communicating through **reliable FIFO point-to-point channels**.
//!
//! This crate provides that substrate as a *deterministic discrete-event
//! simulator*:
//!
//! * [`time::SimTime`] — a virtual clock (nanosecond granularity).
//! * [`message::WireSize`] — explicit payload and control-metadata byte
//!   accounting for every message.
//! * [`channel::Channel`] and [`channel::LatencyModel`] — reliable FIFO
//!   links with constant or seeded-jitter latency.
//! * [`network::Topology`] — which pairs of nodes may communicate (full
//!   mesh, ring, grid, star, line, or arbitrary directed link sets).
//! * [`node::Node`] — the trait protocol state machines implement.
//! * [`sim::Simulator`] — the event-driven driver (run to quiescence,
//!   bounded runs, deterministic tie-breaking). It routes inside itself:
//!   any node may send to any other on every strongly connected
//!   topology, and [`sim::DeliveryMode`] picks how fan-outs travel.
//! * [`threaded::ThreadedNet`] — the same nodes on one OS thread each,
//!   over a ring fabric whose worker loop routes exactly as the
//!   simulator does.
//! * [`route::Router`] — overlay routing: BFS shortest-path tables and
//!   broadcast trees, plus the forwarding rules both nets share.
//! * [`fault::FaultPlan`] — seeded link drops and duplicates and node
//!   crash windows beneath the protocols.
//! * [`stats::NetworkStats`] — per-link and per-node counters used by the
//!   benchmark harness to quantify "control information" overhead.
//!
//! Determinism: given the same nodes, the same latency model seed, and the
//! same sequence of external injections, a simulation run is bit-for-bit
//! reproducible. Ties in delivery time are broken by (time, sequence
//! number), where sequence numbers are assigned in send order.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backend;
pub mod chan;
pub mod channel;
pub mod event;
pub mod fault;
pub mod message;
pub mod network;
pub mod node;
pub mod pool;
pub mod route;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod time;

pub use backend::{ExecBackend, ThreadedMode};
pub use channel::{Channel, LatencyModel, Transmission};
pub use event::{Event, EventKind, EventQueue};
pub use fault::{CrashWindow, FaultError, FaultPlan};
pub use message::{NodeId, Payload, WireSize};
pub use network::Topology;
pub use node::{Node, NodeContext, Outgoing};
pub use pool::{BufferPool, PoolStats};
pub use route::{RouteError, Router};
pub use sim::{DeliveryMode, RunOutcome, SendError, SimConfig, Simulator};
pub use stats::{LinkStats, NetworkStats, NodeStats};
pub use threaded::{FabricStats, ThreadedNet, WorkerDead};
pub use time::{SimDuration, SimTime};
