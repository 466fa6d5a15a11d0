//! The fault layer: deterministic message drop/duplication schedules and
//! node crash windows beneath the protocols.
//!
//! The paper's system model assumes reliable FIFO channels. This module
//! relaxes that assumption *without* changing what the protocols observe
//! in content or per-writer order, so the fault-free differential oracles
//! (the `histories` checkers, the equivalence proptests) remain the
//! arbiter of every fault schedule:
//!
//! * **Drops** are modelled together with the ack/retransmit handshake a
//!   reliable transport runs on a lossy wire: a dropped transmission is
//!   retransmitted after [`FaultPlan::retransmit_delay`] until it gets
//!   through. On the simulated wire this collapses to a *delayed*
//!   delivery whose extra attempts are counted ([`crate::stats::LinkStats::drops`])
//!   and re-charged (every retransmission pays the payload bytes again).
//!   The per-channel monotonic delivery clamp covers the retransmit
//!   delay, so FIFO per (src, dst) — and therefore FIFO per writer along
//!   routed and multicast paths, which follow one physical path per pair
//!   — survives any drop schedule.
//! * **Duplicates** model the other half of the same handshake: a
//!   retransmission whose original was *not* lost arrives twice. The
//!   receiver's link layer discards the second copy by sequence number
//!   (any ack/retransmit scheme must, or acked traffic would replay), so
//!   protocols never see it; the duplicate still pays wire bytes and is
//!   counted ([`crate::stats::LinkStats::duplicates`]). Protocol nodes
//!   additionally carry their own idempotence guards (stale sequence
//!   numbers and already-covered vector clocks are discarded), which the
//!   crash-recovery path exercises for real.
//! * **Crashes** take a node down for a window. The net decides what
//!   happens to traffic that reaches a down node: a packet the node is
//!   the only remaining destination of is **lost** (the MCS process is
//!   dead; its catch-up handshake re-requests it on restart), while
//!   transit traffic is **parked** for redelivery at restart —
//!   third-party packets are never dropped on the floor. If a parked
//!   packet's host is crashed with no scheduled restart, the simulator
//!   surfaces a typed [`FaultError`] instead of losing it silently.
//!
//! All fault randomness is drawn from a dedicated per-link RNG seeded
//! from `(FaultPlan::seed, from, to)` — the latency RNG is untouched, so
//! a trivial plan is bit-identical to the pre-fault simulator, and the
//! same plan seed reproduces the same fault schedule run after run.

use crate::message::NodeId;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Upper bound on consecutive drops of one transmission: a safety valve
/// so a pathological drop rate cannot loop forever (2^-16 residual odds
/// at rate 0.5).
pub const MAX_CONSECUTIVE_DROPS: u32 = 16;

/// One scheduled node outage: `node` is down during
/// `[at, at + restart_after)`, or forever when `restart_after` is `None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: NodeId,
    /// Virtual time at which the node goes down.
    pub at: SimTime,
    /// How long the outage lasts; `None` means the node never restarts.
    pub restart_after: Option<SimDuration>,
}

impl CrashWindow {
    /// The virtual time at which the node comes back (`None` for a
    /// permanent crash).
    pub fn restart_at(&self) -> Option<SimTime> {
        self.restart_after.map(|d| self.at + d)
    }

    /// Whether the window covers virtual time `at`.
    pub fn covers(&self, at: SimTime) -> bool {
        at >= self.at && self.restart_at().is_none_or(|end| at < end)
    }
}

/// A deterministic fault schedule for a simulation run: seeded per-link
/// drop/duplicate rates and per-node crash windows. The default plan is
/// trivial (no faults) and leaves the simulator bit-identical to the
/// reliable-channel model.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a transmission is dropped (and retransmitted),
    /// sampled independently per attempt from the link's fault RNG.
    pub drop_rate: f64,
    /// Probability that a delivered transmission arrives twice; the
    /// second copy is discarded by the receiver's link layer.
    pub duplicate_rate: f64,
    /// Extra delay a retransmission pays on top of a fresh latency
    /// sample.
    pub retransmit_delay: SimDuration,
    /// Seed of the per-link fault RNGs (mixed with the link endpoints, so
    /// distinct links draw independent but reproducible schedules).
    pub seed: u64,
    /// Scheduled node outages, enforced in the simulator's delivery path.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            retransmit_delay: SimDuration::from_micros(25),
            seed: 0xFA_17,
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that drops (and retransmits) each transmission with
    /// probability `drop_rate`.
    pub fn lossy(drop_rate: f64, seed: u64) -> Self {
        FaultPlan {
            drop_rate,
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan that duplicates each transmission with probability
    /// `duplicate_rate`.
    pub fn duplicating(duplicate_rate: f64, seed: u64) -> Self {
        FaultPlan {
            duplicate_rate,
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan injects link faults (drops or duplicates).
    pub fn has_link_faults(&self) -> bool {
        self.drop_rate > 0.0 || self.duplicate_rate > 0.0
    }

    /// Whether the plan is a no-op (the reliable-channel model).
    pub fn is_trivial(&self) -> bool {
        !self.has_link_faults() && self.crashes.is_empty()
    }

    /// The crash window covering `node` at virtual time `at`, if any.
    pub fn window_covering(&self, node: NodeId, at: SimTime) -> Option<&CrashWindow> {
        self.crashes.iter().find(|w| w.node == node && w.covers(at))
    }
}

/// A message had to be parked at a node that is crashed with no scheduled
/// restart — delivering it is impossible, and dropping it would silently
/// lose third-party (transit) traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The permanently crashed node.
    pub node: NodeId,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} is crashed with no scheduled restart; traffic parked at it can never be delivered",
            self.node
        )
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_trivial() {
        let plan = FaultPlan::default();
        assert!(plan.is_trivial());
        assert!(!plan.has_link_faults());
        assert_eq!(plan.window_covering(NodeId(0), SimTime::ZERO), None);
    }

    #[test]
    fn lossy_and_duplicating_constructors_set_one_rate() {
        let lossy = FaultPlan::lossy(0.25, 7);
        assert!(lossy.has_link_faults());
        assert_eq!(lossy.drop_rate, 0.25);
        assert_eq!(lossy.duplicate_rate, 0.0);
        assert_eq!(lossy.seed, 7);
        let dup = FaultPlan::duplicating(0.5, 9);
        assert_eq!(dup.drop_rate, 0.0);
        assert_eq!(dup.duplicate_rate, 0.5);
        assert!(!dup.is_trivial());
    }

    #[test]
    fn crash_windows_cover_their_interval() {
        let w = CrashWindow {
            node: NodeId(2),
            at: SimTime::from_micros(10),
            restart_after: Some(SimDuration::from_micros(5)),
        };
        assert!(!w.covers(SimTime::from_micros(9)));
        assert!(w.covers(SimTime::from_micros(10)));
        assert!(w.covers(SimTime::from_micros(14)));
        assert!(!w.covers(SimTime::from_micros(15)));
        assert_eq!(w.restart_at(), Some(SimTime::from_micros(15)));
    }

    #[test]
    fn permanent_crashes_never_end() {
        let w = CrashWindow {
            node: NodeId(1),
            at: SimTime::from_micros(3),
            restart_after: None,
        };
        assert!(w.covers(SimTime::from_micros(1_000_000)));
        assert_eq!(w.restart_at(), None);
        let plan = FaultPlan {
            crashes: vec![w],
            ..FaultPlan::default()
        };
        assert!(!plan.is_trivial());
        assert!(plan
            .window_covering(NodeId(1), SimTime::from_micros(99))
            .is_some());
        assert!(plan
            .window_covering(NodeId(0), SimTime::from_micros(99))
            .is_none());
    }

    #[test]
    fn fault_error_names_the_node() {
        let e = FaultError { node: NodeId(4) };
        assert!(e.to_string().contains("n4"));
        assert!(e.to_string().contains("no scheduled restart"));
    }
}
