//! Differential property tests of the overlay routing the nets do.
//!
//! Two invariants, from stronger to weaker:
//!
//! 1. **Sparse topologies reproduce the full-mesh outcome for race-free
//!    scripts.** When each variable has a single writer (the
//!    producer/consumer regime), replica contents at every settle point
//!    are a function of each writer's FIFO prefix, independent of how
//!    long individual hops take — so histories, control summaries, and
//!    settled values on ring/grid/star/line equal the full-mesh run.
//! 2. **Control accounting is topology-independent for *any* script.**
//!    When different writers race on one variable inside a settle window,
//!    PRAM and causal consistency both *allow* replicas to apply the
//!    concurrent updates in arrival order, and arrival order legitimately
//!    depends on hop latencies — so replica contents may differ. What
//!    cannot differ is which control information travels: per-node,
//!    per-variable control bytes and entries are the same on every
//!    topology.

use apps::scenario::{generate_family_ops, SettlePolicy, WorkloadFamily};
use apps::workload::{generate, WorkloadOp, WorkloadSpec};
use dsm::{ControlSummary, DynDsm, ProtocolKind};
use histories::{pram_spot_check, Distribution, History, ProcId, Value, VarId};
use proptest::prelude::*;
use simnet::{NetworkStats, SimConfig, Topology};

struct Observation {
    history: History,
    network: NetworkStats,
    control: ControlSummary,
    /// Replica contents after the final settle: `peek(p, x)` for every
    /// process and every variable it replicates.
    settled: Vec<(ProcId, VarId, Value)>,
    routed: bool,
}

fn run(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    topology: Option<Topology>,
) -> Observation {
    let config = SimConfig {
        topology,
        ..SimConfig::default()
    };
    let mut dsm = DynDsm::with_config(kind, dist.clone(), config);
    for op in ops {
        match *op {
            WorkloadOp::Write { proc, var, value } => dsm.write(proc, var, value).unwrap(),
            WorkloadOp::Read { proc, var } => {
                let _ = dsm.read(proc, var).unwrap();
            }
            WorkloadOp::Settle => {
                dsm.settle();
            }
        }
    }
    dsm.settle();
    let mut settled = Vec::new();
    for p in 0..dist.process_count() {
        for x in 0..dist.var_count() {
            if kind.is_fully_replicated() || dist.replicates(ProcId(p), VarId(x)) {
                settled.push((ProcId(p), VarId(x), dsm.peek(ProcId(p), VarId(x))));
            }
        }
    }
    Observation {
        history: dsm.history(),
        network: dsm.network_stats().clone(),
        control: dsm.control_summary(),
        settled,
        routed: dsm.is_routed(),
    }
}

fn small_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (
        3usize..=6,
        2usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            let spec = WorkloadSpec {
                ops_per_process: 5,
                write_ratio: 0.5,
                settle_every: 3,
                seed: wseed,
            };
            let ops = generate(&dist, &spec);
            (dist, ops)
        })
}

/// Like [`small_setup`], but the script is race-free: each variable is
/// only ever written by its owner (smallest-id replica).
fn single_writer_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (
        3usize..=6,
        2usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            let ops = generate_family_ops(
                &dist,
                &WorkloadFamily::ProducerConsumer,
                5,
                SettlePolicy::Every(3),
                wseed,
            );
            (dist, ops)
        })
}

fn sparse_topologies(n: usize) -> Vec<Topology> {
    vec![
        Topology::ring(n),
        Topology::grid_of(n),
        Topology::star(n),
        Topology::line(n),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ring/grid/star/line runs reproduce the full-mesh history, control
    /// summary, and settled replica contents for race-free scripts (wire
    /// statistics legitimately differ: relays pay per hop).
    #[test]
    fn sparse_topologies_reproduce_the_full_mesh_outcome((dist, ops) in single_writer_setup()) {
        for kind in ProtocolKind::ALL {
            let mesh = run(kind, &dist, &ops, None);
            // Protocol runs always pass the polynomial PRAM spot-check.
            prop_assert_eq!(pram_spot_check(&mesh.history), Ok(()));
            for topology in sparse_topologies(dist.process_count()) {
                let sparse = run(kind, &dist, &ops, Some(topology.clone()));
                prop_assert!(sparse.routed || topology.is_full_mesh());
                prop_assert_eq!(
                    &mesh.history, &sparse.history,
                    "{} histories diverged on {:?}", kind, topology
                );
                prop_assert_eq!(
                    &mesh.control, &sparse.control,
                    "{} control summaries diverged on {:?}", kind, topology
                );
                prop_assert_eq!(
                    &mesh.settled, &sparse.settled,
                    "{} settled values diverged on {:?}", kind, topology
                );
                // Relaying never sends fewer logical messages than the mesh.
                prop_assert!(
                    sparse.network.total_messages() >= mesh.network.total_messages(),
                    "{} lost messages on {:?}", kind, topology
                );
            }
        }
    }

    /// For *any* script — races included — the control-information
    /// accounting (which node handles metadata about which variable, and
    /// how many control bytes it sends/receives) is the same on every
    /// topology, and every recorded history still meets the protocol's
    /// criterion per the polynomial spot-check.
    #[test]
    fn control_accounting_is_topology_independent((dist, ops) in small_setup()) {
        for kind in ProtocolKind::ALL {
            let mesh = run(kind, &dist, &ops, None);
            for topology in sparse_topologies(dist.process_count()) {
                let sparse = run(kind, &dist, &ops, Some(topology.clone()));
                prop_assert_eq!(
                    &mesh.control, &sparse.control,
                    "{} control summaries diverged on {:?}", kind, topology
                );
                prop_assert_eq!(pram_spot_check(&sparse.history), Ok(()));
            }
        }
    }
}
