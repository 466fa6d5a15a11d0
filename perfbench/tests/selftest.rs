//! The benchmark's own correctness: its exact columns equal the scenario
//! engine's on the same script and crash, and repeat exactly per seed.
//!
//! Run with `cargo test --release` from this directory; the workloads are
//! full size, so a debug build takes minutes.

use apps::scenario::{run_script_backend, run_script_faulted, RunReport};
use dsm::ProtocolKind;
use histories::{causal_spot_check, pram_spot_check, Criterion};
use perfbench::trace::Tracer;
use perfbench::{prepare, run_protocol, run_script, Exact, Prepared, Script, Workload};

/// At this seed the crash of node 0 makes the `op-log` history fail its
/// PRAM spot check on `routed-lossy-crash`, so both verdicts are compared.
const SEED: u64 = 1;

fn engine(prep: &Prepared, script: &Script, kind: ProtocolKind) -> RunReport {
    let (dist, ops, config) = (&script.dist, &script.ops, script.config.clone());
    if prep.workload.is_simnet() {
        run_script_faulted(kind, dist, ops, config, prep.record, script.crash)
    } else {
        run_script_backend(kind, dist, ops, config, prep.record, prep.backend)
    }
}

fn engine_spot_ok(report: &RunReport) -> bool {
    match report.protocol.guaranteed_criterion() {
        Criterion::Causal => causal_spot_check(&report.history).is_ok(),
        _ => pram_spot_check(&report.history).is_ok(),
    }
}

#[test]
fn simnet_exact_columns_equal_the_scenario_engine() {
    let mut spot_verdicts = Vec::new();
    for workload in [Workload::BulkN256, Workload::RoutedLossyCrash] {
        let prep = prepare(workload, SEED);
        assert_eq!(prep.scripts.len() as u64, workload.suite_len());
        for script in &prep.scripts {
            for kind in ProtocolKind::ALL {
                let ours = run_script(&prep, script, kind, &mut Tracer::new(false)).unwrap();
                let theirs = engine(&prep, script, kind);
                assert_eq!(ours.exact, Exact::of_report(&theirs), "{workload:?}/{kind}");
                assert_eq!(ours.attempted, theirs.operations, "{workload:?}/{kind}");
                assert_eq!(ours.spot_ok, engine_spot_ok(&theirs), "{workload:?}/{kind}");
                spot_verdicts.push(ours.spot_ok);
            }
        }
    }
    assert!(spot_verdicts.contains(&false) && spot_verdicts.contains(&true));
}

#[test]
fn threaded_runs_issue_the_engines_operations_and_converge() {
    let prep = prepare(Workload::ThreadedPc, SEED);
    let script = &prep.scripts[0];
    for kind in ProtocolKind::ALL {
        let ours = run_script(&prep, script, kind, &mut Tracer::new(false)).unwrap();
        let theirs = engine(&prep, script, kind);
        assert_eq!(ours.attempted, theirs.operations, "{kind}");
        assert_eq!(ours.exact.messages, theirs.messages(), "{kind}");
        assert_eq!(ours.exact.control_bytes, theirs.control_bytes(), "{kind}");
        assert_eq!((ours.failed, ours.diverged_vars), (0, 0), "{kind}");
    }
}

#[test]
fn same_seed_gives_identical_exact_columns() {
    for workload in [Workload::BulkN256, Workload::RoutedLossyCrash] {
        let (a, b) = (prepare(workload, SEED), prepare(workload, SEED));
        for kind in ProtocolKind::ALL {
            let x = run_protocol(&a, kind, &mut Tracer::new(false)).unwrap();
            let y = run_protocol(&b, kind, &mut Tracer::new(true)).unwrap();
            assert_eq!(x.exact, y.exact, "{workload:?}/{kind}");
            assert_eq!(x.settled_hash, y.settled_hash, "{workload:?}/{kind}");
            assert_eq!(
                (x.attempted, x.failed),
                (y.attempted, y.failed),
                "{workload:?}/{kind}"
            );
        }
    }
    let ops = |seed| {
        prepare(Workload::RoutedLossyCrash, seed).scripts[0]
            .ops
            .clone()
    };
    assert_ne!(ops(SEED), ops(SEED + 1));
}

#[test]
fn failure_counts_do_not_depend_on_how_many_runs_fit() {
    let prep = prepare(Workload::RoutedLossyCrash, SEED);
    let one_round = perfbench::measure(&prep, 0.0, false).unwrap();
    let two_rounds = perfbench::measure(&prep, 0.0, true).unwrap();
    let (attempted, failed) = one_round.attempted_failed();
    assert!(failed > 0, "the owner crash fails operations at this seed");
    assert_eq!((attempted, failed), two_rounds.attempted_failed());
    let per_suite: u64 = ProtocolKind::ALL
        .into_iter()
        .map(|kind| {
            run_protocol(&prep, kind, &mut Tracer::new(false))
                .unwrap()
                .attempted
        })
        .sum();
    assert_eq!(attempted, per_suite);
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let mut declared: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("name is a JSON string"))
        .collect();
    let prep = prepare(Workload::RoutedLossyCrash, SEED);
    let outcome = perfbench::measure(&prep, 0.0, true).unwrap();
    let mut printed: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    printed.extend(outcome.end_to_end().into_iter().map(|m| m.name));
    printed.extend(
        outcome
            .per_layer(prep.generate_s)
            .into_iter()
            .map(|m| m.name),
    );
    declared.sort_unstable();
    printed.sort_unstable();
    assert_eq!(declared, printed);
}
