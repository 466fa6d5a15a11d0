//! Property tests for the protocol metadata types: vector clocks, the
//! causal-broadcast delivery condition, FIFO sequence tracking, and the
//! control-information accounting.

use dsm::{ControlStats, ControlSummary, DeltaVc, SequenceTracker, VectorClock};
use histories::{ProcId, VarId};
use proptest::prelude::*;

fn clock(entries: Vec<u64>) -> VectorClock {
    let mut vc = VectorClock::new(entries.len());
    for (i, n) in entries.iter().enumerate() {
        for _ in 0..*n {
            vc.increment(i);
        }
    }
    vc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is commutative, associative, idempotent, and dominates both
    /// inputs — the lattice-join properties causal delivery relies on.
    #[test]
    fn merge_is_a_join(
        a in proptest::collection::vec(0u64..6, 1..6),
        b in proptest::collection::vec(0u64..6, 1..6),
        c in proptest::collection::vec(0u64..6, 1..6),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (clock(a[..n].to_vec()), clock(b[..n].to_vec()), clock(c[..n].to_vec()));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &a, "idempotent");

        prop_assert!(a.dominated_by(&ab), "join dominates left input");
        prop_assert!(b.dominated_by(&ab), "join dominates right input");
    }

    /// causal_cmp is consistent with dominated_by and antisymmetric.
    #[test]
    fn causal_cmp_consistency(
        a in proptest::collection::vec(0u64..6, 1..6),
        b in proptest::collection::vec(0u64..6, 1..6),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (clock(a[..n].to_vec()), clock(b[..n].to_vec()));
        use std::cmp::Ordering::*;
        match a.causal_cmp(&b) {
            Some(Equal) => { prop_assert!(a.dominated_by(&b) && b.dominated_by(&a)); }
            Some(Less) => { prop_assert!(a.dominated_by(&b) && !b.dominated_by(&a)); }
            Some(Greater) => { prop_assert!(b.dominated_by(&a) && !a.dominated_by(&b)); }
            None => { prop_assert!(!a.dominated_by(&b) && !b.dominated_by(&a)); }
        }
        prop_assert_eq!(a.causal_cmp(&a), Some(Equal));
    }

    /// The delivery condition accepts exactly the next message from a
    /// sender whose other dependencies are already satisfied, and a
    /// sequence of deliveries never gets stuck when messages arrive in the
    /// sender's order.
    #[test]
    fn delivery_condition_progress(writes in proptest::collection::vec(0usize..3, 1..12)) {
        let n = 3;
        // One writer stream per process, messages carry the writer's clock.
        let mut writer_clocks = vec![VectorClock::new(n); n];
        let mut messages = Vec::new();
        for w in writes {
            writer_clocks[w].increment(w);
            messages.push((w, writer_clocks[w].clone()));
        }
        // A receiver that applies them in send order must always find each
        // message deliverable... once the sender's previous messages are in
        // (they are, because we process in order) and other entries are
        // bounded by what it has merged. Deliver greedily and check that
        // nothing is ever permanently stuck.
        let mut local = VectorClock::new(n);
        let mut pending = messages.clone();
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            let mut i = 0;
            while i < pending.len() {
                let (sender, vc) = &pending[i];
                if local.deliverable_from(vc, *sender) {
                    local.merge(vc);
                    pending.remove(i);
                    progress = true;
                } else {
                    i += 1;
                }
            }
        }
        prop_assert!(pending.is_empty(), "causal delivery must not deadlock");
        prop_assert_eq!(local.total(), messages.len() as u64);
    }

    /// Under the delivery condition, merging a message's clock is exactly
    /// an increment of the sender's entry — which is why the causal
    /// protocols apply a deliverable message with `increment`. Checked on
    /// messages built to be deliverable (the sender's next write over
    /// dependencies the receiver already covers) and on arbitrary ones.
    #[test]
    fn merge_of_a_deliverable_message_is_an_increment(
        local in proptest::collection::vec(0u64..6, 1..12),
        sender in 0usize..12,
        lag in proptest::collection::vec(0u64..4, 12),
        other in proptest::collection::vec(0u64..6, 12),
    ) {
        let n = local.len();
        let w = sender % n;
        let local = clock(local);
        let built: Vec<u64> = (0..n)
            .map(|k| if k == w { local.get(k) + 1 } else { local.get(k).saturating_sub(lag[k]) })
            .collect();
        let built = clock(built);
        prop_assert!(local.deliverable_from(&built, w));
        for msg in [built, clock(other[..n].to_vec())] {
            if local.deliverable_from(&msg, w) {
                let mut merged = local.clone();
                merged.merge(&msg);
                let mut incremented = local.clone();
                incremented.increment(w);
                prop_assert_eq!(&merged, &incremented);
            }
        }
    }

    /// Sequence trackers accept monotonically increasing (possibly gappy)
    /// sequences and reject regressions.
    #[test]
    fn sequence_tracker_monotonicity(seqs in proptest::collection::vec(1u64..50, 1..20)) {
        let mut t = SequenceTracker::new(1);
        let mut highest = 0u64;
        for s in seqs {
            let accepted = t.observe(0, s);
            if s > highest {
                prop_assert!(accepted);
                highest = s;
            } else {
                prop_assert!(!accepted, "regression to {s} after {highest} must be rejected");
            }
            prop_assert_eq!(t.expected(0), highest + 1);
        }
    }

    /// Delta encoding is lossless and never dearer than the dense wire:
    /// `decode(prev)` of `encode(prev, next)` reproduces `next` exactly
    /// (so compare/merge semantics on the decoded clock are identical to
    /// the original), and the encoded size never exceeds the dense size.
    #[test]
    fn delta_vc_round_trips_and_never_exceeds_dense(
        prev in proptest::collection::vec(0u64..6, 1..24),
        bumps in proptest::collection::vec((0usize..24, 1u64..5), 0..8),
        probe in proptest::collection::vec(0u64..6, 1..24),
    ) {
        let n = prev.len();
        let prev = clock(prev);
        // `next` evolves from `prev` the way a writer's clock does: a few
        // entries grow, the rest stay put.
        let mut next = prev.clone();
        for (i, by) in bumps {
            for _ in 0..by {
                next.increment(i % n);
            }
        }
        let delta = DeltaVc::encode(&prev, &next);
        let decoded = delta.decode(&prev);
        prop_assert_eq!(&decoded, &next, "decode must reproduce the encoded clock");
        prop_assert!(
            delta.wire_bytes() <= next.wire_bytes(),
            "delta wire size {} exceeds dense {}",
            delta.wire_bytes(),
            next.wire_bytes()
        );
        // The decoded clock is semantically indistinguishable from the
        // original: same causal comparison and same merge result against
        // an arbitrary third clock (padded/truncated to n entries).
        let mut probe = probe;
        probe.resize(n, 0);
        let probe = clock(probe);
        prop_assert_eq!(decoded.causal_cmp(&probe), next.causal_cmp(&probe));
        let mut merged_decoded = decoded.clone();
        merged_decoded.merge(&probe);
        let mut merged_next = next.clone();
        merged_next.merge(&probe);
        prop_assert_eq!(merged_decoded, merged_next);
        // An identical clock encodes to the empty (4-byte) sparse delta.
        prop_assert_eq!(DeltaVc::encode(&next, &next).wire_bytes(), 4);
    }

    /// The crash-recovery path charges its catch-up resends through the
    /// same cheaper-of-two encoder, *chained*: the first delta is decoded
    /// against the requester's restored clock (carried by the catch-up
    /// request), each later one against the previous resend on the same
    /// FIFO link. The whole chain round-trips losslessly from exactly the
    /// state the requester holds at each step, and its total wire cost
    /// never exceeds the dense resends it replaced.
    #[test]
    fn delta_vc_chained_recovery_resends_round_trip_and_never_exceed_dense(
        restored in proptest::collection::vec(0u64..6, 2..12),
        writer_runs in proptest::collection::vec(1u64..4, 1..8),
        merges in proptest::collection::vec((0usize..12, 0u64..3), 0..8),
    ) {
        let n = restored.len();
        let restored = clock(restored);
        // The writer's missing log suffix: every entry grows the previous
        // clock by the writer's own increments plus whatever it merged
        // from others between writes.
        let mut log: Vec<VectorClock> = Vec::new();
        let mut cur = restored.clone();
        let writer = 0usize;
        let mut merges = merges.into_iter();
        for own in writer_runs {
            for _ in 0..own {
                cur.increment(writer);
            }
            if let Some((i, by)) = merges.next() {
                for _ in 0..by {
                    cur.increment(i % n);
                }
            }
            log.push(cur.clone());
        }
        // Chain exactly like the protocols' CatchupReq handlers do.
        let mut base = restored.clone();
        let mut chained = 0usize;
        let mut dense = 0usize;
        for next in &log {
            let delta = DeltaVc::encode(&base, next);
            prop_assert_eq!(
                &delta.decode(&base), next,
                "each resend must decode from the requester's running state"
            );
            prop_assert!(delta.wire_bytes() <= next.wire_bytes());
            chained += delta.wire_bytes();
            dense += next.wire_bytes();
            base.clone_from(next);
        }
        prop_assert!(
            chained <= dense,
            "chained recovery wire {chained} exceeds dense {dense}"
        );
    }

    /// Control accounting: totals equal the sum of per-variable charges and
    /// the relevant-node sets are exactly the nodes that tracked a variable.
    #[test]
    fn control_accounting_sums(
        charges in proptest::collection::vec((0usize..4, 0usize..3, 1usize..100), 0..30)
    ) {
        let mut per_node = vec![ControlStats::new(); 4];
        let mut expected_total = 0u64;
        for (node, var, bytes) in &charges {
            per_node[*node].charge_sent(VarId(*var), *bytes);
            expected_total += *bytes as u64;
        }
        let summary = ControlSummary::new(per_node.clone());
        prop_assert_eq!(summary.total_control_bytes(), expected_total);
        prop_assert_eq!(summary.total_control_entries(), charges.len() as u64);
        for var in 0..3 {
            let relevant = summary.relevant_nodes(VarId(var));
            for (node, stats) in per_node.iter().enumerate() {
                prop_assert_eq!(relevant.contains(&ProcId(node)), stats.tracks(VarId(var)));
            }
        }
    }
}
