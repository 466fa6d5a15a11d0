//! `no-panic-in-delivery`: message-delivery hot paths must not panic.
//!
//! A panic inside the delivery path tears down the whole simulation —
//! including every *other* node — which is exactly the failure mode the
//! fault layer exists to model gracefully. The functions listed in
//! [`scope_fns`] form the delivery spine: the simulator's event pump,
//! the channel sampler, the routing rules the nets forward with, and
//! every protocol's `on_message`/`on_restart` handler. Within their bodies this rule
//! bans `.unwrap()` / `.expect()`, panicking macros, and slice
//! indexing (`debug_assert!` stays legal: it documents invariants and
//! compiles out of release builds). Survivors live in the allowlist
//! with a written justification.

use super::{diag_at, Rule};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{FileKind, SourceFile};

/// See module docs.
pub struct NoPanicInDelivery;

/// The delivery-spine files and the functions checked in each. Every
/// entry must name a file that exists and functions it still defines:
/// [`stale_scope`] reports any that do not, so coverage cannot lapse
/// silently when code moves.
const SCOPE: &[(&str, &[&str])] = &[
    (
        "crates/simnet/src/channel.rs",
        &["schedule", "transmit", "sample"],
    ),
    (
        "crates/simnet/src/sim.rs",
        &[
            "try_start",
            "try_with_node",
            "try_step",
            "try_run_until_quiescent",
            "process_event",
            "recycled_context",
            "handle_down_delivery",
            "flush_context",
            "schedule_timers",
            "send_outbox",
            "send_hops",
            "send_message",
            "set_down",
            "set_up",
            "is_down",
            "parked_count",
        ],
    ),
    (
        "crates/simnet/src/route.rs",
        &[
            "launch",
            "arrive",
            "split",
            "group_by_hop",
            "routed",
            "payload",
            "ends_at",
            "next_hop",
            "hop_count",
            "tree_parent",
            "tree_next_hop",
        ],
    ),
];

/// The delivery-spine functions checked per file; `None` means the file
/// is out of scope for this rule. Shared with `no-alloc-in-hot-path`:
/// the functions that must not panic are exactly the per-event hot path
/// that must not allocate either.
pub(crate) fn scope_fns(rel_path: &str) -> Option<&'static [&'static str]> {
    if let Some(&(_, fns)) = SCOPE.iter().find(|(path, _)| *path == rel_path) {
        return Some(fns);
    }
    if rel_path.starts_with("crates/dsm/src/protocol/")
        && rel_path != "crates/dsm/src/protocol/mod.rs"
    {
        Some(&["on_message", "on_restart"])
    } else {
        None
    }
}

/// Scope entries that no longer match the code: a file missing from
/// `sources`, or a function its file no longer defines (outside test
/// code). Each is an error, as a stale allowlist entry is.
pub(crate) fn stale_scope(sources: &[SourceFile]) -> Vec<String> {
    let mut errors = Vec::new();
    for &(path, fns) in SCOPE {
        let Some(file) = sources.iter().find(|f| f.rel_path == path) else {
            errors.push(format!(
                "delivery-spine scope names {path}, which does not exist — update the scope"
            ));
            continue;
        };
        let defined: Vec<String> = file
            .fn_body_spans(fns)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        for name in fns
            .iter()
            .filter(|name| !defined.iter().any(|d| d == *name))
        {
            errors.push(format!(
                "delivery-spine scope names `{name}` in {path}, which no longer defines it — update the scope"
            ));
        }
    }
    errors
}

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for NoPanicInDelivery {
    fn name(&self) -> &'static str {
        "no-panic-in-delivery"
    }

    fn description(&self) -> &'static str {
        "ban unwrap/expect/panic!/slice-indexing in delivery hot paths"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let Some(names) = scope_fns(&file.rel_path) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fn_name, start, end) in file.fn_body_spans(names) {
            for i in start..=end.min(file.toks.len().saturating_sub(1)) {
                let t = &file.toks[i];
                match t.kind {
                    TokKind::Ident => {
                        let prev_is_dot = i >= 1 && file.toks[i - 1].is_punct('.');
                        let next_is_bang =
                            i + 1 < file.toks.len() && file.toks[i + 1].is_punct('!');
                        if prev_is_dot && (t.text == "unwrap" || t.text == "expect") {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "`.{}()` in delivery hot path `{}`; return a typed error instead",
                                    t.text, fn_name
                                ),
                            ));
                        } else if next_is_bang && PANIC_MACROS.contains(&t.text.as_str()) {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "`{}!` in delivery hot path `{}`; use debug_assert! or a typed error",
                                    t.text, fn_name
                                ),
                            ));
                        }
                    }
                    TokKind::Punct('[') => {
                        // Slice indexing: `[` directly after an expression
                        // (identifier, call, or another index). Array
                        // literals/types follow punctuation and don't match.
                        let indexes_expr = i >= 1
                            && matches!(
                                file.toks[i - 1].kind,
                                TokKind::Ident | TokKind::Punct(')') | TokKind::Punct(']')
                            );
                        if indexes_expr {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "slice indexing in delivery hot path `{fn_name}`; use .get()/.get_mut() and handle the miss"
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn fixture_context(&self) -> (&'static str, &'static str, FileKind) {
        ("simnet", "crates/simnet/src/sim.rs", FileKind::Lib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One source file per scope entry, defining every scoped function
    /// except those listed in `missing`.
    fn sources_without(missing: &[&str]) -> Vec<SourceFile> {
        SCOPE
            .iter()
            .map(|&(path, fns)| {
                let text: String = fns
                    .iter()
                    .filter(|f| !missing.contains(f))
                    .map(|f| format!("fn {f}() {{}}\n"))
                    .collect();
                SourceFile::new("simnet", path, FileKind::Lib, &text)
            })
            .collect()
    }

    #[test]
    fn a_scope_matching_the_code_is_not_stale() {
        assert!(stale_scope(&sources_without(&[])).is_empty());
    }

    #[test]
    fn a_scoped_function_that_no_longer_exists_is_an_error() {
        let errors = stale_scope(&sources_without(&["arrive"]));
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`arrive`"), "{errors:?}");
        assert!(
            errors[0].contains("crates/simnet/src/route.rs"),
            "{errors:?}"
        );
    }

    #[test]
    fn a_scoped_file_that_no_longer_exists_is_an_error() {
        let mut sources = sources_without(&[]);
        sources.retain(|f| f.rel_path != "crates/simnet/src/channel.rs");
        let errors = stale_scope(&sources);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("crates/simnet/src/channel.rs"),
            "{errors:?}"
        );
    }

    #[test]
    fn a_function_defined_only_in_test_code_does_not_count() {
        let mut sources = sources_without(&["transmit"]);
        let channel = sources
            .iter_mut()
            .find(|f| f.rel_path == "crates/simnet/src/channel.rs")
            .unwrap();
        let text = "fn schedule() {}\nfn sample() {}\n#[cfg(test)]\nmod tests {\n    fn transmit() {}\n}\n";
        *channel = SourceFile::new("simnet", &channel.rel_path.clone(), FileKind::Lib, text);
        let errors = stale_scope(&sources);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`transmit`"), "{errors:?}");
    }
}
