//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans nest workload → protocol run → phase → individual call. Phase
//! spans are always recorded: the end-to-end metrics are sums of phase
//! durations. Call spans (`dsm.write`, `dsm.read`, …) are recorded only
//! by a tracing [`Tracer`], so untraced runs pay two clock reads per
//! phase and nothing per operation.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran: a protocol name for a run span, `phase.*` for a phase,
    /// or the called function (`dsm.write`, `histories.spot_check`, …).
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one round of protocol runs.
pub struct Tracer {
    calls: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records call spans only if `calls` is set.
    pub fn new(calls: bool) -> Self {
        Tracer {
            calls,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether call spans are recorded.
    pub fn traces_calls(&self) -> bool {
        self.calls
    }

    /// Every span recorded so far, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() matches an earlier begin()");
        self.spans[i].end_ns = end_ns;
    }

    /// Close the innermost open span and open a sibling.
    pub fn next(&mut self, name: &'static str) {
        self.end();
        self.begin(name);
    }

    /// Run `f` inside a call span (a plain call when call spans are off).
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.calls {
            return f();
        }
        self.begin(name);
        let r = f();
        self.end();
        r
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span never overlap (spans come from one
/// thread), so the covered time is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Tab-separated dump of `spans`: index, parent (-1 for a root), name,
/// start, end and self time in nanoseconds.
pub fn render_tsv(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, own[i]
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "run",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "phase.issue",
                parent: Some(0),
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                name: "dsm.write",
                parent: Some(1),
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "phase.check",
                parent: Some(0),
                start_ns: 60,
                end_ns: 90,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn untraced_tracer_records_phases_only() {
        let mut t = Tracer::new(false);
        t.begin("phase.issue");
        assert_eq!(t.call("dsm.write", || 7), 7);
        t.next("phase.check");
        t.end();
        let names: Vec<_> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["phase.issue", "phase.check"]);
    }
}
