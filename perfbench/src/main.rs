//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one human-readable line per metric, then, as the last line,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its last round's spans to
//! `.bench_build/perfbench-trace/<workload>-<seed>.tsv`.

use perfbench::{measure, prepare, trace, Metric, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <bulk-n256|routed-lossy-crash|threaded-pc> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s));
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&path, trace::render_tsv(spans))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prep = prepare(args.workload, args.seed);
    let outcome = match measure(&prep, args.seconds as f64, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: a run failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        match write_spans(&args, &outcome.last_spans) {
            Ok(path) => eprintln!("spans of the last traced round: {path}"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        outcome.per_layer(prep.generate_s)
    } else {
        outcome.end_to_end()
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("a metric is not a finite number: {metrics:?}");
        return ExitCode::FAILURE;
    }
    let (attempted, failed) = outcome.attempted_failed();
    println!(
        "# {} seed {}: {} untraced and {} traced rounds of {} protocols",
        args.workload.name(),
        args.seed,
        outcome.rounds.0,
        outcome.rounds.1,
        dsm::ProtocolKind::ALL.len()
    );
    let extra = if args.trace {
        Vec::new()
    } else {
        outcome.extra(args.workload)
    };
    for m in metrics.iter().chain(&extra) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        outcome.consistent(args.workload),
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
