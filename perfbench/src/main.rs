//! HyperSub benchmark: three workloads, measured end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload publish_steady|sub_churn|live_loopback \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed on its own line with its unit, followed by one
//! JSON object on the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones from a
//! separate traced run, whose spans are written to
//! `perfbench/out/spans_<workload>_<seed>.json`. The process exits non-zero
//! when any delivery disagrees with the benchmark's own oracle or a
//! simulated run fails to repeat bit for bit. See `perfbench/METRICS.md`
//! for what each metric means and which layer should move it.

mod calib;
mod clock;
mod cpu;
mod layers;
mod live;
mod oracle;
mod sim;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Seed of the deployment every workload runs on: ring identifiers, the
/// simulated topology and the simulator's own randomness. It is fixed so
/// that `--seed` varies only the workload (subscriptions, events,
/// publishers), and runs on different seeds measure the same system.
pub const NET_SEED: u64 = 0xbe9c_2007;

/// The result of one benchmark invocation.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric and prints it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            self.fail(format!("metric {name} is not a finite number"));
            0.0
        };
        println!("{name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Prints a detail line.
    pub fn note(&mut self, line: String) {
        println!("  {line}");
    }

    /// Marks the run incorrect, saying why.
    pub fn fail(&mut self, why: String) {
        println!("FAIL: {why}");
        self.correct = false;
    }

    /// Prints an oracle verdict with its ratios and their bases, and fails
    /// the run on any missed, spurious or duplicate delivery, or when the
    /// workload owed nothing at all.
    pub fn verdict(&mut self, v: &oracle::Verdict, window_s: f64) {
        self.note(format!(
            "oracle: {} owed pairs, {} missed, {} spurious, {} duplicate, {} in flux (window ±{window_s} s)",
            v.expected, v.missed, v.spurious, v.duplicates, v.in_flux
        ));
        self.note(format!(
            "miss_ratio = {} ratio ({} / {}); extra_ratio = {} ratio ({} / {})",
            v.miss_ratio(),
            v.missed,
            v.expected,
            v.extra_ratio(),
            v.duplicates + v.spurious,
            v.expected
        ));
        if !v.exact() {
            self.fail(format!("oracle violation on {} publishes", v.bad_publishes));
        }
        if v.expected == 0 {
            self.fail("the workload owed no deliveries".to_string());
        }
    }

    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans and prints per-name self times.
pub fn write_spans(spans: &spans::Spans, path: &Path, out: &mut Outcome) {
    for (name, t) in spans.totals() {
        out.note(format!(
            "span {name}: {} calls, total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, spans.to_json()));
    match written {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail(format!("could not write spans to {}: {e}", path.display())),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("15")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let spans_path =
        PathBuf::from("perfbench/out").join(format!("spans_{}_{}.json", args.workload, args.seed));
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} CPUs available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let shape = match args.workload.as_str() {
        "publish_steady" => Some(sim::Shape::Steady),
        "sub_churn" => Some(sim::Shape::Churn),
        "live_loopback" => None,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    match (shape, args.trace) {
        (Some(shape), false) => sim::measure(shape, args.seed, args.seconds, &mut out),
        (Some(shape), true) => sim::traced(shape, args.seed, &mut out, &spans_path),
        (None, false) => live::measure(args.seed, args.seconds, &mut out),
        (None, true) => live::traced(args.seed, args.seconds, &mut out, &spans_path),
    }
    println!("{}", out.to_json());
    if !out.correct {
        std::process::exit(1);
    }
}
