//! nbbench: one benchmark for the NetBooster stack.
//!
//! Three workloads drive the stack through its public functions only:
//!
//! - `infer-b1`: closed-loop batch-1 replay of four compiled plans;
//! - `serve-steady`: open-loop traffic on three resident tenants;
//! - `train-netbooster`: the paper's expand → giant → PLT → contract →
//!   finetune pipeline.
//!
//! Serving under plan-cache churn is measured by the layer probe only:
//! BENCHMARK.md says why it is not a workload.
//!
//! An untraced run prints the end-to-end metrics; a traced run records
//! spans around the benchmark's calls into each layer and ends with the
//! layer probe ([`probe`]), printing the per-layer metrics instead.
//! `BENCHMARK.json` at the repository root declares every metric;
//! `BENCHMARK.md` beside this crate explains them.

pub mod harness;
pub mod host;
pub mod infer;
pub mod nets;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;
pub mod train;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The command line.
pub const USAGE: &str = "usage: nbbench --workload <infer-b1|serve-steady|train-netbooster> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

/// Measured length of a run when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 35.0;

/// A workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop batch-1 plan replay.
    InferB1,
    /// Open-loop serving, resident tenants.
    ServeSteady,
    /// The NetBooster training pipeline.
    TrainNetbooster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::InferB1,
        Workload::ServeSteady,
        Workload::TrainNetbooster,
    ];

    /// Its command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferB1 => "infer-b1",
            Workload::ServeSteady => "serve-steady",
            Workload::TrainNetbooster => "train-netbooster",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured length of the run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where the spans go (default: under the build directory).
    pub trace_out: Option<PathBuf>,
    /// A seconds-long pass for tests: one set-up, small inputs, and no
    /// accuracy floor.
    pub smoke: bool,
}

impl Args {
    /// How many times the workload's set-up is timed (`setup_s` is their
    /// median).
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            7
        }
    }
}

/// Parses the arguments after the program name.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out, mut smoke) =
        (None, 1u64, None, false, None, false);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("a path")?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS }),
        trace,
        trace_out,
        smoke,
    })
}

/// The end-to-end metrics, which every workload reports; BENCHMARK.md
/// defines each per workload.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Median of the timed set-ups, seconds.
    pub setup_s: f64,
    /// Work completed per second: images or training samples in the closed
    /// loops, answered requests over the serving ladder.
    pub throughput_per_s: f64,
    /// Median operation latency, milliseconds.
    pub latency_p50_ms: f64,
    /// Tail operation latency, milliseconds.
    pub latency_tail_ms: f64,
    /// Which percentile `latency_tail_ms` is.
    pub tail_pct: f64,
    /// How many samples it was taken over.
    pub tail_n: usize,
    /// Bytes the deployed plans hold (packed weights plus arenas), KiB.
    pub model_mem_kib: f64,
}

impl EndToEnd {
    /// Records every end-to-end metric, with the process's peak RSS.
    pub fn record(&self, rep: &mut Report) {
        let rss = harness::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        rep.metric("setup_s", self.setup_s, "s");
        rep.metric("throughput_per_s", self.throughput_per_s, "1/s");
        rep.metric("latency_p50_ms", self.latency_p50_ms, "ms");
        rep.metric("latency_tail_ms", self.latency_tail_ms, "ms");
        rep.metric("peak_rss_mib", rss, "MiB");
        rep.metric("model_mem_kib", self.model_mem_kib, "KiB");
        rep.note(format!(
            "latency_tail_ms is p{} over {} samples",
            self.tail_pct, self.tail_n
        ));
    }
}

fn trace_path(args: &Args) -> PathBuf {
    args.trace_out.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        dir.join("nbbench")
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed))
    })
}

/// Runs one workload, prints its report with the JSON result as the last
/// line of standard output, and returns the process exit code.
pub fn run(args: &Args) -> i32 {
    println!("{}", host::Fingerprint::collect().render());
    println!(
        "nbbench: workload {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    let noise = host::NoiseProbe::start(Duration::from_millis(250));
    let mut rep = Report::default();
    trace::set_enabled(args.trace);
    let t0 = Instant::now();
    let e2e = match args.workload {
        Workload::InferB1 => infer::run(args, &mut rep),
        Workload::ServeSteady => serve::run(args, &serve::steady(args.seed), &mut rep),
        Workload::TrainNetbooster => train::run(args, &mut rep),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    trace::set_enabled(false);
    let spans = trace::take();
    let noise = noise.finish();
    rep.note(format!(
        "host reference loop: p50 {:.1} us, p90 {:.1} us, {:.0}% of {} samples slow (> {}x the fast ones)",
        noise.ref_p50_us,
        noise.ref_p90_us,
        noise.slow_frac * 100.0,
        noise.samples,
        host::SLOW_RATIO
    ));
    if args.trace {
        rep.note(format!(
            "traced run: end-to-end numbers are not reported (throughput {:.1}/s, p50 {:.3} ms)",
            e2e.throughput_per_s, e2e.latency_p50_ms
        ));
        let metrics = probe::run(args, &spans, wall_s, &noise, &mut rep);
        let path = trace_path(args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans, &metrics)));
        rep.check(
            "trace written",
            written.is_ok(),
            format!(
                "{} spans to {} ({:?})",
                spans.len(),
                path.display(),
                written.err()
            ),
        );
        for (name, v, unit) in metrics {
            rep.metric(name, v, unit);
        }
    } else {
        e2e.record(&mut rep);
    }
    print!("{}", rep.table());
    println!("{}", rep.json());
    if rep.correct() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse("--workload serve-steady --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeSteady);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 20.0, true, false)
        );
        let s = parse("--smoke --workload infer-b1").unwrap();
        assert_eq!((s.seconds, s.smoke, s.trace), (1.0, true, false));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload infer-b1 --trace 2").is_err());
        assert!(parse("--workload infer-b1 --seconds 0").is_err());
        assert!(parse("--workload infer-b1 --bogus").is_err());
    }
}
