//! Measurement primitives every workload shares: summary statistics with an
//! honest tail, warm-up-then-sample timing, the open-loop arrival
//! generator, goodput over a fixed rate ladder, and the process's peak
//! resident set.

use std::time::{Duration, Instant};

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles and the fraction of samples beyond each.
const TAIL_LADDER: [(f64, usize); 4] = [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)];

/// A set of timings reduced to a median and the highest percentile that
/// still has [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// Which percentile `tail` is (50 when there are too few samples for
    /// any tail).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or 50 if none qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .find(|&&(_, inv)| n / inv >= TAIL_MIN_BEYOND)
        .map_or(50.0, |&(p, _)| p)
}

/// The `p`-th percentile (0–100) of ascending `sorted`, linearly
/// interpolated between closest ranks.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and tail of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty or holds a NaN.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    let tail_pct = tail_percentile(v.len());
    Summary {
        n: v.len(),
        median: quantile(&v, 50.0),
        tail_pct,
        tail: quantile(&v, tail_pct),
    }
}

/// The median of a non-empty slice.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Runs `op` for `warmup`, then times single calls until `budget` has
/// passed and at least `min_samples` were taken. Returns seconds per call.
pub fn sample(
    warmup: Duration,
    budget: Duration,
    min_samples: usize,
    mut op: impl FnMut(),
) -> Vec<f64> {
    let t0 = Instant::now();
    while t0.elapsed() < warmup {
        op();
    }
    let t1 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_samples || t1.elapsed() < budget {
        let t = Instant::now();
        op();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// One request sent by [`open_loop`].
#[derive(Debug)]
pub struct Sent<T> {
    /// When the schedule said to send it; latency is timed from here.
    pub due: Instant,
    /// How long after `due` the generator actually sent it.
    pub late: Duration,
    /// What the send returned.
    pub value: T,
}

/// Sends one request per entry of `offsets` from the calling thread: sleeps
/// until `start + offsets[i]`, then calls `send(i)`. The schedule never
/// waits for the system under test (open loop). Each request keeps its due
/// instant, so a stall that delays the generator is charged to every
/// request queued behind it rather than hidden, and the generator's own
/// lateness is returned for reporting.
pub fn open_loop<T>(
    start: Instant,
    offsets: &[Duration],
    mut send: impl FnMut(usize) -> T,
) -> Vec<Sent<T>> {
    let mut sent = Vec::with_capacity(offsets.len());
    for (i, off) in offsets.iter().enumerate() {
        let due = start + *off;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late = Instant::now().saturating_duration_since(due);
        sent.push(Sent {
            due,
            late,
            value: send(i),
        });
    }
    sent
}

/// One rung of a rate ladder, as [`goodput`] judges it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// 99th-percentile latency from the due instant, milliseconds.
    pub p99_ms: f64,
    /// Requests refused or failed.
    pub failed: u64,
    /// Requests accepted but not answered when the rung's last request was
    /// sent.
    pub backlog: u64,
}

impl Rung {
    /// The backlog this rung may end with: `min_backlog`, or the requests
    /// that arrive within one latency limit if that is more. A larger
    /// queue means a request arriving at the rung's end waits out the
    /// limit.
    fn max_backlog(&self, limit_ms: f64, min_backlog: u64) -> f64 {
        (min_backlog as f64).max(self.rate * limit_ms / 1e3)
    }

    /// How far the rung is from its limits: the larger of p99 over the
    /// latency limit and backlog over [`Rung::max_backlog`]; infinite once
    /// a request failed. At most 1 passes.
    fn load(&self, limit_ms: f64, min_backlog: u64) -> f64 {
        if self.failed > 0 {
            return f64::INFINITY;
        }
        (self.p99_ms / limit_ms)
            .max(self.backlog as f64 / self.max_backlog(limit_ms, min_backlog).max(1.0))
            .max(f64::MIN_POSITIVE)
    }
}

/// The highest offered rate that meets the limits: p99 within `limit_ms`,
/// no failures, and a backlog at the rung's end within
/// [`Rung::max_backlog`]. Between the last passing rung and the first
/// failing one the rate is interpolated on the log of [`Rung::load`], which
/// is log p99 wherever the latency limit is the one that binds. Returns 0
/// when the first rung already fails and the top rate when every rung
/// passes. `rungs` must ascend in rate.
pub fn goodput(rungs: &[Rung], limit_ms: f64, min_backlog: u64) -> f64 {
    let mut best = 0.0;
    for (i, r) in rungs.iter().enumerate() {
        let hi = r.load(limit_ms, min_backlog);
        if hi <= 1.0 {
            best = r.rate;
            continue;
        }
        if i > 0 {
            let prev = rungs[i - 1];
            let lo = prev.load(limit_ms, min_backlog);
            let frac = if hi.is_finite() {
                (-lo.ln() / (hi.ln() - lo.ln())).clamp(0.0, 1.0)
            } else {
                0.0
            };
            best = prev.rate + (r.rate - prev.rate) * frac;
        }
        break;
    }
    best
}

/// Events per second inside one window: events after the first over the
/// time from the first to the last, so the value does not step with whole
/// event counts. `None` for fewer than two events.
pub fn span_rate(sorted_times: &[f64]) -> Option<f64> {
    let (first, last) = (sorted_times.first()?, sorted_times.last()?);
    (sorted_times.len() >= 2 && last > first)
        .then(|| (sorted_times.len() - 1) as f64 / (last - first))
}

/// The process's peak resident set (`VmHWM`) in bytes, read from the
/// kernel's per-process status file; `None` where that file is absent.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
    }

    #[test]
    fn summary_of_known_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail_pct, 99.0);
        // 99% of the way from rank 1 to rank 1000
        assert!((s.tail - 990.01).abs() < 1e-9, "{}", s.tail);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn warmup_calls_are_not_sampled() {
        let mut calls = 0;
        let v = sample(Duration::from_millis(5), Duration::ZERO, 7, || calls += 1);
        assert_eq!(v.len(), 7);
        assert!(calls > 7, "warm-up ran before sampling");
    }

    #[test]
    fn goodput_interpolates_log_p99_between_pass_and_fail() {
        let r = |rate, p99_ms| Rung {
            rate,
            p99_ms,
            failed: 0,
            backlog: 0,
        };
        let ladder = [r(100.0, 5.0), r(200.0, 10.0), r(300.0, 40.0)];
        // limit 20 ms lies halfway between 10 and 40 on a log scale
        assert!((goodput(&ladder, 20.0, 16) - 250.0).abs() < 1e-9);
        assert_eq!(goodput(&ladder, 50.0, 16), 300.0, "every rung passes");
        assert_eq!(goodput(&ladder, 4.0, 16), 0.0, "first rung fails");
        // a backlog four times its limit at an otherwise fast rung: the
        // backlog binds, log load runs from 0.5 to 4 and crosses 1 at 1/3
        let mut stuck = ladder;
        stuck[2] = Rung {
            backlog: 64,
            p99_ms: 15.0,
            ..stuck[2]
        };
        assert!((goodput(&stuck, 20.0, 16) - (200.0 + 100.0 / 3.0)).abs() < 1e-9);
        let mut refused = ladder;
        refused[1].failed = 1;
        assert_eq!(
            goodput(&refused, 20.0, 16),
            100.0,
            "a refusal fails at once"
        );
    }

    #[test]
    fn span_rate_does_not_step_with_counts() {
        assert_eq!(span_rate(&[1.0]), None);
        assert_eq!(span_rate(&[0.0, 0.5, 1.0, 2.0]), Some(1.5));
    }

    /// A fake service that stalls once: the stalled send blocks the
    /// generator, so the requests due during the stall go out late. Timing
    /// from the due instant charges each of them the wait; timing from the
    /// actual send (what a submit-timed benchmark does) reports them as
    /// fast as any other.
    #[test]
    fn due_instant_timing_charges_a_stall_to_every_request_behind_it() {
        let gap = Duration::from_millis(2);
        let stall = Duration::from_millis(60);
        let offsets: Vec<Duration> = (0..60).map(|i| gap * i).collect();
        let start = Instant::now();
        let sent = open_loop(start, &offsets, |i| {
            let began = Instant::now();
            if i == 10 {
                std::thread::sleep(stall);
            }
            (began, Instant::now())
        });
        let from_due: Vec<Duration> = sent.iter().map(|s| s.value.1 - s.due).collect();
        let from_send: Vec<Duration> = sent.iter().map(|s| s.value.1 - s.value.0).collect();
        // requests 11..=30 were due inside the stall window (20..80 ms)
        let behind = 11..=30;
        for i in behind.clone() {
            assert!(
                from_due[i] >= Duration::from_millis(2 * (40 - i as u64) - 2).min(stall),
                "request {i} due-timed at {:?}",
                from_due[i]
            );
            assert!(sent[i].late > Duration::ZERO);
        }
        let charged: Duration = behind.clone().map(|i| from_due[i]).sum();
        let hidden: Duration = behind.map(|i| from_send[i]).sum();
        assert!(
            charged > hidden * 20 && charged > Duration::from_millis(500),
            "due-instant timing must see the stall: {charged:?} vs {hidden:?}"
        );
        let worst_late = sent.iter().map(|s| s.late).max().unwrap();
        assert!(
            worst_late >= stall - gap * 2,
            "generator lateness {worst_late:?}"
        );
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tnbbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
