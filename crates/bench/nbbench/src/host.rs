//! What machine and configuration produced a result, and how noisy that
//! machine was while it ran.
//!
//! Shared two-vCPU hosts have phases lasting seconds in which the same
//! compute runs about 1.8x slower. The [`NoiseProbe`] times a fixed
//! reference loop owned by this benchmark every quarter second; a run whose
//! reference times rose with its metrics was slowed by its host, not by the
//! code under test.

use crate::harness::{quantile, summarize};
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Build and host facts printed with every result.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// CPU brand string.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Width of nb-tensor's worker pool, including the caller.
    pub pool_threads: usize,
    /// SIMD extensions detected at run time.
    pub simd: Vec<&'static str>,
    /// Every `NB_*` environment variable, sorted.
    pub env: Vec<(String, String)>,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit read from `.git` in the working directory, if any.
    pub git_rev: String,
}

impl Fingerprint {
    /// Collects the fingerprint of this process.
    pub fn collect() -> Self {
        let mut env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("NB_"))
            .collect();
        env.sort();
        Fingerprint {
            cpu: cpu_brand(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: nb_tensor::num_threads(),
            simd: simd_features(),
            env,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(Path::new(".git")),
        }
    }

    /// One line per fact.
    pub fn render(&self) -> String {
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "host: cpu \"{}\", nproc {}, pool threads {}, simd [{}]\nbuild: profile {}, git {}, env [{}]",
            self.cpu,
            self.nproc,
            self.pool_threads,
            self.simd.join(" "),
            self.profile,
            self.git_rev,
            env.join(" "),
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86-64 processor; leaves above the
    // reported maximum extended leaf are never queried.
    #[allow(unused_unsafe)]
    let words = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown".into();
        }
        [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
    };
    let bytes: Vec<u8> = words
        .iter()
        .flatten()
        .flat_map(|w| w.to_le_bytes())
        .take_while(|&b| b != 0)
        .collect();
    String::from_utf8_lossy(&bytes).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    std::env::consts::ARCH.to_string()
}

fn simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut f = Vec::new();
        if is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        if is_x86_feature_detected!("avx512vnni") {
            f.push("avx512_vnni");
        }
        f
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The commit `HEAD` names, following one symbolic ref through loose or
/// packed refs; no subprocess.
fn git_rev(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// The reference computation: a naive 48x48 matrix product, repeated. It
/// is compiled from this file for the baseline target, so no change to the
/// code under test can make it faster or slower.
fn reference_work() -> f64 {
    const N: usize = 48;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.01).collect();
    let mut c = vec![0f32; N * N];
    let t = Instant::now();
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let av = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += av * a[k * N + j];
                }
            }
        }
    }
    std::hint::black_box(&c);
    t.elapsed().as_secs_f64() * 1e6
}

/// Summary of a [`NoiseProbe`].
#[derive(Clone, Copy, Debug)]
pub struct Noise {
    /// Reference samples taken.
    pub samples: usize,
    /// Median reference time, microseconds.
    pub ref_p50_us: f64,
    /// 90th-percentile reference time, microseconds.
    pub ref_p90_us: f64,
    /// Share of samples more than [`SLOW_RATIO`] times the run's fast
    /// (10th-percentile) reference time.
    pub slow_frac: f64,
}

/// A reference sample this much slower than the run's fast ones counts as
/// taken during a slow phase.
pub const SLOW_RATIO: f64 = 1.4;

/// A background thread timing [`reference_work`] every `period`.
pub struct NoiseProbe {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<Vec<f64>>,
}

impl NoiseProbe {
    /// Starts sampling.
    pub fn start(period: Duration) -> Self {
        let (stop, rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("nbbench-noise".into())
            .spawn(move || {
                let mut samples = vec![reference_work()];
                while let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(period) {
                    samples.push(reference_work());
                }
                samples
            })
            .expect("spawn noise probe thread");
        NoiseProbe { stop, handle }
    }

    /// Stops the thread, waits for it, and summarizes its samples.
    pub fn finish(self) -> Noise {
        // A send error means the thread already ended; join reports why.
        let _ = self.stop.send(());
        let samples = self.handle.join().expect("noise probe thread panicked");
        let s = summarize(&samples);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let fast = quantile(&sorted, 10.0);
        Noise {
            samples: s.n,
            ref_p50_us: s.median,
            ref_p90_us: quantile(&sorted, 90.0),
            slow_frac: samples.iter().filter(|&&v| v > SLOW_RATIO * fast).count() as f64
                / samples.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_host() {
        let f = Fingerprint::collect();
        assert!(f.nproc >= 1 && f.pool_threads >= 1);
        assert!(!f.cpu.is_empty());
        let text = f.render();
        assert!(text.contains("nproc") && text.contains("profile"));
    }

    #[test]
    fn git_rev_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("nbbench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "abc123 refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir), "def456");
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(git_rev(&dir).starts_with("unknown"));
    }

    #[test]
    fn noise_probe_samples_and_stops() {
        let p = NoiseProbe::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        let n = p.finish();
        assert!(n.samples >= 2, "{n:?}");
        assert!(n.ref_p50_us > 0.0 && n.ref_p90_us >= n.ref_p50_us);
        assert!((0.0..=1.0).contains(&n.slow_frac));
    }
}
