//! `serve-steady`, and the layer probe's serving ladders: open-loop traffic
//! against nb-serve at a fixed ladder of offered rates.
//!
//! One generator thread sends Poisson arrivals with bursts
//! (`arrival_schedule`, seeded), sleeping until every request's due
//! instant; latency runs from that due instant to `Response::finished`, so a
//! stall is charged to everything queued behind it. The rates are absolute
//! constants measured once on the parent commit and never recalibrated at
//! run time, so a faster server does not raise its own load.
//!
//! The ladder is climbed several times (cycles), one short episode per rate
//! per cycle, and the server is drained after every episode, so a host slow
//! phase of a few seconds lands on episodes of every rate rather than on one
//! whole rate. Half of each cycle is spent at the lowest rate, where the
//! reported latencies are taken, so their tail rests on thousands of
//! requests. A rate is judged by the p99 of all its requests, pooled over
//! its episodes; the goodput that judgement gives is reported, not gated:
//! it moves by a whole rung when one rate's p99 crosses the limit.

use crate::harness::{self, goodput, median, open_loop, quantile, tail_percentile, Rung};
use crate::nets::{self, Net, PlanKind, Precision, IMAGE};
use crate::report::Report;
use crate::{trace, Args, EndToEnd};
use nb_nn::CompiledPlan;
use nb_serve::{arrival_schedule, plan_cost, ModelSpec, ServeConfig, Server, TrafficConfig};
use nb_tensor::Tensor;
use nb_verify::{Divergence, UlpTolerance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `serve-steady` offered rates, requests per second. The parent's
/// three-tenant capacity on the 2-vCPU host BENCHMARK.md describes moved
/// between 1,450 and 1,950 requests per second with the host's speed; the
/// ladder runs from about 20% of the slower figure to about 110% of the
/// faster one, so the top rate saturates the server in either state.
pub const STEADY_RATES: [f64; 5] = [300.0, 750.0, 1200.0, 1650.0, 2100.0];

/// Every this many requests, the response is checked against a solo replay
/// of the same plan on the same sample.
pub const CHECK_EVERY: usize = 16;
/// Reduction depth behind the tolerance for a served output that is not
/// bitwise equal to its solo replay. Batching changes the row count of the
/// classifier GEMM, and from `m * k * n >= 4096` the kernel switches from
/// the direct to the blocked schedule, which sums each dot product in
/// another order: MCUNet's 64-wide classifier crosses that line at batch 7.
/// No layer of these nets reduces over more than 1024 terms.
pub const BATCHED_REDUCTION_K: usize = 1024;
/// Share of each cycle spent at the lowest (nominal) rate, where latency is
/// reported; the other rates split the rest evenly.
pub const NOMINAL_SHARE: f64 = 0.5;
/// Distinct input images cycled through.
const POOL: usize = 64;
/// Window for the saturated completion rate.
const WINDOW_S: f64 = 0.25;

/// How tenants are chosen per request.
#[derive(Clone, Copy, Debug)]
pub enum Popularity {
    /// Every tenant equally often.
    Uniform,
    /// Zipf with exponent 1: tenant `k` in proportion to `1 / (k + 1)`.
    Zipf,
}

/// One tenant model.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Cache key and request address.
    pub name: String,
    /// Network and precision.
    pub kind: PlanKind,
    /// Weight seed.
    pub seed: u64,
}

/// A serving workload.
#[derive(Clone, Debug)]
pub struct ServeWorkload {
    /// Tenant models, most popular first.
    pub tenants: Vec<Tenant>,
    /// Offered rates, ascending.
    pub rates: Vec<f64>,
    /// Times the ladder is climbed.
    pub cycles: usize,
    /// Tenant choice per request.
    pub popularity: Popularity,
    /// Plan-cache capacity as a share of the tenants' summed `plan_cost`
    /// (`None`: unbounded).
    pub cache_share: Option<f64>,
    /// p99 latency limit for goodput, milliseconds.
    pub limit_ms: f64,
}

fn tenant(name: &str, net: Net, prec: Precision, seed: u64) -> Tenant {
    Tenant {
        name: name.to_string(),
        kind: PlanKind { net, prec },
        seed,
    }
}

/// Three resident tenants (Tiny f32, Tiny int8, MCUNet f32) with equal
/// popularity and an unbounded cache: queueing and batching set the tail.
pub fn steady(seed: u64) -> ServeWorkload {
    ServeWorkload {
        tenants: vec![
            tenant("tiny.f32", Net::Tiny, Precision::F32, seed),
            tenant("tiny.i8", Net::Tiny, Precision::I8, seed),
            tenant(
                "mcunet.f32",
                Net::Mcunet,
                Precision::F32,
                seed.wrapping_add(1),
            ),
        ],
        rates: STEADY_RATES.to_vec(),
        cycles: 8,
        popularity: Popularity::Uniform,
        cache_share: None,
        limit_ms: 50.0,
    }
}

/// The layer probe's churn ladder: six Tiny tenants, half int8, Zipf(1)
/// popularity, and a cache holding five of their six plans, so plans are
/// evicted and recompiled on the request path, under the cache lock. It is
/// not a workload of its own: every miss stalls both workers for a compile,
/// so the latencies it gives swing with the square of the host's speed
/// (BENCHMARK.md).
pub fn churn(seed: u64) -> ServeWorkload {
    let tenants = (0..6u64)
        .map(|k| {
            let (prec, suffix) = if k % 2 == 0 {
                (Precision::F32, "f32")
            } else {
                (Precision::I8, "i8")
            };
            tenant(
                &format!("tiny-{k}.{suffix}"),
                Net::Tiny,
                prec,
                seed.wrapping_add(k),
            )
        })
        .collect();
    ServeWorkload {
        tenants,
        rates: vec![200.0, 400.0],
        cycles: 1,
        popularity: Popularity::Zipf,
        cache_share: Some(0.85),
        limit_ms: 250.0,
    }
}

/// One rate's episodes, combined.
#[derive(Clone, Debug)]
pub struct RungStats {
    /// As [`goodput`] judges it: the p99 of all its requests, the median
    /// episode's backlog, and every failure.
    pub rung: Rung,
    /// Requests sent at this rate.
    pub sent: usize,
    /// Median latency over all its requests, milliseconds.
    pub p50_ms: f64,
    /// Worst generator lateness, milliseconds.
    pub max_late_ms: f64,
    /// Requests per executed batch.
    pub occupancy: f64,
    /// Plan-cache misses, hits and evictions.
    pub cache: (u64, u64, u64),
}

/// What a serving run saw, beyond its end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct ServeObs {
    /// Per rate.
    pub rungs: Vec<RungStats>,
    /// Seconds spent in each `Server::submit` call.
    pub submit_s: Vec<f64>,
    /// Generator lateness per request, seconds.
    pub late_s: Vec<f64>,
    /// Factory (build + compile) durations, seconds.
    pub factory_s: Vec<f64>,
    /// Factory time during the ladder as a share of its length.
    pub compile_busy_share: f64,
    /// Cache misses over lookups during the ladder.
    pub miss_ratio: f64,
    /// Evictions during the ladder.
    pub evictions: u64,
    /// Bytes resident in the plan cache at the end.
    pub resident_bytes: usize,
    /// Largest backlog seen at an episode end.
    pub backlog_max: u64,
    /// Completed requests over executed batches, whole ladder.
    pub occupancy: f64,
    /// Completion rate while the server stayed saturated (the top rate when
    /// it never was).
    pub capacity: f64,
}

/// One episode: a rate held for a slice of one cycle, then drained.
struct Episode {
    /// Latency and tenant of every answered request.
    lat: Vec<(f64, usize)>,
    p99_ms: f64,
    backlog: u64,
    failed: u64,
    max_late: Duration,
    completed: u64,
    batches: u64,
    cache: (u64, u64, u64),
}

fn pick(pop: Popularity, tenants: usize, rng: &mut StdRng) -> usize {
    match pop {
        Popularity::Uniform => rng.gen_range(0..tenants),
        Popularity::Zipf => {
            let total: f64 = (1..=tenants).map(|k| 1.0 / k as f64).sum();
            let mut u = rng.gen::<f64>() * total;
            for k in 0..tenants {
                u -= 1.0 / (k + 1) as f64;
                if u <= 0.0 {
                    return k;
                }
            }
            tenants - 1
        }
    }
}

fn sorted(v: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut s: Vec<f64> = v.into_iter().collect();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Runs `w` for `seconds` (split evenly over cycles and rates), after
/// `setups` timed server start-ups.
pub fn run_ladder(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    setups: usize,
    rep: &mut Report,
) -> (EndToEnd, ServeObs) {
    let cfg0 = ServeConfig::default();
    let workers_batch = (cfg0.workers * cfg0.max_batch) as u64;
    // Benchmark-side twins of every tenant plan: their cost sizes the cache
    // and their solo replays judge the served outputs.
    let solo: Vec<CompiledPlan> = w
        .tenants
        .iter()
        .map(|t| nets::build_plan(t.kind, t.seed, cfg0.max_batch))
        .collect();
    let total_cost: usize = solo.iter().map(plan_cost).sum();
    let cfg = ServeConfig {
        // overload must show as latency, never as refusals
        queue_cap: 1 << 20,
        cache_bytes: w
            .cache_share
            .map_or(usize::MAX, |s| (total_cost as f64 * s) as usize),
        ..cfg0
    };
    // Every factory call (build + compile), timed from inside the factory.
    let factory_log: Arc<Mutex<Vec<f64>>> = Arc::default();
    let specs = || -> Vec<ModelSpec> {
        w.tenants
            .iter()
            .map(|t| {
                let (kind, seed, log) = (t.kind, t.seed, Arc::clone(&factory_log));
                ModelSpec::new(t.name.clone(), IMAGE, move || {
                    let t0 = Instant::now();
                    let plan = nets::build_plan(kind, seed, cfg0.max_batch);
                    let took = t0.elapsed().as_secs_f64();
                    log.lock().expect("factory log poisoned").push(took);
                    plan
                })
            })
            .collect()
    };
    let pool: Vec<Tensor> = nets::images(seed ^ 0x5e12e, POOL)
        .into_iter()
        .map(|x| x.reshape(IMAGE))
        .collect();

    // Set-up: start the server and warm every tenant once, `setups` times.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..setups.max(1) {
        if let Some(old) = server.take() {
            Server::join(old);
        }
        let t = Instant::now();
        let s = Server::start(cfg, specs());
        for tn in &w.tenants {
            s.submit(&tn.name, pool[0].clone())
                .expect("warm-up request refused")
                .wait();
        }
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let names: Vec<&str> = w.tenants.iter().map(|t| t.name.as_str()).collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let cycle_s = seconds / w.cycles as f64;
    let episode_s = |k: usize| {
        cycle_s
            * if k == 0 {
                NOMINAL_SHARE
            } else {
                (1.0 - NOMINAL_SHARE) / (w.rates.len() - 1).max(1) as f64
            }
    };
    let tol = UlpTolerance::for_reduction(BATCHED_REDUCTION_K);
    let mut obs = ServeObs::default();
    // [rate][cycle]
    let mut episodes: Vec<Vec<Episode>> = w.rates.iter().map(|_| Vec::new()).collect();
    let mut sends = Vec::new(); // seconds into the ladder, per accepted request
    let mut finishes = Vec::new();
    let mut checked = (0usize, 0usize, 0usize); // (checked, bitwise, within tolerance)
    let mut attempted = 0u64;
    let ladder_start = Instant::now();
    let stats_start = server.stats();
    let factories_before = factory_log.lock().expect("factory log poisoned").len();
    for cycle in 0..w.cycles {
        for (k, &rate) in w.rates.iter().enumerate() {
            let n = (rate * episode_s(k)).round().max(1.0) as usize;
            let salt = (cycle * w.rates.len() + k) as u64;
            let mut tc =
                TrafficConfig::poisson_bursty(n, 1.0, seed.wrapping_mul(31).wrapping_add(salt));
            // the base Poisson rate counts bursts once; scale so the
            // offered request rate is `rate`
            tc.rate_hz = rate / (1.0 + tc.burst_prob * (tc.burst_len - 1) as f64);
            let offsets = arrival_schedule(&tc);
            let picks: Vec<(usize, usize)> = (0..n)
                .map(|_| {
                    (
                        pick(w.popularity, names.len(), &mut rng),
                        rng.gen_range(0..POOL),
                    )
                })
                .collect();
            let before = server.stats();
            let start = Instant::now() + Duration::from_millis(2);
            let base = attempted;
            let sent = {
                let _rung = trace::span("bench.episode", salt);
                open_loop(start, &offsets, |i| {
                    let (t, img) = picks[i];
                    let _s = trace::span("nb-serve.submit", base + i as u64);
                    let t0 = Instant::now();
                    let r = server.submit(names[t], pool[img].clone());
                    obs.submit_s.push(t0.elapsed().as_secs_f64());
                    r
                })
            };
            let at_end = server.stats();
            let mut ep = Episode {
                lat: Vec::with_capacity(n),
                p99_ms: 0.0,
                backlog: at_end.accepted - at_end.completed,
                failed: 0,
                max_late: Duration::ZERO,
                completed: 0,
                batches: 0,
                cache: (0, 0, 0),
            };
            for (i, s) in sent.into_iter().enumerate() {
                let id = base + i as u64;
                attempted += 1;
                ep.max_late = ep.max_late.max(s.late);
                obs.late_s.push(s.late.as_secs_f64());
                let Ok(ticket) = s.value else {
                    ep.failed += 1;
                    continue;
                };
                let resp = {
                    let _s = trace::span("nb-serve.wait", id);
                    ticket.wait()
                };
                let (t, img) = picks[i];
                let l = resp.finished.saturating_duration_since(s.due).as_secs_f64() * 1e3;
                ep.lat.push((l, t));
                sends.push((s.due + s.late).duration_since(ladder_start).as_secs_f64());
                finishes.push(resp.finished.duration_since(ladder_start).as_secs_f64());
                if (id as usize).is_multiple_of(CHECK_EVERY) {
                    let want = solo[t].run(&pool[img].reshape([1, IMAGE[0], IMAGE[1], IMAGE[2]]));
                    checked.0 += 1;
                    if nets::bitwise_eq(&resp.output, &want) {
                        checked.1 += 1;
                    } else if Divergence::measure(resp.output.as_slice(), want.as_slice(), &tol)
                        .passes()
                    {
                        checked.2 += 1;
                    }
                }
            }
            let after = server.stats();
            let lats = sorted(ep.lat.iter().map(|&(l, _)| l));
            ep.p99_ms = if lats.is_empty() {
                0.0
            } else {
                quantile(&lats, 99.0)
            };
            ep.completed = after.completed - before.completed;
            ep.batches = after.batches - before.batches;
            ep.cache = (
                after.cache.misses - before.cache.misses,
                after.cache.hits - before.cache.hits,
                after.cache.evictions - before.cache.evictions,
            );
            episodes[k].push(ep);
        }
    }
    let ladder_s = ladder_start.elapsed().as_secs_f64();
    let end = server.stats();
    let drained = end.accepted == end.completed;
    obs.resident_bytes = server.cache().resident_bytes();
    server.join();

    // Saturated completion rate: windows over which more than two full
    // batches per worker stayed queued, so no worker was ever idle.
    sends.sort_by(|a, b| a.total_cmp(b));
    finishes.sort_by(|a, b| a.total_cmp(b));
    let done_by = |t: f64| finishes.partition_point(|&f| f <= t);
    let backlog_at = |t: f64| sends.partition_point(|&s| s <= t) as i64 - done_by(t) as i64;
    let busy = 2 * workers_batch as i64;
    let mut busy_rates = Vec::new();
    let first_due = sends.first().copied().unwrap_or(0.0);
    let mut t = first_due;
    let last = finishes.last().copied().unwrap_or(0.0);
    while t + WINDOW_S <= last {
        if backlog_at(t) > busy && backlog_at(t + WINDOW_S) > busy {
            busy_rates.extend(harness::span_rate(
                &finishes[done_by(t)..done_by(t + WINDOW_S)],
            ));
        }
        t += WINDOW_S;
    }
    let saturated = busy_rates.len() >= 2;
    obs.capacity = if saturated {
        median(&busy_rates)
    } else {
        *w.rates.last().expect("a ladder has rates")
    };

    let rungs: Vec<RungStats> = w
        .rates
        .iter()
        .zip(&episodes)
        .map(|(&rate, eps)| {
            let all = sorted(eps.iter().flat_map(|e| e.lat.iter().map(|&(l, _)| l)));
            let completed: u64 = eps.iter().map(|e| e.completed).sum();
            let batches: u64 = eps.iter().map(|e| e.batches).sum();
            let at = |p| {
                if all.is_empty() {
                    0.0
                } else {
                    quantile(&all, p)
                }
            };
            let backlogs: Vec<f64> = eps.iter().map(|e| e.backlog as f64).collect();
            RungStats {
                rung: Rung {
                    rate,
                    p99_ms: at(99.0),
                    failed: eps.iter().map(|e| e.failed).sum(),
                    backlog: median(&backlogs) as u64,
                },
                sent: eps.iter().map(|e| e.lat.len() + e.failed as usize).sum(),
                p50_ms: at(50.0),
                max_late_ms: eps
                    .iter()
                    .map(|e| e.max_late)
                    .max()
                    .unwrap_or_default()
                    .as_secs_f64()
                    * 1e3,
                occupancy: completed as f64 / batches.max(1) as f64,
                cache: eps.iter().fold((0, 0, 0), |a, e| {
                    (a.0 + e.cache.0, a.1 + e.cache.1, a.2 + e.cache.2)
                }),
            }
        })
        .collect();
    let ladder: Vec<Rung> = rungs.iter().map(|r| r.rung).collect();
    let good = goodput(&ladder, w.limit_ms, workers_batch);

    // Latency is reported over all requests at the nominal rate, the lowest.
    // Its median is each network's median, averaged with the networks'
    // request counts as weights: MCUNet's service time is about four times
    // Tiny's, so a median over both would sit in the upper tail of Tiny's
    // latencies and move with the sampled mix.
    let nominal = &episodes[0];
    let mut p50 = 0.0;
    let mut net_p50 = Vec::new();
    for net in [Net::Tiny, Net::Mcunet] {
        let lat: Vec<f64> = nominal
            .iter()
            .flat_map(|e| e.lat.iter())
            .filter(|r| w.tenants[r.1].kind.net == net)
            .map(|r| r.0)
            .collect();
        if !lat.is_empty() {
            let m = median(&lat);
            net_p50.push(m);
            p50 += m * lat.len() as f64;
        }
    }
    let nominal_all = sorted(nominal.iter().flat_map(|e| e.lat.iter().map(|r| r.0)));
    p50 /= nominal_all.len().max(1) as f64;
    let tail_pct = tail_percentile(nominal_all.len());
    let tail = if nominal_all.is_empty() {
        0.0
    } else {
        quantile(&nominal_all, tail_pct)
    };
    // Requests answered per second of ladder, drains included.
    let delivered = finishes.len() as f64 / (last - first_due).max(f64::MIN_POSITIVE);

    obs.factory_s = factory_log.lock().expect("factory log poisoned").clone();
    obs.compile_busy_share = obs.factory_s[factories_before..].iter().sum::<f64>() / ladder_s;
    let lookups =
        (end.cache.hits + end.cache.misses) - (stats_start.cache.hits + stats_start.cache.misses);
    obs.miss_ratio = (end.cache.misses - stats_start.cache.misses) as f64 / lookups.max(1) as f64;
    obs.evictions = end.cache.evictions - stats_start.cache.evictions;
    obs.backlog_max = episodes
        .iter()
        .flatten()
        .map(|e| e.backlog)
        .max()
        .unwrap_or(0);
    obs.occupancy = (end.completed - stats_start.completed) as f64
        / (end.batches - stats_start.batches).max(1) as f64;

    let failed: u64 = rungs.iter().map(|r| r.rung.failed).sum();
    rep.attempted += attempted;
    rep.failed += failed;
    rep.check(
        "no request refused",
        failed == 0,
        format!("{failed} of {attempted} refused"),
    );
    rep.check(
        "accepted requests all answered",
        drained,
        format!("accepted {} completed {}", end.accepted, end.completed),
    );
    rep.check(
        format!("every {CHECK_EVERY}th response equals a solo replay"),
        checked.0 > 0 && checked.0 == checked.1 + checked.2,
        format!(
            "{} of {} bitwise, {} more within {} ulp",
            checked.1, checked.0, checked.2, tol.max_ulps
        ),
    );
    rep.note(format!(
        "tenants {}; cache {}; latency limit {} ms; {} cycles of {:.2} s at the nominal rate, \
         {:.2} s at each other rate",
        names.join(","),
        w.cache_share.map_or("unbounded".to_string(), |s| format!(
            "{:.0}% of {} KiB",
            s * 100.0,
            total_cost / 1024
        )),
        w.limit_ms,
        w.cycles,
        episode_s(0),
        episode_s(1)
    ));
    for (r, eps) in rungs.iter().zip(&episodes) {
        let p99s: Vec<String> = eps.iter().map(|e| format!("{:.1}", e.p99_ms)).collect();
        rep.note(format!(
            "rate {:>6.0}/s: n {:>5}, p50 {:>8.2} ms, p99 {:>8.2} ms (episodes [{}]), backlog {:>5}, \
             refused {}, generator late <= {:.2} ms, batch {:.2}, cache miss/hit/evict {}/{}/{}",
            r.rung.rate,
            r.sent,
            r.p50_ms,
            r.rung.p99_ms,
            p99s.join(" "),
            r.rung.backlog,
            r.rung.failed,
            r.max_late_ms,
            r.occupancy,
            r.cache.0,
            r.cache.1,
            r.cache.2
        ));
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.note(format!(
        "goodput {good:.1}/s at p99 <= {} ms; delivered {delivered:.1}/s; saturated completion \
         rate {:.1}/s over {} windows{}; at the nominal rate: p50 per network [{}] ms, \
         p{tail_pct} {tail:.2} ms over {} requests",
        w.limit_ms,
        obs.capacity,
        busy_rates.len(),
        if saturated {
            ""
        } else {
            " (never saturated: reading the top rate)"
        },
        fmt(&net_p50),
        nominal_all.len(),
    ));
    obs.rungs = rungs;
    let e2e = EndToEnd {
        setup_s: harness::median(&setup_s),
        throughput_per_s: delivered,
        latency_p50_ms: p50,
        latency_tail_ms: tail,
        tail_pct,
        tail_n: nominal_all.len(),
        model_mem_kib: total_cost as f64 / 1024.0,
    };
    (e2e, obs)
}

/// The `serve-steady` or `serve-churn` workload.
pub fn run(args: &Args, w: &ServeWorkload, rep: &mut Report) -> EndToEnd {
    run_ladder(w, args.seed, args.seconds, args.setups(), rep).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 6];
        for _ in 0..60_000 {
            counts[pick(Popularity::Zipf, 6, &mut rng)] += 1;
        }
        // expected shares 1/k over H_6 = 2.45: 40.8%, 20.4%, ..., 6.8%
        assert!(
            (counts[0] as f64 / 60_000.0 - 0.408).abs() < 0.01,
            "{counts:?}"
        );
        assert!(
            (counts[5] as f64 / 60_000.0 - 0.068).abs() < 0.01,
            "{counts:?}"
        );
        assert!(counts.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn ladders_carry_enough_requests_in_a_default_run() {
        let w = steady(0);
        assert!(w.rates.windows(2).all(|r| r[0] < r[1]));
        let nominal = w.rates[0] * crate::DEFAULT_SECONDS * NOMINAL_SHARE;
        assert!(
            nominal >= 1000.0,
            "the nominal rate carries >= 1000 requests"
        );
        assert!(tail_percentile(nominal as usize) >= 99.0);
        let next = w.rates[1] * crate::DEFAULT_SECONDS * (1.0 - NOMINAL_SHARE)
            / (w.rates.len() - 1) as f64;
        assert!(next >= 1000.0, "every other rate carries >= 1000 requests");
        let c = churn(0);
        assert_eq!(
            c.tenants
                .iter()
                .filter(|t| t.kind.prec == Precision::I8)
                .count(),
            3
        );
    }
}
