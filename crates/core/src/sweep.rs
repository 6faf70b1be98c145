//! Seed-sweep harness for statistical training tests.
//!
//! Single-seed accuracy thresholds make training tests flaky: one unlucky
//! initialization or shuffle order drops a run below the bar even though the
//! method works. Instead of asserting on one seed, [`seed_sweep`] runs a
//! short training closure across N seeds and asserts a *statistical* pass
//! criterion — e.g. "at least 80% of seeds reach the accuracy bar". A method
//! that genuinely learns clears this easily; a regression that breaks
//! learning fails every seed.
//!
//! The report keeps every per-seed metric so a failure message shows the
//! whole distribution, not just a bare bool.

/// Pass criterion for a sweep: each seed must reach `bar`, and at least
/// `min_pass_fraction` of the seeds must do so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCriterion {
    /// Metric threshold an individual seed must reach (e.g. val accuracy).
    pub bar: f32,
    /// Fraction of seeds (in `[0, 1]`) that must reach the bar for the
    /// sweep to pass.
    pub min_pass_fraction: f32,
}

impl SweepCriterion {
    /// The default criterion from DESIGN.md: ≥ 80% of seeds reach the bar.
    pub fn majority(bar: f32) -> Self {
        SweepCriterion {
            bar,
            min_pass_fraction: 0.8,
        }
    }
}

/// One seed's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedRun {
    /// The seed the closure ran with.
    pub seed: u64,
    /// The metric the closure returned (higher is better).
    pub metric: f32,
    /// Whether the metric reached the criterion's bar.
    pub passed: bool,
}

/// Full sweep outcome: the criterion plus every per-seed run.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The criterion the sweep was judged against.
    pub criterion: SweepCriterion,
    /// Per-seed outcomes, in the order the seeds were given.
    pub runs: Vec<SeedRun>,
}

impl SweepReport {
    /// Fraction of seeds that reached the bar.
    pub fn pass_fraction(&self) -> f32 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.passed).count() as f32 / self.runs.len() as f32
    }

    /// Mean metric across seeds.
    pub fn mean_metric(&self) -> f32 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.metric).sum::<f32>() / self.runs.len() as f32
    }

    /// Worst metric across seeds.
    pub fn min_metric(&self) -> f32 {
        self.runs
            .iter()
            .map(|r| r.metric)
            .fold(f32::INFINITY, f32::min)
    }

    /// True when enough seeds reached the bar.
    pub fn passes(&self) -> bool {
        self.pass_fraction() >= self.criterion.min_pass_fraction - 1e-6
    }

    /// A one-line-per-seed table for assertion messages and CI logs.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "seed sweep: {}/{} seeds reached bar {:.2} (need {:.0}%), mean {:.2}\n",
            self.runs.iter().filter(|r| r.passed).count(),
            self.runs.len(),
            self.criterion.bar,
            self.criterion.min_pass_fraction * 100.0,
            self.mean_metric(),
        );
        for r in &self.runs {
            out.push_str(&format!(
                "  seed {:>4}  metric {:>7.2}  {}\n",
                r.seed,
                r.metric,
                if r.passed { "pass" } else { "FAIL" }
            ));
        }
        out
    }
}

/// Runs `run` once per seed and judges the returned metrics against the
/// sweep criterion. The closure owns everything seed-dependent: model init,
/// data shuffling, augmentation.
pub fn seed_sweep(
    seeds: &[u64],
    criterion: SweepCriterion,
    mut run: impl FnMut(u64) -> f32,
) -> SweepReport {
    let runs = seeds
        .iter()
        .map(|&seed| {
            let metric = run(seed);
            SeedRun {
                seed,
                metric,
                passed: metric >= criterion.bar,
            }
        })
        .collect();
    SweepReport { criterion, runs }
}

/// One seed's classifier training problem for [`parallel_classifier_sweep`]:
/// everything [`fit_parallel`](crate::fit_parallel) needs, rebuilt
/// deterministically from the seed.
pub struct ClassifierRun {
    /// The freshly initialized model (seed-determined weights).
    pub model: nb_models::TinyNet,
    /// Training split.
    pub train: nb_data::SyntheticVision,
    /// Validation split.
    pub val: nb_data::SyntheticVision,
    /// Phase hyperparameters (typically with `seed` folded in).
    pub cfg: crate::TrainConfig,
}

/// Seed-sweeps a classifier on the data-parallel trainer: one
/// [`fit_parallel`](crate::fit_parallel) run per seed, judged like
/// [`seed_sweep`]. The metric is the run's best validation accuracy.
///
/// `setup` must be a *pure function of the seed* — it is called once on
/// the sweep thread for the master and once per shard thread for the
/// replicas, and every call must produce identical weights and data. With
/// the default [`ParallelConfig`](crate::ParallelConfig) (one slice per
/// batch) each run is bitwise-identical to the legacy [`fit`](crate::fit)
/// path, so migrating a sweep here cannot move its statistical criterion.
pub fn parallel_classifier_sweep(
    seeds: &[u64],
    criterion: SweepCriterion,
    pcfg: &crate::ParallelConfig,
    setup: impl Fn(u64) -> ClassifierRun + Sync,
) -> SweepReport {
    use nb_nn::Module;
    seed_sweep(seeds, criterion, |seed| {
        let run = setup(seed);
        let history = crate::fit_parallel(
            run.model.parameters(),
            || {
                let replica = setup(seed);
                crate::ShardModel::classifier(replica.model, replica.cfg.label_smoothing)
            },
            &run.train,
            &run.val,
            &run.cfg,
            pcfg,
            &|imgs| run.model.logits_eval(imgs),
            &mut crate::NoHooks,
        );
        history.best_val_acc()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_passes_when_enough_seeds_clear_bar() {
        let metrics = [80.0, 90.0, 60.0, 85.0, 88.0];
        let rep = seed_sweep(&[0, 1, 2, 3, 4], SweepCriterion::majority(75.0), |s| {
            metrics[s as usize]
        });
        assert_eq!(rep.runs.len(), 5);
        assert!((rep.pass_fraction() - 0.8).abs() < 1e-6);
        assert!(rep.passes(), "{}", rep.summary());
        assert_eq!(rep.min_metric(), 60.0);
    }

    #[test]
    fn sweep_fails_when_too_few_seeds_clear_bar() {
        let rep = seed_sweep(&[0, 1, 2], SweepCriterion::majority(50.0), |s| {
            if s == 0 {
                60.0
            } else {
                40.0
            }
        });
        assert!(!rep.passes());
        assert!(rep.summary().contains("FAIL"));
        assert!(rep.summary().contains("1/3"));
    }

    #[test]
    fn empty_sweep_fails() {
        let rep = seed_sweep(&[], SweepCriterion::majority(0.0), |_| 100.0);
        assert!(!rep.passes());
        assert_eq!(rep.mean_metric(), 0.0);
    }

    #[test]
    fn closure_sees_each_seed_once() {
        let mut seen = Vec::new();
        seed_sweep(
            &[7, 11, 13],
            SweepCriterion {
                bar: 0.0,
                min_pass_fraction: 1.0,
            },
            |s| {
                seen.push(s);
                s as f32
            },
        );
        assert_eq!(seen, vec![7, 11, 13]);
    }
}
