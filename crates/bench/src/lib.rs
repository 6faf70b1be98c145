//! Shared scaffolding for the experiment binaries that regenerate every
//! table and figure of the paper.
//!
//! Each binary reads the run scale from the `NB_SCALE` environment variable
//! (`smoke` | `bench` (default) | `full`, anything else is rejected); the
//! scale controls dataset sizes (via [`nb_data::Scale`]) and epoch budgets
//! (via [`epochs`]). The paper's 160/40/110 epoch split for
//! giant/PLT/finetune is preserved as a ratio.

#![warn(missing_docs)]

use nb_data::{Augment, Scale};
use nb_models::{mcunet_like, mobilenet_v2_100, mobilenet_v2_50, mobilenet_v2_tiny, TnnConfig};
use netbooster_core::{NetBoosterConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reads the run scale from `NB_SCALE` (default `bench`).
///
/// # Panics
///
/// Panics on any value other than `smoke`, `bench` or `full`.
pub fn scale_from_env() -> Scale {
    parse_scale(std::env::var("NB_SCALE").ok().as_deref())
}

/// Parses an `NB_SCALE` value. `None` (unset) is `bench`; a typo silently
/// falling back to `bench` would label a run with a scale it did not use.
fn parse_scale(raw: Option<&str>) -> Scale {
    match raw.map(str::trim) {
        None | Some("bench") => Scale::Bench,
        Some("smoke") => Scale::Smoke,
        Some("full") => Scale::Full,
        Some(other) => panic!(
            "NB_SCALE must be one of smoke|bench|full, got {other:?} \
             (unset it for bench)"
        ),
    }
}

/// Epoch budgets per scale, mirroring the paper's phase ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epochs {
    /// Baseline training epochs (paper: 160).
    pub vanilla: usize,
    /// Deep-giant epochs before PLT (paper: 160).
    pub giant: usize,
    /// PLT decay epochs `E_d` (paper: 40).
    pub plt: usize,
    /// Post-contraction finetune epochs (paper: 110).
    pub finetune: usize,
    /// Downstream tuning epochs (PLT takes 20% of these).
    pub tuning: usize,
}

/// The epoch preset for a scale.
pub fn epochs(scale: Scale) -> Epochs {
    match scale {
        Scale::Smoke => Epochs {
            vanilla: 2,
            giant: 1,
            plt: 1,
            finetune: 1,
            tuning: 2,
        },
        Scale::Bench => Epochs {
            vanilla: 8,
            giant: 14,
            plt: 2,
            finetune: 5,
            tuning: 5,
        },
        Scale::Full => Epochs {
            vanilla: 32,
            giant: 20,
            plt: 5,
            finetune: 14,
            tuning: 16,
        },
    }
}

/// The standard optimizer/data hyperparameters for pretraining runs.
pub fn pretrain_cfg(scale: Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: epochs(scale).vanilla,
        batch_size: 64,
        lr: 0.1,
        momentum: 0.9,
        weight_decay: 4e-5,
        grad_clip: 10.0,
        label_smoothing: 0.0,
        seed,
        augment: Augment::standard(),
        eval_batch: 64,
        // only the final accuracy feeds the tables; skip per-epoch evals
        eval_every: 1000,
    }
}

/// The standard downstream finetuning hyperparameters.
pub fn tuning_cfg(scale: Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: epochs(scale).tuning,
        lr: 0.02,
        ..pretrain_cfg(scale, seed)
    }
}

/// The NetBooster phase budget for a scale.
pub fn nb_config(scale: Scale, seed: u64) -> NetBoosterConfig {
    let e = epochs(scale);
    NetBoosterConfig::with_epochs(e.giant, e.plt, e.finetune, pretrain_cfg(scale, seed))
}

/// The four networks of paper Table I, with the resolution tags the paper
/// prints.
pub fn table1_zoo(classes: usize) -> Vec<(&'static str, TnnConfig)> {
    vec![
        ("MobileNetV2-Tiny (r=144)", mobilenet_v2_tiny(classes)),
        ("MCUNet (r=176)", mcunet_like(classes)),
        ("MobileNetV2-50 (r=160)", mobilenet_v2_50(classes)),
        ("MobileNetV2-100 (r=160)", mobilenet_v2_100(classes)),
    ]
}

/// Deterministic RNG for an experiment.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Prints the standard experiment banner.
pub fn announce(what: &str, scale: Scale) {
    println!("== {what} ==");
    println!(
        "scale: {scale:?} (set NB_SCALE=smoke|bench|full) — synthetic stand-in datasets, \
         see DESIGN.md for the substitution map\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_the_three_presets() {
        for (raw, scale) in [
            (None, Scale::Bench),
            (Some("smoke"), Scale::Smoke),
            (Some("bench"), Scale::Bench),
            (Some("full"), Scale::Full),
            (Some(" full "), Scale::Full),
        ] {
            assert_eq!(parse_scale(raw), scale, "NB_SCALE={raw:?}");
        }
    }

    #[test]
    #[should_panic(expected = "NB_SCALE must be one of smoke|bench|full, got \"ful\"")]
    fn scale_rejects_typos() {
        parse_scale(Some("ful"));
    }

    #[test]
    fn epoch_presets_ordered() {
        let s = epochs(Scale::Smoke);
        let b = epochs(Scale::Bench);
        let f = epochs(Scale::Full);
        assert!(s.vanilla < b.vanilla && b.vanilla < f.vanilla);
        assert!(b.giant + b.plt + b.finetune >= b.vanilla);
    }

    #[test]
    fn zoo_has_four_networks() {
        let zoo = table1_zoo(10);
        assert_eq!(zoo.len(), 4);
        assert!(zoo.iter().all(|(_, c)| c.classes == 10));
    }

    #[test]
    fn configs_consistent() {
        let cfg = nb_config(Scale::Smoke, 1);
        let e = epochs(Scale::Smoke);
        assert_eq!(cfg.giant_epochs, e.giant);
        assert_eq!(cfg.plt_epochs, e.plt);
        assert_eq!(cfg.finetune_epochs, e.finetune);
    }
}
