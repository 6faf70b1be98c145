//! The NetAug baseline (Cai et al., 2021): width-only augmentation.
//!
//! NetAug embeds the tiny network in a wider supernet; every step trains the
//! base sub-network's loss plus an auxiliary loss through the full width.
//! At the end the augmented channels are *dropped* (the base slice is
//! extracted) — exactly the "directly remove the supernet" behaviour the
//! NetBooster paper contrasts with its contraction.

use crate::trainer::{fit, History, NoHooks, TrainConfig};
use nb_data::SyntheticVision;
use nb_models::{TinyNet, TnnConfig};
use nb_nn::{CompiledPlan, Module, Session};
use rand::Rng;

/// NetAug hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetAugConfig {
    /// Supernet width multiplier over the base network.
    pub width_factor: f32,
    /// Weight of the auxiliary (full-width) loss.
    pub aux_weight: f32,
}

impl Default for NetAugConfig {
    fn default() -> Self {
        // aux weight 0.5 converges noticeably faster than 1.0 at the short
        // CPU budgets this reproduction runs (the base loss stays primary)
        NetAugConfig {
            width_factor: 1.5,
            aux_weight: 0.5,
        }
    }
}

/// Trains `base_cfg` with NetAug and returns the extracted base network
/// plus its history.
pub fn train_netaug(
    base_cfg: &TnnConfig,
    train: &SyntheticVision,
    val: &SyntheticVision,
    cfg: &TrainConfig,
    na: &NetAugConfig,
    rng: &mut impl Rng,
) -> (TinyNet, History) {
    let super_cfg = base_cfg
        .width_scaled(na.width_factor)
        .with_classes(base_cfg.classes);
    let supernet = TinyNet::new(super_cfg, rng);
    let mut loss_fn = |s: &mut Session, batch: &nb_data::Batch| {
        let x = s.input(batch.images.clone());
        let base_logits = supernet.forward_subnet(s, x, base_cfg);
        // the auxiliary full-width forward must not pollute the running
        // statistics the deployed sub-network evaluates with
        s.update_bn_stats = false;
        let full_logits = supernet.forward(s, x);
        s.update_bn_stats = true;
        let base_ce =
            s.graph
                .softmax_cross_entropy(base_logits, &batch.labels, cfg.label_smoothing);
        let aux_ce = s
            .graph
            .softmax_cross_entropy(full_logits, &batch.labels, cfg.label_smoothing);
        let aux = s.graph.scale(aux_ce, na.aux_weight);
        s.graph.add(base_ce, aux)
    };
    // Compiled fresh per eval batch: the plan snapshots weights and running
    // statistics, which keep moving between epochs during training. The
    // compile step re-slices the base-subnet weights once per batch.
    let eval = |imgs: &nb_tensor::Tensor| {
        CompiledPlan::compile(imgs.dims(), |f, x| supernet.forward_subnet(f, x, base_cfg)).run(imgs)
    };
    let history = fit(
        supernet.parameters(),
        train,
        val,
        cfg,
        &mut loss_fn,
        &eval,
        &mut NoHooks,
    );
    let base = supernet.extract_subnet(base_cfg, rng);
    (base, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::evaluate;
    use nb_data::recipe::{Family, Nuisance};
    use nb_data::{Augment, Split};
    use nb_models::mobilenet_v2_tiny;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn netaug_trains_and_extracted_model_matches_subnet_eval() {
        let mut rng = StdRng::seed_from_u64(0);
        let mk = |split| {
            SyntheticVision::new("n", Family::Objects, 2, 12, 16, Nuisance::easy(), 6, split)
        };
        let (train, val) = (mk(Split::Train), mk(Split::Val));
        let mut base = mobilenet_v2_tiny(2);
        base.blocks.truncate(2);
        base.head_c = 12;
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 0.05,
            augment: Augment::none(),
            ..TrainConfig::default()
        };
        let (extracted, h) = train_netaug(
            &base,
            &train,
            &val,
            &cfg,
            &NetAugConfig::default(),
            &mut rng,
        );
        assert_eq!(h.val_acc.len(), 2);
        // extracted standalone accuracy equals the subnet-eval accuracy of
        // the final supernet state
        let acc = evaluate(&|imgs| extracted.logits_eval(imgs), &val, 8);
        assert!(
            (acc - h.final_val_acc()).abs() < 1e-3,
            "{acc} vs {}",
            h.final_val_acc()
        );
        assert_eq!(extracted.config.blocks, base.blocks);
    }
}
