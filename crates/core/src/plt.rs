//! Step 2 — Progressive Linearization Tuning (paper Sec. III-D).
//!
//! PLT sweeps the decay slope `alpha` of every activation inside the
//! inserted blocks from 0 to 1, uniformly per iteration, over `E_d` epochs
//! (paper: `E_d = 40` on ImageNet, 20% of tuning epochs downstream). Once
//! every slope reaches 1 the inserted blocks are affine and contraction is
//! exact.

use nb_nn::layers::Slope;

/// The shape of the decay trajectory `alpha(progress)`.
///
/// The paper increases `alpha` uniformly per iteration
/// ([`Linear`](DecayCurve::Linear)); the other curves are reproduction
/// extensions ablated by the `ablation_plt` experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecayCurve {
    /// `alpha = p` — the paper's uniform per-iteration increase.
    #[default]
    Linear,
    /// `alpha = (1 - cos(pi p)) / 2` — slow start and finish.
    Cosine,
    /// `alpha = p^2` — keeps non-linearity longer, decays late.
    Quadratic,
    /// `alpha = ceil(4p)/4` — four abrupt plateaus.
    Staircase,
}

impl DecayCurve {
    /// Maps progress `p` in `[0, 1]` to the decay value `alpha`.
    pub fn alpha(self, p: f32) -> f32 {
        let p = p.clamp(0.0, 1.0);
        match self {
            DecayCurve::Linear => p,
            DecayCurve::Cosine => 0.5 * (1.0 - (std::f32::consts::PI * p).cos()),
            DecayCurve::Quadratic => p * p,
            DecayCurve::Staircase => {
                if p == 0.0 {
                    0.0
                } else {
                    (4.0 * p).ceil() / 4.0
                }
            }
        }
    }
}

/// Drives a set of slopes from 0 to 1 over a fixed number of optimization
/// steps, following a [`DecayCurve`] (linear by default, as in the paper).
#[derive(Debug)]
pub struct PltDriver {
    slopes: Vec<Slope>,
    total_steps: usize,
    step: usize,
    curve: DecayCurve,
}

impl PltDriver {
    /// A driver that reaches `alpha = 1` after `total_steps` calls to
    /// [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// Panics if `total_steps == 0`.
    pub fn new(slopes: Vec<Slope>, total_steps: usize) -> Self {
        assert!(total_steps > 0, "PLT needs at least one step");
        PltDriver {
            slopes,
            total_steps,
            step: 0,
            curve: DecayCurve::Linear,
        }
    }

    /// Replaces the decay curve (builder style).
    #[must_use]
    pub fn with_curve(mut self, curve: DecayCurve) -> Self {
        self.curve = curve;
        self
    }

    /// The active decay curve.
    pub fn curve(&self) -> DecayCurve {
        self.curve
    }

    /// Convenience: a driver spanning `e_d` epochs of `steps_per_epoch`.
    ///
    /// # Panics
    ///
    /// Panics if the product is zero.
    pub fn over_epochs(slopes: Vec<Slope>, e_d: usize, steps_per_epoch: usize) -> Self {
        Self::new(slopes, e_d * steps_per_epoch)
    }

    /// Current decay value.
    pub fn alpha(&self) -> f32 {
        self.curve
            .alpha((self.step as f32 / self.total_steps as f32).min(1.0))
    }

    /// Advances one optimization step, updating every slope (paper Eq. 2:
    /// alpha increases uniformly per iteration).
    pub fn step(&mut self) {
        self.step = (self.step + 1).min(self.total_steps);
        let a = self.alpha();
        for s in &self.slopes {
            s.set(a);
        }
    }

    /// True once every slope has decayed to the identity.
    pub fn is_done(&self) -> bool {
        self.step >= self.total_steps
    }

    /// Immediately forces every slope to 1 (used by tests and by
    /// contraction safety checks).
    pub fn finish(&mut self) {
        self.step = self.total_steps;
        for s in &self.slopes {
            s.set(1.0);
        }
    }

    /// Number of slopes under control.
    pub fn slope_count(&self) -> usize {
        self.slopes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_ramp() {
        let slopes = vec![Slope::new(), Slope::new()];
        let mut d = PltDriver::new(slopes.clone(), 4);
        assert_eq!(d.alpha(), 0.0);
        d.step();
        assert!((slopes[0].get() - 0.25).abs() < 1e-6);
        d.step();
        d.step();
        assert!((slopes[1].get() - 0.75).abs() < 1e-6);
        assert!(!d.is_done());
        d.step();
        assert!(d.is_done());
        assert_eq!(slopes[0].get(), 1.0);
    }

    #[test]
    fn step_past_end_clamps() {
        let s = Slope::new();
        let mut d = PltDriver::new(vec![s.clone()], 2);
        for _ in 0..10 {
            d.step();
        }
        assert_eq!(s.get(), 1.0);
        assert_eq!(d.alpha(), 1.0);
    }

    #[test]
    fn finish_forces_linearization() {
        let s = Slope::new();
        let mut d = PltDriver::over_epochs(vec![s.clone()], 5, 10);
        assert_eq!(d.slope_count(), 1);
        d.finish();
        assert!(d.is_done());
        assert!(s.is_linearized());
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        PltDriver::new(vec![], 0);
    }

    #[test]
    fn curves_share_endpoints_and_stay_bounded() {
        for curve in [
            DecayCurve::Linear,
            DecayCurve::Cosine,
            DecayCurve::Quadratic,
            DecayCurve::Staircase,
        ] {
            assert_eq!(curve.alpha(0.0), 0.0, "{curve:?} start");
            assert!((curve.alpha(1.0) - 1.0).abs() < 1e-6, "{curve:?} end");
            let mut prev = 0.0;
            for i in 0..=20 {
                let a = curve.alpha(i as f32 / 20.0);
                assert!((0.0..=1.0).contains(&a), "{curve:?} bounded");
                assert!(a >= prev - 1e-6, "{curve:?} monotone");
                prev = a;
            }
        }
    }

    #[test]
    fn cosine_curve_drives_slopes() {
        let s = Slope::new();
        let mut d = PltDriver::new(vec![s.clone()], 2).with_curve(DecayCurve::Cosine);
        assert_eq!(d.curve(), DecayCurve::Cosine);
        d.step();
        assert!((s.get() - 0.5).abs() < 1e-6); // cos curve midpoint
        d.step();
        assert!(s.is_linearized());
    }

    #[test]
    fn staircase_has_plateaus() {
        let c = DecayCurve::Staircase;
        assert_eq!(c.alpha(0.1), 0.25);
        assert_eq!(c.alpha(0.25), 0.25);
        assert_eq!(c.alpha(0.26), 0.5);
        assert_eq!(c.alpha(0.9), 1.0);
    }
}
