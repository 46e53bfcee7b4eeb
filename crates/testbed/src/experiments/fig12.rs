//! Figure 12: the therapy-modification attack — probability that an
//! unauthorized command *changes the IMD's treatment parameters*, by
//! location, shield absent vs present.
//!
//! §10.3(a): same setup as Fig. 11 with the more dangerous command. The
//! paper found "no statistical difference in success rate between commands
//! that modify the patient's treatment and commands that trigger the IMD
//! to transmit" — our reproduction exhibits the same, since both ride the
//! same physical layer.

use crate::montecarlo::{self, Estimate};
use crate::report::{Artifact, Series};
use hb_adversary::active::AttackerConfig;

use super::fig11::{success_probability_ci_with, AttackGoal};
use super::Effort;

/// Result of the Fig. 12 experiment.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// (location, P[treatment changed]) with the shield absent.
    pub absent: Vec<(usize, f64)>,
    /// Same with the shield present.
    pub present: Vec<(usize, f64)>,
    /// Per-location estimates with CIs, shield absent.
    pub absent_est: Vec<(usize, Estimate)>,
    /// Per-location estimates with CIs, shield present.
    pub present_est: Vec<(usize, Estimate)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs locations 1..=14, both arms, through the adaptive engine — fanned
/// out on the sweep runner with per-arm master seeds derived before the
/// fan-out (thread-count-invariant; see Fig. 11), each arm's adaptive
/// loop single-worker.
pub fn run(effort: Effort, seed: u64) -> Fig12Result {
    let cfg = AttackerConfig::commercial_programmer();
    let arms: Vec<(Estimate, Estimate)> = crate::parallel::parallel_map_n(14, |i| {
        let loc = i + 1;
        (
            success_probability_ci_with(
                1,
                loc,
                false,
                &cfg,
                AttackGoal::ChangeTherapy,
                &effort,
                montecarlo::trial_seed(seed.wrapping_add(7777), loc as u64),
            ),
            success_probability_ci_with(
                1,
                loc,
                true,
                &cfg,
                AttackGoal::ChangeTherapy,
                &effort,
                montecarlo::trial_seed(seed ^ 0x5A5A, loc as u64),
            ),
        )
    });
    let mut absent_est = Vec::new();
    let mut present_est = Vec::new();
    for (i, &(off, on)) in arms.iter().enumerate() {
        absent_est.push((i + 1, off));
        present_est.push((i + 1, on));
    }
    let absent: Vec<(usize, f64)> = absent_est.iter().map(|&(l, e)| (l, e.mean)).collect();
    let present: Vec<(usize, f64)> = present_est.iter().map(|&(l, e)| (l, e.mean)).collect();
    let mut artifact = Artifact::new(
        "Figure 12",
        "P(IMD changes treatment on unauthorized command) by location — therapy attack at FCC power",
    );
    artifact.push_series(Series::from_estimates(
        "shield absent",
        &absent_est
            .iter()
            .map(|&(l, e)| (l as f64, e))
            .collect::<Vec<_>>(),
    ));
    artifact.push_series(Series::from_estimates(
        "shield present",
        &present_est
            .iter()
            .map(|&(l, e)| (l as f64, e))
            .collect::<Vec<_>>(),
    ));
    let max_present = present.iter().map(|&(_, p)| p).fold(0.0, f64::max);
    let max_present_hi = present_est
        .iter()
        .map(|&(_, e)| e.ci_hi)
        .fold(0.0, f64::max);
    artifact.note(format!(
        "shield present: max success {max_present:.2}, worst-case upper confidence bound \
         {max_present_hi:.2} (paper: ~0 everywhere); success profile mirrors Fig. 11 — \
         same physical layer, different payload"
    ));
    Fig12Result {
        absent,
        present,
        absent_est,
        present_est,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig12Experiment;

impl crate::experiments::registry::Experiment for Fig12Experiment {
    fn name(&self) -> &'static str {
        "fig12"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 12 — therapy-change attack success probability"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::super::fig11::attack_once;
    use super::*;

    #[test]
    fn therapy_change_blocked_by_shield() {
        let cfg = AttackerConfig::commercial_programmer();
        let off = attack_once(2, false, &cfg, AttackGoal::ChangeTherapy, 31);
        assert!(off.success, "therapy attack must land without the shield");
        let on = attack_once(2, true, &cfg, AttackGoal::ChangeTherapy, 31);
        assert!(!on.success, "therapy attack must be jammed with the shield");
    }

    #[test]
    fn shield_bounds_therapy_success_with_confidence() {
        // The CI form of "shield present: ~0 everywhere": over adaptively
        // grown fresh-scenario attempts at 30 cm, the whole Wilson
        // interval must stay below 0.35 (12 clean attempts put the upper
        // bound at 0.24; even one success keeps it under the bar) — for
        // any `HB_TEST_SEED`.
        let cfg = AttackerConfig::commercial_programmer();
        let effort = Effort {
            attempts_per_location: 12,
            ci_half_width: 0.10,
            mc_max_trials: 12,
            ..Effort::tiny()
        };
        let est = super::super::fig11::success_probability_ci_with(
            crate::parallel::threads(),
            2,
            true,
            &cfg,
            AttackGoal::ChangeTherapy,
            &effort,
            super::super::test_seed(31),
        );
        assert!(
            est.below(0.35),
            "therapy-change success CI must stay near zero with the shield: {est:?}"
        );
        assert_eq!(est.n, 12, "the degenerate arm must run to its attempt cap");
    }
}
