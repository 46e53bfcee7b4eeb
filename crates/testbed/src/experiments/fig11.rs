//! Figure 11: the battery-depletion attack — probability that an
//! unauthorized command elicits an IMD reply, by location, with the shield
//! absent vs present.
//!
//! §10.3(a): the adversary uses a commercial IMD programmer (FCC-compliant
//! power) and replays recorded commands. Paper: without the shield the
//! attack succeeds out to 14 m (location 8, success 0.59, with locations
//! 6–7 at 0.94/0.77); with the shield it fails everywhere, even at 20 cm.

use crate::report::{Artifact, Series};
use crate::scenario::{ImdModel, ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::therapy::TherapyParams;

use super::Effort;

/// What a single attack attempt is trying to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackGoal {
    /// Trigger a reply (depletes the battery; leaks data).
    ElicitReply,
    /// Change therapy parameters.
    ChangeTherapy,
}

/// Outcome of one attack attempt.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackOutcome {
    /// The IMD executed the command / replied.
    pub success: bool,
    /// The shield raised an alarm (always false when absent).
    pub alarm: bool,
    /// The shield engaged active jamming.
    pub jammed: bool,
}

/// Runs one attack attempt from numbered location `location` and reports
/// the outcome.
///
/// A fresh scenario is built per attempt (fresh shadowing), which is what
/// turns marginal locations into fractional success probabilities.
pub fn attack_once(
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    seed: u64,
) -> AttackOutcome {
    let placement = crate::layout::Fig6Layout::paper()
        .location(location)
        .placement("attacker");
    attack_once_at(placement, shield_on, attacker_cfg, goal, seed)
}

/// [`attack_once`] from an arbitrary placement — the mobile-adversary
/// sweep walks the attacker through positions that are not numbered
/// Fig. 6 locations.
pub fn attack_once_at(
    placement: hb_channel::geometry::Placement,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    seed: u64,
) -> AttackOutcome {
    let mut cfg = if shield_on {
        ScenarioConfig::paper(seed)
    } else {
        ScenarioConfig::paper_no_shield(seed)
    };
    // The paper evaluates both devices and pools the results (§10);
    // alternate between them by seed.
    cfg.imd_model = ImdModel::for_seed(seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let atk_ant = builder.add_at(placement);
    let mut scenario = builder.build();
    let mut attacker = ActiveAttacker::new(attacker_cfg.clone(), atk_ant);

    let cmd = match goal {
        AttackGoal::ElicitReply => Command::Interrogate,
        AttackGoal::ChangeTherapy => {
            let mut p = TherapyParams::nominal();
            p.rate_ppm = 150; // a dangerous but in-range setting
            Command::SetTherapy(p)
        }
    };
    let serial = scenario.imd.config().serial;
    let channel = scenario.channel();
    // Give the shield a little idle time first (its probe cycle), then
    // attack.
    let start = scenario.medium.tick() + 64;
    attacker.send_forged_command(start, channel, serial, cmd);
    // Command (~20 ms) + reply window + jam tails: 90 ms covers it.
    scenario.run_seconds(&mut [&mut attacker as &mut dyn Node], 0.090);

    let success = match goal {
        AttackGoal::ElicitReply => scenario.imd.stats.responses_sent > 0,
        AttackGoal::ChangeTherapy => scenario.imd.stats.therapy_changes > 0,
    };
    let (alarm, jammed) = scenario
        .shield
        .as_ref()
        .map(|s| (s.stats.alarms > 0, s.stats.active_jam_events > 0))
        .unwrap_or((false, false));
    AttackOutcome {
        success,
        alarm,
        jammed,
    }
}

/// Success probability over `attempts` fresh scenarios.
pub fn success_probability(
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    attempts: usize,
    seed: u64,
) -> f64 {
    let mut successes = 0usize;
    for a in 0..attempts {
        let s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((location * 1000 + a) as u64);
        if attack_once(location, shield_on, attacker_cfg, goal, s).success {
            successes += 1;
        }
    }
    successes as f64 / attempts as f64
}

/// Adaptive success-probability estimate: one attack attempt per trial,
/// grown in deterministic rounds until the Wilson interval reaches the
/// effort's half-width target — capped at the effort's attempt budget, so
/// the degenerate arms (success ≈ 0 or ≈ 1, whose intervals tighten
/// slowly) cost no more than the legacy fixed-sample sweep. Runs on
/// `workers` threads (location sweeps fan out across locations and run
/// each arm single-worker).
pub fn success_probability_ci_with(
    workers: usize,
    location: usize,
    shield_on: bool,
    attacker_cfg: &AttackerConfig,
    goal: AttackGoal,
    effort: &super::Effort,
    seed: u64,
) -> crate::montecarlo::Estimate {
    let cfg = crate::montecarlo::McConfig::from_effort(effort)
        .with_max_trials(effort.attempts_per_location);
    crate::montecarlo::Runner::new(workers)
        .proportions(&cfg, seed, |s| {
            [(
                attack_once(location, shield_on, attacker_cfg, goal, s).success as u64,
                1,
            )]
        })
        .estimates[0]
}

/// Result of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// (location, P[IMD replies]) with the shield absent.
    pub absent: Vec<(usize, f64)>,
    /// Same with the shield present.
    pub present: Vec<(usize, f64)>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs locations 1..=14 (as in the paper's figure), both arms. Locations
/// fan out on the sweep runner; per-attempt seeds are derived from
/// `(seed, location, attempt)` inside `success_probability`, so results
/// are identical at any thread count.
pub fn run(effort: Effort, seed: u64) -> Fig11Result {
    let cfg = AttackerConfig::commercial_programmer();
    let arms: Vec<(f64, f64)> = crate::parallel::parallel_map_n(14, |i| {
        let loc = i + 1;
        (
            success_probability(
                loc,
                false,
                &cfg,
                AttackGoal::ElicitReply,
                effort.attempts_per_location,
                seed,
            ),
            success_probability(
                loc,
                true,
                &cfg,
                AttackGoal::ElicitReply,
                effort.attempts_per_location,
                seed ^ 0xABCD,
            ),
        )
    });
    let mut absent = Vec::new();
    let mut present = Vec::new();
    for (i, &(off, on)) in arms.iter().enumerate() {
        absent.push((i + 1, off));
        present.push((i + 1, on));
    }
    let mut artifact = Artifact::new(
        "Figure 11",
        "P(IMD replies to unauthorized command) by location — battery-depletion attack at FCC power",
    );
    artifact.push_series(Series::new(
        "shield absent",
        absent.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    artifact.push_series(Series::new(
        "shield present",
        present.iter().map(|&(l, p)| (l as f64, p)).collect(),
    ));
    let max_present = present.iter().map(|&(_, p)| p).fold(0.0, f64::max);
    let range_absent = absent.iter().filter(|&&(_, p)| p > 0.5).count();
    artifact.note(format!(
        "shield absent: success at {range_absent} of 14 locations (paper: 8, up to 14 m); \
         shield present: max success {max_present:.2} (paper: 0 everywhere)"
    ));
    Fig11Result {
        absent,
        present,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct Fig11Experiment;

impl crate::experiments::registry::Experiment for Fig11Experiment {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn reproduces(&self) -> &'static str {
        "Fig. 11 — battery-depletion attack success probability"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_attack_succeeds_without_shield_and_fails_with() {
        let cfg = AttackerConfig::commercial_programmer();
        let off = attack_once(1, false, &cfg, AttackGoal::ElicitReply, 1);
        assert!(off.success, "20 cm attack must succeed with no shield");
        let mut on_successes = 0;
        for s in 0..3 {
            let on = attack_once(1, true, &cfg, AttackGoal::ElicitReply, 100 + s);
            assert!(on.jammed, "shield must engage jamming");
            if on.success {
                on_successes += 1;
            }
        }
        assert_eq!(on_successes, 0, "shield must block the FCC-power attack");
    }

    #[test]
    fn far_attack_fails_even_without_shield() {
        let cfg = AttackerConfig::commercial_programmer();
        let far = attack_once(18, false, &cfg, AttackGoal::ElicitReply, 5);
        assert!(!far.success, "30 m NLOS attack at FCC power must fail");
    }
}
