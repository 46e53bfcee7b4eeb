//! Extension: the defense matrix — {passive eavesdropper, active forger,
//! battery-drain, mobile walker} × {shield, IMDfence, wake-up radio}.
//!
//! The paper argues for an *external* defense (the shield) partly by
//! listing what in-device alternatives would cost. This experiment puts
//! the alternatives on the same bench: every [`Defense`] in
//! [`crate::defense::DEFENSES`] faces the full adversary suite, and each
//! cell reports three calibrated quantities with confidence intervals:
//!
//! * **Attack success** — what the adversary came for: plaintext
//!   recovery (eavesdropper), an executed forged therapy command
//!   (forger, walker), or the fraction of a 16-command drain burst that
//!   extracted an implant transmission (drain).
//! * **Delivery** — the legitimate exchange completing *in the same
//!   trial*, because a defense that blocks the attacker by also blocking
//!   the clinic is not a defense.
//! * **IMD radio energy** — millijoules per trial; the drain row is where
//!   the defenses separate (the shield starves the attacker, the wake-up
//!   gate ignores them for free, and IMDfence pays a Nak per refusal).
//!
//! Cells fan out on the sweep runner with per-cell master seeds derived
//! before the fan-out, so the matrix is bit-identical at any thread
//! count.

use crate::defense::{run_defended_exchange, Defense, DEFENSES};
use crate::montecarlo::{self, Estimate, McConfig, Runner};
use crate::report::{Artifact, Series};
use crate::scenario::{ImdModel, Scenario, ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::geometry::Placement;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::therapy::TherapyParams;

use super::Effort;

/// The adversaries of the matrix rows, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Passive recording at location 1 (20 cm) with perfect frame timing.
    Eavesdropper,
    /// Forged `SetTherapy` from a commercial programmer at location 1.
    Forger,
    /// 16-command interrogation burst from location 1 over ~1.1 s.
    Drain,
    /// The forger, placed along the mobile walk (waypoint by seed).
    Walker,
}

/// Canonical row order (the artifact's x axis is the index here).
pub const ADVERSARIES: [Adversary; 4] = [
    Adversary::Eavesdropper,
    Adversary::Forger,
    Adversary::Drain,
    Adversary::Walker,
];

impl Adversary {
    /// Row label.
    pub fn label(&self) -> &'static str {
        match self {
            Adversary::Eavesdropper => "eavesdropper",
            Adversary::Forger => "forger",
            Adversary::Drain => "battery-drain",
            Adversary::Walker => "walker",
        }
    }
}

/// When the forger fires, seconds into the exchange: after every
/// defense's clean legitimate exchange has finished (≤ ~105 ms — LBT,
/// handshake, command, reply), so the forged frame meets the defense
/// itself rather than colliding with legitimate traffic — and well
/// inside the wake-up gate's 250 ms window, which is exactly the residue
/// that defense does not claim to close.
const FORGE_AT_S: f64 = 0.110;

/// Forger/walker trial length, seconds.
const FORGE_RUN_S: f64 = 0.180;

/// Drain burst: command count and spacing (one per exchange window).
const DRAIN_COMMANDS: u64 = 16;
const DRAIN_SPACING_S: f64 = 0.060;

/// One matrix trial's raw outcome.
struct Trial {
    /// Attack-success count pair (numerator, denominator).
    attack: (u64, u64),
    /// The legitimate exchange completed.
    delivered: bool,
    /// IMD radio energy spent this trial, millijoules.
    energy_mj: f64,
}

/// Builds a defended scenario: paper config (model alternated by seed
/// parity as everywhere else), the defense's configuration edits, the
/// defense's own nodes, then the adversary antenna — in that order, so
/// the shield arm's build-time RNG draw sequence matches the legacy
/// engine exactly.
fn build_defended(
    defense: &dyn Defense,
    adv_placement: Placement,
    seed: u64,
) -> (
    Scenario,
    crate::defense::DefenseRig,
    hb_channel::medium::AntennaId,
) {
    let mut cfg = ScenarioConfig::paper(seed);
    cfg.imd_model = ImdModel::for_seed(seed);
    defense.configure(&mut cfg);
    let mut builder = ScenarioBuilder::new(cfg);
    let rig = defense.install(&mut builder);
    let ant = builder.add_at(adv_placement);
    let scenario = builder.build();
    (scenario, rig, ant)
}

/// Location-1 placement (20 cm — the paper's hardest near position).
fn near_placement(label: &str) -> Placement {
    crate::layout::Fig6Layout::paper()
        .location(1)
        .placement(label)
}

/// The dangerous-but-in-range forged therapy programming (as in Fig. 12).
fn forged_therapy() -> Command {
    let mut p = TherapyParams::nominal();
    p.rate_ppm = 150;
    Command::SetTherapy(p)
}

/// Eavesdropper trial: records the whole exchange with perfect frame
/// timing, then attempts full frame recovery of every implant
/// transmission. The attack counts only if the recovered payload equals
/// the ground-truth *plaintext* — jam-garbled bits fail the CRC and
/// sealed replies recover to ciphertext, so only an actually-open
/// air interface leaks.
fn eaves_trial(defense: &dyn Defense, seed: u64) -> Trial {
    let (mut scenario, mut rig, ant) = build_defended(defense, near_placement("eve"), seed);
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, ant, scenario.channel());
    let report = run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut eve as &mut dyn Node],
        Command::Interrogate,
        0.120,
    );
    let leaked = scenario.imd.take_tx_log().iter().any(|r| {
        eve.recover_frame(r.start_tick, r.bits.len())
            .is_some_and(|f| f.payload == r.payload)
    });
    Trial {
        attack: (leaked as u64, 1),
        delivered: report.delivered,
        energy_mj: scenario.imd.battery().radio_energy_j() * 1e3,
    }
}

/// Forger trial from `placement`: a forged therapy command fired at
/// [`FORGE_AT_S`] into a legitimate `Interrogate` exchange. Success iff
/// the implant changed therapy.
fn forge_trial_at(defense: &dyn Defense, placement: Placement, seed: u64) -> Trial {
    let (mut scenario, mut rig, ant) = build_defended(defense, placement, seed);
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), ant);
    let serial = scenario.imd.config().serial;
    let channel = scenario.channel();
    let block_len = scenario.medium.config().block_len as u64;
    let start =
        scenario.medium.tick() + scenario.medium.blocks_for_duration(FORGE_AT_S) * block_len;
    attacker.send_forged_command(start, channel, serial, forged_therapy());
    let report = run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut attacker as &mut dyn Node],
        Command::Interrogate,
        FORGE_RUN_S,
    );
    Trial {
        attack: (u64::from(scenario.imd.stats.therapy_changes > 0), 1),
        delivered: report.delivered,
        energy_mj: scenario.imd.battery().radio_energy_j() * 1e3,
    }
}

/// Drain trial: [`DRAIN_COMMANDS`] forged interrogations at
/// [`DRAIN_SPACING_S`] spacing, starting after the legitimate exchange.
/// The attack numerator counts implant transmissions *beyond* the
/// legitimate ones (replies delivered to the rig plus handshake Acks) —
/// every one of them is battery the adversary spent, whether a coerced
/// reply (open air), an in-window reply (wake gate), or an auth Nak
/// (IMDfence's refusal cost).
fn drain_trial(defense: &dyn Defense, seed: u64) -> Trial {
    let (mut scenario, mut rig, ant) = build_defended(defense, near_placement("drainer"), seed);
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), ant);
    let serial = scenario.imd.config().serial;
    let channel = scenario.channel();
    let block_len = scenario.medium.config().block_len as u64;
    let tick0 = scenario.medium.tick();
    let spacing = scenario.medium.blocks_for_duration(DRAIN_SPACING_S) * block_len;
    let start = tick0 + scenario.medium.blocks_for_duration(FORGE_AT_S) * block_len;
    for i in 0..DRAIN_COMMANDS {
        attacker.send_forged_command(start + i * spacing, channel, serial, Command::Interrogate);
    }
    let seconds = FORGE_AT_S + DRAIN_COMMANDS as f64 * DRAIN_SPACING_S + 0.080;
    let report = run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut attacker as &mut dyn Node],
        Command::Interrogate,
        seconds,
    );
    let legit = report.stats.replies_delivered + report.stats.handshakes_completed;
    let extra = scenario.imd.stats.responses_sent.saturating_sub(legit);
    Trial {
        attack: (extra.min(DRAIN_COMMANDS), DRAIN_COMMANDS),
        delivered: report.delivered,
        energy_mj: scenario.imd.battery().radio_energy_j() * 1e3,
    }
}

/// Walker trial: the forger along the mobile walk, waypoint chosen by
/// seed so the cell pools the whole path (NLOS far corner → 20 cm).
fn walker_trial(defense: &dyn Defense, seed: u64) -> Trial {
    let waypoints = super::mobile::path(super::mobile::WAYPOINTS);
    let wp = waypoints[(seed as usize) % waypoints.len()];
    forge_trial_at(defense, wp.placement("walker"), seed)
}

/// Dispatches one trial of `adversary` against `defense`.
fn trial(adversary: Adversary, defense: &dyn Defense, seed: u64) -> Trial {
    match adversary {
        Adversary::Eavesdropper => eaves_trial(defense, seed),
        Adversary::Forger => forge_trial_at(defense, near_placement("attacker"), seed),
        Adversary::Drain => drain_trial(defense, seed),
        Adversary::Walker => walker_trial(defense, seed),
    }
}

/// One cell of the matrix, with confidence intervals.
#[derive(Debug, Clone, Copy)]
pub struct CellEstimate {
    /// P(attack succeeds) — the adversary-specific success criterion.
    pub attack: Estimate,
    /// P(legitimate exchange delivers in the same trial).
    pub delivered: Estimate,
    /// Mean IMD radio energy per trial, millijoules.
    pub energy_mj: Estimate,
}

/// Runs one cell single-worker (the matrix fans out across cells;
/// master seeds are pre-derived by the caller).
fn run_cell(
    adversary: Adversary,
    defense: &dyn Defense,
    effort: &Effort,
    seeds: [u64; 2],
) -> CellEstimate {
    let mc = McConfig::from_effort(effort).with_max_trials(effort.attempts_per_location);
    let runner = Runner::new(1);
    let pooled = runner.proportions(&mc, seeds[0], |s| {
        let t = trial(adversary, defense, s);
        [t.attack, (t.delivered as u64, 1)]
    });
    let energy_mc = mc.with_max_trials((effort.attempts_per_location / 2).max(3));
    let energy_mj = runner.mean(&energy_mc, seeds[1], |s| {
        trial(adversary, defense, s).energy_mj
    });
    CellEstimate {
        attack: pooled.estimates[0],
        delivered: pooled.estimates[1],
        energy_mj,
    }
}

/// Result of the defense-matrix experiment.
#[derive(Debug, Clone)]
pub struct DefenseMatrixResult {
    /// `cells[d][a]`: defense `d` ([`DEFENSES`] order) vs adversary `a`
    /// ([`ADVERSARIES`] order).
    pub cells: Vec<Vec<CellEstimate>>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs the matrix: all 12 cells fan out on the sweep runner with
/// per-cell pre-derived master seeds.
pub fn run(effort: Effort, seed: u64) -> DefenseMatrixResult {
    let n = DEFENSES.len() * ADVERSARIES.len();
    let flat: Vec<CellEstimate> = crate::parallel::parallel_map_n(n, |i| {
        let d = i / ADVERSARIES.len();
        let a = i % ADVERSARIES.len();
        let seeds = [
            montecarlo::trial_seed(seed ^ 0x00DE_F311, i as u64),
            montecarlo::trial_seed(seed ^ 0x00E4_9C05, i as u64),
        ];
        run_cell(ADVERSARIES[a], DEFENSES[d], &effort, seeds)
    });
    let cells: Vec<Vec<CellEstimate>> = DEFENSES
        .iter()
        .enumerate()
        .map(|(d, _)| flat[d * ADVERSARIES.len()..(d + 1) * ADVERSARIES.len()].to_vec())
        .collect();

    let mut artifact = Artifact::new(
        "Extension: defense matrix",
        "Attack success, legitimate delivery, and IMD radio energy for \
         {eavesdropper, forger, battery-drain, walker} × {shield, IMDfence, wake-up radio}",
    );
    let xs = |d: usize, f: fn(&CellEstimate) -> Estimate| -> Vec<(f64, Estimate)> {
        cells[d]
            .iter()
            .enumerate()
            .map(|(a, c)| (a as f64, f(c)))
            .collect()
    };
    for (d, defense) in DEFENSES.iter().enumerate() {
        artifact.push_series(Series::from_estimates(
            &format!("attack success ({})", defense.name()),
            &xs(d, |c| c.attack),
        ));
        artifact.push_series(Series::from_estimates(
            &format!("legitimate delivery ({})", defense.name()),
            &xs(d, |c| c.delivered),
        ));
        artifact.push_series(Series::from_estimates(
            &format!("IMD radio energy, mJ ({})", defense.name()),
            &xs(d, |c| c.energy_mj),
        ));
    }
    artifact.note(format!(
        "x axis: adversary 0..{} = {:?}",
        ADVERSARIES.len() - 1,
        ADVERSARIES.iter().map(|a| a.label()).collect::<Vec<_>>()
    ));
    let drain = ADVERSARIES
        .iter()
        .position(|a| *a == Adversary::Drain)
        .expect("drain row present");
    artifact.note(format!(
        "drain row, mean IMD radio energy per trial: shield {:.3} mJ, imdfence {:.3} mJ \
         (a Nak per refused command), wake-up radio {:.3} mJ (gate closed after the window)",
        cells[0][drain].energy_mj.mean,
        cells[1][drain].energy_mj.mean,
        cells[2][drain].energy_mj.mean,
    ));
    let forger = ADVERSARIES
        .iter()
        .position(|a| *a == Adversary::Forger)
        .expect("forger row present");
    artifact.note(format!(
        "forged therapy success at 20 cm: shield {:.2}, imdfence {:.2}, \
         wake-up radio {:.2} — the gate's open window is exactly the residue it does not claim to close",
        cells[0][forger].attack.mean,
        cells[1][forger].attack.mean,
        cells[2][forger].attack.mean,
    ));
    DefenseMatrixResult { cells, artifact }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct DefenseMatrixExperiment;

impl crate::experiments::registry::Experiment for DefenseMatrixExperiment {
    fn name(&self) -> &'static str {
        "defense-matrix"
    }
    fn reproduces(&self) -> &'static str {
        "Extension — {eavesdropper, forger, battery-drain, walker} × {shield, IMDfence, wake-up radio}"
    }
    fn run(&self, ctx: &crate::experiments::registry::EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{ImdFenceDefense, ShieldDefense, WakeupRadioDefense};

    #[test]
    fn forged_therapy_lands_only_on_the_open_window() {
        // Cryptographic/physical facts that hold at any seed: the shield
        // jams the forged frame, IMDfence never authenticates plaintext,
        // and the wake-up gate's open session window lets it through.
        let seed = super::super::test_seed(83) | 1; // odd → Concerto arm
        let shield = forge_trial_at(&ShieldDefense, near_placement("attacker"), seed);
        assert_eq!(shield.attack.0, 0, "shield must jam the forged frame");
        let fence = forge_trial_at(&ImdFenceDefense, near_placement("attacker"), seed);
        assert_eq!(fence.attack.0, 0, "plaintext must never authenticate");
        let wake = forge_trial_at(&WakeupRadioDefense, near_placement("attacker"), seed);
        assert_eq!(
            wake.attack.0, 1,
            "in-window forgery is the wake gate's documented residue"
        );
    }

    #[test]
    fn drain_burst_separates_the_defenses() {
        let seed = super::super::test_seed(89) & !1; // even → Virtuoso arm
        let shield = drain_trial(&ShieldDefense, seed);
        let fence = drain_trial(&ImdFenceDefense, seed);
        let wake = drain_trial(&WakeupRadioDefense, seed);
        assert_eq!(shield.attack.0, 0, "shield must starve the drain burst");
        assert_eq!(
            fence.attack.0, DRAIN_COMMANDS,
            "every refused command must cost IMDfence a Nak"
        );
        assert!(
            wake.attack.0 < DRAIN_COMMANDS / 2,
            "the gate must drop most of the burst (got {} of {DRAIN_COMMANDS})",
            wake.attack.0
        );
        assert!(
            wake.energy_mj < fence.energy_mj,
            "wake gate must spend less than fence's per-refusal Naks ({} vs {} mJ)",
            wake.energy_mj,
            fence.energy_mj
        );
    }

    #[test]
    fn eavesdropper_reads_only_the_open_air() {
        let seed = super::super::test_seed(97) & !1;
        let shield = eaves_trial(&ShieldDefense, seed);
        assert_eq!(shield.attack.0, 0, "jamming must deny frame recovery");
        let fence = eaves_trial(&ImdFenceDefense, seed);
        assert_eq!(
            fence.attack.0, 0,
            "sealed replies must not recover to plaintext"
        );
        let wake = eaves_trial(&WakeupRadioDefense, seed);
        assert_eq!(
            wake.attack.0, 1,
            "the open window's plaintext is the wake gate's documented leak"
        );
    }

    #[test]
    fn tiny_matrix_is_deterministic() {
        let a = run(Effort::tiny(), 99);
        let b = run(Effort::tiny(), 99);
        assert_eq!(a.artifact.to_csv(), b.artifact.to_csv());
        assert_eq!(a.cells.len(), DEFENSES.len());
        assert!(a.cells.iter().all(|row| row.len() == ADVERSARIES.len()));
    }

    /// Truth printer for sizing the conformance-suite assertions: run
    /// with `cargo test -p hb_testbed calibrate_defense -- --ignored
    /// --nocapture` and read the per-cell numbers before blessing any
    /// bound (never size a CI assertion from one lucky seed — sweep
    /// HB_TEST_SEED).
    #[test]
    #[ignore]
    fn calibrate_defense_matrix_cells() {
        let effort = Effort::quick();
        let seed = super::super::test_seed(20110815);
        for defense in DEFENSES {
            for (a, adversary) in ADVERSARIES.iter().enumerate() {
                let seeds = [
                    montecarlo::trial_seed(seed ^ 0x00DE_F311, a as u64),
                    montecarlo::trial_seed(seed ^ 0x00E4_9C05, a as u64),
                ];
                let cell = run_cell(*adversary, defense, &effort, seeds);
                println!(
                    "{:>12} vs {:>13}: attack {:.3} [{:.3},{:.3}] n={} | delivered {:.3} | energy {:.4} mJ",
                    defense.name(),
                    adversary.label(),
                    cell.attack.mean,
                    cell.attack.ci_lo,
                    cell.attack.ci_hi,
                    cell.attack.n,
                    cell.delivered.mean,
                    cell.energy_mj.mean,
                );
            }
        }
    }

    /// Truth printer for the drain-row energy bound in the conformance
    /// suite: per-defense extra-reply counts and energy at several seeds.
    #[test]
    #[ignore]
    fn calibrate_defense_drain_energy() {
        for s in 0..6u64 {
            let seed = super::super::test_seed(300) ^ s;
            for defense in DEFENSES {
                let t = drain_trial(defense, seed);
                println!(
                    "seed {seed:>20} {:>12}: extra {}/{} | delivered {} | energy {:.4} mJ",
                    defense.name(),
                    t.attack.0,
                    t.attack.1,
                    t.delivered,
                    t.energy_mj,
                );
            }
        }
    }
}
