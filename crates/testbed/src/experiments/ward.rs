//! Extension scenario: a hospital ward with **two shielded patients** in
//! one medium, sharing one MICS channel.
//!
//! The paper evaluates one shield in isolation; a ward has several worn
//! shields on the air at once. Each shield cancels only its *own*
//! jamming (the antidote is built from its own transmit chain, §5), so a
//! neighbouring shield is uncancellable interference — and worse, it is
//! *adversary-shaped* interference: a loud co-channel signal during the
//! shield's own command transmission is exactly what §7(d) tells it to
//! treat as an overwrite attack.
//!
//! Two access patterns, swept over bed separation:
//!
//! * **Collided** — both shields interrogate simultaneously. Each
//!   shield's concurrent-signal guard fires on the other's command, both
//!   abort into active jamming, and each then holds the other's jamming
//!   above its busy threshold: a mutual-jamming deadlock that starves
//!   both relays at any in-ward separation.
//! * **Staggered** — the shields take turns (one full exchange window
//!   apart, as a ward coordinator or MICS listen-before-talk would
//!   enforce). Both relays work and confidentiality holds: to an
//!   eavesdropper between the beds every reply is still jammed to
//!   BER ≈ 0.5.
//!
//! This module is registry-only: it composes [`ScenarioBuilder`] (with
//! [`ScenarioBuilder::add_patient`]) and `Scenario::run_blocks` — no
//! bespoke runner machinery.

use crate::report::{Artifact, Series};
use crate::scenario::{ImdModel, ScenarioBuilder, ScenarioConfig};
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::geometry::Placement;
use hb_imd::commands::Command;

use super::registry::{EvalCtx, Experiment};
use super::{Effort, EveTally};

/// Per-separation measurements.
#[derive(Debug, Clone, Copy)]
pub struct WardRow {
    /// Bed separation, meters.
    pub separation_m: f64,
    /// Staggered access: patient A's shield PER.
    pub per_a_staggered: f64,
    /// Staggered access: patient B's shield PER.
    pub per_b_staggered: f64,
    /// Collided access: worst of the two shields' PER.
    pub per_collided: f64,
    /// Collided access: cross-shield active-jam engagements (each shield
    /// treating the other as an adversary).
    pub cross_jam_events: u64,
    /// Pooled eavesdropper BER over the staggered exchanges.
    pub ber_staggered: f64,
}

/// Packet-loss rate from (replies sent, replies decoded); a relay that
/// never elicited a reply counts as total loss.
fn per(sent: u64, ok: u64) -> f64 {
    if sent == 0 {
        1.0
    } else {
        (1.0 - ok as f64 / sent as f64).max(0.0)
    }
}

/// One bed separation, both access patterns; the eavesdropper stands
/// between the beds, 1.5 m off the bed axis.
pub fn one_separation(separation_m: f64, packets: usize, seed: u64) -> WardRow {
    let build = |seed: u64| {
        let mut builder = ScenarioBuilder::new(ScenarioConfig::paper(seed));
        let pat = builder.add_patient((separation_m, 0.0), ImdModel::ConcertoCrt);
        let eve_ant = builder.add_at(Placement::los("eve", separation_m * 0.5, 1.5));
        (builder.build(), pat, eve_ant)
    };

    // --- Staggered arm: the shields take turns, one exchange window
    //     apart; the eavesdropper listens across the whole session. ---
    let (mut scenario, pat, eve_ant) = build(seed);
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let blocks = scenario.medium.blocks_for_duration(0.060);
    let mut tally = EveTally::default();
    for _ in 0..packets {
        for turn in 0..2usize {
            if turn == 0 {
                scenario
                    .shield
                    .as_mut()
                    .unwrap()
                    .queue_command(Command::Interrogate);
            } else {
                scenario.patients[pat]
                    .shield
                    .queue_command(Command::Interrogate);
            }
            scenario.run_blocks(&mut [&mut eve], blocks);
            tally.score(&eve, scenario.imd.take_tx_log());
            tally.score(&eve, scenario.patients[pat].imd.take_tx_log());
            eve.clear();
        }
    }
    let per_a_staggered = per(
        scenario.imd.stats.responses_sent,
        scenario.shield.as_ref().unwrap().stats.imd_frames_ok,
    );
    let per_b_staggered = per(
        scenario.patients[pat].imd.stats.responses_sent,
        scenario.patients[pat].shield.stats.imd_frames_ok,
    );
    let ber_staggered = tally.ber();

    // --- Collided arm: both shields interrogate simultaneously. ---
    let (mut scenario, pat, _) = build(seed ^ 0xA11D);
    let blocks = scenario.medium.blocks_for_duration(0.120);
    for _ in 0..packets {
        scenario
            .shield
            .as_mut()
            .unwrap()
            .queue_command(Command::Interrogate);
        scenario.patients[pat]
            .shield
            .queue_command(Command::Interrogate);
        scenario.run_blocks(&mut [], blocks);
    }
    let per_collided = per(
        scenario.imd.stats.responses_sent,
        scenario.shield.as_ref().unwrap().stats.imd_frames_ok,
    )
    .max(per(
        scenario.patients[pat].imd.stats.responses_sent,
        scenario.patients[pat].shield.stats.imd_frames_ok,
    ));
    let cross_jam_events = scenario.shield.as_ref().unwrap().stats.active_jam_events
        + scenario.patients[pat].shield.stats.active_jam_events;

    WardRow {
        separation_m,
        per_a_staggered,
        per_b_staggered,
        per_collided,
        cross_jam_events,
        ber_staggered,
    }
}

/// Result of the ward sweep.
#[derive(Debug, Clone)]
pub struct WardResult {
    /// One row per bed separation.
    pub rows: Vec<WardRow>,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Runs the separation sweep (0.75 m — beds pushed together — to 6 m —
/// opposite walls). Separations fan out on the sweep runner with
/// pre-derived seeds, so results are thread-count-invariant.
pub fn run(effort: Effort, seed: u64) -> WardResult {
    let separations = [0.75, 1.5, 3.0, 6.0];
    let rows: Vec<WardRow> = crate::parallel::parallel_map(&separations, |i, &d| {
        one_separation(
            d,
            effort.packets_per_location,
            seed.wrapping_add(i as u64 * 211),
        )
    });

    let mut artifact = Artifact::new(
        "Extension: ward",
        "Two shielded patients on one channel: staggered vs collided access, by bed separation",
    );
    artifact.push_series(Series::new(
        "staggered: patient A shield PER vs separation (m)",
        rows.iter()
            .map(|r| (r.separation_m, r.per_a_staggered))
            .collect(),
    ));
    artifact.push_series(Series::new(
        "staggered: patient B shield PER vs separation (m)",
        rows.iter()
            .map(|r| (r.separation_m, r.per_b_staggered))
            .collect(),
    ));
    artifact.push_series(Series::new(
        "collided: worst shield PER vs separation (m)",
        rows.iter()
            .map(|r| (r.separation_m, r.per_collided))
            .collect(),
    ));
    artifact.push_series(Series::new(
        "staggered: eavesdropper BER vs separation (m)",
        rows.iter()
            .map(|r| (r.separation_m, r.ber_staggered))
            .collect(),
    ));
    let worst_staggered = rows
        .iter()
        .map(|r| r.per_a_staggered.max(r.per_b_staggered))
        .fold(0.0, f64::max);
    let cross_jams: u64 = rows.iter().map(|r| r.cross_jam_events).sum();
    artifact.note(format!(
        "collided access deadlocks: each shield's §7(d) concurrent-signal guard treats the \
         other's command as an overwrite attack ({cross_jams} cross-shield active jams), and \
         the mutual jamming then starves both relays at every in-ward separation"
    ));
    artifact.note(format!(
        "staggered access (one exchange window apart) is the viable ward protocol: worst \
         shield PER {worst_staggered:.3} across separations"
    ));
    let ber_min = rows
        .iter()
        .map(|r| r.ber_staggered)
        .fold(f64::MAX, f64::min);
    artifact.note(format!(
        "confidentiality holds in the ward: eavesdropper BER never drops below {ber_min:.3}"
    ));
    WardResult { rows, artifact }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct WardExperiment;

impl Experiment for WardExperiment {
    fn name(&self) -> &'static str {
        "ward-multi-imd"
    }
    fn reproduces(&self) -> &'static str {
        "Extension — two shielded patients in one ward (cross-shield interference)"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_relays_collided_deadlocks() {
        let row = one_separation(1.5, 4, 29);
        assert!(
            row.per_a_staggered < 0.5,
            "staggered patient A PER {} at 1.5 m",
            row.per_a_staggered
        );
        assert!(
            row.per_b_staggered < 0.5,
            "staggered patient B PER {} at 1.5 m",
            row.per_b_staggered
        );
        assert!(
            row.per_collided > 0.5,
            "collided access should starve the relays (PER {})",
            row.per_collided
        );
        assert!(
            row.cross_jam_events > 0,
            "the shields should have treated each other as adversaries"
        );
        assert!(
            (row.ber_staggered - 0.5).abs() < 0.12,
            "ward eavesdropper BER {} must stay ~0.5",
            row.ber_staggered
        );
    }

    #[test]
    fn sweep_reports_every_separation() {
        let r = run(
            Effort {
                packets_per_location: 2,
                ..Effort::tiny()
            },
            31,
        );
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!((0.0..=1.0).contains(&row.per_a_staggered));
            assert!((0.0..=1.0).contains(&row.per_b_staggered));
            assert!((0.0..=1.0).contains(&row.per_collided));
            assert!(
                (row.ber_staggered - 0.5).abs() < 0.15,
                "BER {} at {} m",
                row.ber_staggered,
                row.separation_m
            );
        }
    }
}
