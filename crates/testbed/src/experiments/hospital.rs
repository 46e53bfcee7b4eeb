//! Extension scenario: a **full hospital floor** — 50 shielded patients
//! (100 devices) sharing one medium, with an eavesdropper and an active
//! attacker on the ward.
//!
//! This is the deployment scale the shield concept ultimately targets
//! (IMDfence and e-SAFE both evaluate IMD security in multi-device
//! clinical settings) and the scenario the sparse culled [`Medium`]
//! engine unlocks: 150+ antennas would be O(n²) per block on the dense
//! engine, but with a finite cull margin each receiver only mixes the
//! links that can clear its noise floor.
//!
//! Layout and protocol:
//!
//! * Beds on a 10 × 5 grid (2 m × 2.5 m pitch). Every patient wears a
//!   shield over their implant; serials are assigned codeword-style
//!   (pairwise Hamming distance above the shields' `Sid` match
//!   tolerance — see `ward_serial`) and the
//!   population is spread across all 10 MICS channels (5 co-channel
//!   patients each), as a real ward coordinator would assign them.
//! * **Monitoring arm** — the channel-0 cohort (5 beds) is interrogated
//!   in staggered turns, one exchange window apart (the viable ward
//!   protocol established by the `ward-multi-imd` collision study). An
//!   eavesdropper in the middle of the floor records every channel-0
//!   reply; confidentiality requires BER ≈ 0.5 on all of them.
//! * **Attack arm** — a fresh floor with an active attacker at the
//!   primary patient's bedside forging `Interrogate` at the primary's
//!   serial. The shield must hold the attack off even with 49 other
//!   shields on the air.
//!
//! The scenario runs strictly sequentially (no intra-experiment
//! fan-out), so artifacts are bit-identical at any `HB_THREADS`.
//!
//! [`Medium`]: hb_channel::medium::Medium

use crate::report::{Artifact, Series};
use crate::scenario::{Scenario, ScenarioBuilder, ScenarioConfig};
use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::geometry::Placement;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::models::ImdConfig;
use hb_phy::packet::Serial;

use super::registry::{EvalCtx, Experiment};
use super::{Effort, EveTally};

/// Patients on the floor, primary included (2 devices each: implant +
/// worn shield — 100 devices total).
pub const FLOOR_PATIENTS: usize = 50;
/// MICS channels the population is spread across.
const FLOOR_CHANNELS: usize = 10;
/// Pathloss-culling margin for the floor medium, dB over each receiver's
/// noise floor. No transmitter on the floor exceeds −16 dBm, so a culled
/// link (|H|² < floor + 12 dB) can only ever deliver sub-floor power.
const FLOOR_CULL_MARGIN_DB: f64 = 12.0;

/// Bed position of patient `i` on the 10 × 5 grid.
fn bed_position(i: usize) -> (f64, f64) {
    ((i % 10) as f64 * 2.0, (i / 10) as f64 * 2.5)
}

/// Ward serial for bed `i`, with pairwise Hamming distance ≥ 10 bits.
///
/// The serial is load-bearing at ward scale: every shield watches *all*
/// channels for its implant's identifying sequence `Sid` (preamble +
/// sync + serial) tolerating `bthresh = 4` bit errors, so near-identical
/// serials — sequential decimals differ by as little as 2 bits — make
/// each exchange trip the *neighbours'* active protection, and their
/// jamming corrupts the monitored command. A ward coordinator must
/// assign serials like codewords: here each bed's 2-character code
/// (alphabet with pairwise character distance ≥ 2 bits) is repeated five
/// times, so distinct beds differ by ≥ 2 × 5 = 10 bits > `bthresh`.
fn ward_serial(i: usize) -> Serial {
    const ALPHABET: [u8; 8] = *b"ABDGHKMN";
    let hi = ALPHABET[(i / 8) % 8];
    let lo = ALPHABET[i % 8];
    Serial([hi, lo, hi, lo, hi, lo, hi, lo, hi, lo])
}

/// Device profile for bed `i` (i ≥ 1): unique ward serial, alternating
/// Virtuoso/Concerto models, channel `i mod 10`.
fn ward_imd_cfg(i: usize) -> ImdConfig {
    let channel = i % FLOOR_CHANNELS;
    let mut cfg = if i.is_multiple_of(2) {
        ImdConfig::virtuoso_icd(channel)
    } else {
        ImdConfig::concerto_crt(channel)
    };
    cfg.serial = ward_serial(i);
    cfg
}

/// The floor's scenario configuration: paper defaults plus the finite
/// cull margin that makes 150+ antennas tractable.
fn floor_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        cull_margin_db: FLOOR_CULL_MARGIN_DB,
        ..ScenarioConfig::paper(seed)
    }
}

/// A builder with the primary patient at bed 0 and the other 49 beds
/// populated. The primary keeps the paper's Virtuoso profile on
/// channel 0; the channel-0 cohort is beds {0, 10, 20, 30, 40}.
fn floor_builder(seed: u64) -> ScenarioBuilder {
    let mut builder = ScenarioBuilder::new(floor_config(seed));
    for i in 1..FLOOR_PATIENTS {
        builder.add_patient_cfg(bed_position(i), ward_imd_cfg(i));
    }
    builder
}

/// Per-monitored-bed measurements from the staggered monitoring arm.
#[derive(Debug, Clone, Copy)]
pub struct BedRow {
    /// Bed index on the floor (0 = the primary patient).
    pub bed: usize,
    /// The bed's shield relay PER over the arm.
    pub per: f64,
    /// Pooled eavesdropper BER over the bed's replies.
    pub ber: f64,
}

/// Result of one full floor evaluation.
#[derive(Debug, Clone)]
pub struct HospitalResult {
    /// One row per monitored (channel-0) bed.
    pub rows: Vec<BedRow>,
    /// Fraction of tx/rx pairs that survived culling.
    pub audible_fraction: f64,
    /// Antennas on the floor (implants + shield pairs + adversaries).
    pub antennas: usize,
    /// Attack arm: forged-command successes out of attempts.
    pub attack_successes: usize,
    /// Attack arm: attempts made.
    pub attack_attempts: usize,
    /// Attack arm: attempts in which the primary shield engaged jamming.
    pub attack_jammed: usize,
    /// Rendered artifact.
    pub artifact: Artifact,
}

/// Packet-loss rate from (replies sent, replies decoded).
fn per(sent: u64, ok: u64) -> f64 {
    if sent == 0 {
        1.0
    } else {
        (1.0 - ok as f64 / sent as f64).max(0.0)
    }
}

/// The monitoring arm: `rounds` staggered interrogation rounds over the
/// channel-0 cohort, with the eavesdropper mid-floor. Returns the rows
/// plus the built scenario's audibility census.
fn monitoring_arm(rounds: usize, seed: u64) -> (Vec<BedRow>, f64, usize) {
    let mut builder = floor_builder(seed);
    let eve_ant = builder.add_at(Placement::los("eve", 9.0, 5.0));
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let blocks = scenario.medium.blocks_for_duration(0.060);

    // Channel-0 cohort: the primary (bed 0) plus beds 10/20/30/40, which
    // sit at patients-vec indices bed−1.
    let monitored: Vec<usize> = (0..FLOOR_PATIENTS)
        .filter(|i| i % FLOOR_CHANNELS == 0)
        .collect();
    let mut tallies = vec![EveTally::default(); monitored.len()];

    for _ in 0..rounds {
        for (slot, &bed) in monitored.iter().enumerate() {
            if bed == 0 {
                scenario
                    .shield
                    .as_mut()
                    .unwrap()
                    .queue_command(Command::Interrogate);
            } else {
                scenario.patients[bed - 1]
                    .shield
                    .queue_command(Command::Interrogate);
            }
            scenario.run_blocks(&mut [&mut eve], blocks);
            let log = if bed == 0 {
                scenario.imd.take_tx_log()
            } else {
                scenario.patients[bed - 1].imd.take_tx_log()
            };
            tallies[slot].score(&eve, log);
            eve.clear();
        }
    }

    let rows = monitored
        .iter()
        .enumerate()
        .map(|(slot, &bed)| {
            let (sent, ok) = if bed == 0 {
                (
                    scenario.imd.stats.responses_sent,
                    scenario.shield.as_ref().unwrap().stats.imd_frames_ok,
                )
            } else {
                (
                    scenario.patients[bed - 1].imd.stats.responses_sent,
                    scenario.patients[bed - 1].shield.stats.imd_frames_ok,
                )
            };
            BedRow {
                bed,
                per: per(sent, ok),
                ber: tallies[slot].ber(),
            }
        })
        .collect();

    let stats = scenario.medium.cull_stats();
    let audible_fraction = stats.audible_pairs as f64 / stats.total_pairs.max(1) as f64;
    (rows, audible_fraction, scenario.medium.antenna_count())
}

/// The attack arm: one fresh floor per attempt, an active attacker at
/// the primary's bedside forging `Interrogate` at the primary's serial.
/// Returns (successes, jammed count).
fn attack_arm(attempts: usize, seed: u64) -> (usize, usize) {
    let cfg = AttackerConfig::commercial_programmer();
    let mut successes = 0usize;
    let mut jammed = 0usize;
    for a in 0..attempts {
        let mut builder = floor_builder(seed.wrapping_add(a as u64 * 9176));
        let atk_ant = builder.add_at(Placement::los("attacker", 0.3, 0.5));
        let mut scenario = builder.build();
        let mut attacker = ActiveAttacker::new(cfg.clone(), atk_ant);
        let serial = scenario.imd.config().serial;
        let channel = scenario.channel();
        let start = scenario.medium.tick() + 64;
        attacker.send_forged_command(start, channel, serial, Command::Interrogate);
        scenario.run_seconds(&mut [&mut attacker as &mut dyn Node], 0.090);
        if scenario.imd.stats.responses_sent > 0 {
            successes += 1;
        }
        if scenario.shield.as_ref().unwrap().stats.active_jam_events > 0 {
            jammed += 1;
        }
    }
    (successes, jammed)
}

/// Runs the full floor evaluation: the staggered monitoring arm over the
/// channel-0 cohort, then the bedside attack arm. Strictly sequential —
/// bit-identical at any thread count.
pub fn run(effort: Effort, seed: u64) -> HospitalResult {
    let (rows, audible_fraction, antennas) = monitoring_arm(effort.packets_per_location, seed);
    let (attack_successes, attack_jammed) =
        attack_arm(effort.attempts_per_location, seed.wrapping_add(0x0F100D));
    let attack_attempts = effort.attempts_per_location;

    let mut artifact = Artifact::new(
        "Extension: hospital floor",
        "50 shielded patients (100 devices) on one floor: staggered channel-0 monitoring \
         with an eavesdropper mid-ward, plus a bedside forged-command attack",
    );
    artifact.push_series(Series::new(
        "staggered: shield relay PER vs bed index",
        rows.iter().map(|r| (r.bed as f64, r.per)).collect(),
    ));
    artifact.push_series(Series::new(
        "eavesdropper BER vs bed index",
        rows.iter().map(|r| (r.bed as f64, r.ber)).collect(),
    ));
    artifact.push_series(Series::new(
        "bedside forged-interrogate success rate",
        vec![(0.0, attack_successes as f64 / attack_attempts.max(1) as f64)],
    ));
    let worst_per = rows.iter().map(|r| r.per).fold(0.0, f64::max);
    let ber_min = rows.iter().map(|r| r.ber).fold(f64::MAX, f64::min);
    artifact.note(format!(
        "floor scale: {FLOOR_PATIENTS} patients (100 devices, {antennas} antennas) across \
         {FLOOR_CHANNELS} MICS channels; pathloss culling at +{FLOOR_CULL_MARGIN_DB} dB over \
         the noise floor keeps {:.1}% of tx/rx pairs audible",
        audible_fraction * 100.0
    ));
    artifact.note(format!(
        "staggered channel-0 monitoring works at floor scale: worst shield PER {worst_per:.3} \
         across the cohort"
    ));
    artifact.note(format!(
        "confidentiality holds mid-ward: eavesdropper BER never drops below {ber_min:.3}"
    ));
    artifact.note(format!(
        "bedside forged Interrogate at the primary's serial: {attack_successes}/{attack_attempts} \
         successes, shield engaged active jamming in {attack_jammed}/{attack_attempts} attempts"
    ));
    HospitalResult {
        rows,
        audible_fraction,
        antennas,
        attack_successes,
        attack_attempts,
        attack_jammed,
        artifact,
    }
}

/// Registry entry: [`run`] as a first-class experiment.
pub struct HospitalFloorExperiment;

impl Experiment for HospitalFloorExperiment {
    fn name(&self) -> &'static str {
        "ward-hospital-floor"
    }
    fn reproduces(&self) -> &'static str {
        "Extension — 50 shielded patients (100 devices) on one hospital floor"
    }
    fn run(&self, ctx: &EvalCtx) -> Artifact {
        run(ctx.effort, ctx.seed).artifact
    }
}

/// The floor builder, exposed for the bench harness (the
/// `medium_block_64ant`/`128ant` kernels time the same culled geometry
/// this experiment runs).
pub fn bench_floor_scenario(seed: u64) -> Scenario {
    floor_builder(seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_has_ward_scale_and_culls_pairs() {
        let s = bench_floor_scenario(3);
        // 50 implants + 100 shield antennas.
        assert_eq!(s.medium.antenna_count(), 150);
        assert_eq!(s.patients.len(), FLOOR_PATIENTS - 1);
        let stats = s.medium.cull_stats();
        let frac = stats.audible_pairs as f64 / stats.total_pairs as f64;
        assert!(
            frac < 0.95,
            "a floor-scale medium should cull a share of pairs (audible {frac:.2})"
        );
        assert!(
            frac > 0.01,
            "each bed's own links must stay audible (audible {frac:.2})"
        );
        // Every shield must still hear its own implant.
        for p in &s.patients {
            assert!(s
                .medium
                .pair_audible(p.imd.antenna(), p.shield.rx_antenna()));
        }
    }

    #[test]
    fn serials_are_unique_and_hamming_distant() {
        let mut serials: Vec<_> = (1..FLOOR_PATIENTS)
            .map(|i| ward_imd_cfg(i).serial)
            .collect();
        serials.push(ImdConfig::virtuoso_icd(0).serial);
        // Pairwise Hamming distance must exceed the shield's Sid match
        // tolerance (bthresh = 4), or neighbours cross-jam each other's
        // exchanges.
        for (a, sa) in serials.iter().enumerate() {
            for sb in &serials[a + 1..] {
                let dist: u32 =
                    sa.0.iter()
                        .zip(&sb.0)
                        .map(|(&x, &y)| (x ^ y).count_ones())
                        .sum();
                assert!(
                    dist > 4,
                    "serials {sa:?} and {sb:?} are only {dist} bits apart"
                );
            }
        }
    }

    #[test]
    fn monitoring_relays_and_jams_the_eavesdropper() {
        let (rows, audible, antennas) = monitoring_arm(2, super::super::test_seed(41));
        assert_eq!(rows.len(), 5);
        assert!(antennas > 150);
        assert!(audible < 1.0);
        for row in &rows {
            assert!(
                row.per < 0.5,
                "bed {} shield PER {} should relay under staggered access",
                row.bed,
                row.per
            );
            assert!(
                (row.ber - 0.5).abs() < 0.15,
                "bed {} eavesdropper BER {} must stay ~0.5",
                row.bed,
                row.ber
            );
        }
    }

    #[test]
    fn bedside_attack_is_blocked_at_floor_scale() {
        let (successes, jammed) = attack_arm(2, super::super::test_seed(47));
        assert_eq!(successes, 0, "shield must block the bedside forgery");
        assert!(jammed > 0, "shield must engage active jamming");
    }
}
