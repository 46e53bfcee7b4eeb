//! Cross-defense conformance suite: every [`Defense`] in the matrix is
//! held to the same contract, with each security assertion made exactly
//! where the defense claims it ([`DefenseClaims`]) and nowhere else.
//!
//! * **Determinism** — a defended exchange is bit-for-bit reproducible
//!   (transmit log, stats, battery energy), and pooled Monte-Carlo
//!   estimates over defended trials are identical at 1 and 4 workers.
//! * **Authentication** — for every defense claiming
//!   `authenticates_commands`, the forged-command success interval over
//!   ~80 fresh scenarios excludes everything above 0.05.
//! * **Drain gating** — for every defense claiming `gates_battery_drain`,
//!   a 16-command drain burst leaves the implant's radio energy bounded
//!   (bounds sized from the `calibrate_defense_*` truth printers across
//!   seeds, not one lucky stream).
//! * **Legacy equivalence** — [`ShieldDefense`] behind the trait is
//!   *bitwise* identical to the legacy `relay_one_exchange` engine
//!   (proptest over seeds and eavesdropper positions), which is why the
//!   golden suite needs no re-capture.

use hb_adversary::active::{ActiveAttacker, AttackerConfig};
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::therapy::TherapyParams;
use hb_testbed::defense::{run_defended_exchange, Defense, DefenseStats, ShieldDefense, DEFENSES};
use hb_testbed::experiments::relay_one_exchange;
use hb_testbed::montecarlo::{McConfig, Runner};
use hb_testbed::scenario::{ImdModel, Scenario, ScenarioBuilder, ScenarioConfig};
use proptest::prelude::*;

/// The statistical tests honor `HB_TEST_SEED` (CI sweeps it).
fn test_seed(default: u64) -> u64 {
    std::env::var("HB_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Paper config with the usual model alternation and the defense's edits.
fn defended_config(defense: &dyn Defense, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(seed);
    cfg.imd_model = if seed.is_multiple_of(2) {
        ImdModel::VirtuosoIcd
    } else {
        ImdModel::ConcertoCrt
    };
    defense.configure(&mut cfg);
    cfg
}

/// Everything observable about one defended exchange, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    tx: Vec<(u64, Vec<u8>, Vec<u8>)>,
    stats: (u64, u64, u64, u64, u64, u64),
    defense: DefenseStats,
    energy_bits: u64,
    end_tick: u64,
    delivered: bool,
}

/// Runs one clean defended `Interrogate` exchange and fingerprints it.
fn exchange_fingerprint(defense: &dyn Defense, seed: u64) -> Fingerprint {
    let cfg = defended_config(defense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut rig = defense.install(&mut builder);
    let mut scenario = builder.build();
    let report = run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [],
        Command::Interrogate,
        0.120,
    );
    fingerprint_of(&mut scenario, report.delivered, report.stats)
}

fn fingerprint_of(scenario: &mut Scenario, delivered: bool, defense: DefenseStats) -> Fingerprint {
    let tx = scenario
        .imd
        .take_tx_log()
        .into_iter()
        .map(|r| (r.start_tick, r.bits, r.payload))
        .collect();
    let s = &scenario.imd.stats;
    Fingerprint {
        tx,
        stats: (
            s.commands_executed,
            s.responses_sent,
            s.therapy_changes,
            s.auth_rejects,
            s.wake_tokens_accepted,
            s.wake_dropped,
        ),
        defense,
        energy_bits: scenario.imd.battery().radio_energy_j().to_bits(),
        end_tick: scenario.medium.tick(),
        delivered,
    }
}

/// One forged-therapy attempt against a defended exchange: commercial
/// programmer at 20 cm, fired after the legitimate exchange settles
/// (matching the defense-matrix forger row). True iff therapy changed.
fn forge_once(defense: &dyn Defense, seed: u64) -> bool {
    let cfg = defended_config(defense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut rig = defense.install(&mut builder);
    let atk_ant = builder.add_at(
        hb_testbed::layout::Fig6Layout::paper()
            .location(1)
            .placement("attacker"),
    );
    let mut scenario = builder.build();
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), atk_ant);
    let serial = scenario.imd.config().serial;
    let channel = scenario.channel();
    let block_len = scenario.medium.config().block_len as u64;
    let start = scenario.medium.tick() + scenario.medium.blocks_for_duration(0.110) * block_len;
    let mut p = TherapyParams::nominal();
    p.rate_ppm = 150;
    attacker.send_forged_command(start, channel, serial, Command::SetTherapy(p));
    run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut attacker as &mut dyn Node],
        Command::Interrogate,
        0.180,
    );
    scenario.imd.stats.therapy_changes > 0
}

/// One 16-command drain burst against a defended exchange (matching the
/// defense-matrix drain row). Returns the implant's radio energy in mJ.
fn drain_energy_mj(defense: &dyn Defense, seed: u64) -> f64 {
    let cfg = defended_config(defense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut rig = defense.install(&mut builder);
    let atk_ant = builder.add_at(
        hb_testbed::layout::Fig6Layout::paper()
            .location(1)
            .placement("drainer"),
    );
    let mut scenario = builder.build();
    let mut attacker = ActiveAttacker::new(AttackerConfig::commercial_programmer(), atk_ant);
    let serial = scenario.imd.config().serial;
    let channel = scenario.channel();
    let block_len = scenario.medium.config().block_len as u64;
    let spacing = scenario.medium.blocks_for_duration(0.060) * block_len;
    let start = scenario.medium.tick() + scenario.medium.blocks_for_duration(0.110) * block_len;
    for i in 0..16 {
        attacker.send_forged_command(start + i * spacing, channel, serial, Command::Interrogate);
    }
    run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut attacker as &mut dyn Node],
        Command::Interrogate,
        0.110 + 16.0 * 0.060 + 0.080,
    );
    scenario.imd.battery().radio_energy_j() * 1e3
}

#[test]
fn every_defense_delivers_a_clean_exchange() {
    for defense in DEFENSES {
        for s in 0..3u64 {
            let fp = exchange_fingerprint(defense, test_seed(41) ^ s);
            assert!(
                fp.delivered,
                "{} must deliver on a clean channel (seed offset {s})",
                defense.name()
            );
        }
    }
}

#[test]
fn defended_exchanges_are_bit_for_bit_reproducible() {
    for defense in DEFENSES {
        let seed = test_seed(43);
        let a = exchange_fingerprint(defense, seed);
        let b = exchange_fingerprint(defense, seed);
        assert_eq!(a, b, "{} exchange must be deterministic", defense.name());
    }
}

#[test]
fn pooled_estimates_match_across_worker_counts() {
    // The defense-matrix cells ride the adaptive engine; its 1-worker and
    // 4-worker pooled counts over defended trials must agree exactly.
    let seed = test_seed(47);
    for defense in DEFENSES {
        let mc = McConfig {
            initial_trials: 8,
            max_trials: 8,
            target_half_width: 0.01,
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 50,
        };
        let one = Runner::new(1)
            .proportions(&mc, seed, |s| [(forge_once(defense, s) as u64, 1)])
            .estimates[0];
        let four = Runner::new(4)
            .proportions(&mc, seed, |s| [(forge_once(defense, s) as u64, 1)])
            .estimates[0];
        assert_eq!(
            one,
            four,
            "{}: pooled estimate must not depend on worker count",
            defense.name()
        );
    }
}

#[test]
fn auth_claiming_defenses_bound_forged_success_below_5_percent() {
    // Wilson 95% upper bound at 0 successes needs ~80 trials to drop
    // under 0.05 — never assert a rate bound the sample cannot support.
    let seed = test_seed(53);
    for defense in DEFENSES {
        if !defense.claims().authenticates_commands {
            continue;
        }
        let mc = McConfig {
            initial_trials: 80,
            max_trials: 80,
            target_half_width: 0.01,
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 50,
        };
        let est = Runner::new(hb_testbed::parallel_threads())
            .proportions(&mc, seed, |s| [(forge_once(defense, s) as u64, 1)])
            .estimates[0];
        assert!(
            est.below(0.05),
            "{} claims command authentication; forged success {est:?} must exclude 0.05",
            defense.name()
        );
    }
}

#[test]
fn drain_gating_defenses_bound_the_energy_bill() {
    // Truth from calibrate_defense_drain_energy across seeds: shield
    // ~0.48 mJ (the burst is starved), wake-up ~1.93 mJ (a few in-window
    // replies, then the gate closes), IMDfence ~8.17 mJ (a Nak per
    // refusal — it does NOT claim drain gating). Bounds sit 50%+ above
    // the observed ceiling but far below the non-gating defense.
    let seed = test_seed(59);
    let ungated: f64 = DEFENSES
        .iter()
        .filter(|d| !d.claims().gates_battery_drain)
        .map(|d| drain_energy_mj(*d, seed))
        .fold(f64::INFINITY, f64::min);
    for defense in DEFENSES {
        if !defense.claims().gates_battery_drain {
            continue;
        }
        for s in 0..3u64 {
            let mj = drain_energy_mj(defense, seed ^ s);
            assert!(
                mj < 3.0,
                "{} claims drain gating; 16-command burst cost {mj:.3} mJ",
                defense.name()
            );
            assert!(
                mj < ungated / 2.0,
                "{} ({mj:.3} mJ) must spend well under the cheapest \
                 non-gating defense ({ungated:.3} mJ)",
                defense.name()
            );
        }
    }
}

/// Drives the LEGACY path: identical scenario construction, then
/// `relay_one_exchange` twice over 0.060 s windows — the exact engine the
/// golden suite pins.
fn legacy_fingerprint(seed: u64, eve_location: usize) -> Fingerprint {
    let cfg = defended_config(&ShieldDefense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let eve_ant = builder.add_at_location(eve_location, "eve");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    relay_one_exchange(
        &mut scenario,
        &mut [&mut eve as &mut dyn Node],
        Command::Interrogate,
    );
    let delivered = !scenario
        .shield
        .as_mut()
        .expect("shield present")
        .take_responses()
        .is_empty();
    fingerprint_of(&mut scenario, delivered, DefenseStats::default())
}

/// Same exchange through the [`ShieldDefense`] rig.
fn shield_rig_fingerprint(seed: u64, eve_location: usize) -> Fingerprint {
    let cfg = defended_config(&ShieldDefense, seed);
    let mut builder = ScenarioBuilder::new(cfg);
    let mut rig = ShieldDefense.install(&mut builder);
    let eve_ant = builder.add_at_location(eve_location, "eve");
    let mut scenario = builder.build();
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let report = run_defended_exchange(
        &mut scenario,
        &mut rig,
        &mut [&mut eve as &mut dyn Node],
        Command::Interrogate,
        0.060,
    );
    fingerprint_of(&mut scenario, report.delivered, DefenseStats::default())
}

proptest! {
    /// The tentpole's bit-identity contract: ShieldDefense behind the
    /// trait produces the exact transmit log, stats, battery energy, and
    /// medium clock of the legacy engine — for any seed and any
    /// eavesdropper position. This is the proof that no golden artifact
    /// needs re-capture.
    #[test]
    fn shield_defense_is_bitwise_equivalent_to_legacy(
        seed in 0u64..5_000,
        eve_location in 1usize..=18,
    ) {
        let legacy = legacy_fingerprint(seed, eve_location);
        let rig = shield_rig_fingerprint(seed, eve_location);
        prop_assert_eq!(legacy, rig);
    }
}
