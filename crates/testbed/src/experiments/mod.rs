//! One module per table/figure of the paper's evaluation (§10–§11), plus
//! ablations and extension scenarios. Each module exposes a typed
//! `run(effort, seed)` entry point *and* a zero-sized
//! [`registry::Experiment`] entry struct; the [`registry`] lists every
//! entry so drivers (the `full_evaluation` example, the `hb_eval` CLI)
//! never hard-code experiment names.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`fig3`]  | Fig. 3 — IMD reply timing; no carrier sense |
//! | [`fig4`]  | Fig. 4 — FSK power profile of the IMD |
//! | [`fig5`]  | Fig. 5 — shaped vs constant jamming profile |
//! | [`fig7`]  | Fig. 7 — antenna-cancellation CDF (~32 dB) |
//! | [`fig8`]  | Fig. 8 — eavesdropper BER / shield PER vs jam power |
//! | [`fig9`]  | Fig. 9 — eavesdropper BER CDF over all locations |
//! | [`fig10`] | Fig. 10 — shield packet-loss CDF (~0.2%) |
//! | [`fig11`] | Fig. 11 — battery-depletion attack success probability |
//! | [`fig12`] | Fig. 12 — therapy-change attack success probability |
//! | [`fig13`] | Fig. 13 — 100×-power adversary + alarm |
//! | [`table1`]| Table 1 — Pthresh calibration |
//! | [`table2`]| Table 2 — coexistence & turn-around time |
//! | [`ablation`] | Design-choice ablations (shaped vs flat jamming, G sweep, turn-around, wearability, RF impairments) |
//! | [`battery`] | Extension: quantified battery-depletion attack |
//! | [`ward`] | Extension: two shielded patients in one ward |
//! | [`hospital`] | Extension: 50 shielded patients (100 devices) on one hospital floor |
//! | [`mobile`] | Extension: adversary walking a path through the layout |
//! | [`resilience`] | Extension: resilience matrix — ARQ + session recovery vs channel faults |
//! | [`defense_matrix`] | Extension: defense matrix — adversary suite × {shield, IMDfence, wake-up radio} |

pub mod ablation;
pub mod battery;
pub mod defense_matrix;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hospital;
pub mod mobile;
pub mod registry;
pub mod resilience;
pub mod table1;
pub mod table2;
pub mod ward;

use crate::scenario::Scenario;
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::medium::AntennaId;
use hb_channel::sim::Node;
use hb_imd::commands::Command;
use hb_imd::device::TxRecord;

/// Experiment sizing: `quick` keeps unit tests and CI fast; `full`
/// approaches the paper's sample counts.
///
/// The `ci_half_width`/`mc_max_trials` pair is the adaptive Monte-Carlo
/// knob ([`crate::montecarlo`]): statistical experiments stop growing
/// their sample as soon as every tracked confidence interval is at least
/// that tight, and never run past the trial cap — so `full` buys interval
/// precision, not a fixed (possibly wasteful) sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Effort {
    /// IMD packets observed per eavesdropper location (Figs. 8–10).
    pub packets_per_location: usize,
    /// Attack attempts per location per arm (Figs. 11–13).
    pub attempts_per_location: usize,
    /// Repetitions for calibration-style measurements (Fig. 7, Table 1).
    pub runs: usize,
    /// Target CI half-width for adaptive Monte-Carlo experiments.
    pub ci_half_width: f64,
    /// Trial-task cap per adaptive Monte-Carlo data point.
    pub mc_max_trials: usize,
}

impl Effort {
    /// Small but statistically meaningful (seconds per experiment).
    pub fn quick() -> Self {
        Effort {
            packets_per_location: 12,
            attempts_per_location: 10,
            runs: 40,
            ci_half_width: 0.05,
            mc_max_trials: 48,
        }
    }

    /// Paper-scale sampling (minutes per experiment).
    pub fn full() -> Self {
        Effort {
            packets_per_location: 100,
            attempts_per_location: 60,
            runs: 200,
            ci_half_width: 0.015,
            mc_max_trials: 1024,
        }
    }

    /// Minimum sizing for unit tests.
    pub fn tiny() -> Self {
        Effort {
            packets_per_location: 3,
            attempts_per_location: 3,
            runs: 8,
            ci_half_width: 0.12,
            mc_max_trials: 8,
        }
    }

    /// Looks up a preset by its CLI name (`quick`, `full`, `tiny`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            "tiny" => Some(Self::tiny()),
            _ => None,
        }
    }
}

/// The seed the statistical unit tests run under: `HB_TEST_SEED` if set
/// (CI's seed-robustness job sweeps it to prove the CI-based assertions
/// hold for *any* seed, not one lucky stream), otherwise `default`.
#[doc(hidden)]
pub fn test_seed(default: u64) -> u64 {
    std::env::var("HB_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Drives one shield-relayed exchange: queues `cmd` on the shield, then
/// runs until the jam window closes (one command + reply + guard time).
///
/// Returns the number of blocks run, or
/// [`ExchangeError::NoShield`](crate::recovery::ExchangeError::NoShield)
/// when the scenario has no relay path — misconfiguration is an error
/// for the caller to surface, not a panic.
pub fn try_relay_one_exchange(
    scenario: &mut Scenario,
    extra: &mut [&mut dyn Node],
    cmd: Command,
) -> Result<u64, crate::recovery::ExchangeError> {
    let shield = scenario
        .shield
        .as_mut()
        .ok_or(crate::recovery::ExchangeError::NoShield)?;
    shield.queue_command(cmd);
    // Command (20.5 ms) + T2 (3.7 ms) + reply (≤21 ms) + jam-window tail
    // and margin: 60 ms covers the full exchange comfortably.
    let blocks = scenario.medium.blocks_for_duration(0.060);
    scenario.run_blocks(extra, blocks);
    Ok(blocks)
}

/// [`try_relay_one_exchange`] for callers that just built a shielded
/// scenario; panics if the shield is missing.
pub fn relay_one_exchange(
    scenario: &mut Scenario,
    extra: &mut [&mut dyn Node],
    cmd: Command,
) -> u64 {
    try_relay_one_exchange(scenario, extra, cmd).expect("relay_one_exchange needs a shield")
}

/// What an eavesdropper made of the IMD's replies over a run of relayed
/// exchanges: the raw counts each experiment turns into its own BER.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EveTally {
    /// Reply bits the eavesdropper decoded wrong.
    pub bit_errors: u64,
    /// Reply bits the IMD sent.
    pub bits: u64,
    /// Replies the IMD sent.
    pub replies: u64,
}

impl EveTally {
    /// The `(bit_errors, bits)` pair an adaptive trial reports.
    pub fn counts(&self) -> (u64, u64) {
        (self.bit_errors.min(self.bits), self.bits)
    }

    /// Scores `eve` against every reply in `log` (an IMD's drained TX
    /// log).
    pub fn score(&mut self, eve: &Eavesdropper, log: Vec<TxRecord>) {
        for record in log {
            let ber = eve.ber_against(record.start_tick, &record.bits);
            self.bit_errors += (ber * record.bits.len() as f64).round() as u64;
            self.bits += record.bits.len() as u64;
            self.replies += 1;
        }
    }

    /// Bit-error rate; 0.5 (a guess) when the IMD sent nothing.
    pub fn ber(&self) -> f64 {
        if self.bits > 0 {
            self.bit_errors as f64 / self.bits as f64
        } else {
            0.5
        }
    }
}

/// The eavesdropper trial body of Figs. 8–9 and the ablations: relays
/// `exchanges` interrogations through the scenario's shield with an
/// eavesdropper listening on `eve_ant`, and counts its bit errors against
/// every reply the IMD sent.
pub(crate) fn eavesdrop(scenario: &mut Scenario, eve_ant: AntennaId, exchanges: usize) -> EveTally {
    let mut eve = Eavesdropper::new(scenario.imd.config().fsk, eve_ant, scenario.channel());
    let mut tally = EveTally::default();
    for _ in 0..exchanges {
        relay_one_exchange(scenario, &mut [&mut eve], Command::Interrogate);
        tally.score(&eve, scenario.imd.take_tx_log());
        eve.clear();
    }
    tally
}
