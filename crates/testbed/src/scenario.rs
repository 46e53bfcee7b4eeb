//! Scenario assembly: wires the IMD, shield, and attacker/eavesdropper
//! devices into a medium with the calibrated channel model, and provides
//! the two-phase run loop.
//!
//! Every experiment builds one or more scenarios through
//! [`ScenarioBuilder`]; rebuilding per repetition (with a fresh seed)
//! redraws shadowing and coupling phases, which is what makes marginal
//! locations produce fractional success probabilities, as in the paper's
//! Figs. 11–13.

use crate::layout::Fig6Layout;
use hb_channel::fading::Fading;
use hb_channel::fault::FaultPlan;
use hb_channel::geometry::Placement;
use hb_channel::medium::{AntennaId, Medium, MediumConfig};
use hb_channel::pathloss::PathlossModel;
use hb_channel::sim::Node;
use hb_imd::device::ImdDevice;
use hb_imd::models::{ImdConfig, SecurityMode};
use hb_imd::wakeup::WakeConfig;
use hb_shield::shield::{Shield, ShieldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which IMD model the scenario protects (the paper evaluates both and
/// pools the results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImdModel {
    /// Medtronic Virtuoso DR ICD.
    VirtuosoIcd,
    /// Medtronic Concerto CRT.
    ConcertoCrt,
}

impl ImdModel {
    /// The device a seeded trial protects: the paper evaluates both
    /// devices and pools the results (§10), so trials alternate between
    /// them by seed parity.
    pub fn for_seed(seed: u64) -> Self {
        if seed.is_multiple_of(2) {
            ImdModel::VirtuosoIcd
        } else {
            ImdModel::ConcertoCrt
        }
    }

    /// The device configuration for this model.
    pub fn config(&self, channel: usize) -> ImdConfig {
        match self {
            ImdModel::VirtuosoIcd => ImdConfig::virtuoso_icd(channel),
            ImdModel::ConcertoCrt => ImdConfig::concerto_crt(channel),
        }
    }
}

/// Scenario-level configuration (the calibrated constants of DESIGN.md).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Session channel.
    pub channel: usize,
    /// Which IMD is implanted.
    pub imd_model: ImdModel,
    /// Whether the shield is worn.
    pub shield_enabled: bool,
    /// Pathloss model.
    pub pathloss: PathlossModel,
    /// Small-scale fading statistics for over-the-air links.
    pub fading: Fading,
    /// IMD receiver noise floor, dBm. Implant receivers are
    /// noise-figure-limited (~16 dB NF): −103 dBm over a 300 kHz channel.
    /// This sets the shield-absent attack range (~14 m at FCC power).
    pub imd_noise_floor_dbm: f64,
    /// Overrides applied to the shield configuration, if any.
    pub shield_tweak: Option<fn(&mut ShieldConfig)>,
    /// Jamming margin override (Fig. 8 sweeps this).
    pub jam_margin_db: Option<f64>,
    /// Air-side coupling between the shield's (body-contact) antennas and
    /// the implant, dB. A worn antenna pressed against the chest couples
    /// into tissue ~6 dB better than the 27 dB far-field floor any
    /// stand-off adversary is limited to — this contact advantage is what
    /// lets an FCC-power shield out-jam an FCC-power adversary at the IMD
    /// (Fig. 11/12) while the 100× adversary still wins up close (Fig. 13).
    pub shield_body_coupling_db: f64,
    /// Pathloss-culling margin handed to [`MediumConfig::cull_margin_db`].
    /// `−∞` (the paper default) reproduces the dense engine bit for bit;
    /// ward-scale experiments set a finite margin so the O(n²) pair walk
    /// only touches audible links.
    pub cull_margin_db: f64,
    /// Deterministic channel-fault plan. The dropout/storm fields are
    /// forwarded to the medium; the shield-outage fields are forwarded to
    /// every installed shield's [`ShieldConfig::outage`]. The default
    /// ([`FaultPlan::none`]) is bit-identical to a fault-free build.
    pub fault: FaultPlan,
    /// Protocol-security posture of the primary implant's firmware. The
    /// paper default ([`SecurityMode::Open`]) leaves the device exactly
    /// as the golden-pinned engine models it; the defense experiments
    /// flip it to study IMDfence-style in-device sessions.
    pub imd_security: SecurityMode,
    /// Zero-power wake-up gate on the primary implant (`None`, the paper
    /// default, is the stock always-on receiver).
    pub imd_wake: Option<WakeConfig>,
}

impl ScenarioConfig {
    /// Paper-faithful defaults.
    pub fn paper(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            channel: 0,
            imd_model: ImdModel::VirtuosoIcd,
            shield_enabled: true,
            pathloss: PathlossModel::mics_indoor(),
            fading: Fading::None,
            imd_noise_floor_dbm: -103.0,
            shield_tweak: None,
            jam_margin_db: None,
            shield_body_coupling_db: 21.0,
            cull_margin_db: f64::NEG_INFINITY,
            fault: FaultPlan::none(),
            imd_security: SecurityMode::Open,
            imd_wake: None,
        }
    }

    /// Same, without the shield (the "Shield Absent" bars).
    pub fn paper_no_shield(seed: u64) -> Self {
        ScenarioConfig {
            shield_enabled: false,
            ..Self::paper(seed)
        }
    }
}

/// An additional shielded patient sharing the medium (ward scenarios):
/// their own implant plus the shield worn over it.
pub struct Patient {
    /// The patient's implant.
    pub imd: ImdDevice,
    /// The shield worn over it.
    pub shield: Shield,
}

/// A built scenario: medium + IMD + optional shield, with helpers to add
/// adversary antennas and drive the loop.
pub struct Scenario {
    /// The shared medium.
    pub medium: Medium,
    /// The protected device.
    pub imd: ImdDevice,
    /// The shield, when worn.
    pub shield: Option<Shield>,
    /// Additional shielded patients in the same medium (empty outside
    /// ward scenarios), in [`ScenarioBuilder::add_patient`] order.
    pub patients: Vec<Patient>,
    /// The layout used.
    pub layout: Fig6Layout,
}

/// A patient added via [`ScenarioBuilder::add_patient`], waiting for
/// `build` to construct the device.
struct PendingPatient {
    imd_ant: AntennaId,
    imd_cfg: hb_imd::models::ImdConfig,
    shield: Shield,
}

/// Builder that must know all antennas before link gains are drawn.
pub struct ScenarioBuilder {
    cfg: ScenarioConfig,
    medium: Medium,
    layout: Fig6Layout,
    imd_ant: AntennaId,
    shield: Option<Shield>,
    patients: Vec<PendingPatient>,
    rng: StdRng,
}

impl ScenarioBuilder {
    /// Starts a scenario: places the IMD at the origin (in body) and the
    /// shield (if enabled) at the necklace offset.
    pub fn new(cfg: ScenarioConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layout = Fig6Layout::paper();
        let medium_cfg = MediumConfig {
            cull_margin_db: cfg.cull_margin_db,
            fault: cfg.fault,
            ..MediumConfig::default()
        };
        let mut medium = Medium::new(medium_cfg, rng.gen());
        let imd_ant = medium.add_antenna(Placement::los("imd", 0.0, 0.0).implanted());

        let shield = if cfg.shield_enabled {
            Some(install_shield(
                &cfg,
                &mut medium,
                &mut rng,
                cfg.imd_model.config(cfg.channel).serial,
                cfg.channel,
                imd_ant,
                (layout.shield_offset_m, 0.0),
            ))
        } else {
            None
        };

        ScenarioBuilder {
            cfg,
            medium,
            layout,
            imd_ant,
            shield,
            patients: Vec::new(),
            rng,
        }
    }

    /// Adds a second shielded patient to the medium: their implant at
    /// `offset_m` plus a shield worn at the necklace offset beside it,
    /// with the same body-contact coupling treatment as the primary
    /// patient. Returns the index into [`Scenario::patients`].
    ///
    /// Use a `model` whose serial differs from the primary patient's so
    /// each shield relays only to its own implant (ward scenarios pair a
    /// Virtuoso with a Concerto, as a real ward would mix devices).
    pub fn add_patient(&mut self, offset_m: (f64, f64), model: ImdModel) -> usize {
        self.add_patient_cfg(offset_m, model.config(self.cfg.channel))
    }

    /// [`add_patient`](Self::add_patient) with an explicit device
    /// configuration: ward-scale scenarios hand every bed a unique serial
    /// (so each shield relays only to its own implant) and spread the
    /// population across MICS channels. The shield is installed on the
    /// implant's own channel, which may differ from the scenario's session
    /// channel.
    pub fn add_patient_cfg(&mut self, offset_m: (f64, f64), imd_cfg: ImdConfig) -> usize {
        let imd_ant = self
            .medium
            .add_antenna(Placement::los("ward-imd", offset_m.0, offset_m.1).implanted());
        let shield = install_shield(
            &self.cfg,
            &mut self.medium,
            &mut self.rng,
            imd_cfg.serial,
            imd_cfg.channel,
            imd_ant,
            (offset_m.0 + self.layout.shield_offset_m, offset_m.1),
        );
        self.patients.push(PendingPatient {
            imd_ant,
            imd_cfg,
            shield,
        });
        self.patients.len() - 1
    }

    /// Adds an antenna at a numbered Fig. 6 location.
    pub fn add_at_location(&mut self, index: usize, label: &str) -> AntennaId {
        let placement = self.layout.location(index).placement(label);
        self.medium.add_antenna(placement)
    }

    /// Adds an antenna at an arbitrary placement.
    pub fn add_at(&mut self, placement: Placement) -> AntennaId {
        self.medium.add_antenna(placement)
    }

    /// The configuration this builder was started with (defense installers
    /// read the session channel and device identity from here).
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Finalizes: draws all link gains and constructs the devices.
    pub fn build(mut self) -> Scenario {
        self.medium.build_links(&self.cfg.pathloss, self.cfg.fading);
        self.medium
            .set_noise_floor_dbm(self.imd_ant, self.cfg.imd_noise_floor_dbm);
        let mut imd_cfg = self.cfg.imd_model.config(self.cfg.channel);
        imd_cfg.security = self.cfg.imd_security.clone();
        imd_cfg.wake = self.cfg.imd_wake.clone();
        let imd = ImdDevice::new(imd_cfg, self.imd_ant, StdRng::seed_from_u64(self.rng.gen()));
        let patients = self
            .patients
            .into_iter()
            .map(|p| {
                self.medium
                    .set_noise_floor_dbm(p.imd_ant, self.cfg.imd_noise_floor_dbm);
                Patient {
                    imd: ImdDevice::new(
                        p.imd_cfg,
                        p.imd_ant,
                        StdRng::seed_from_u64(self.rng.gen()),
                    ),
                    shield: p.shield,
                }
            })
            .collect();
        Scenario {
            medium: self.medium,
            imd,
            shield: self.shield,
            patients,
            layout: self.layout,
        }
    }
}

/// Installs a shield over the implant at `imd_ant`: paper-default config
/// (plus the scenario's overrides), the two shield antennas at
/// `position`, and the reciprocal body-contact couplings to the implant
/// (body loss plus the contact coupling, random phases).
///
/// The RNG draw order — install seed, then one phase per shield antenna —
/// is pinned by the golden tests; `build_links` preserves these wired
/// gains.
fn install_shield(
    cfg: &ScenarioConfig,
    medium: &mut Medium,
    rng: &mut StdRng,
    serial: hb_phy::packet::Serial,
    channel: usize,
    imd_ant: AntennaId,
    position: (f64, f64),
) -> Shield {
    let mut scfg = ShieldConfig::paper_defaults(serial, channel);
    if let Some(margin) = cfg.jam_margin_db {
        scfg.jam_margin_db = margin;
    }
    if cfg.fault.has_outages() {
        scfg.outage = Some(hb_shield::shield::OutageSchedule {
            start_s: cfg.fault.outage_start_s,
            len_s: cfg.fault.outage_len_s,
            period_s: cfg.fault.outage_period_s,
        });
    }
    if let Some(tweak) = cfg.shield_tweak {
        tweak(&mut scfg);
    }
    let shield = Shield::install(scfg, medium, position, rng.gen());
    let loss_db = cfg.pathloss.body_loss_db + cfg.shield_body_coupling_db;
    let amp = hb_dsp::units::ratio_from_db(-loss_db).sqrt();
    for ant in [shield.jam_antenna(), shield.rx_antenna()] {
        let g = hb_dsp::complex::C64::from_polar(amp, rng.gen::<f64>() * std::f64::consts::TAU);
        medium.set_gain(ant, imd_ant, g);
        medium.set_gain(imd_ant, ant, g);
    }
    shield
}

impl Scenario {
    /// Runs `blocks` simulation blocks, polling the IMD, the shield, any
    /// additional patients, and any extra nodes in the standard two-phase
    /// order.
    pub fn run_blocks(&mut self, extra: &mut [&mut dyn Node], blocks: u64) {
        for _ in 0..blocks {
            self.run_block_with(extra, |_| {});
        }
    }

    /// Runs one block in the standard two-phase order, invoking `observe`
    /// after every device has consumed but *before* the block ends —
    /// the only point where a supervisor (e.g. the session-recovery
    /// driver in [`crate::recovery`]) may read this block's
    /// [`Medium::receive_view`]: staging freezes at the first receive, so
    /// observing any earlier would forbid the block's transmissions, and
    /// any later reads the next block.
    pub fn run_block_with(&mut self, extra: &mut [&mut dyn Node], observe: impl FnOnce(&mut Self)) {
        self.imd.produce(&mut self.medium);
        if let Some(shield) = self.shield.as_mut() {
            shield.produce(&mut self.medium);
        }
        for p in self.patients.iter_mut() {
            p.imd.produce(&mut self.medium);
            p.shield.produce(&mut self.medium);
        }
        for n in extra.iter_mut() {
            n.produce(&mut self.medium);
        }
        self.imd.consume(&mut self.medium);
        if let Some(shield) = self.shield.as_mut() {
            shield.consume(&mut self.medium);
        }
        for p in self.patients.iter_mut() {
            p.imd.consume(&mut self.medium);
            p.shield.consume(&mut self.medium);
        }
        for n in extra.iter_mut() {
            n.consume(&mut self.medium);
        }
        observe(self);
        self.medium.end_block();
    }

    /// Runs for at least `seconds` of simulated time.
    pub fn run_seconds(&mut self, extra: &mut [&mut dyn Node], seconds: f64) {
        let blocks = self.medium.blocks_for_duration(seconds);
        self.run_blocks(extra, blocks);
    }

    /// Convenience: the session channel.
    pub fn channel(&self) -> usize {
        self.imd.config().channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_dsp::units::db_from_ratio;

    #[test]
    fn builds_with_and_without_shield() {
        let s = ScenarioBuilder::new(ScenarioConfig::paper(1)).build();
        assert!(s.shield.is_some());
        assert_eq!(s.medium.antenna_count(), 3); // imd + 2 shield antennas
        let s2 = ScenarioBuilder::new(ScenarioConfig::paper_no_shield(1)).build();
        assert!(s2.shield.is_none());
        assert_eq!(s2.medium.antenna_count(), 1);
    }

    #[test]
    fn two_patient_ward_builds_with_distinct_identities() {
        let mut b = ScenarioBuilder::new(ScenarioConfig::paper(5));
        let idx = b.add_patient((6.0, 0.0), ImdModel::ConcertoCrt);
        let s = b.build();
        assert_eq!(idx, 0);
        assert_eq!(s.patients.len(), 1);
        // 2 × (imd + 2 shield antennas).
        assert_eq!(s.medium.antenna_count(), 6);
        let p = &s.patients[0];
        assert_ne!(p.imd.config().serial, s.imd.config().serial);
        // Patient B's body-contact coupling matches the primary's
        // calibration: IMD-at-own-shield ≈ −85 dBm.
        let g = s.medium.gain(p.imd.antenna(), p.shield.rx_antenna());
        let rx_dbm = p.imd.config().tx_power_dbm + db_from_ratio(g.norm_sq());
        assert!(
            (rx_dbm - (-85.0)).abs() < 1.0,
            "ward IMD at shield: {rx_dbm} dBm"
        );
        // Cross-patient link is far weaker than the body-contact link.
        let cross = s.medium.gain(s.imd.antenna(), p.shield.rx_antenna());
        assert!(db_from_ratio(cross.norm_sq()) < db_from_ratio(g.norm_sq()) - 10.0);
    }

    #[test]
    fn imd_to_shield_level_matches_calibration() {
        // Expected: −24 dBm tx − 40 dB body − 21 dB contact coupling = −85.
        let s = ScenarioBuilder::new(ScenarioConfig::paper(7)).build();
        let shield = s.shield.as_ref().unwrap();
        let g = s.medium.gain(s.imd.antenna(), shield.rx_antenna());
        let link_db = db_from_ratio(g.norm_sq());
        let rx_dbm = s.imd.config().tx_power_dbm + link_db;
        assert!(
            (rx_dbm - (-85.0)).abs() < 1.0,
            "IMD at shield: {rx_dbm} dBm"
        );
    }

    #[test]
    fn shield_couplings_survive_build() {
        let s = ScenarioBuilder::new(ScenarioConfig::paper(3)).build();
        let shield = s.shield.as_ref().unwrap();
        // Self-loop ≈ −3 dB; jam→rx ≈ −30 dB (not overwritten by
        // build_links).
        let hself = s.medium.gain(shield.rx_antenna(), shield.rx_antenna());
        let hjr = s.medium.gain(shield.jam_antenna(), shield.rx_antenna());
        assert!((db_from_ratio(hself.norm_sq()) - (-3.0)).abs() < 0.5);
        assert!((db_from_ratio(hjr.norm_sq()) - (-30.0)).abs() < 0.5);
    }

    #[test]
    fn adversary_location_levels_are_ordered() {
        let cfg = ScenarioConfig::paper(11);
        let mut b = ScenarioBuilder::new(cfg);
        let a1 = b.add_at_location(1, "adv1");
        let a9 = b.add_at_location(9, "adv9");
        let a18 = b.add_at_location(18, "adv18");
        let s = b.build();
        let to_imd = |a: AntennaId| db_from_ratio(s.medium.gain(a, s.imd.antenna()).norm_sq());
        assert!(to_imd(a1) > to_imd(a9));
        assert!(to_imd(a9) > to_imd(a18));
    }

    #[test]
    fn seeds_give_different_shadowing() {
        let mut losses = Vec::new();
        for seed in 0..6 {
            let mut b = ScenarioBuilder::new(ScenarioConfig::paper(seed));
            let a = b.add_at_location(8, "adv");
            let s = b.build();
            losses.push(db_from_ratio(s.medium.gain(a, s.imd.antenna()).norm_sq()));
        }
        let min = losses.iter().cloned().fold(f64::MAX, f64::min);
        let max = losses.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            max - min > 0.5,
            "shadowing should vary across seeds: {losses:?}"
        );
    }

    #[test]
    fn run_loop_advances_time() {
        let mut s = ScenarioBuilder::new(ScenarioConfig::paper(2)).build();
        s.run_seconds(&mut [], 0.01);
        assert!(s.medium.time_s() >= 0.01);
    }
}
