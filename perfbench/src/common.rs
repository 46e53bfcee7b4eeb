//! What the untimed and traced passes share: the workload table, registry
//! batches, journal census, relayed interrogations and set-up probes.

use crate::drive::{fingerprint, fold};
use crate::procfs::cpu_seconds;
use hb_dsp::checksum::fnv1a64;
use hb_imd::commands::Command;
use hb_testbed::checkpoint::{atomic_write, Journal, RunCtl};
use hb_testbed::defense::{Defense, DEFENSES};
use hb_testbed::experiments::registry::{self, EvalCtx};
use hb_testbed::experiments::{try_relay_one_exchange, Effort};
use hb_testbed::montecarlo::trial_seed;
use hb_testbed::report::Artifact;
use hb_testbed::scenario::{ImdModel, Scenario, ScenarioBuilder, ScenarioConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads. See README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 8, 9, 11, 12, 13 via the registry at `quick`.
    PaperFigures,
    /// `defense-matrix` + `resilience-matrix` at `quick`, journaled, then
    /// resumed.
    Sessions,
    /// A closed loop of relayed interrogations on fresh paper scenarios.
    Interrogation,
}

impl Workload {
    /// Every workload, in README order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigures,
        Workload::Sessions,
        Workload::Interrogation,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::Sessions => "sessions",
            Workload::Interrogation => "interrogation",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Registry experiments the workload runs (none for `interrogation`).
    pub fn experiments(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFigures => &["fig8", "fig9", "fig11", "fig12", "fig13"],
            Workload::Sessions => &["defense-matrix", "resilience-matrix"],
            Workload::Interrogation => &[],
        }
    }
}

/// Workers the registry may use: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host seconds and CPU seconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (t0, c0) = (Instant::now(), cpu_seconds());
    let out = f();
    (out, t0.elapsed().as_secs_f64(), cpu_seconds() - c0)
}

/// Where a run keeps its journals, artifacts and spans (listed in the
/// repository's `.gitignore`).
pub fn out_dir(w: Workload) -> PathBuf {
    Path::new(".bench_out").join(w.name())
}

/// Empties and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark output directory is writable");
    dir.to_path_buf()
}

/// One pass over a workload's registry experiments.
pub struct Batch {
    /// Artifacts in experiment order.
    pub artifacts: Vec<Artifact>,
    /// Their JSON renderings: the artifact bytes the digest covers.
    pub json: Vec<String>,
    /// Digest of all artifact bytes.
    pub digest: u64,
    /// Trials quarantined, from the run controls' health.
    pub quarantined: u64,
    /// Artifacts whose health is flagged (degraded or truncated).
    pub flagged: u64,
    /// Host seconds.
    pub wall_s: f64,
    /// CPU seconds.
    pub cpu_s: f64,
    /// Host and CPU seconds of each experiment, in order.
    pub parts: Vec<(f64, f64)>,
}

/// How a batch journals: into `dir/<experiment>/`, resuming when asked.
#[derive(Clone, Copy)]
pub struct Journaling<'a> {
    /// Journal root.
    pub dir: &'a Path,
    /// Resume from the journals already there.
    pub resume: bool,
}

/// Runs `names` through the registry at `quick` effort on `workers`
/// workers, each under its own run control (journaling when asked,
/// quarantine and health always). `between` runs after each experiment,
/// outside the batch's timing.
pub fn run_batch(
    names: &[&str],
    seed: u64,
    workers: usize,
    journaling: Option<Journaling>,
    between: &mut dyn FnMut(),
) -> Batch {
    // The registry's fan-out reads its worker count from HB_THREADS on
    // every sweep; the benchmark is single-threaded between batches.
    std::env::set_var("HB_THREADS", workers.to_string());
    let ctx = EvalCtx::new(Effort::quick(), seed);
    let (mut artifacts, mut quarantined, mut parts) = (Vec::new(), 0u64, Vec::new());
    for name in names {
        let exp = registry::find(name).expect("workload experiments are registered");
        let ctl = Arc::new(RunCtl::new(
            journaling.map(|j| j.dir.join(name)),
            journaling.is_some_and(|j| j.resume),
            None,
        ));
        let ((artifact, _stem, health), wall, cpu) =
            timed(|| registry::run_one_with(exp, &ctx, &ctl));
        quarantined += health.quarantined;
        artifacts.push(artifact);
        parts.push((wall, cpu));
        between();
    }
    let flagged = artifacts.iter().filter(|a| a.health.is_some()).count() as u64;
    let json: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
    let digest = json.iter().fold(0, |d, j| fold(d, fnv1a64(j.as_bytes())));
    Batch {
        artifacts,
        json,
        digest,
        quarantined,
        flagged,
        wall_s: parts.iter().map(|p| p.0).sum(),
        cpu_s: parts.iter().map(|p| p.1).sum(),
        parts,
    }
}

impl Batch {
    /// Quarantined trials plus flagged artifacts.
    pub fn unhealthy(&self) -> u64 {
        self.quarantined + self.flagged
    }
}

/// Writes a batch's artifacts atomically under `dir`; returns how many
/// could not be written.
pub fn write_artifacts(batch: &Batch, dir: &Path) -> u64 {
    let _ = std::fs::create_dir_all(dir);
    let mut failed = 0;
    for (a, json) in batch.artifacts.iter().zip(&batch.json) {
        let path = dir.join(format!("{}.json", registry::file_stem(&a.id)));
        if atomic_write(&path, json.as_bytes()).is_err() {
            failed += 1;
        }
    }
    failed
}

/// One journal found after a journaled batch.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Experiment whose run wrote it.
    pub experiment: String,
    /// Master seed of the adaptive call.
    pub master: u64,
    /// Trials completed.
    pub done: u64,
    /// Trials quarantined.
    pub quarantined: u64,
    /// The call stopped at its trial cap, not at the CI target.
    pub capped: bool,
    /// File size.
    pub bytes: u64,
    /// File path.
    pub path: PathBuf,
}

/// Every journal under `root/<experiment>/`, in path order, and the
/// number of journal files that did not decode.
pub fn census(root: &Path, names: &[&str]) -> (Vec<JournalEntry>, u64) {
    let mut out = Vec::new();
    let mut corrupt = 0;
    for name in names {
        let Ok(dir) = std::fs::read_dir(root.join(name)) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "journal"))
            .collect();
        paths.sort();
        for path in paths {
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            match Journal::load(&path) {
                Some(j) => out.push(JournalEntry {
                    experiment: name.to_string(),
                    master: j.master,
                    done: j.done,
                    quarantined: j.quarantines.len() as u64,
                    capped: j.done >= j.cfg.max_trials as u64,
                    bytes,
                    path,
                }),
                None => corrupt += 1,
            }
        }
    }
    (out, corrupt)
}

/// Seed of the `i`-th interrogation of a stream.
pub fn exchange_seed(seed: u64, i: u64) -> u64 {
    trial_seed(seed ^ 0x1A7E_5C1E_0000_0000, i)
}

/// One relayed interrogation on a fresh paper scenario.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    /// Host ns to build the scenario.
    pub build_ns: u64,
    /// Host ns of `try_relay_one_exchange`.
    pub exchange_ns: u64,
    /// Output fingerprint.
    pub fp: u64,
    /// The shield decoded no IMD reply (the modeled ~0.2% PER).
    pub lost: bool,
    /// `try_relay_one_exchange` returned an error.
    pub error: bool,
}

/// The scenario of interrogation `i` of stream `seed`.
pub fn interrogation_scenario(seed: u64, i: u64) -> Scenario {
    ScenarioBuilder::new(ScenarioConfig::paper(exchange_seed(seed, i))).build()
}

/// Runs interrogation `i` of stream `seed`.
pub fn interrogate(seed: u64, i: u64) -> Exchange {
    let t0 = Instant::now();
    let mut s = interrogation_scenario(seed, i);
    let t1 = Instant::now();
    let result = try_relay_one_exchange(&mut s, &mut [], Command::Interrogate);
    let exchange_ns = t1.elapsed().as_nanos() as u64;
    let tx = s.imd.take_tx_log();
    Exchange {
        build_ns: (t1 - t0).as_nanos() as u64,
        exchange_ns,
        fp: fingerprint(&s, &tx),
        lost: s
            .shield
            .as_ref()
            .is_none_or(|sh| sh.stats.imd_frames_ok == 0),
        error: result.is_err(),
    }
}

/// Paper config with the experiments' IMD-model alternation by seed
/// parity and a defense's edits.
pub fn defended_config(defense: &dyn Defense, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(seed);
    cfg.imd_model = if seed.is_multiple_of(2) {
        ImdModel::VirtuosoIcd
    } else {
        ImdModel::ConcertoCrt
    };
    defense.configure(&mut cfg);
    cfg
}

/// Builds the first scenario `w` builds: what a fresh process must do
/// before the workload's first unit of work can start.
pub fn build_first_scenario(w: Workload, seed: u64) -> Scenario {
    match w {
        // Fig. 8's first trial: margin 0 dB, eavesdropper at location 1.
        Workload::PaperFigures => {
            let mut cfg = ScenarioConfig::paper(trial_seed(trial_seed(seed, 0), 0));
            cfg.jam_margin_db = Some(0.0);
            let mut b = ScenarioBuilder::new(cfg);
            b.add_at_location(1, "eavesdropper");
            b.build()
        }
        Workload::Sessions => {
            let defense = DEFENSES[0];
            let mut b = ScenarioBuilder::new(defended_config(defense, seed));
            let _rig = defense.install(&mut b);
            b.build()
        }
        Workload::Interrogation => interrogation_scenario(seed, 0),
    }
}

/// Host seconds a fresh copy of this program takes from entering `main`
/// until it has built the workload's first scenario, cold caches
/// included, and the reference seconds the copy read right after; the
/// copy times itself and prints both figures.
pub fn setup_probe(w: Workload, seed: u64) -> (f64, f64) {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let out = std::process::Command::new(&exe)
        .args(["--setup-probe", w.name(), "--seed", &seed.to_string()])
        .output()
        .expect("set-up probe starts");
    assert!(out.status.success(), "set-up probe failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    let mut figures = text
        .split_whitespace()
        .map(|f| f.parse().expect("set-up probe prints two numbers"));
    let mut next = || figures.next().expect("set-up probe prints two numbers");
    (next(), next())
}
