//! Adaptive Monte-Carlo engine: confidence-interval-driven sampling on
//! top of [`crate::parallel`].
//!
//! The paper's headline numbers are statistical — eavesdropper BER ≈ 0.5
//! under shield jamming (Figs. 8–9), attack success ≈ 0 with the shield
//! present (Figs. 11–12) — but for five PRs the tests asserted on
//! small-sample *point estimates*, the ROADMAP's "known-flaky area" that
//! every RNG change threatened to trip. This module is the permanent fix:
//! experiments run trials in sharded batches, pool the counts, compute a
//! [Wilson score interval](hb_dsp::stats::wilson_interval) (proportions)
//! or a [bootstrap interval](hb_dsp::stats::bootstrap_mean_interval)
//! (continuous metrics), and *grow the sample count in deterministic
//! rounds* until the interval is tight enough — so assertions become "the
//! CI excludes the forbidden region" instead of "the point estimate lands
//! inside a bound".
//!
//! # Determinism
//!
//! Every trial's seed is derived from `(master seed, global trial index)`
//! by a SplitMix64 mix **before** the fan-out, and per-round results are
//! reduced in trial order. Consequently:
//!
//! * results are bit-identical at any `HB_THREADS` worker count, and
//! * any stopping point is bit-identical across runs: a run capped at
//!   `n` trials produces exactly the estimates a longer run had after its
//!   first `n` trials (early-stop boundaries are prefix-stable; the
//!   `stopping_is_prefix_stable` test pins this).
//!
//! Stopping decisions are themselves computed from pooled (deterministic)
//! counts, so adaptivity never breaks reproducibility.
//!
//! # Crash safety
//!
//! When a driver installs a [`checkpoint::RunCtl`] (e.g. `hb_eval
//! --checkpoint-dir`), every adaptive call journals its pooled state
//! after each round and — on `--resume` — restarts from the journal.
//! Because stopping points are prefix-stable, a resumed run follows the
//! exact round schedule of an uninterrupted one and produces the
//! bit-identical [`Estimate`]. Independently of journaling, every trial
//! runs under `catch_unwind`: a panicking trial is quarantined (it
//! contributes no counts but still consumes its index, so the seed
//! stream of the surviving trials is unperturbed) and the run completes
//! degraded instead of tearing down the evaluation. A healthy run with
//! no `RunCtl` takes none of these paths and its output is unchanged.

use crate::checkpoint::{self, Journal, JournalCfg, JournalKind, Quarantine, RunCtl};
use crate::parallel;
use hb_dsp::stats::{bootstrap_mean_interval, wilson_interval, Z_95};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A point estimate with its confidence interval: the unit every adaptive
/// experiment reports per data point (and the `Artifact` CI series carry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate (pooled proportion or sample mean).
    pub mean: f64,
    /// Lower confidence bound.
    pub ci_lo: f64,
    /// Upper confidence bound.
    pub ci_hi: f64,
    /// Pooled denominator behind the estimate: total Bernoulli trials
    /// (bits, frames, attempts) for proportions; samples for means.
    pub n: u64,
}

impl Estimate {
    /// Half the interval width — the quantity the adaptive loop drives
    /// below [`McConfig`]'s target.
    pub fn half_width(&self) -> f64 {
        (self.ci_hi - self.ci_lo) / 2.0
    }

    /// True if the whole interval lies inside `(lo, hi)` — the CI-based
    /// form of "the estimate meets the paper bound": not only does the
    /// point estimate land inside, the data rule out everything outside.
    pub fn within(&self, lo: f64, hi: f64) -> bool {
        self.ci_lo > lo && self.ci_hi < hi
    }

    /// True if the whole interval lies strictly below `bound`.
    pub fn below(&self, bound: f64) -> bool {
        self.ci_hi < bound
    }
}

/// Sizing of an adaptive run: how it starts, grows, and stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Trial tasks in the first round (also the minimum sample).
    pub initial_trials: usize,
    /// Hard cap on total trial tasks across all rounds.
    pub max_trials: usize,
    /// Stop once every tracked estimate's CI half-width is at or below
    /// this target.
    pub target_half_width: f64,
    /// z-score of the interval (default [`Z_95`]).
    pub z: f64,
    /// Resamples per bootstrap interval (continuous metrics only).
    pub bootstrap_resamples: usize,
}

impl McConfig {
    /// A config sized from an [`Effort`](crate::experiments::Effort)
    /// preset: its CI-target knob and trial cap, with the engine's
    /// defaults for everything else. The first round runs an eighth of
    /// the cap (at least 2 trials), so a converging run finishes in a
    /// handful of rounds and a non-converging one still hits the cap in
    /// ~4 doublings.
    pub fn from_effort(effort: &crate::experiments::Effort) -> Self {
        McConfig {
            initial_trials: (effort.mc_max_trials / 8).clamp(2, 64),
            max_trials: effort.mc_max_trials.max(1),
            target_half_width: effort.ci_half_width,
            z: Z_95,
            bootstrap_resamples: 200,
        }
    }

    /// Same sizing with a different trial cap (experiments whose trials
    /// are whole attack attempts cap at the effort's attempt count).
    pub fn with_max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = max_trials.max(1);
        self.initial_trials = self.initial_trials.min(self.max_trials);
        self
    }
}

/// One adaptive run's outcome: the final estimates plus the per-round
/// trace (cumulative estimates after each round — what the prefix-
/// stability tests compare).
#[derive(Debug, Clone)]
pub struct McRun<const K: usize> {
    /// Final pooled estimates, one per tracked proportion.
    pub estimates: [Estimate; K],
    /// Trial tasks executed (including quarantined ones).
    pub trials: u64,
    /// Cumulative estimates after each completed round.
    pub trace: Vec<[Estimate; K]>,
    /// Trials whose panic was caught and isolated; empty on a healthy
    /// run. Each record carries the trial's index, seed, and panic
    /// message for exact replay.
    pub quarantines: Vec<Quarantine>,
    /// True if an installed deadline stopped the run before convergence
    /// or the trial cap.
    pub truncated: bool,
}

/// Derives the seed of global trial `index` from the master seed —
/// SplitMix64, the same mix `StdRng::seed_from_u64` uses internally, so
/// neighbouring indices produce statistically independent streams. Seeds
/// depend only on `(master, index)`, never on round boundaries or thread
/// count: that is the whole determinism story.
pub fn trial_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The one Monte-Carlo entry point: a worker count plus the [`RunCtl`]
/// to journal to, with one method per pool kind —
/// [`proportions`](Runner::proportions) pools Wilson counts,
/// [`mean`](Runner::mean) pools bootstrap samples. Both drive the same
/// round loop, so journaling, resume, quarantine, and the deadline behave
/// identically for either kind. Sweeps that already fan out across data
/// points run their inner loops on `Runner::new(1)`.
#[derive(Debug, Clone, Copy)]
pub struct Runner<'c> {
    workers: usize,
    /// `None`: the process-installed control ([`checkpoint::current`]),
    /// read when a run starts. `Some(None)` disables journaling, resume,
    /// quarantine reporting, and the deadline.
    ctl: Option<Option<&'c RunCtl>>,
}

impl<'c> Runner<'c> {
    /// A runner on `workers` threads under the process-installed
    /// [`RunCtl`], if a driver installed one.
    pub fn new(workers: usize) -> Self {
        Runner { workers, ctl: None }
    }

    /// A runner against an explicit [`RunCtl`] instead of the installed
    /// one — what the crash-safety tests use to exercise journaling,
    /// resume, quarantine, and deadlines without touching global state.
    pub fn with_ctl(workers: usize, ctl: Option<&'c RunCtl>) -> Self {
        Runner {
            workers,
            ctl: Some(ctl),
        }
    }

    /// Runs `trial` adaptively until all `K` pooled Wilson intervals reach
    /// the target half-width or the trial cap is hit.
    ///
    /// `trial` receives a pre-derived seed and returns `K` count pairs
    /// `(successes, trials)` — e.g. `[(bit_errors, bits), (lost, frames)]`.
    /// Counts pool by saturating summation in trial order.
    pub fn proportions<const K: usize>(
        &self,
        cfg: &McConfig,
        seed: u64,
        trial: impl Fn(u64) -> [(u64, u64); K] + Sync,
    ) -> McRun<K> {
        self.run(cfg, seed, Counts([(0, 0); K]), trial).0
    }

    /// Runs `trial` adaptively until the bootstrap interval of the sample
    /// mean reaches the target half-width or the trial cap is hit — the
    /// continuous-metric kind, for SINR-, energy-, and turnaround-style
    /// measurements.
    ///
    /// The bootstrap reseeds from `(seed, samples so far)`, so any stopping
    /// point remains a pure function of `(cfg, seed)` — still bit-identical
    /// at any thread count, because the samples it resamples arrive in
    /// trial order. The journal stores every completed sample bit-exactly
    /// (f64 bit patterns), so a resumed run reproduces the same intervals.
    pub fn mean(&self, cfg: &McConfig, seed: u64, trial: impl Fn(u64) -> f64 + Sync) -> Estimate {
        let (run, pool) = self.run(cfg, seed, Samples(Vec::new()), trial);
        if run.trials > 0 {
            run.estimates[0]
        } else {
            pool.estimate(cfg, seed)[0]
        }
    }

    /// The round loop both pool kinds share: journal resume, stop checks,
    /// a batch of guarded parallel trials, pool, estimate, journal store.
    /// Returns the run and the final pool.
    fn run<P: Pool<K>, const K: usize>(
        &self,
        cfg: &McConfig,
        seed: u64,
        mut pool: P,
        trial: impl Fn(u64) -> P::Sample + Sync,
    ) -> (McRun<K>, P) {
        let installed = self.ctl.is_none().then(checkpoint::current).flatten();
        let ctl = self.ctl.unwrap_or(installed.as_deref());
        let mut done = 0usize;
        let mut trace = Vec::new();
        let mut quarantines: Vec<Quarantine> = Vec::new();
        let mut truncated = false;

        let journal_path = ctl.and_then(|c| c.claim_journal(seed, K, P::TAG));
        if let (Some(c), Some(path)) = (ctl, journal_path.as_ref()) {
            if c.resuming() {
                if let Some(j) = Journal::load(path) {
                    if j.matches(seed, &journal_cfg(cfg)) {
                        if let Some(restored) = P::restore(j.kind) {
                            pool = restored;
                            done = j.done as usize;
                            quarantines = j.quarantines;
                        }
                    }
                }
            }
        }
        let mut estimates = if done > 0 {
            pool.estimate(cfg, seed)
        } else {
            [UNSAMPLED; K]
        };

        // The stop checks sit at the loop top so that a resumed run first
        // re-evaluates the crashed run's last stopping decision from the
        // restored pool: it continues (or stops) precisely where an
        // uninterrupted run would have. A fresh run (`done == 0`) always
        // runs its first round.
        let converged = |est: &[Estimate; K]| {
            est.iter()
                .all(|e| e.n >= P::MIN_N && e.half_width() <= cfg.target_half_width)
        };
        while !(done > 0 && converged(&estimates)) && done < cfg.max_trials {
            if ctl.is_some_and(|c| c.deadline_expired()) {
                truncated = true;
                break;
            }
            let batch = next_batch(cfg, done);
            let indices: Vec<u64> = (done as u64..(done + batch) as u64).collect();
            let results = parallel::parallel_map_with(self.workers, &indices, |_, &i| {
                let s = trial_seed(seed, i);
                guarded_trial(i, s, || trial(s))
            });
            for result in results {
                match result {
                    Ok(sample) => pool.add(sample),
                    Err(q) => quarantines.push(q),
                }
            }
            done += batch;
            estimates = pool.estimate(cfg, seed);
            trace.push(estimates);
            if let Some(path) = journal_path.as_ref() {
                store_journal(
                    ctl,
                    path,
                    &Journal {
                        master: seed,
                        cfg: journal_cfg(cfg),
                        done: done as u64,
                        kind: pool.journal(),
                        quarantines: quarantines.clone(),
                    },
                );
            }
        }
        if let Some(c) = ctl {
            if truncated {
                c.note_truncated();
            }
            c.note_quarantined(quarantines.len() as u64);
        }
        let run = McRun {
            estimates,
            trials: done as u64,
            trace,
            quarantines,
            truncated,
        };
        (run, pool)
    }
}

/// A proportion run's estimate before its first trial.
const UNSAMPLED: Estimate = Estimate {
    mean: 0.0,
    ci_lo: 0.0,
    ci_hi: 1.0,
    n: 0,
};

/// What the round loop pools trial results into — the only part that
/// differs between the two kinds of run.
trait Pool<const K: usize>: Sized {
    /// One trial's result.
    type Sample: Send;
    /// Journal file tag: `mc_<master>_{p<K>|m1}.journal`.
    const TAG: &'static str;
    /// Sample count below which an interval never counts as converged.
    const MIN_N: u64;
    fn add(&mut self, sample: Self::Sample);
    fn estimate(&self, cfg: &McConfig, seed: u64) -> [Estimate; K];
    fn journal(&self) -> JournalKind;
    /// The pool a journal restores; `None` for a journal of the other kind.
    fn restore(kind: JournalKind) -> Option<Self>;
}

/// Pooled `(successes, trials)` per tracked proportion, with Wilson
/// intervals.
struct Counts<const K: usize>([(u64, u64); K]);

impl<const K: usize> Pool<K> for Counts<K> {
    type Sample = [(u64, u64); K];
    const TAG: &'static str = "p";
    const MIN_N: u64 = 1;

    fn add(&mut self, counts: [(u64, u64); K]) {
        for (pool, &(s, t)) in self.0.iter_mut().zip(counts.iter()) {
            debug_assert!(s <= t, "trial reported more successes than trials");
            pool.0 = pool.0.saturating_add(s);
            pool.1 = pool.1.saturating_add(t);
        }
    }

    fn estimate(&self, cfg: &McConfig, _seed: u64) -> [Estimate; K] {
        self.0.map(|(s, t)| {
            let (lo, hi) = wilson_interval(s.min(t), t, cfg.z);
            Estimate {
                mean: if t > 0 { s as f64 / t as f64 } else { 0.5 },
                ci_lo: lo,
                ci_hi: hi,
                n: t,
            }
        })
    }

    fn journal(&self) -> JournalKind {
        JournalKind::Proportions(self.0.to_vec())
    }

    fn restore(kind: JournalKind) -> Option<Self> {
        match kind {
            JournalKind::Proportions(pools) => pools.try_into().ok().map(Counts),
            JournalKind::Mean(_) => None,
        }
    }
}

/// Completed samples in trial order, with a bootstrap interval of their
/// mean. Quarantined trials consume their index without yielding a
/// sample, so the count can fall short of the trials done.
struct Samples(Vec<f64>);

impl Pool<1> for Samples {
    type Sample = f64;
    const TAG: &'static str = "m";
    const MIN_N: u64 = 2;

    fn add(&mut self, x: f64) {
        self.0.push(x);
    }

    fn estimate(&self, cfg: &McConfig, seed: u64) -> [Estimate; 1] {
        let n = self.0.len();
        let alpha = 2.0 * (1.0 - normal_cdf(cfg.z));
        let seed = trial_seed(seed ^ 0xB007_57AB, n as u64);
        let (lo, hi) = bootstrap_mean_interval(&self.0, cfg.bootstrap_resamples, alpha, seed);
        [Estimate {
            mean: self.0.iter().sum::<f64>() / n.max(1) as f64,
            ci_lo: lo,
            ci_hi: hi,
            n: n as u64,
        }]
    }

    fn journal(&self) -> JournalKind {
        JournalKind::Mean(self.0.clone())
    }

    fn restore(kind: JournalKind) -> Option<Self> {
        match kind {
            JournalKind::Mean(samples) => Some(Samples(samples)),
            JournalKind::Proportions(_) => None,
        }
    }
}

/// The next round's size: the first round is `initial_trials`, then each
/// round doubles the total so far, always clamped to the cap. Round
/// boundaries are a pure function of `(cfg, trials done)` — no state, so
/// a run resumed from a journaled `done` count replays the exact schedule
/// an uninterrupted run would have followed.
fn next_batch(cfg: &McConfig, done: usize) -> usize {
    let want = if done == 0 { cfg.initial_trials } else { done };
    want.max(1).min(cfg.max_trials - done)
}

/// The sizing fingerprint a journal stores so a resume under a different
/// config is rejected instead of mis-scheduled.
fn journal_cfg(cfg: &McConfig) -> JournalCfg {
    JournalCfg {
        initial_trials: cfg.initial_trials,
        max_trials: cfg.max_trials,
        target_half_width: cfg.target_half_width,
        z: cfg.z,
        bootstrap_resamples: cfg.bootstrap_resamples,
    }
}

/// Runs one trial under `catch_unwind`: the injected-fault hook fires
/// inside the guard, and a panic — organic or injected — becomes a
/// [`Quarantine`] record instead of unwinding into the sweep runner.
/// `AssertUnwindSafe` is sound here because a quarantined trial's partial
/// state is dropped wholesale; nothing it touched is observed again.
fn guarded_trial<T>(index: u64, seed: u64, run: impl FnOnce() -> T) -> Result<T, Quarantine> {
    match catch_unwind(AssertUnwindSafe(|| {
        checkpoint::inject_trial_panic(index);
        run()
    })) {
        Ok(v) => Ok(v),
        Err(payload) => Err(Quarantine {
            index,
            seed,
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Checkpoints one round's journal. A write failure warns once per run
/// and the run continues without checkpoints — losing resumability must
/// not fail an otherwise healthy evaluation. Successful writes feed the
/// `crash_after_round` fault counter.
fn store_journal(ctl: Option<&RunCtl>, path: &std::path::Path, journal: &Journal) {
    match journal.store(path) {
        Ok(()) => checkpoint::note_round_checkpointed(),
        Err(e) => {
            if let Some(c) = ctl {
                c.warn_io_once(&format!(
                    "warning: cannot write checkpoint journal {}: {e}; \
                     continuing without checkpoints",
                    path.display()
                ));
            }
        }
    }
}

/// Φ(z), the standard normal CDF (via `erf`-free Abramowitz–Stegun 7.1.26
/// rational approximation, |error| < 7.5e-8 — far tighter than any CI use
/// here needs). Maps the config's z-score to the bootstrap's alpha.
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + erf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(initial: usize, max: usize, target: f64) -> McConfig {
        McConfig {
            initial_trials: initial,
            max_trials: max,
            target_half_width: target,
            z: Z_95,
            bootstrap_resamples: 100,
        }
    }

    /// A deterministic pseudo-Bernoulli trial: 16 "bits" per trial, each
    /// an xor-fold of the seed — behaves like p = 0.5 data.
    fn coin_trial(seed: u64) -> (u64, u64) {
        let mut s = 0;
        for b in 0..16u64 {
            let x = trial_seed(seed, b);
            s += (x.count_ones() as u64) & 1;
        }
        (s, 16)
    }

    #[test]
    fn converges_and_tightens() {
        let c = cfg(4, 4096, 0.02);
        let run = Runner::new(1).proportions(&c, 42, |s| [coin_trial(s)]);
        let est = run.estimates[0];
        assert!(est.half_width() <= 0.02, "half-width {}", est.half_width());
        assert!(est.within(0.40, 0.60), "p=0.5 coin: {est:?}");
        assert!(run.trials <= 4096);
        // Widths shrink monotonically along the trace.
        for w in run.trace.windows(2) {
            assert!(w[1][0].half_width() <= w[0][0].half_width() + 1e-12);
        }
    }

    #[test]
    fn respects_the_trial_cap() {
        let c = cfg(3, 10, 1e-9); // unreachable target: must stop at cap
        let run = Runner::new(1).proportions(&c, 1, |s| [coin_trial(s)]);
        assert_eq!(run.trials, 10);
        assert_eq!(run.estimates[0].n, 160);
    }

    #[test]
    fn thread_count_invariant() {
        let c = cfg(5, 640, 0.015);
        let a = Runner::new(1).proportions(&c, 7, |s| [coin_trial(s)]);
        let b = Runner::new(4).proportions(&c, 7, |s| [coin_trial(s)]);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.estimates[0], b.estimates[0]);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(b.trace.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn stopping_is_prefix_stable() {
        // A run capped at n trials must reproduce exactly the estimates a
        // longer run had after its first n trials: seeds derive from the
        // global trial index, so early-stop boundaries change nothing.
        let long = Runner::new(2).proportions(&cfg(4, 1024, 1e-9), 99, |s| [coin_trial(s)]);
        for (r, round) in long.trace.iter().enumerate() {
            let capped_max = 4usize << r; // totals double per round: 4, 8, 16...
            let short =
                Runner::new(3).proportions(&cfg(4, capped_max, 1e-9), 99, |s| [coin_trial(s)]);
            assert_eq!(
                short.estimates[0], round[0],
                "round {r}: capped run must equal the longer run's prefix"
            );
        }
    }

    #[test]
    fn multi_component_waits_for_all() {
        // Component 0 converges almost immediately (huge denominator);
        // component 1 has 1 trial per task and forces further rounds.
        let c = cfg(4, 4096, 0.05);
        let run = Runner::new(1).proportions(&c, 5, |s| {
            let (hits, n) = coin_trial(s);
            [(hits * 64, n * 64), (hits & 1, 1)]
        });
        assert!(run.estimates[0].half_width() <= 0.05);
        assert!(run.estimates[1].half_width() <= 0.05);
        assert!(
            run.estimates[1].n >= 100,
            "the slow component must have driven sampling ({} trials)",
            run.estimates[1].n
        );
    }

    #[test]
    fn adaptive_mean_converges_deterministically() {
        let c = cfg(8, 4096, 0.05);
        let noisy = |s: u64| (trial_seed(s, 0) >> 11) as f64 / (1u64 << 53) as f64; // U[0,1)
        let a = Runner::new(1).mean(&c, 3, noisy);
        let b = Runner::new(4).mean(&c, 3, noisy);
        assert_eq!(a, b, "bootstrap CI must be thread-count invariant");
        assert!(a.half_width() <= 0.05);
        assert!(a.ci_lo <= a.mean && a.mean <= a.ci_hi);
        assert!(a.within(0.3, 0.7), "U[0,1) mean ~0.5: {a:?}");
    }

    #[test]
    fn trial_seeds_decorrelate() {
        // Neighbouring indices and neighbouring masters both produce
        // well-separated seeds (SplitMix64 avalanche).
        let a = trial_seed(1, 0);
        let b = trial_seed(1, 1);
        let c = trial_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!((a ^ b).count_ones() > 10);
        assert!((a ^ c).count_ones() > 10);
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(Z_95) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-Z_95) - 0.025).abs() < 1e-6);
    }
}
