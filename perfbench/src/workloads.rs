//! The untraced run of each workload: a closed loop of timed repetitions
//! at `--seed` for the requested seconds, the untimed passes its output
//! checks need, and the end-to-end metrics.
//!
//! Load from outside the process comes and goes in phases on a shared
//! host, so the short measurements — relayed interrogations and set-up
//! probes — are not taken in one block: a [`Sampler`] takes a few at every
//! checkpoint of the run (after each experiment of every pass, after each
//! batch), and the metrics are medians over all of them. Every checkpoint
//! also reads the host's speed from the reference kernel, and every time
//! is reported rescaled by the readings around it (see `refclock`).

use crate::common::*;
use crate::drive::fold;
use crate::procfs::peak_rss_mb;
use crate::refclock::{reference_s, scaled};
use crate::stats::{median, tail};
use crate::Report;
use hb_testbed::parallel::parallel_map_with;
use std::time::Instant;

/// Interrogations per timed repetition of `interrogation`: exchanges
/// `0..INTERROGATION_BATCH` of the workload seed's stream, the same in
/// every repetition.
const INTERROGATION_BATCH: u64 = 100;
/// Relayed interrogations a run of an experiment workload takes at its
/// checkpoints: exchanges `0..LATENCY_SAMPLES` of the seed's stream, once
/// each, so every run at a seed samples the same exchanges.
const LATENCY_SAMPLES: u64 = 400;
/// Set-up probes per run, at the least and at the most.
const SETUP_PROBES: (usize, usize) = (30, 80);

/// How a workload's run is paced.
struct Pacing {
    /// Timed repetitions at the least, however long they take.
    min_reps: usize,
    /// Interrogations per checkpoint (0 on `interrogation`, whose timed
    /// loop is itself the latency sample).
    chunk: u64,
    /// Set-up probes per checkpoint.
    probes: usize,
}

impl Pacing {
    /// Sized so every run takes at least 30 set-up probes and its
    /// [`LATENCY_SAMPLES`] interrogations, spread over its checkpoints:
    /// `paper-figures` has one after each of the five experiments of
    /// every pass (16 at the least), `sessions` after each of two (7 at
    /// the least, topped up at the end), and `interrogation` one per
    /// batch.
    fn of(w: Workload) -> Pacing {
        let (min_reps, chunk, probes) = match w {
            Workload::PaperFigures => (2, 25, 2),
            Workload::Sessions => (2, 40, 3),
            Workload::Interrogation => (10, 0, 1),
        };
        Pacing {
            min_reps,
            chunk,
            probes,
        }
    }
}

/// Takes speed readings, latency samples and set-up samples at the run's
/// checkpoints.
struct Sampler {
    workload: Workload,
    seed: u64,
    pacing: Pacing,
    /// Reference-kernel seconds read at the start and at the end of each
    /// checkpoint.
    speeds: Vec<(f64, f64)>,
    exchanges: Vec<Exchange>,
    /// Rescaled host ms of each of `exchanges`.
    exchange_ms: Vec<f64>,
    /// Rescaled set-up seconds of each probe.
    setup: Vec<f64>,
    /// The same as measured.
    setup_raw: Vec<f64>,
}

impl Sampler {
    fn new(w: Workload, seed: u64) -> Sampler {
        Sampler {
            workload: w,
            seed,
            pacing: Pacing::of(w),
            speeds: Vec::new(),
            exchanges: Vec::new(),
            exchange_ms: Vec::new(),
            setup: Vec::new(),
            setup_raw: Vec::new(),
        }
    }

    /// Reads the host's speed, takes a few set-up probes (each rescaled by
    /// its own process's reading), then the next chunk of relayed
    /// interrogations on fresh paper scenarios, rescaled by the mean of
    /// the readings before and after it.
    fn checkpoint(&mut self) {
        let first = reference_s();
        for _ in 0..self.pacing.probes {
            self.probe();
        }
        let start = self.exchanges.len() as u64;
        let n = self.pacing.chunk.min(LATENCY_SAMPLES.saturating_sub(start));
        if n == 0 {
            self.speeds.push((first, first));
            return;
        }
        let chunk: Vec<Exchange> = (start..start + n)
            .map(|i| interrogate(self.seed, i))
            .collect();
        let last = reference_s();
        self.speeds.push((first, last));
        let reference = (first + last) / 2.0;
        self.exchange_ms.extend(
            chunk
                .iter()
                .map(|e| scaled(e.exchange_ns as f64 / 1e6, reference)),
        );
        self.exchanges.extend(chunk);
    }

    fn probe(&mut self) {
        if self.setup.len() < SETUP_PROBES.1 {
            let (setup_s, reading) = setup_probe(self.workload, self.seed);
            self.setup_raw.push(setup_s);
            self.setup.push(scaled(setup_s, reading));
        }
    }

    /// Index of the latest checkpoint: timed work that starts now has its
    /// reading just before.
    fn mark(&self) -> usize {
        self.speeds.len() - 1
    }

    /// The host's speed over the `k`-th timed part after checkpoint
    /// `mark`, when a checkpoint followed every part: the mean of the
    /// readings just before and just after it (the latest reading for a
    /// part with no checkpoint after it).
    fn reference(&self, mark: usize, k: usize) -> f64 {
        let last = self.speeds.len() - 1;
        let before = self.speeds[(mark + k).min(last)].1;
        let after = self
            .speeds
            .get(mark + k + 1)
            .map_or(self.speeds[last].1, |s| s.0);
        (before + after) / 2.0
    }

    /// Host and CPU seconds of consecutive timed parts after reading
    /// `mark`, each rescaled by [`Sampler::reference`].
    fn scaled_parts(&self, mark: usize, parts: &[(f64, f64)]) -> (f64, f64) {
        parts
            .iter()
            .enumerate()
            .fold((0.0, 0.0), |acc, (k, &(wall, cpu))| {
                let r = self.reference(mark, k);
                (acc.0 + scaled(wall, r), acc.1 + scaled(cpu, r))
            })
    }

    /// Calls `rep` until `seconds` have passed, and at least
    /// `min_reps` times.
    fn repeat<T>(&mut self, seconds: f64, mut rep: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < self.pacing.min_reps || start.elapsed().as_secs_f64() < seconds {
            out.push(rep(self));
        }
        out
    }

    /// Median rescaled set-up time, topping the samples up to the minimum
    /// count.
    fn setup_s(&mut self) -> f64 {
        while self.setup.len() < SETUP_PROBES.0 {
            self.probe();
        }
        median(&self.setup).expect("probes ran")
    }
}

/// What a run measured before it becomes metrics.
#[derive(Default)]
struct Measured {
    /// Rescaled host and CPU seconds of each timed repetition.
    rep_wall: Vec<f64>,
    rep_cpu: Vec<f64>,
    /// The same as measured.
    rep_wall_raw: Vec<f64>,
    rep_cpu_raw: Vec<f64>,
    /// Trials completed by the timed repetitions.
    trials: u64,
    attempted: u64,
    failed: u64,
    digest: u64,
    checks: Vec<(String, bool)>,
    lines: Vec<String>,
}

impl Measured {
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Counts one timed repetition of `trials` trials, `failed` of them
    /// (or of its artifacts) unhealthy: its host and CPU seconds as
    /// measured and rescaled.
    fn rep(&mut self, raw: (f64, f64), scaled: (f64, f64), trials: u64, failed: u64) {
        self.rep_wall_raw.push(raw.0);
        self.rep_cpu_raw.push(raw.1);
        self.rep_wall.push(scaled.0);
        self.rep_cpu.push(scaled.1);
        self.trials += trials;
        self.attempted += trials;
        self.failed += failed;
    }
}

/// Runs workload `w` untraced for `seconds` and reports its end-to-end
/// metrics.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut sampler = Sampler::new(w, seed);
    sampler.checkpoint();
    let mut m = match w {
        Workload::PaperFigures | Workload::Sessions => monte_carlo(&mut sampler, w, seconds),
        Workload::Interrogation => interrogation(&mut sampler, seconds),
    };
    while sampler.pacing.chunk > 0 && (sampler.exchanges.len() as u64) < LATENCY_SAMPLES {
        sampler.checkpoint();
    }
    let setup_s = sampler.setup_s();
    let exchanges = &sampler.exchanges;
    m.attempted += exchanges.len() as u64;
    m.failed += exchanges.iter().filter(|e| e.error).count() as u64;

    let mut r = Report::default();
    let correct = m.checks.iter().all(|c| c.1);
    for (what, ok) in &m.checks {
        r.lines.push(format!(
            "check {} {what}",
            if *ok { "ok  " } else { "FAIL" }
        ));
    }
    r.lines
        .push(format!("digest {} {:016x}", w.name(), m.digest));
    r.lines.append(&mut m.lines);

    let ex_ms = &sampler.exchange_ms;
    let build_ms: Vec<f64> = exchanges.iter().map(|e| e.build_ns as f64 / 1e6).collect();
    let t = tail(ex_ms).expect("latency samples exceed the tail rule's minimum");
    let p50 = median(ex_ms).expect("exchanges ran");
    let lost = exchanges.iter().filter(|e| e.lost).count() as u64;
    r.lines.push(format!(
        "exchanges n={} exchange_ms_p50={p50:.4} exchange_ms_tail={:.4} tail=p{:.2} \
         lost_replies={lost} build_ms_p50={:.4} setup_probes={}",
        t.n,
        t.value,
        t.percentile,
        median(&build_ms).expect("exchanges ran"),
        sampler.setup.len()
    ));
    let reps = m.rep_wall.len() as f64;
    let trials_per_rep = m.trials as f64 / reps;
    r.lines.push(format!(
        "reps {reps} trials_per_rep {trials_per_rep} fail_frac {:.6} (lost replies counted)",
        (m.failed + lost) as f64 / m.attempted.max(1) as f64
    ));
    let med = |xs: &[f64]| median(xs).expect("repetitions ran");
    let raw_ms: Vec<f64> = exchanges
        .iter()
        .map(|e| e.exchange_ns as f64 / 1e6)
        .collect();
    r.lines.push(format!(
        "as measured: wall_s={:.6} cpu_s={:.6} exchange_ms_p50={:.4} setup_s={:.6}; \
         reference_ms={:.4} over {} checkpoints (nominal {} ms)",
        med(&m.rep_wall_raw),
        med(&m.rep_cpu_raw),
        med(&raw_ms),
        med(&sampler.setup_raw),
        1e3 * med(&sampler.speeds.iter().map(|s| s.0).collect::<Vec<_>>()),
        sampler.speeds.len(),
        1e3 * crate::refclock::NOMINAL_S
    ));
    let wall_s = med(&m.rep_wall);
    r.metric("wall_s", wall_s, "s");
    r.metric("cpu_s", med(&m.rep_cpu), "s");
    r.metric("trials_per_s", trials_per_rep / wall_s, "1/s");
    r.metric("exchange_ms_p50", p50, "ms");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.correct = correct;
    r.attempted = m.attempted;
    r.failed = if correct { m.failed } else { m.attempted };
    r
}

/// A batch at `--seed` on `workers` workers, journaled into a fresh
/// directory, then (on `sessions`) a resume pass over those journals,
/// timed together.
struct JournaledRep {
    batch: Batch,
    resumed: Option<Batch>,
    trials: u64,
    /// Quarantined trials, journals that did not decode, flagged
    /// artifacts and unhealthy resumed artifacts.
    failed: u64,
    journals: usize,
}

fn journaled_rep(sampler: &mut Sampler, w: Workload, workers: usize) -> JournaledRep {
    let (names, seed) = (w.experiments(), sampler.seed);
    let dir = fresh_dir(&out_dir(w).join("journal"));
    let journaling = Journaling {
        dir: &dir,
        resume: false,
    };
    let mut batch = run_batch(names, seed, workers, Some(journaling), &mut || {
        sampler.checkpoint()
    });
    let resumed = (w == Workload::Sessions).then(|| {
        let resume = Journaling {
            resume: true,
            ..journaling
        };
        let r = run_batch(names, seed, workers, Some(resume), &mut || {});
        batch.wall_s += r.wall_s;
        batch.cpu_s += r.cpu_s;
        batch.parts.extend(&r.parts);
        r
    });
    let (journals, corrupt) = census(&dir, names);
    JournaledRep {
        trials: journals.iter().map(|j| j.done).sum(),
        failed: journals.iter().map(|j| j.quarantined).sum::<u64>()
            + corrupt
            + batch.flagged
            + resumed.as_ref().map_or(0, Batch::unhealthy),
        journals: journals.len(),
        batch,
        resumed,
    }
}

/// `paper-figures` and `sessions`. An untimed journaled pass on `nproc`
/// workers counts the trials and gives the reference digest; then timed
/// repetitions at the same seed on one worker (plain on `paper-figures`,
/// journaled and resumed on `sessions`) must each reproduce it.
///
/// The timed repetitions run on one worker because the reference kernel
/// is read on one thread: with two busy threads on a two-CPU guest the
/// readings did not follow the repetitions' time (README.md, "Host
/// speed"). The fan-out itself is timed by the traced pass.
fn monte_carlo(sampler: &mut Sampler, w: Workload, seconds: f64) -> Measured {
    let (names, seed, n) = (w.experiments(), sampler.seed, nproc());
    let mut m = Measured::default();

    let counting = journaled_rep(sampler, w, n);
    let reference = &counting.batch;
    m.digest = reference.digest;
    m.failed += write_artifacts(reference, &out_dir(w).join("artifacts"));
    m.lines.push(format!(
        "counting pass on {n} workers: {} journals, {} trials, {:.3} s wall",
        counting.journals, counting.trials, counting.batch.wall_s
    ));
    if let Some(resumed) = &counting.resumed {
        m.check(
            "counting pass: resumed digest equals the journaled run",
            resumed.digest == reference.digest,
        );
    }
    m.attempted += counting.trials;
    m.failed += counting.failed;

    let reps = sampler.repeat(seconds, |sampler| {
        let mark = sampler.mark();
        let r = match w {
            Workload::Sessions => journaled_rep(sampler, w, 1),
            _ => {
                let batch = run_batch(names, seed, 1, None, &mut || sampler.checkpoint());
                JournaledRep {
                    failed: batch.unhealthy(),
                    batch,
                    resumed: None,
                    trials: counting.trials,
                    journals: 0,
                }
            }
        };
        let scaled = sampler.scaled_parts(mark, &r.batch.parts);
        (r, scaled)
    });
    for (i, (r, scaled)) in reps.iter().enumerate() {
        m.lines.push(format!(
            "rep {i}: {:.3} s wall, {:.3} s cpu; rescaled {:.3} s wall, {:.3} s cpu{}",
            r.batch.wall_s,
            r.batch.cpu_s,
            scaled.0,
            scaled.1,
            r.resumed
                .as_ref()
                .map_or(String::new(), |x| format!(", resume {:.4} s", x.wall_s))
        ));
        m.check(
            format!("rep {i} on 1 worker: digest equals the counting pass on {n} workers"),
            r.batch.digest == reference.digest,
        );
        if let Some(resumed) = &r.resumed {
            m.check(
                format!("rep {i}: resumed digest equals the journaled run"),
                resumed.digest == r.batch.digest,
            );
            m.check(
                format!("rep {i}: journals count the counting pass's trials"),
                r.trials == counting.trials,
            );
        }
        m.rep(
            (r.batch.wall_s, r.batch.cpu_s),
            *scaled,
            counting.trials,
            r.failed,
        );
    }
    m
}

/// `interrogation`: timed batches of the same exchanges, each checked
/// against the first, which is also fanned out on `nproc` workers.
fn interrogation(sampler: &mut Sampler, seconds: f64) -> Measured {
    let seed = sampler.seed;
    let mut m = Measured::default();
    let digest = |batch: &[Exchange]| batch.iter().fold(0, |d, e| fold(d, e.fp));
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut exchange_ms = Vec::new();
    let mut digests = Vec::new();
    let batches = sampler.repeat(seconds, |sampler| {
        let mark = sampler.mark();
        let (batch, wall, cpu) = timed(|| {
            (0..INTERROGATION_BATCH)
                .map(|i| interrogate(seed, i))
                .collect::<Vec<_>>()
        });
        sampler.checkpoint();
        let reference = sampler.reference(mark, 0);
        digests.push(digest(&batch));
        exchange_ms.extend(
            batch
                .iter()
                .map(|e| scaled(e.exchange_ns as f64 / 1e6, reference)),
        );
        exchanges.extend(batch);
        (
            (wall, cpu),
            (scaled(wall, reference), scaled(cpu, reference)),
        )
    });
    // The exchanges are counted as attempted with the latency samples.
    for (raw, rescaled) in batches {
        m.rep(raw, rescaled, 0, 0);
    }
    m.trials = exchanges.len() as u64;
    m.digest = digests[0];
    m.check(
        format!("{} batches: every digest equals batch 0", digests.len()),
        digests.iter().all(|&d| d == m.digest),
    );
    let idx: Vec<u64> = (0..INTERROGATION_BATCH).collect();
    let fanned: Vec<Exchange> = parallel_map_with(nproc(), &idx, |_, &i| interrogate(seed, i));
    m.check(
        "batch 0 on nproc workers equals the loop",
        digest(&fanned) == m.digest,
    );
    sampler.exchanges = exchanges;
    sampler.exchange_ms = exchange_ms;
    m
}
