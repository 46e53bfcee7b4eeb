//! The traced pass (`--trace 1`): per-layer metrics from spans recorded
//! around calls into the library's public layer functions, kept apart
//! from the timed runs.
//!
//! Each workload first runs its own sections, which measure the layers
//! it exercises. Small fixed probes then measure, at the same seed, every
//! layer the workload does not reach, so each traced run reports every
//! per-layer metric; the printed table names each value's source. Every
//! section checks that its traced results are bit-identical to the
//! untraced library path.

use crate::common::*;
use crate::drive::{fingerprint, fold, traced_block, EVE, NO_EXTRA, RIG};
use crate::stats::median;
use crate::trace::{breakdown, self_times, totals_by_name, Tracer, UNATTRIBUTED};
use crate::Report;
use hb_adversary::active::AttackerConfig;
use hb_adversary::eavesdropper::Eavesdropper;
use hb_channel::sim::Node;
use hb_dsp::checksum::fnv1a64;
use hb_imd::arq::ArqConfig;
use hb_imd::commands::Command;
use hb_mics::session::SessionConfig;
use hb_testbed::checkpoint::{self, Journal, RunCtl};
use hb_testbed::defense::{run_defended_exchange, DEFENSES};
use hb_testbed::experiments::fig11::{self, AttackGoal};
use hb_testbed::experiments::{fig8, fig9, hospital, relay_one_exchange, resilience, Effort};
use hb_testbed::montecarlo::{trial_seed, Estimate};
use hb_testbed::parallel::parallel_map_with;
use hb_testbed::recovery::{run_arq_exchange, ExchangeError};
use hb_testbed::report::{Artifact, Series};
use hb_testbed::scenario::{ImdModel, Scenario, ScenarioBuilder, ScenarioConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("scenario.build_ms", "ms"),
    ("scenario.block_us", "us"),
    ("scenario.blocks", "count"),
    ("scenario.unattributed_frac", "frac"),
    ("imd.produce_us", "us"),
    ("imd.consume_us", "us"),
    ("shield.produce_us", "us"),
    ("shield.consume_us", "us"),
    ("patients.produce_us", "us"),
    ("patients.consume_us", "us"),
    ("eve.consume_us", "us"),
    ("eve.ber_ms", "ms"),
    ("medium.end_block_us", "us"),
    ("medium.antennas", "count"),
    ("medium.audible_frac", "frac"),
    ("montecarlo.points", "count"),
    ("montecarlo.trials", "count"),
    ("montecarlo.trials_per_point", "count"),
    ("montecarlo.trial_ms_p50", "ms"),
    ("montecarlo.capped_frac", "frac"),
    ("parallel.tasks", "count"),
    ("parallel.task_ms_p50", "ms"),
    ("parallel.task_ms_max", "ms"),
    ("parallel.imbalance", "ratio"),
    ("parallel.cpu_util", "frac"),
    ("parallel.speedup_wmax", "ratio"),
    ("defense.shield_exchange_ms", "ms"),
    ("defense.imdfence_exchange_ms", "ms"),
    ("defense.wakeup_exchange_ms", "ms"),
    ("recovery.arq_exchange_ms", "ms"),
    ("recovery.attempts_per_exchange", "count"),
    ("checkpoint.journals", "count"),
    ("checkpoint.journal_bytes", "bytes"),
    ("checkpoint.store_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.resume_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Defense metric per entry of `DEFENSES`, in its canonical order.
const DEFENSE_METRICS: [&str; 3] = [
    "defense.shield_exchange_ms",
    "defense.imdfence_exchange_ms",
    "defense.wakeup_exchange_ms",
];

/// Per-layer values gathered by the sections. The first section to
/// measure a metric sets it; later probes only fill gaps.
#[derive(Default)]
struct Pass {
    values: BTreeMap<&'static str, (f64, &'static str)>,
    checks: Vec<(String, bool)>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn set(&mut self, name: &'static str, value: f64, source: &'static str) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is a declared per-layer metric"
        );
        self.values.entry(name).or_insert((value, source));
    }

    fn missing(&self, names: &[&str]) -> bool {
        names.iter().any(|n| !self.values.contains_key(n))
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((what.into(), ok));
    }
}

/// Runs the traced pass of `w`.
pub fn run(w: Workload, seed: u64) -> Report {
    let mut p = Pass::default();
    let spans_dir = out_dir(w);
    let _ = std::fs::create_dir_all(&spans_dir);

    let block_tracer = block_section(&mut p, w, seed);
    match w {
        Workload::PaperFigures => {
            let (w1, journals) = registry_scaling(&mut p, w, seed);
            let tasks = redrive_figures(&mut p, seed, &w1.artifacts, &journals);
            write_spans(&mut p, &tasks, &spans_dir.join("spans-tasks.tsv"));
        }
        Workload::Sessions => {
            let (_, journals) = registry_scaling(&mut p, w, seed);
            journal_metrics(&mut p, &journals, "own");
            recovery_section(&mut p, seed, 6, "own");
        }
        Workload::Interrogation => {}
    }
    write_spans(&mut p, &block_tracer, &spans_dir.join("spans-blocks.tsv"));
    probes(&mut p, seed);

    let mut r = Report::default();
    for (what, ok) in &p.checks {
        r.lines.push(format!(
            "check {} {what}",
            if *ok { "ok  " } else { "FAIL" }
        ));
    }
    r.lines.append(&mut p.lines);
    for (name, unit) in PER_LAYER {
        let (value, source) = p.values[name];
        r.lines
            .push(format!("layer {name} = {value} {unit} [{source}]"));
        r.metric(name, value, unit);
    }
    r.correct = p.failed == 0;
    r.attempted = p.attempted;
    r.failed = if r.correct { 0 } else { p.attempted };
    r
}

fn write_spans(p: &mut Pass, tr: &Tracer, path: &std::path::Path) {
    if let Err(e) = tr.write_tsv(path) {
        p.check(format!("write spans to {}: {e}", path.display()), false);
    }
}

// ---------------------------------------------------------------------------
// Block sections: the same units run untraced through the library and
// traced through the block driver.
// ---------------------------------------------------------------------------

/// Output of one pass over a block section's units.
#[derive(Default)]
struct SectionOut {
    fps: Vec<u64>,
    antennas: usize,
    /// Host ms per unit, keyed by a label (defense name on `sessions`).
    unit_ms: Vec<(&'static str, f64)>,
}

/// Timed plain-then-traced pairs of passes over the block section.
const OVERHEAD_PAIRS: usize = 5;

/// Runs `w`'s block section untraced and traced in alternating pairs
/// after an untimed untraced pass, which also fills caches such as the
/// jam-profile memo. Every pass must reproduce that pass's fingerprints; `trace.overhead_frac` is the median over the pairs of
/// traced over untraced host time, minus one. Returns the last traced
/// pass's spans.
fn block_section(p: &mut Pass, w: Workload, seed: u64) -> Tracer {
    let source = "own";
    let reference = run_section(w, seed, None);
    let (mut ratios, mut unit_ms, mut same) = (Vec::new(), Vec::new(), true);
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let t0 = Instant::now();
        let plain = run_section(w, seed, None);
        let plain_s = t0.elapsed().as_secs_f64();
        let mut tr = Tracer::default();
        let t1 = Instant::now();
        let traced = run_section(w, seed, Some(&mut tr));
        ratios.push(t1.elapsed().as_secs_f64() / plain_s);
        same &= plain.fps == reference.fps && traced.fps == reference.fps;
        unit_ms.extend(plain.unit_ms);
        last = Some((traced, tr));
    }
    let (traced, tr) = last.expect("pairs ran");
    p.check(
        format!(
            "{}: block driver fingerprints equal the library path \
             ({} units, {OVERHEAD_PAIRS} pairs)",
            w.name(),
            reference.fps.len()
        ),
        same,
    );
    p.set(
        "trace.overhead_frac",
        median(&ratios).expect("pairs ran") - 1.0,
        source,
    );
    p.set("medium.antennas", traced.antennas as f64, source);
    block_metrics(p, &tr, source);
    if w == Workload::Sessions {
        for (i, defense) in DEFENSES.iter().enumerate() {
            let ms: Vec<f64> = unit_ms
                .iter()
                .filter(|u| u.0 == defense.name())
                .map(|u| u.1)
                .collect();
            p.set(DEFENSE_METRICS[i], median(&ms).expect("units ran"), source);
        }
    }
    tr
}

/// Sets the per-block layer metrics from a block-driver trace and prints
/// its breakdown tables.
fn block_metrics(p: &mut Pass, tr: &Tracer, source: &'static str) {
    let spans = tr.spans();
    let own = self_times(spans);
    let t = totals_by_name(spans, &own);
    let blocks = t["block"].count as f64;
    let per_block_us = |name: &str| t.get(name).map(|x| x.total_ns as f64 / blocks / 1e3);
    p.set("scenario.blocks", blocks, source);
    p.set("scenario.block_us", per_block_us("block").unwrap(), source);
    p.set(
        "scenario.unattributed_frac",
        t["block"].self_ns as f64 / t["block"].total_ns as f64,
        source,
    );
    if let Some(b) = t.get("build") {
        p.set(
            "scenario.build_ms",
            b.total_ns as f64 / b.count as f64 / 1e6,
            source,
        );
    }
    for (span, metric) in [
        ("imd.produce", "imd.produce_us"),
        ("imd.consume", "imd.consume_us"),
        ("shield.produce", "shield.produce_us"),
        ("shield.consume", "shield.consume_us"),
        ("patients.produce", "patients.produce_us"),
        ("patients.consume", "patients.consume_us"),
        ("eve.consume", "eve.consume_us"),
        ("medium.end_block", "medium.end_block_us"),
    ] {
        if let Some(us) = per_block_us(span) {
            p.set(metric, us, source);
        }
    }
    if let Some(b) = t.get("eve.ber") {
        p.set(
            "eve.ber_ms",
            b.total_ns as f64 / b.count as f64 / 1e6,
            source,
        );
    }
    for root in ["unit", "block"] {
        let (rows, total) = breakdown(spans, &own, root);
        p.lines.push(format!(
            "table {root} ({source}): total {:.3} ms",
            total as f64 / 1e6
        ));
        for (name, ns) in rows {
            let marker = if name == UNATTRIBUTED { "  " } else { "" };
            p.lines.push(format!(
                "  {marker}{name:<26} {:>12.3} ms {:>6.2}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / total.max(1) as f64
            ));
        }
    }
}

/// Runs `w`'s block-section units: through the library's own block loop
/// when `tr` is `None`, through the traced block driver otherwise.
fn run_section(w: Workload, seed: u64, tr: Option<&mut Tracer>) -> SectionOut {
    match w {
        Workload::Interrogation => interrogation_units(seed, 48, tr),
        Workload::PaperFigures => eavesdropper_units(seed, 18, tr),
        Workload::Sessions => defended_units(seed, 3, tr),
    }
}

/// Runs `blocks` blocks: `Scenario::run_blocks` untraced, the block
/// driver traced.
fn blocks(
    s: &mut Scenario,
    extra: &mut [&mut dyn Node],
    names: (&'static str, &'static str),
    n: u64,
    tr: &mut Option<&mut Tracer>,
) {
    match tr {
        None => s.run_blocks(extra, n),
        Some(tr) => {
            for _ in 0..n {
                traced_block(s, extra, names, tr, |_| {});
            }
        }
    }
}

/// Runs `f` inside span `name` when tracing.
fn span<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> R,
) -> R {
    let id = tr.as_mut().map(|t| t.begin(name));
    let out = f(tr);
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.end(id);
    }
    out
}

fn set_unit(tr: &mut Option<&mut Tracer>, unit: usize) {
    if let Some(t) = tr.as_mut() {
        t.set_unit(unit as u32);
    }
}

/// Relayed interrogations on fresh paper scenarios (the `interrogation`
/// workload's unit).
fn interrogation_units(seed: u64, n: usize, mut tr: Option<&mut Tracer>) -> SectionOut {
    let mut out = SectionOut::default();
    for i in 0..n {
        set_unit(&mut tr, i);
        let fp = span(&mut tr, "unit", |tr| {
            let mut s = span(tr, "build", |_| interrogation_scenario(seed, i as u64));
            if tr.is_none() {
                relay_one_exchange(&mut s, &mut [], Command::Interrogate);
            } else {
                s.shield
                    .as_mut()
                    .expect("paper scenarios wear the shield")
                    .queue_command(Command::Interrogate);
                let n = s.medium.blocks_for_duration(0.060);
                blocks(&mut s, &mut [], NO_EXTRA, n, tr);
            }
            out.antennas = s.medium.antenna_count();
            let tx = s.imd.take_tx_log();
            fingerprint(&s, &tx)
        });
        out.fps.push(fp);
    }
    out
}

/// The eavesdropper BER of one transmission, rounded to whole bits as the
/// experiments count it.
fn bit_errors(eve: &Eavesdropper, start_tick: u64, bits: &[u8]) -> u64 {
    (eve.ber_against(start_tick, bits) * bits.len() as f64).round() as u64
}

/// Fig. 9 trials: a fresh paper scenario with the eavesdropper at a
/// Fig. 6 location, two relayed interrogations, BER of every reply.
fn eavesdropper_units(seed: u64, n: usize, mut tr: Option<&mut Tracer>) -> SectionOut {
    let mut out = SectionOut::default();
    for i in 0..n {
        set_unit(&mut tr, i);
        let unit_seed = exchange_seed(seed, i as u64);
        let location = i % 18 + 1;
        let fp = span(&mut tr, "unit", |tr| {
            let (mut s, mut eve) = span(tr, "build", |_| {
                let mut cfg = ScenarioConfig::paper(unit_seed);
                cfg.imd_model = if unit_seed.is_multiple_of(2) {
                    ImdModel::VirtuosoIcd
                } else {
                    ImdModel::ConcertoCrt
                };
                let mut b = ScenarioBuilder::new(cfg);
                let ant = b.add_at_location(location, "eavesdropper");
                let s = b.build();
                let eve = Eavesdropper::new(s.imd.config().fsk, ant, s.channel());
                (s, eve)
            });
            let mut fp = 0;
            for _ in 0..2 {
                if tr.is_none() {
                    relay_one_exchange(&mut s, &mut [&mut eve], Command::Interrogate);
                } else {
                    s.shield
                        .as_mut()
                        .expect("shielded")
                        .queue_command(Command::Interrogate);
                    let n = s.medium.blocks_for_duration(0.060);
                    blocks(&mut s, &mut [&mut eve], EVE, n, tr);
                }
                let tx = s.imd.take_tx_log();
                let errors: Vec<u64> = span(tr, "eve.ber", |_| {
                    tx.iter()
                        .map(|r| bit_errors(&eve, r.start_tick, &r.bits))
                        .collect()
                });
                eve.clear();
                fp = fold(
                    fold(fp, fingerprint(&s, &tx)),
                    fnv1a64(format!("{errors:?}").as_bytes()),
                );
            }
            out.antennas = s.medium.antenna_count();
            fp
        });
        out.fps.push(fp);
    }
    out
}

/// Clean defended interrogations, `per_defense` for each defense.
fn defended_units(seed: u64, per_defense: usize, mut tr: Option<&mut Tracer>) -> SectionOut {
    let mut out = SectionOut::default();
    for k in 0..per_defense {
        for (d, defense) in DEFENSES.iter().enumerate() {
            let unit = k * DEFENSES.len() + d;
            set_unit(&mut tr, unit);
            let (fp, exchange_ms) = span(&mut tr, "unit", |tr| {
                let (mut s, mut rig) = span(tr, "build", |_| {
                    let mut b = ScenarioBuilder::new(defended_config(
                        *defense,
                        exchange_seed(seed, unit as u64),
                    ));
                    let rig = defense.install(&mut b);
                    (b.build(), rig)
                });
                let t0 = Instant::now();
                let (delivered, stats) = match tr {
                    None => {
                        let r = run_defended_exchange(
                            &mut s,
                            &mut rig,
                            &mut [],
                            Command::Interrogate,
                            0.120,
                        );
                        (r.delivered, r.stats)
                    }
                    Some(tr) => {
                        rig.hook.begin(&mut s, Command::Interrogate);
                        for _ in 0..s.medium.blocks_for_duration(0.120) {
                            let hook = &mut rig.hook;
                            let mut nodes: Vec<&mut dyn Node> = Vec::new();
                            for n in rig.nodes.iter_mut() {
                                nodes.push(n.as_mut());
                            }
                            traced_block(&mut s, &mut nodes, RIG, tr, |s| hook.on_block(s));
                        }
                        (rig.hook.delivered(), rig.hook.stats())
                    }
                };
                let exchange_ms = t0.elapsed().as_secs_f64() * 1e3;
                out.antennas = s.medium.antenna_count();
                let tx = s.imd.take_tx_log();
                let fp = fold(
                    fingerprint(&s, &tx),
                    fnv1a64(format!("{delivered} {stats:?}").as_bytes()),
                );
                (fp, exchange_ms)
            });
            out.unit_ms.push((defense.name(), exchange_ms));
            out.fps.push(fp);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Registry scaling, journals and the per-point re-drive.
// ---------------------------------------------------------------------------

/// Runs the workload's experiments, journaled, on 1 … nproc workers:
/// speed-up and CPU use of the fan-out, digests equal at every worker
/// count (and, on `sessions`, after a resume). Returns the 1-worker batch
/// and its journals.
fn registry_scaling(p: &mut Pass, w: Workload, seed: u64) -> (Batch, Vec<JournalEntry>) {
    let (names, n) = (w.experiments(), nproc());
    let mut base: Option<(Batch, Vec<JournalEntry>)> = None;
    for workers in 1..=n {
        let dir = fresh_dir(&out_dir(w).join(format!("journal-w{workers}")));
        let journaling = Journaling {
            dir: &dir,
            resume: false,
        };
        let batch = run_batch(names, seed, workers, Some(journaling), &mut || {});
        let (journals, corrupt) = census(&dir, names);
        let mut ok = corrupt == 0 && batch.unhealthy() == 0;
        if w == Workload::Sessions {
            let resume = Journaling {
                resume: true,
                ..journaling
            };
            let resumed = run_batch(names, seed, workers, Some(resume), &mut || {});
            ok &= resumed.digest == batch.digest;
            p.set("checkpoint.resume_s", resumed.wall_s, "own");
        }
        let (wall, cpu, digest) = (batch.wall_s, batch.cpu_s, batch.digest);
        let (w1, _) = base.get_or_insert((batch, journals));
        p.check(
            format!("{workers} workers: healthy, journals decode, digest equals 1 worker"),
            ok && digest == w1.digest,
        );
        p.lines.push(format!(
            "parallel.speedup_w{workers} = {:.4} (wall {wall:.3} s, cpu {cpu:.3} s)",
            w1.wall_s / wall
        ));
        if workers == n {
            p.set("parallel.speedup_wmax", w1.wall_s / wall, "own");
            p.set("parallel.cpu_util", cpu / (wall * n as f64), "own");
        }
    }
    base.expect("at least one worker count")
}

/// Journal-derived layer metrics: checkpoint I/O and Monte-Carlo sizing.
fn journal_metrics(p: &mut Pass, journals: &[JournalEntry], source: &'static str) {
    let n = journals.len().max(1) as f64;
    let scratch = fresh_dir(std::path::Path::new(".bench_out/journal-copy"));
    let mut load_ns = 0u128;
    let mut store_ns = 0u128;
    let mut ok = true;
    for (i, j) in journals.iter().enumerate() {
        let t0 = Instant::now();
        let loaded = Journal::load(&j.path);
        load_ns += t0.elapsed().as_nanos();
        match loaded {
            Some(loaded) => {
                let t1 = Instant::now();
                ok &= loaded.store(&scratch.join(format!("{i}.journal"))).is_ok();
                store_ns += t1.elapsed().as_nanos();
            }
            None => ok = false,
        }
    }
    p.check("journals load and store", ok);
    let trials: u64 = journals.iter().map(|j| j.done).sum();
    p.set("checkpoint.journals", journals.len() as f64, source);
    p.set(
        "checkpoint.journal_bytes",
        journals.iter().map(|j| j.bytes).sum::<u64>() as f64,
        source,
    );
    p.set("checkpoint.load_ms", load_ns as f64 / n / 1e6, source);
    p.set("checkpoint.store_ms", store_ns as f64 / n / 1e6, source);
    p.set("montecarlo.points", journals.len() as f64, source);
    p.set("montecarlo.trials", trials as f64, source);
    p.set("montecarlo.trials_per_point", trials as f64 / n, source);
    p.set(
        "montecarlo.capped_frac",
        journals.iter().filter(|j| j.capped).count() as f64 / n,
        source,
    );
}

/// True if the series point `i` carries exactly this estimate.
fn series_has(series: &Series, i: usize, e: &Estimate) -> bool {
    series
        .points
        .get(i)
        .is_some_and(|pt| pt.1.to_bits() == e.mean.to_bits())
        && series
            .ci
            .as_ref()
            .and_then(|ci| ci.get(i))
            .is_some_and(|&(lo, hi, n)| {
                lo.to_bits() == e.ci_lo.to_bits() && hi.to_bits() == e.ci_hi.to_bits() && n == e.n
            })
}

fn series_value(series: &Series, i: usize, v: f64) -> bool {
    series
        .points
        .get(i)
        .is_some_and(|pt| pt.1.to_bits() == v.to_bits())
}

fn series_named<'a>(a: &'a Artifact, label: &str) -> &'a Series {
    a.series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{} has a series labelled {label:?}", a.id))
}

/// Re-drives every fan-out task of Figs. 8, 9, 11, 12 and 13 serially
/// through its public per-point entry with the experiment's own seeds,
/// one span per task and per point, and checks each result against the
/// artifact the registry produced.
fn redrive_figures(
    p: &mut Pass,
    seed: u64,
    artifacts: &[Artifact],
    journals: &[JournalEntry],
) -> Tracer {
    let effort = Effort::quick();
    let trials: BTreeMap<(&str, u64), (u64, bool)> = journals
        .iter()
        .map(|j| ((j.experiment.as_str(), j.master), (j.done, j.capped)))
        .collect();
    let mut tr = Tracer::default();
    let mut task_ms: Vec<(&str, f64)> = Vec::new();
    // (point ms, trials, capped) per adaptive call.
    let mut points: Vec<(f64, u64, bool)> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    let mut unit = 0u32;

    let mut task = |tr: &mut Tracer, exp: &'static str, f: &mut dyn FnMut(&mut Tracer) -> bool| {
        tr.set_unit(unit);
        unit += 1;
        let t0 = Instant::now();
        let ok = tr.span("task", |tr| f(tr));
        task_ms.push((exp, t0.elapsed().as_secs_f64() * 1e3));
        ok
    };
    let mut point =
        |tr: &mut Tracer, exp: &'static str, master: u64, f: &mut dyn FnMut() -> Estimate| {
            let t0 = Instant::now();
            let e = tr.span("mc.point", |_| f());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match trials.get(&(exp, master)) {
                Some(&(done, capped)) => points.push((ms, done, capped)),
                None => points.push((ms, 0, false)),
            }
            (e, trials.contains_key(&(exp, master)))
        };

    let [a8, a9, a11, a12, a13] = artifacts else {
        panic!("paper-figures has five artifacts");
    };
    let ber8 = &a8.series[0];
    for i in 0..ber8.points.len() {
        let margin = ber8.points[i].0;
        let master = trial_seed(seed, i as u64);
        let ok = task(&mut tr, "fig8", &mut |tr| {
            let mut out = None;
            let (ber, found) = point(tr, "fig8", master, &mut || {
                let (ber, per) = fig8::run_margin_point_ci_with(1, margin, &effort, master);
                out = Some(per);
                ber
            });
            found && series_has(ber8, i, &ber) && series_has(&a8.series[1], i, &out.expect("ran"))
        });
        if !ok {
            mismatches.push(format!("fig8 point {i}"));
        }
    }
    let ber9 = series_named(a9, "BER by location");
    for i in 0..18 {
        let loc = i + 1;
        let master = trial_seed(seed, loc as u64);
        let ok = task(&mut tr, "fig9", &mut |tr| {
            let (e, found) = point(tr, "fig9", master, &mut || {
                fig9::ber_at_location_ci_with(1, loc, &effort, master)
            });
            found && series_has(ber9, i, &e)
        });
        if !ok {
            mismatches.push(format!("fig9 location {loc}"));
        }
    }
    let commercial = AttackerConfig::commercial_programmer();
    for i in 0..14 {
        let loc = i + 1;
        let ok = task(&mut tr, "fig11", &mut |tr| {
            let sweep = |shield_on: bool, s: u64| {
                fig11::success_probability(
                    loc,
                    shield_on,
                    &commercial,
                    AttackGoal::ElicitReply,
                    effort.attempts_per_location,
                    s,
                )
            };
            let absent = tr.span("fixed.point", |_| sweep(false, seed));
            let present = tr.span("fixed.point", |_| sweep(true, seed ^ 0xABCD));
            series_value(&a11.series[0], i, absent) && series_value(&a11.series[1], i, present)
        });
        if !ok {
            mismatches.push(format!("fig11 location {loc}"));
        }
    }
    for i in 0..14 {
        let loc = i + 1;
        let masters = [
            trial_seed(seed.wrapping_add(7777), loc as u64),
            trial_seed(seed ^ 0x5A5A, loc as u64),
        ];
        let ok = task(&mut tr, "fig12", &mut |tr| {
            let mut ok = true;
            for (arm, &master) in masters.iter().enumerate() {
                let (e, found) = point(tr, "fig12", master, &mut || {
                    fig11::success_probability_ci_with(
                        1,
                        loc,
                        arm == 1,
                        &commercial,
                        AttackGoal::ChangeTherapy,
                        &effort,
                        master,
                    )
                });
                ok &= found && series_has(&a12.series[arm], i, &e);
            }
            ok
        });
        if !ok {
            mismatches.push(format!("fig12 location {loc}"));
        }
    }
    let high = AttackerConfig::high_power_custom();
    let n13 = effort.attempts_per_location as f64;
    for i in 0..18 {
        let loc = i + 1;
        let ok = task(&mut tr, "fig13", &mut |tr| {
            let (mut absent, mut present, mut alarm) = (0usize, 0usize, 0usize);
            tr.span("fixed.point", |_| {
                for a in 0..effort.attempts_per_location {
                    let sd = seed
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add((loc * 4096 + a) as u64);
                    absent += usize::from(
                        fig11::attack_once(loc, false, &high, AttackGoal::ChangeTherapy, sd)
                            .success,
                    );
                    let on = fig11::attack_once(
                        loc,
                        true,
                        &high,
                        AttackGoal::ChangeTherapy,
                        sd ^ 0xF00D,
                    );
                    present += usize::from(on.success);
                    alarm += usize::from(on.alarm);
                }
            });
            series_value(&a13.series[0], i, absent as f64 / n13)
                && series_value(&a13.series[1], i, present as f64 / n13)
                && series_value(&a13.series[2], i, alarm as f64 / n13)
        });
        if !ok {
            mismatches.push(format!("fig13 location {loc}"));
        }
    }

    p.check(
        format!(
            "re-driven fan-out tasks equal the artifacts ({} tasks, {} Monte-Carlo points){}",
            task_ms.len(),
            points.len(),
            if mismatches.is_empty() {
                String::new()
            } else {
                format!(": mismatched {}", mismatches.join(", "))
            }
        ),
        mismatches.is_empty(),
    );
    p.attempted += task_ms.len() as u64;

    let all: Vec<f64> = task_ms.iter().map(|t| t.1).collect();
    let imbalance = ["fig8", "fig9", "fig11", "fig12", "fig13"]
        .iter()
        .map(|exp| {
            let ms: Vec<f64> = task_ms
                .iter()
                .filter(|t| t.0 == *exp)
                .map(|t| t.1)
                .collect();
            let mean = ms.iter().sum::<f64>() / ms.len() as f64;
            let max = ms.iter().copied().fold(0.0, f64::max);
            p.lines.push(format!(
                "fan-out {exp}: {} tasks, mean {mean:.2} ms, max {max:.2} ms, imbalance {:.3}",
                ms.len(),
                max / mean
            ));
            max / mean
        })
        .fold(0.0, f64::max);
    p.set("parallel.tasks", all.len() as f64, "own");
    p.set(
        "parallel.task_ms_p50",
        median(&all).expect("tasks ran"),
        "own",
    );
    p.set(
        "parallel.task_ms_max",
        all.iter().copied().fold(0.0, f64::max),
        "own",
    );
    p.set("parallel.imbalance", imbalance, "own");
    mc_point_metrics(p, &points, "own");
    tr
}

/// Monte-Carlo metrics from timed adaptive calls and their journals.
fn mc_point_metrics(p: &mut Pass, points: &[(f64, u64, bool)], source: &'static str) {
    let trials: u64 = points.iter().map(|x| x.1).sum();
    let per_trial: Vec<f64> = points
        .iter()
        .filter(|x| x.1 > 0)
        .map(|x| x.0 / x.1 as f64)
        .collect();
    let n = points.len() as f64;
    p.set("montecarlo.points", n, source);
    p.set("montecarlo.trials", trials as f64, source);
    p.set("montecarlo.trials_per_point", trials as f64 / n, source);
    p.set(
        "montecarlo.trial_ms_p50",
        median(&per_trial).expect("points ran"),
        source,
    );
    p.set(
        "montecarlo.capped_frac",
        points.iter().filter(|x| x.2).count() as f64 / n,
        source,
    );
}

// ---------------------------------------------------------------------------
// Session layers and the probes.
// ---------------------------------------------------------------------------

/// ARQ interrogations under the resilience matrix's heaviest fault plan.
fn recovery_section(p: &mut Pass, seed: u64, n: usize, source: &'static str) {
    let mut ms = Vec::new();
    let mut attempts = 0u64;
    for i in 0..n {
        let mut cfg = ScenarioConfig::paper(exchange_seed(seed ^ 0xA8, i as u64));
        cfg.fault = resilience::fault_plan(1.0);
        let mut s = ScenarioBuilder::new(cfg).build();
        let t0 = Instant::now();
        let out = run_arq_exchange(
            &mut s,
            &mut [],
            Command::Interrogate,
            ArqConfig::default(),
            SessionConfig::default(),
        );
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        attempts += u64::from(match out {
            Ok(o) => o.attempts,
            Err(ExchangeError::Exhausted { attempts }) => attempts,
            Err(ExchangeError::NoShield) => {
                p.check("ARQ exchange found its shield", false);
                0
            }
        });
    }
    p.attempted += n as u64;
    p.set(
        "recovery.arq_exchange_ms",
        median(&ms).expect("exchanges ran"),
        source,
    );
    p.set(
        "recovery.attempts_per_exchange",
        attempts as f64 / n as f64,
        source,
    );
}

/// Fixed, small units of every layer, run at the workload's seed; each
/// fills only the metrics the workload's own sections left unset.
fn probes(p: &mut Pass, seed: u64) {
    if p.missing(&DEFENSE_METRICS) {
        let out = defended_units(seed, 1, None);
        for (i, defense) in DEFENSES.iter().enumerate() {
            let ms = out
                .unit_ms
                .iter()
                .find(|u| u.0 == defense.name())
                .expect("ran")
                .1;
            p.set(DEFENSE_METRICS[i], ms, "probe");
        }
    }
    if p.missing(&["recovery.arq_exchange_ms"]) {
        recovery_section(p, seed, 2, "probe");
    }
    if p.missing(&["eve.consume_us", "eve.ber_ms"]) {
        let mut tr = Tracer::default();
        eavesdropper_units(seed, 1, Some(&mut tr));
        block_metrics(p, &tr, "probe");
    }
    // Culling only prunes pairs on the large floor: every kept workload's
    // scenarios are dense, so the floor is where `audible_frac` is read.
    let mut s = hospital::bench_floor_scenario(seed);
    let mut tr = Tracer::default();
    for _ in 0..24 {
        traced_block(&mut s, &mut [], NO_EXTRA, &mut tr, |_| {});
    }
    block_metrics(p, &tr, "probe");
    let cull = s.medium.cull_stats();
    p.set(
        "medium.audible_frac",
        cull.audible_pairs as f64 / cull.total_pairs.max(1) as f64,
        "probe",
    );
    let mc = [
        "montecarlo.trial_ms_p50",
        "parallel.tasks",
        "parallel.cpu_util",
        "checkpoint.resume_s",
        "checkpoint.journals",
    ];
    if p.missing(&mc) {
        mc_probe(p, seed);
    }
}

/// A small Fig. 9 fan-out at `tiny` effort: six locations as tasks, run
/// journaled on one worker (task spans), on nproc workers, and resumed.
fn mc_probe(p: &mut Pass, seed: u64) {
    let effort = Effort::tiny();
    let locations: Vec<usize> = (1..=6).collect();
    let dir = fresh_dir(&std::path::Path::new(".bench_out").join("probe-journal"));
    let run = |workers: usize, resume: bool| {
        let ctl = Arc::new(RunCtl::new(Some(dir.clone()), resume, None));
        let _guard = checkpoint::install(ctl);
        let t0 = Instant::now();
        let c0 = crate::procfs::cpu_seconds();
        let out = parallel_map_with(workers, &locations, |_, &loc| {
            let t = Instant::now();
            let e = fig9::ber_at_location_ci_with(1, loc, &effort, trial_seed(seed, loc as u64));
            (e, t.elapsed().as_secs_f64() * 1e3)
        });
        (
            out,
            t0.elapsed().as_secs_f64(),
            crate::procfs::cpu_seconds() - c0,
        )
    };
    let (one, wall1, _) = run(1, false);
    let (journals, corrupt) = census(std::path::Path::new(".bench_out"), &["probe-journal"]);
    let (resumed, resume_s, _) = run(1, true);
    let n = nproc();
    let _ = std::fs::remove_dir_all(&dir);
    let (many, walln, cpun) = run(n, false);
    let est = |v: &[(Estimate, f64)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
    p.check(
        "probe fan-out: 1 worker, nproc workers and resume agree",
        corrupt == 0 && est(&one) == est(&many) && est(&one) == est(&resumed),
    );
    p.attempted += locations.len() as u64;
    let masters: BTreeMap<u64, &JournalEntry> = journals.iter().map(|j| (j.master, j)).collect();
    let points: Vec<(f64, u64, bool)> = one
        .iter()
        .zip(&locations)
        .map(|(&(_, ms), &loc)| {
            let j = masters.get(&trial_seed(seed, loc as u64));
            (ms, j.map_or(0, |j| j.done), j.is_some_and(|j| j.capped))
        })
        .collect();
    mc_point_metrics(p, &points, "probe");
    let task_ms: Vec<f64> = one.iter().map(|x| x.1).collect();
    let mean = task_ms.iter().sum::<f64>() / task_ms.len() as f64;
    let max = task_ms.iter().copied().fold(0.0, f64::max);
    p.set("parallel.tasks", task_ms.len() as f64, "probe");
    p.set(
        "parallel.task_ms_p50",
        median(&task_ms).expect("tasks ran"),
        "probe",
    );
    p.set("parallel.task_ms_max", max, "probe");
    p.set("parallel.imbalance", max / mean, "probe");
    p.set("parallel.speedup_wmax", wall1 / walln, "probe");
    p.set("parallel.cpu_util", cpun / (walln * n as f64), "probe");
    p.set("checkpoint.resume_s", resume_s, "probe");
    journal_metrics(p, &journals, "probe");
}
