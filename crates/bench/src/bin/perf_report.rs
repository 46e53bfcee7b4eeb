//! `perf_report` — the repo's tracked-benchmark harness.
//!
//! Times the canonical hot kernels (the `Medium` block step at several
//! antenna counts, FSK modulation/demodulation, one full relayed exchange,
//! a quick Fig. 9 run) plus the supporting micro-kernels (FFT, Welch PSD,
//! noise, oscillators, the Monte-Carlo engine's own overhead), and prints
//! a machine-readable JSON report to stdout (and optionally a file). It is
//! the repo's only kernel harness.
//!
//! Usage:
//!
//! ```text
//! perf_report [--quick] [--out results/BENCH_N.json]
//! ```
//!
//! `--quick` shrinks iteration counts so CI can smoke-test the harness in
//! seconds; timings from a loaded CI machine are not comparable across
//! runs, so the checked-in `results/BENCH_*.json` files are produced on a
//! quiet machine via `scripts/bench.sh`.

use hb_channel::fading::Fading;
use hb_channel::geometry::Placement;
use hb_channel::medium::{Medium, MediumConfig};
use hb_channel::pathloss::PathlossModel;
use hb_dsp::complex::C64;
use hb_imd::commands::Command;
use hb_phy::bits::Prbs;
use hb_phy::fsk::{FskModem, FskParams};
use hb_phy::stream::StreamingDetector;
use hb_shield::jamsignal::JamSignal;
use hb_testbed::experiments::{fig9, relay_one_exchange, Effort};
use hb_testbed::scenario::{ScenarioBuilder, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One timed kernel: name, iterations, total seconds.
struct Timing {
    name: &'static str,
    iters: u64,
    seconds: f64,
    /// What one iteration of the kernel covers (for human readers).
    unit: &'static str,
    /// Samples processed per iteration, when the kernel has a meaningful
    /// per-sample cost (the `medium_block_*` family: antennas ×
    /// block_len received samples per block).
    samples: Option<u64>,
}

impl Timing {
    fn per_iter_us(&self) -> f64 {
        self.seconds / self.iters as f64 * 1e6
    }

    fn per_sample_ns(&self) -> Option<f64> {
        self.samples
            .map(|s| self.seconds / self.iters as f64 / s as f64 * 1e9)
    }

    fn with_samples(mut self, samples: u64) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// Times `f` for `iters` iterations after one warm-up iteration.
fn time_kernel<F: FnMut()>(name: &'static str, unit: &'static str, iters: u64, mut f: F) -> Timing {
    f(); // warm-up: populate caches/pools so steady state is measured
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    Timing {
        name,
        iters,
        seconds: start.elapsed().as_secs_f64(),
        unit,
        samples: None,
    }
}

/// A medium with `n` antennas in a line, all cross links set, `n_tx`
/// transmitters staging every block.
fn bench_medium(n: usize, n_tx: usize, blocks: u64) -> Timing {
    let mut m = Medium::new(MediumConfig::default(), 42);
    for i in 0..n {
        m.add_antenna(Placement::los("ant", i as f64 * 0.5, 0.0));
    }
    for a in 0..n {
        for b in 0..n {
            if a != b {
                m.set_gain(a, b, C64::new(0.1 / (1.0 + a as f64), 0.05));
            }
        }
    }
    let burst: Vec<C64> = (0..m.config().block_len)
        .map(|i| C64::cis(i as f64 * 0.3))
        .collect();
    let name = match n {
        3 => "medium_block_3ant",
        8 => "medium_block_8ant",
        16 => "medium_block_16ant",
        _ => panic!("no tracked name for a {n}-antenna dense medium"),
    };
    let samples = (n * m.config().block_len) as u64;
    time_kernel(
        name,
        "1 block: stage txs + receive at every antenna + end_block",
        blocks,
        move || {
            for tx in 0..n_tx {
                m.transmit(tx, 0, &burst);
            }
            for rx in 0..n {
                let y = m.receive(rx, 0);
                std::hint::black_box(y.last().copied());
            }
            m.end_block();
        },
    )
    .with_samples(samples)
}

/// A ward-scale culled medium: `n` antennas along a hospital corridor
/// (2 m pitch), links drawn from the indoor MICS pathloss model, and a
/// finite cull margin. Every 8th antenna is an implanted transmitter
/// (`n_tx` of them stage each block); the +40 dB per in-body endpoint
/// means each receiver only hears the staged implants within ~28 m, so
/// the audible degree per receiver stays bounded as `n` grows — this is
/// the scaling regime the sparse engine exists for, and what keeps the
/// 128-antenna per-sample cost within the 16-antenna dense bench's
/// envelope.
fn bench_medium_ward(n: usize, blocks: u64) -> Timing {
    let n_tx = n / 8;
    let mut m = Medium::new(
        MediumConfig {
            cull_margin_db: 12.0,
            ..MediumConfig::default()
        },
        42,
    );
    for i in 0..n {
        let p = Placement::los("ward", i as f64 * 2.0, 0.0);
        m.add_antenna(if i % 8 == 0 { p.implanted() } else { p });
    }
    m.build_links(&PathlossModel::mics_indoor(), Fading::None);
    let burst: Vec<C64> = (0..m.config().block_len)
        .map(|i| C64::cis(i as f64 * 0.3))
        .collect();
    let name = match n {
        64 => "medium_block_64ant",
        128 => "medium_block_128ant",
        _ => panic!("no tracked name for a {n}-antenna ward medium"),
    };
    let samples = (n * m.config().block_len) as u64;
    time_kernel(
        name,
        "1 block on the culled ward corridor: stage implants + receive everywhere + end_block",
        blocks,
        move || {
            for k in 0..n_tx {
                m.transmit(k * 8, 0, &burst);
            }
            for rx in 0..n {
                let y = m.receive(rx, 0);
                std::hint::black_box(y.last().copied());
            }
            m.end_block();
        },
    )
    .with_samples(samples)
}

/// The repeat-receive (cache-hit) path: the shield, IMD and eavesdropper
/// all re-reading the same (antenna, channel) within one block. This is
/// *the* Medium-receive microbench the PR-2 acceptance criterion tracks:
/// the seed engine cloned the cached `Vec<C64>` on every repeat call;
/// `receive_view` returns a borrow of the pooled buffer instead.
fn bench_medium_repeat(blocks: u64) -> Timing {
    let mut m = Medium::new(MediumConfig::default(), 7);
    for i in 0..3 {
        m.add_antenna(Placement::los("ant", i as f64 * 0.5, 0.0));
    }
    m.set_gain(0, 2, C64::new(0.3, 0.1));
    let burst = vec![C64::ONE; m.config().block_len];
    time_kernel(
        "medium_receive_cached",
        "1 block: 1 fresh receive + 255 repeat receives",
        blocks,
        move || {
            m.transmit(0, 0, &burst);
            for _ in 0..256 {
                let y = m.receive_view(2, 0);
                std::hint::black_box(y.first().copied());
            }
            m.end_block();
        },
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let scale: u64 = if quick { 1 } else { 10 };

    // --- Layer 1: the Medium block step ---
    let mut timings: Vec<Timing> = vec![
        bench_medium(3, 2, 2_000 * scale),
        bench_medium(8, 3, 800 * scale),
        bench_medium(16, 4, 300 * scale),
        bench_medium_ward(64, 120 * scale),
        bench_medium_ward(128, 60 * scale),
        bench_medium_repeat(2_000 * scale),
    ];

    // --- Layer 2: the FSK modem ---
    let modem = FskModem::new(FskParams::mics_default());
    let mut prbs = Prbs::new(0x5A);
    let bits = prbs.bits(1024);
    let wave = modem.modulate(&bits);
    {
        let modem = modem.clone();
        let bits = bits.clone();
        timings.push(time_kernel(
            "fsk_modulate_1024bits",
            "modulate 1024 bits (24576 samples)",
            100 * scale,
            move || {
                std::hint::black_box(modem.modulate(&bits).len());
            },
        ));
    }
    {
        let modem = modem.clone();
        let wave = wave.clone();
        timings.push(time_kernel(
            "fsk_demodulate_1024bits",
            "demodulate 24576 samples",
            100 * scale,
            move || {
                std::hint::black_box(modem.demodulate(&wave).len());
            },
        ));
    }
    {
        let wave = wave.clone();
        let mut det = StreamingDetector::new(FskParams::mics_default(), 4);
        timings.push(time_kernel(
            "streaming_detector_24k_samples",
            "push 24576 samples through the 24-phase detector",
            10 * scale,
            move || {
                for block in wave.chunks(16) {
                    std::hint::black_box(det.push_block(block).len());
                }
            },
        ));
    }
    {
        // The raw blocked MAC stage alone (stage (a) of the detector):
        // isolates the correlator kernel from the per-symbol state machine.
        // `detection_correlator` is the exact constructor the production
        // detectors use, so this times the same filter they run.
        let wave = wave.clone();
        let params = FskParams::mics_default();
        let sps = params.samples_per_symbol();
        let mut corr = hb_phy::stream::detection_correlator(params);
        let (mut e0, mut e1) = (Vec::new(), Vec::new());
        timings.push(time_kernel(
            "detector_sweep_24k",
            "24576 samples through the raw blocked 24-phase MAC stage",
            10 * scale,
            move || {
                e0.clear();
                e1.clear();
                for (i, block) in wave.chunks(16).enumerate() {
                    corr.process_block(block, (i * 16) % sps, &mut e0, &mut e1);
                }
                std::hint::black_box(e1.last().copied());
            },
        ));
    }
    {
        let plan = hb_dsp::fft::FftPlan::new(256);
        let data = hb_dsp::noise::white_noise(&mut StdRng::seed_from_u64(1), 256, 1.0);
        let mut buf = data.clone();
        timings.push(time_kernel(
            "fft_256",
            "one 256-point forward FFT (the shield's jam-profile size)",
            2_000 * scale,
            move || {
                buf.copy_from_slice(&data);
                plan.forward(&mut buf);
                std::hint::black_box(buf[0]);
            },
        ));
    }
    {
        let sig = hb_dsp::noise::white_noise(&mut StdRng::seed_from_u64(3), 16_384, 1.0);
        timings.push(time_kernel(
            "welch_psd_16k",
            "Welch PSD of 16384 samples, 256-bin Hann segments",
            20 * scale,
            move || {
                let psd =
                    hb_dsp::spectrum::welch_psd(&sig, 256, hb_dsp::window::Window::Hann, 300e3);
                std::hint::black_box(psd);
            },
        ));
    }
    {
        let mut rng = StdRng::seed_from_u64(3);
        timings.push(time_kernel(
            "white_noise_4k",
            "4096 complex Gaussian samples",
            100 * scale,
            move || {
                std::hint::black_box(hb_dsp::noise::white_noise(&mut rng, 4096, 1.0).len());
            },
        ));
    }
    {
        // The batched NoiseSource on a pooled buffer — the allocation-free
        // form every Medium receive and jam synthesis path uses.
        let mut rng = StdRng::seed_from_u64(5);
        let src = hb_dsp::noise::NoiseSource::new(1.0);
        let mut buf = vec![hb_dsp::C64::ZERO; 65_536];
        timings.push(time_kernel(
            "noise_fill_64k",
            "65536 complex Gaussian samples into a pooled buffer (batched paired Box-Muller)",
            10 * scale,
            move || {
                src.fill(&mut rng, &mut buf);
                std::hint::black_box(buf.last().copied());
            },
        ));
    }
    {
        // The phase-recurrence oscillator that replaced per-sample sin/cos
        // in FSK modulation and CFO rotation.
        let mut osc = hb_dsp::osc::Rotator::new(0.0, 2.0 * std::f64::consts::PI * 50e3 / 300e3);
        let mut buf = vec![hb_dsp::C64::ZERO; 65_536];
        timings.push(time_kernel(
            "osc_rotator_64k",
            "65536 complex tone samples via the rotator recurrence",
            10 * scale,
            move || {
                osc.fill(&mut buf);
                std::hint::black_box(buf.last().copied());
            },
        ));
    }
    {
        let mut jam = JamSignal::shaped_for_fsk(FskParams::mics_default(), 256);
        jam.set_power_dbm(-35.0);
        let mut rng = StdRng::seed_from_u64(4);
        timings.push(time_kernel(
            "jam_next_4k",
            "4096 shaped jamming samples",
            100 * scale,
            move || {
                std::hint::black_box(jam.next_samples(&mut rng, 4096).len());
            },
        ));
    }

    {
        // The adaptive Monte-Carlo engine's own bookkeeping: a no-op trial
        // through a full cap-bounded run (4096 trials over ~7 doubling
        // rounds, single worker) isolates seed derivation, count pooling
        // and Wilson-interval evaluation from simulation cost. This is the
        // fixed tax every adaptive experiment pays per data point — it
        // must stay negligible next to one real exchange (~ms).
        use hb_testbed::montecarlo::{McConfig, Runner};
        let cfg = McConfig {
            initial_trials: 64,
            max_trials: 4096,
            target_half_width: 0.0, // unreachable: always runs to the cap
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 0,
        };
        timings.push(time_kernel(
            "montecarlo_round_overhead",
            "4096-trial adaptive run (no-op trials): engine overhead only",
            20 * scale,
            move || {
                let run = Runner::new(1).proportions(&cfg, 11, |s| [(s & 1, 1), (s & 2, 2)]);
                std::hint::black_box(run.estimates[0].ci_hi);
            },
        ));
    }
    {
        // The same cap-bounded no-op run, but journaled: every doubling
        // round encodes, checksums, fsyncs, and atomically renames a
        // checkpoint journal. The delta against `montecarlo_round_overhead`
        // is the full crash-safety tax per adaptive run (~7 fsynced
        // journal writes, a few ms total). That is per *data point*, not
        // per trial: a real data point simulates hundreds of ~ms
        // exchanges, so the tax must stay well under a percent of that.
        use hb_testbed::checkpoint::RunCtl;
        use hb_testbed::montecarlo::{McConfig, Runner};
        let cfg = McConfig {
            initial_trials: 64,
            max_trials: 4096,
            target_half_width: 0.0, // unreachable: always runs to the cap
            z: hb_dsp::stats::Z_95,
            bootstrap_resamples: 0,
        };
        let dir = std::env::temp_dir().join(format!("hb_perf_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        timings.push(time_kernel(
            "montecarlo_resume_overhead",
            "4096-trial adaptive run with per-round journal checkpoints",
            20 * scale,
            {
                let dir = dir.clone();
                move || {
                    let ctl = RunCtl::new(Some(dir.clone()), false, None);
                    let run: hb_testbed::montecarlo::McRun<2> = Runner::with_ctl(1, Some(&ctl))
                        .proportions(&cfg, 11, |s| [(s & 1, 1), (s & 2, 2)]);
                    std::hint::black_box(run.estimates[0].ci_hi);
                }
            },
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Layer 3: one full relayed exchange and a quick Fig. 9 ---
    timings.push(time_kernel(
        "relay_one_exchange",
        "one 60 ms relayed interrogation (1125 blocks)",
        3 * scale,
        || {
            let mut scenario = ScenarioBuilder::new(ScenarioConfig::paper(9)).build();
            relay_one_exchange(&mut scenario, &mut [], Command::Interrogate);
            std::hint::black_box(scenario.shield.as_ref().unwrap().stats.imd_frames_ok);
        },
    ));
    timings.push(time_kernel(
        "arq_exchange_faulty",
        "one ARQ interrogation under calibrated burst loss (intensity 1.0)",
        3 * scale,
        || {
            use hb_testbed::experiments::resilience;
            let mut cfg = ScenarioConfig::paper(9);
            cfg.fault = resilience::fault_plan(1.0);
            let mut scenario = ScenarioBuilder::new(cfg).build();
            let out = hb_testbed::recovery::run_arq_exchange(
                &mut scenario,
                &mut [],
                Command::Interrogate,
                hb_imd::arq::ArqConfig::default(),
                hb_mics::session::SessionConfig::default(),
            );
            std::hint::black_box(out.map(|o| o.blocks).unwrap_or(0));
        },
    ));
    timings.push(time_kernel(
        "defense_matrix_tiny",
        "one clean defended exchange per defense (shield, imdfence, wakeup-radio)",
        2 * scale,
        || {
            use hb_testbed::defense::{run_defended_exchange, DEFENSES};
            for defense in DEFENSES {
                let mut cfg = ScenarioConfig::paper(9);
                defense.configure(&mut cfg);
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
                std::hint::black_box(report.delivered);
            }
        },
    ));
    if quick {
        timings.push(time_kernel(
            "fig9_one_location",
            "eavesdropper BER at location 1, 2 packets",
            1,
            || {
                std::hint::black_box(fig9::ber_at_location(1, 2, 3));
            },
        ));
    } else {
        timings.push(time_kernel(
            "fig9_quick_run",
            "full 18-location Fig. 9 sweep at tiny effort",
            1,
            || {
                std::hint::black_box(fig9::run(Effort::tiny(), 1).cdf.median());
            },
        ));
    }

    // --- Report ---
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"threads\": {},\n",
        hb_testbed::parallel_threads()
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let per_sample = t
            .per_sample_ns()
            .map(|ns| format!("\"per_sample_ns\": {ns:.3}, "))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"total_s\": {:.6}, \"per_iter_us\": {:.3}, {}\"unit\": \"{}\"}}{}\n",
            t.name,
            t.iters,
            t.seconds,
            t.per_iter_us(),
            per_sample,
            t.unit,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    print!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
