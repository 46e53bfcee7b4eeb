//! Property-based tests for the DSP substrate.

use hb_dsp::cfo::{apply_cfo, correct_cfo};
use hb_dsp::complex::{inner_product, mean_power, C64};
use hb_dsp::fft::{fft, ifft, next_pow2, FftPlan};
use hb_dsp::goertzel::{goertzel, tone_correlate};
use hb_dsp::kernels::{ln_batch, sincos_turns_batch};
use hb_dsp::noise::NoiseSource;
use hb_dsp::osc::Rotator;
use hb_dsp::stats::{bootstrap_mean_interval, wilson_interval, Cdf, Z_95};
use hb_dsp::units::{db_from_ratio, ratio_from_db};
use hb_dsp::window::Window;
use proptest::prelude::*;

fn sig_strategy(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| C64::new(re, im)).collect())
}

proptest! {
    /// dB conversions round-trip.
    #[test]
    fn db_roundtrip(db in -120.0f64..120.0) {
        prop_assert!((db_from_ratio(ratio_from_db(db)) - db).abs() < 1e-9);
    }

    /// FFT is linear: F(a·x + y) == a·F(x) + F(y).
    #[test]
    fn fft_linearity(x in sig_strategy(64), scale in -10.0f64..10.0) {
        let n = next_pow2(x.len());
        let mut a = x.clone();
        a.resize(n, C64::ZERO);
        let mut b: Vec<C64> = a.iter().rev().copied().collect();
        b.resize(n, C64::ZERO);
        let combined: Vec<C64> = a.iter().zip(&b).map(|(&p, &q)| p.scale(scale) + q).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fc = fft(&combined);
        for i in 0..n {
            let expect = fa[i].scale(scale) + fb[i];
            prop_assert!((fc[i] - expect).abs() < 1e-6 * (1.0 + expect.abs()));
        }
    }

    /// Forward/inverse FFT with a shared plan round-trips.
    #[test]
    fn plan_roundtrip(x in sig_strategy(128)) {
        let n = next_pow2(x.len());
        let mut buf = x.clone();
        buf.resize(n, C64::ZERO);
        let orig = buf.clone();
        let plan = FftPlan::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    /// ifft(fft(x)) preserves mean power.
    #[test]
    fn fft_power_preservation(x in sig_strategy(64)) {
        let n = next_pow2(x.len());
        let mut buf = x;
        buf.resize(n, C64::ZERO);
        let p0 = mean_power(&buf);
        let back = ifft(&fft(&buf));
        prop_assert!((mean_power(&back) - p0).abs() < 1e-6 * (1.0 + p0));
    }

    /// Goertzel equals the direct correlation at any frequency.
    #[test]
    fn goertzel_equals_correlation(x in sig_strategy(64), f in -140e3f64..140e3) {
        let g = goertzel(&x, f, 300e3);
        let d = tone_correlate(&x, f, 300e3);
        prop_assert!((g - d).abs() < 1e-5 * (1.0 + d.abs()));
    }

    /// CFO application is invertible.
    #[test]
    fn cfo_invertible(x in sig_strategy(64), f in -50e3f64..50e3) {
        let shifted = apply_cfo(&x, f, 300e3, 0, 0.0);
        let back = correct_cfo(&shifted, f, 300e3);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    /// CDF is a valid distribution function: monotone, ends at 1.
    #[test]
    fn cdf_is_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples);
        let pts = cdf.points();
        let mut last = 0.0;
        for &(_, p) in &pts {
            prop_assert!(p >= last);
            last = p;
        }
        prop_assert!((last - 1.0).abs() < 1e-12);
        prop_assert!(cdf.quantile(0.0) <= cdf.quantile(1.0));
    }

    /// Wilson intervals always contain the point estimate, stay within
    /// [0, 1], and are properly ordered — for any (successes, trials, z).
    #[test]
    fn wilson_contains_point_estimate(
        trials in 1u64..100_000,
        frac in 0.0f64..=1.0,
        z in 0.5f64..4.0,
    ) {
        let successes = ((trials as f64) * frac).round() as u64;
        let successes = successes.min(trials);
        let p = successes as f64 / trials as f64;
        let (lo, hi) = wilson_interval(successes, trials, z);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        prop_assert!(lo <= hi);
        prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "({lo}, {hi}) vs p {p}");
    }

    /// Wilson interval half-widths shrink monotonically as the sample
    /// grows at a fixed observed proportion (4x the data, same p̂).
    #[test]
    fn wilson_shrinks_with_n(
        trials in 4u64..100_000,
        frac in 0.0f64..=1.0,
    ) {
        let successes = ((trials as f64) * frac).round() as u64;
        let successes = successes.min(trials);
        let (lo1, hi1) = wilson_interval(successes, trials, Z_95);
        let (lo4, hi4) = wilson_interval(4 * successes, 4 * trials, Z_95);
        prop_assert!(
            hi4 - lo4 < hi1 - lo1,
            "width at 4n ({}) must be below width at n ({})",
            hi4 - lo4,
            hi1 - lo1
        );
    }

    /// Bootstrap intervals bracket the sample mean and never leave the
    /// sample range, for any sample set, resample count, and seed.
    #[test]
    fn bootstrap_brackets_sample_mean(
        samples in prop::collection::vec(-1e6f64..1e6, 2..80),
        resamples in 20usize..200,
        seed in 0u64..1_000_000,
    ) {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let (lo, hi) = bootstrap_mean_interval(&samples, resamples, 0.05, seed);
        prop_assert!(lo <= hi);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo >= min - 1e-9 && hi <= max + 1e-9);
        // The percentile interval brackets the sample mean up to quantile
        // granularity (slack of one resample's worth of range on each
        // side covers nearest-rank rounding at small resample counts).
        let slack = (max - min) / resamples as f64 + 1e-9;
        prop_assert!(lo <= mean + slack && mean <= hi + slack, "({lo}, {hi}) vs mean {mean}");
    }

    /// Inner product is conjugate-symmetric: <a,b> = conj(<b,a>).
    #[test]
    fn inner_product_conjugate_symmetry(x in sig_strategy(32)) {
        let y: Vec<C64> = x.iter().rev().copied().collect();
        let ab = inner_product(&x, &y);
        let ba = inner_product(&y, &x);
        prop_assert!((ab - ba.conj()).abs() < 1e-6 * (1.0 + ab.abs()));
    }

    /// Windows are symmetric and bounded by 1 at the center.
    #[test]
    fn window_symmetry(len in 2usize..128) {
        for w in [Window::Hamming, Window::Hann, Window::Blackman, Window::Kaiser(7.0)] {
            let c = w.coefficients(len);
            for i in 0..len {
                prop_assert!((c[i] - c[len - 1 - i]).abs() < 1e-9);
                prop_assert!(c[i] <= 1.0 + 1e-9);
            }
        }
    }

    /// The oscillator recurrence stays within 1e-9 of the exact
    /// `sin`/`cos` evaluation over a million samples, at any step and
    /// start phase — the accuracy contract that lets modulation, jam
    /// synthesis and CFO rotation all ride the recurrence.
    #[test]
    fn rotator_tracks_sincos_over_1m_samples(
        dphi in -1.5f64..1.5,
        phase0 in -3.0f64..3.0,
    ) {
        let mut osc = Rotator::new(phase0, dphi);
        // Checking every one of the 1e6 samples against libm costs more
        // than the recurrence itself; stride the comparison and always
        // include the final (worst-accumulated-error) samples.
        let total: u64 = 1_000_000;
        let mut worst = 0.0f64;
        for n in 0..total {
            let got = osc.next();
            if n % 97 == 0 || n > total - 1000 {
                let phase = phase0 + n as f64 * dphi;
                let want = C64::new(phase.cos(), phase.sin());
                worst = worst.max((got - want).abs());
            }
        }
        prop_assert!(worst < 1e-9, "worst recurrence error {worst:e}");
    }

    /// Batch ln matches libm to 2e-12 relative over the unit interval.
    #[test]
    fn ln_batch_matches_std(xs in prop::collection::vec(1e-12f64..1.0, 1..200)) {
        let mut out = vec![0.0; xs.len()];
        ln_batch(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(out.iter()) {
            let want = x.ln();
            prop_assert!(
                (got - want).abs() <= want.abs() * 2e-12 + 1e-15,
                "ln({x:e}) = {got} vs {want}"
            );
        }
    }

    /// Batch sincos matches libm to 2e-10 absolute over the full turn.
    #[test]
    fn sincos_batch_matches_std(us in prop::collection::vec(0.0f64..1.0, 1..200)) {
        let mut s = vec![0.0; us.len()];
        let mut c = vec![0.0; us.len()];
        sincos_turns_batch(&us, &mut s, &mut c);
        for (i, &u) in us.iter().enumerate() {
            let (ws, wc) = (2.0 * std::f64::consts::PI * u).sin_cos();
            prop_assert!((s[i] - ws).abs() < 2e-10, "sin(2pi*{u})");
            prop_assert!((c[i] - wc).abs() < 2e-10, "cos(2pi*{u})");
        }
    }

    /// NoiseSource fills are split-invariant: any partition of a buffer
    /// into consecutive fills yields bit-identical samples.
    #[test]
    fn noise_fill_is_split_invariant(
        seed in 0u64..1_000_000,
        cut in 1usize..511,
        power in 1e-12f64..1e3,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 512;
        let src = NoiseSource::new(power);
        let mut whole = vec![C64::ZERO; n];
        src.fill(&mut StdRng::seed_from_u64(seed), &mut whole);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = vec![C64::ZERO; cut];
        let mut b = vec![C64::ZERO; n - cut];
        src.fill(&mut rng, &mut a);
        src.fill(&mut rng, &mut b);
        a.extend(b);
        for (x, y) in whole.iter().zip(a.iter()) {
            prop_assert!(x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits());
        }
    }
}
