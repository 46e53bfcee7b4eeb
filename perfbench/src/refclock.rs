//! The host's speed, read from a fixed reference kernel, so the timed
//! metrics do not follow the load phases of a shared host.
//!
//! On a shared virtual machine the same code runs up to 1.75× faster or
//! slower for minutes at a time while other tenants come and go, and no
//! run of seconds averages that out. The benchmark therefore times a
//! kernel of its own, which no change to the simulator touches, at every
//! checkpoint of a run, and reports each timed quantity rescaled to a
//! host on which that kernel takes [`NOMINAL_S`]:
//! `scaled = measured × NOMINAL_S / reference`.
//!
//! The kernel mixes the two kinds of work the simulator's hot path does,
//! in the share that tracked it best: transcendental functions (tone
//! synthesis, noise, detection) and a vectorisable complex rotation over
//! sample buffers (mixing). Measured across the host's phases, relayed
//! interrogations moved by 1.57×, each half of the kernel alone by 1.78×
//! and 1.35×, and their mix by the interrogations' factor to within about
//! ±5% (README.md, "Host speed").

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel seconds of the nominal host the metrics are scaled to.
pub const NOMINAL_S: f64 = 0.005;
/// Transcendental evaluations per kernel call.
const TRIG_ITERS: usize = 57_000;
/// Rotation passes over the sample buffers per kernel call.
const ROTATE_PASSES: usize = 430;
/// Complex samples per buffer.
const BUF: usize = 8192;
/// Kernel calls per reading; the reading is their median.
const CALLS: usize = 5;

/// One call of the reference kernel; returns its host seconds.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut acc = [0.0f64; 4];
    for i in 0..TRIG_ITERS {
        let x = black_box(i as f64 * 1e-3 + 0.1);
        acc[i & 3] += x.sin() + x.cos() + x.ln() + x.sqrt() + (x * 0.01).exp();
    }
    let mut re: Vec<f64> = (0..BUF).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut im: Vec<f64> = (0..BUF).map(|i| (i as f64 * 0.11).cos()).collect();
    for k in 0..ROTATE_PASSES {
        let (c, s) = (black_box(0.999 + k as f64 * 1e-9), 0.001);
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            (*r, *i) = (*r * c - *i * s, *i * c + *r * s);
        }
    }
    black_box((acc, &re, &im));
    t0.elapsed().as_secs_f64()
}

/// Reference seconds now: the median of [`CALLS`] calls of the kernel on
/// this thread.
pub fn reference_s() -> f64 {
    median(&(0..CALLS).map(|_| kernel()).collect::<Vec<_>>()).expect("calls ran")
}

/// `seconds` measured while the reference read `reference_s`, rescaled to
/// the nominal host.
pub fn scaled(seconds: f64, reference_s: f64) -> f64 {
    seconds * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_nominal_host() {
        assert_eq!(scaled(2.0, NOMINAL_S), 2.0);
        assert_eq!(scaled(2.0, 2.0 * NOMINAL_S), 1.0);
        assert_eq!(scaled(2.0, 0.5 * NOMINAL_S), 4.0);
    }

    #[test]
    fn a_reading_is_a_positive_time() {
        let r = reference_s();
        assert!(r.is_finite() && r > 0.0, "{r}");
    }
}
