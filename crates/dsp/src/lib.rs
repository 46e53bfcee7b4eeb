//! # hb-dsp — complex-baseband DSP substrate
//!
//! Numerics foundation for the *heartbeats* workspace, a reproduction of
//! "They Can Hear Your Heartbeats: Non-Invasive Security for Implantable
//! Medical Devices" (SIGCOMM 2011).
//!
//! Everything operates on [`complex::C64`] baseband samples:
//!
//! * [`fft`] — radix-2 FFT/IFFT with cached plans.
//! * [`goertzel`] — single-bin DFT (the FSK tone matched filter).
//! * [`correlator`] — the blocked multi-phase matched-filter correlator
//!   behind `hb_phy`'s streaming detector and Sid monitor (dense,
//!   autovectorizable per-phase tone accumulation).
//! * [`kernels`] — batched, branch-free `ln`/`sincos` kernels for the hot
//!   noise and oscillator paths (autovectorizable).
//! * [`noise`] — white and **PSD-shaped** Gaussian noise (the jamming
//!   signal construction of §6(a) of the paper), batched via
//!   [`noise::NoiseSource`].
//! * [`osc`] — phase-recurrence oscillators (tone synthesis without
//!   per-sample trig).
//! * [`spectrum`] — Welch PSD estimation and power profiles (Fig. 4/5).
//! * [`cfo`] — carrier frequency offset modeling and estimation.
//! * [`checksum`] — FNV-1a hashing for the crash-safe run journal's
//!   integrity header.
//! * [`window`], [`special`], [`units`], [`stats`] — supporting math.
//!
//! The crate has no unsafe code and every public item is documented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfo;
pub mod checksum;
pub mod complex;
pub mod correlator;
pub mod fft;
pub mod goertzel;
pub mod kernels;
pub mod noise;
pub mod osc;
pub mod special;
pub mod spectrum;
pub mod stats;
pub mod units;
pub mod window;

pub use complex::C64;
