//! # hb-bench — benchmark harness and evaluation CLI
//!
//! Two binaries live under `src/bin/`:
//!
//! * `perf_report` — the kernel benchmark harness behind
//!   `scripts/bench.sh` (`results/BENCH_*.json`): the `Medium` block step,
//!   the FSK modem, detector stages, FFT and Welch PSD, noise and
//!   oscillators, the Monte-Carlo engine's overhead, and whole relayed
//!   exchanges.
//! * `hb_eval` — the experiment-registry CLI: `--list`, `run <name>...`,
//!   `--all`, with `--effort`/`--seed`/`--threads` and
//!   `--format text|csv|json` artifacts written under `results/`. Its
//!   `--effort full` runs are the paper-scale evaluation.

#![forbid(unsafe_code)]
