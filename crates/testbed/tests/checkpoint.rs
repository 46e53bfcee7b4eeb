//! Crash-safety suite: interrupted-vs-uninterrupted equivalence of the
//! adaptive Monte-Carlo engine, journal corruption handling, quarantine
//! semantics, and deadline truncation.
//!
//! The in-process "crash" here is faithful to a real kill: the engine
//! journals after every round, so a run killed between rounds leaves
//! exactly the round-`k` journal on disk. These tests capture that
//! journal mid-run (the engine's own bytes, copied the moment the first
//! trial of round `k+1` executes), restore it into a fresh checkpoint
//! directory, and resume — then compare estimates and final journals
//! byte-for-byte against the uninterrupted run. The end-to-end version
//! with a real `exit()` lives in `crates/bench/tests/crash_resume.rs`.

use hb_testbed::checkpoint::{Journal, JournalKind, RunCtl};
use hb_testbed::experiments::test_seed;
use hb_testbed::montecarlo::{trial_seed, Estimate, McConfig, McRun, Runner};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hb_ckpt_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(initial: usize, max: usize, target: f64) -> McConfig {
    McConfig {
        initial_trials: initial,
        max_trials: max,
        target_half_width: target,
        z: hb_dsp::stats::Z_95,
        bootstrap_resamples: 100,
    }
}

/// The deterministic p≈0.5 pseudo-coin from the engine's unit tests: 16
/// "bits" per trial, derived only from the trial seed.
fn coin_trial(seed: u64) -> (u64, u64) {
    let mut s = 0;
    for b in 0..16u64 {
        let x = trial_seed(seed, b);
        s += (x.count_ones() as u64) & 1;
    }
    (s, 16)
}

/// The journal path the engine will claim for `(master, K=1, tag)` under
/// `dir` — computed through the public claim API on a probe control.
fn journal_path(dir: &std::path::Path, master: u64, k: usize, tag: &str) -> PathBuf {
    RunCtl::new(Some(dir.to_path_buf()), false, None)
        .claim_journal(master, k, tag)
        .expect("journaling enabled")
}

/// Runs a journaled proportion run to completion at `workers`, capturing
/// the engine-written journal bytes present on disk when global trial
/// `boundary` first executes — i.e. the exact file a crash between the
/// round ending at `boundary` and the next one would leave behind.
/// Returns `(uninterrupted run, captured round-k journal bytes, final
/// journal bytes)`.
fn run_and_capture(
    workers: usize,
    c: &McConfig,
    master: u64,
    boundary: u64,
) -> (McRun<1>, Vec<u8>, Vec<u8>) {
    let dir = tmp_dir(&format!("cap_{workers}_{master}_{boundary}"));
    let ctl = RunCtl::new(Some(dir.clone()), false, None);
    let jpath = journal_path(&dir, master, 1, "p");
    let captured: Mutex<Option<Vec<u8>>> = Mutex::new(None);
    let capture_seed = trial_seed(master, boundary);
    let run = Runner::with_ctl(workers, Some(&ctl)).proportions(c, master, |s| {
        if s == capture_seed {
            *captured.lock().unwrap() = std::fs::read(&jpath).ok();
        }
        [coin_trial(s)]
    });
    let captured = captured
        .lock()
        .unwrap()
        .take()
        .expect("boundary trial must have run (pick boundary < total trials)");
    let final_journal = std::fs::read(&jpath).expect("final journal written");
    let _ = std::fs::remove_dir_all(&dir);
    (run, captured, final_journal)
}

/// Resumes a proportion run from `journal_bytes` in a fresh directory and
/// returns the result plus the resumed run's final journal bytes.
fn resume_from(
    workers: usize,
    c: &McConfig,
    master: u64,
    journal_bytes: &[u8],
    label: &str,
) -> (McRun<1>, Vec<u8>) {
    let dir = tmp_dir(label);
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = journal_path(&dir, master, 1, "p");
    std::fs::write(&jpath, journal_bytes).unwrap();
    let ctl = RunCtl::new(Some(dir.clone()), true, None);
    let run = Runner::with_ctl(workers, Some(&ctl)).proportions(c, master, |s| [coin_trial(s)]);
    let final_journal = std::fs::read(&jpath).expect("resumed run rewrote the journal");
    let _ = std::fs::remove_dir_all(&dir);
    (run, final_journal)
}

#[test]
fn journaling_does_not_perturb_a_healthy_run() {
    // The acceptance bar for the goldens: enabling checkpoints must not
    // change a single bit of a healthy run's output.
    let c = cfg(4, 256, 0.02);
    let seed = test_seed(17);
    let bare = Runner::with_ctl(1, None).proportions(&c, seed, |s| [coin_trial(s)]);
    let dir = tmp_dir("healthy");
    let ctl = RunCtl::new(Some(dir.clone()), false, None);
    let journaled = Runner::with_ctl(1, Some(&ctl)).proportions(&c, seed, |s| [coin_trial(s)]);
    assert_eq!(bare.estimates, journaled.estimates);
    assert_eq!(bare.trials, journaled.trials);
    assert_eq!(bare.trace, journaled.trace);
    assert!(journaled.quarantines.is_empty() && !journaled.truncated);
    assert!(!ctl.health().flagged());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_any_round_is_bit_identical_at_any_thread_count() {
    // Crash after round k, resume, compare: estimates, trial counts, and
    // the *final journal bytes* must all match the uninterrupted run —
    // at HB_THREADS-style worker counts 1 and 4, swept across seeds
    // (`HB_TEST_SEED` shifts the whole family in CI).
    let c = cfg(4, 128, 1e-9); // unreachable target: runs to the cap
    for seed_salt in [5u64, 91] {
        let master = test_seed(20110815 ^ seed_salt);
        for workers in [1usize, 4] {
            let (reference, _, ref_journal) = run_and_capture(workers, &c, master, 4);
            for boundary in [4u64, 8, 32, 64] {
                let (_, crashed, _) = run_and_capture(workers, &c, master, boundary);
                // Sanity: the captured journal really is the round-k one.
                let j = Journal::decode(&crashed).expect("captured journal decodes");
                assert_eq!(j.done, boundary, "capture point");
                for resume_workers in [1usize, 4] {
                    let (resumed, resumed_journal) = resume_from(
                        resume_workers,
                        &c,
                        master,
                        &crashed,
                        &format!("res_{workers}_{resume_workers}_{boundary}_{seed_salt}"),
                    );
                    assert_eq!(
                        resumed.estimates, reference.estimates,
                        "estimates after resume at boundary {boundary}"
                    );
                    assert_eq!(resumed.trials, reference.trials);
                    assert_eq!(
                        resumed_journal, ref_journal,
                        "final journal bytes after resume at boundary {boundary}"
                    );
                }
            }
        }
    }
}

#[test]
fn resume_of_a_converged_run_stops_immediately() {
    // A run that crashed *after* its convergence round but before the
    // driver consumed the result: resume re-evaluates the stopping rule
    // from the journal and returns without running any more trials.
    let c = cfg(4, 4096, 0.02);
    let master = test_seed(23);
    let dir = tmp_dir("conv");
    let ctl = RunCtl::new(Some(dir.clone()), false, None);
    let full = Runner::with_ctl(1, Some(&ctl)).proportions(&c, master, |s| [coin_trial(s)]);
    let jpath = journal_path(&dir, master, 1, "p");
    let final_journal = std::fs::read(&jpath).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let trial_ran = Mutex::new(0u64);
    let dir2 = tmp_dir("conv_resume");
    std::fs::create_dir_all(&dir2).unwrap();
    std::fs::write(journal_path(&dir2, master, 1, "p"), &final_journal).unwrap();
    let ctl2 = RunCtl::new(Some(dir2.clone()), true, None);
    let resumed = Runner::with_ctl(1, Some(&ctl2)).proportions(&c, master, |s| {
        *trial_ran.lock().unwrap() += 1;
        [coin_trial(s)]
    });
    assert_eq!(*trial_ran.lock().unwrap(), 0, "no trials re-run");
    assert_eq!(resumed.estimates, full.estimates);
    assert_eq!(resumed.trials, full.trials);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn corrupt_journals_restart_from_scratch_never_resume_wrong() {
    let c = cfg(4, 64, 1e-9);
    let master = test_seed(7);
    let (reference, crashed, ref_journal) = run_and_capture(1, &c, master, 8);

    // Truncations and bit flips all fail the integrity check and fall
    // back to a clean from-scratch run — which, by determinism, lands on
    // the reference result and rewrites a pristine journal.
    let mut corruptions: Vec<Vec<u8>> = Vec::new();
    for cut in [0usize, 10, crashed.len() / 2, crashed.len() - 1] {
        corruptions.push(crashed[..cut].to_vec());
    }
    for pos in [12usize, crashed.len() / 2, crashed.len() - 2] {
        let mut bad = crashed.clone();
        bad[pos] ^= 0x40;
        corruptions.push(bad);
    }
    corruptions.push(b"not a journal at all".to_vec());
    for (i, bad) in corruptions.iter().enumerate() {
        assert_eq!(Journal::decode(bad), None, "corruption {i} must not decode");
        let (resumed, resumed_journal) = resume_from(1, &c, master, bad, &format!("corrupt_{i}"));
        assert_eq!(resumed.estimates, reference.estimates, "corruption {i}");
        assert_eq!(resumed.trials, reference.trials, "corruption {i}");
        assert_eq!(resumed_journal, ref_journal, "corruption {i}");
    }

    // Control experiment: a *checksum-valid* journal with tampered counts
    // IS resumed (that's the engine trusting integrity-checked state) and
    // yields different estimates — demonstrating the corruption cases
    // above really did restart from scratch rather than resume garbage.
    let mut tampered = Journal::decode(&crashed).unwrap();
    if let JournalKind::Proportions(pools) = &mut tampered.kind {
        pools[0].0 = 0; // claim zero successes so far
    }
    let (wrong, _) = resume_from(1, &c, master, &tampered.encode(), "tampered");
    assert_eq!(wrong.trials, reference.trials, "schedule still followed");
    assert_ne!(
        wrong.estimates[0], reference.estimates[0],
        "a decodable journal is trusted — only the checksum stands between \
         corruption and a wrong resume"
    );
}

#[test]
fn mismatched_master_or_config_restarts_from_scratch() {
    let c = cfg(4, 64, 1e-9);
    let master = test_seed(41);
    let (reference, crashed, _) = run_and_capture(1, &c, master, 8);

    // Same bytes, resumed under a different master seed: the journal's
    // master field does not match, so the run restarts (and, being a
    // different seed, must not inherit the old counts).
    let other_master = master ^ 0xFFFF;
    let dir = tmp_dir("wrong_master");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(journal_path(&dir, other_master, 1, "p"), &crashed).unwrap();
    let ctl = RunCtl::new(Some(dir.clone()), true, None);
    let resumed =
        Runner::with_ctl(1, Some(&ctl)).proportions(&c, other_master, |s| [coin_trial(s)]);
    let fresh = Runner::with_ctl(1, None).proportions(&c, other_master, |s| [coin_trial(s)]);
    assert_eq!(resumed.estimates, fresh.estimates);
    let _ = std::fs::remove_dir_all(&dir);

    // Same journal under a different sizing config: the fingerprint
    // rejects it. A shorter cap makes the rejection observable — a
    // (wrong) resume from done=8 would only execute 24 more trials,
    // while the clean restart the engine actually performs runs all 32.
    let shorter = cfg(4, 32, 1e-9);
    let resumed = {
        let dir = tmp_dir("wrong_cfg");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = journal_path(&dir, master, 1, "p");
        std::fs::write(&jpath, &crashed).unwrap();
        let ctl = RunCtl::new(Some(dir.clone()), true, None);
        let run =
            Runner::with_ctl(1, Some(&ctl)).proportions(&shorter, master, |s| [coin_trial(s)]);
        let _ = std::fs::remove_dir_all(&dir);
        run
    };
    let fresh = Runner::with_ctl(1, None).proportions(&shorter, master, |s| [coin_trial(s)]);
    assert_eq!(resumed.estimates, fresh.estimates);
    assert_eq!(resumed.trials, 32, "clean restart re-ran every trial");
    assert_ne!(
        fresh.estimates[0], reference.estimates[0],
        "the two configs genuinely differ, so the rejection mattered"
    );
}

#[test]
fn quarantined_trials_degrade_gracefully_and_survive_resume() {
    let c = cfg(4, 64, 1e-9);
    let master = test_seed(3);
    let poison = trial_seed(master, 5); // trial index 5 panics
    let trial = |s: u64| {
        if s == poison {
            panic!("synthetic trial failure for seed {s:#x}");
        }
        [coin_trial(s)]
    };

    // The run completes, the panic is quarantined with replay metadata,
    // and the surviving trials' counts are unaffected (index 5 consumes
    // its seed but contributes nothing).
    let dir = tmp_dir("quar");
    let ctl = RunCtl::new(Some(dir.clone()), false, None);
    let run = Runner::with_ctl(1, Some(&ctl)).proportions(&c, master, trial);
    assert_eq!(run.trials, 64);
    assert_eq!(run.quarantines.len(), 1);
    let q = &run.quarantines[0];
    assert_eq!((q.index, q.seed), (5, poison));
    assert!(
        q.message.contains("synthetic trial failure"),
        "{}",
        q.message
    );
    assert_eq!(ctl.health().quarantined, 1);
    assert!(ctl.health().degraded() && !ctl.health().truncated);
    // 63 surviving trials × 16 bits each.
    assert_eq!(run.estimates[0].n, 63 * 16);
    // The healthy trials' pooled counts are exactly the healthy run minus
    // trial 5's contribution — the seed stream was not perturbed.
    let healthy = Runner::with_ctl(1, None).proportions(&c, master, |s| [coin_trial(s)]);
    let (h5, _) = coin_trial(poison);
    let healthy_successes = (healthy.estimates[0].mean * healthy.estimates[0].n as f64).round();
    let degraded_successes = (run.estimates[0].mean * run.estimates[0].n as f64).round();
    assert_eq!(degraded_successes, healthy_successes - h5 as f64);

    // The quarantine record survives in the journal and a resumed run
    // still reports the run as degraded.
    let jpath = journal_path(&dir, master, 1, "p");
    let journal = Journal::load(&jpath).expect("journal decodes");
    assert_eq!(journal.quarantines, run.quarantines);
    let crashed = {
        // Take the round-2 journal (done=8) to resume through the
        // quarantined round's aftermath.
        let j = Journal {
            done: 8,
            kind: JournalKind::Proportions(vec![{
                let mut pool = (0u64, 0u64);
                for i in 0..8u64 {
                    if i == 5 {
                        continue;
                    }
                    let (s, t) = coin_trial(trial_seed(master, i));
                    pool.0 += s;
                    pool.1 += t;
                }
                pool
            }]),
            ..journal.clone()
        };
        j.encode()
    };
    let dir2 = tmp_dir("quar_resume");
    std::fs::create_dir_all(&dir2).unwrap();
    std::fs::write(journal_path(&dir2, master, 1, "p"), &crashed).unwrap();
    let ctl2 = RunCtl::new(Some(dir2.clone()), true, None);
    let resumed = Runner::with_ctl(1, Some(&ctl2)).proportions(&c, master, trial);
    assert_eq!(resumed.estimates, run.estimates);
    assert_eq!(resumed.quarantines, run.quarantines);
    assert!(ctl2.health().degraded());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn expired_deadline_truncates_at_a_checkpoint() {
    let c = cfg(4, 1 << 20, 1e-9); // would run ~a million trials
    let master = test_seed(13);
    let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
    let ctl = RunCtl::new(None, false, Some(past));
    let run = Runner::with_ctl(1, Some(&ctl)).proportions(&c, master, |s| [coin_trial(s)]);
    assert!(run.truncated);
    assert_eq!(run.trials, 0, "stopped before the first round");
    assert!(ctl.health().truncated);

    // A generous deadline changes nothing relative to no deadline.
    let modest = cfg(4, 64, 1e-9);
    let future = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let ctl = RunCtl::new(None, false, Some(future));
    let timed = Runner::with_ctl(1, Some(&ctl)).proportions(&modest, master, |s| [coin_trial(s)]);
    let bare = Runner::with_ctl(1, None).proportions(&modest, master, |s| [coin_trial(s)]);
    assert_eq!(timed.estimates, bare.estimates);
    assert!(!timed.truncated && !ctl.health().flagged());
}

#[test]
fn adaptive_mean_resumes_bit_identically() {
    let c = cfg(8, 64, 1e-9);
    let master = test_seed(29);
    let noisy = |s: u64| (trial_seed(s, 0) >> 11) as f64 / (1u64 << 53) as f64;

    let dir = tmp_dir("mean");
    let ctl = RunCtl::new(Some(dir.clone()), false, None);
    let jpath = journal_path(&dir, master, 1, "m");
    let captured: Mutex<Option<Vec<u8>>> = Mutex::new(None);
    let capture_seed = trial_seed(master, 16); // first trial of round 3
    let reference: Estimate = Runner::with_ctl(1, Some(&ctl)).mean(&c, master, |s| {
        if s == capture_seed {
            *captured.lock().unwrap() = std::fs::read(&jpath).ok();
        }
        noisy(s)
    });
    let crashed = captured.lock().unwrap().take().expect("captured");
    let ref_journal = std::fs::read(&jpath).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(Journal::decode(&crashed).unwrap().done, 16);

    for workers in [1usize, 4] {
        let dir2 = tmp_dir(&format!("mean_resume_{workers}"));
        std::fs::create_dir_all(&dir2).unwrap();
        let jpath2 = journal_path(&dir2, master, 1, "m");
        std::fs::write(&jpath2, &crashed).unwrap();
        let ctl2 = RunCtl::new(Some(dir2.clone()), true, None);
        let resumed = Runner::with_ctl(workers, Some(&ctl2)).mean(&c, master, noisy);
        assert_eq!(resumed, reference, "resumed mean at {workers} workers");
        assert_eq!(std::fs::read(&jpath2).unwrap(), ref_journal);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    // Corrupt mean journals restart cleanly too.
    let mut bad = crashed.clone();
    let len = bad.len();
    bad[len - 3] ^= 0x08;
    let dir3 = tmp_dir("mean_corrupt");
    std::fs::create_dir_all(&dir3).unwrap();
    std::fs::write(journal_path(&dir3, master, 1, "m"), &bad).unwrap();
    let ctl3 = RunCtl::new(Some(dir3.clone()), true, None);
    let resumed = Runner::with_ctl(1, Some(&ctl3)).mean(&c, master, noisy);
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_dir_all(&dir3);
}

proptest! {
    /// Property form of the tentpole claim: for arbitrary sizing, master
    /// seed, crash round, and worker counts, crash-after-round-k + resume
    /// is bit-identical — estimates and final journal bytes — to the
    /// uninterrupted run.
    #[test]
    fn prop_resume_is_bit_identical(
        master in any::<u64>(),
        initial in 2usize..9,
        rounds in 3u32..7,
        crash_round in 1u32..3,
        workers_sel in 0usize..2,
        resume_workers_sel in 0usize..2,
    ) {
        let workers = [1usize, 4][workers_sel];
        let resume_workers = [1usize, 4][resume_workers_sel];
        let max = initial << rounds; // cap at a natural doubling boundary
        let c = cfg(initial, max, 1e-9);
        let boundary = (initial << crash_round) as u64;
        let (reference, crashed, ref_journal) =
            run_and_capture(workers, &c, master, boundary);
        let (resumed, resumed_journal) = resume_from(
            resume_workers,
            &c,
            master,
            &crashed,
            &format!("prop_{master:016x}_{initial}_{rounds}_{crash_round}_{workers}_{resume_workers}"),
        );
        prop_assert_eq!(resumed.estimates, reference.estimates);
        prop_assert_eq!(resumed.trials, reference.trials);
        prop_assert_eq!(resumed_journal, ref_journal);
    }
}
