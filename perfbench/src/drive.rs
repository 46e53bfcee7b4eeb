//! The benchmark's block driver and output fingerprints.
//!
//! [`traced_block`] runs one simulation block by calling the public
//! [`Scenario`] fields in exactly the order `Scenario::run_block_with`
//! does, with a span around each node phase. The RNG draw order forbids
//! issuing receives from outside, so a node's `consume` span includes the
//! medium's mixing and noise fill for that node's antennas.

use crate::trace::Tracer;
use hb_channel::sim::Node;
use hb_dsp::checksum::fnv1a64;
use hb_imd::device::TxRecord;
use hb_testbed::scenario::Scenario;
use std::fmt::Write as _;

/// One block with a span per layer, the same call sequence as
/// `Scenario::run_block_with`. `extra` nodes are timed together under
/// `extra_name.produce` / `extra_name.consume`.
pub fn traced_block(
    s: &mut Scenario,
    extra: &mut [&mut dyn Node],
    extra_name: (&'static str, &'static str),
    tr: &mut Tracer,
    observe: impl FnOnce(&mut Scenario),
) {
    let block = tr.begin("block");
    // Consecutive phases share one clock read at each boundary.
    let mut phase = tr.begin("imd.produce");
    s.imd.produce(&mut s.medium);
    if let Some(shield) = s.shield.as_mut() {
        phase = tr.switch(phase, "shield.produce");
        shield.produce(&mut s.medium);
    }
    if !s.patients.is_empty() {
        phase = tr.switch(phase, "patients.produce");
        for p in s.patients.iter_mut() {
            p.imd.produce(&mut s.medium);
            p.shield.produce(&mut s.medium);
        }
    }
    if !extra.is_empty() {
        phase = tr.switch(phase, extra_name.0);
        for n in extra.iter_mut() {
            n.produce(&mut s.medium);
        }
    }
    phase = tr.switch(phase, "imd.consume");
    s.imd.consume(&mut s.medium);
    if let Some(shield) = s.shield.as_mut() {
        phase = tr.switch(phase, "shield.consume");
        shield.consume(&mut s.medium);
    }
    if !s.patients.is_empty() {
        phase = tr.switch(phase, "patients.consume");
        for p in s.patients.iter_mut() {
            p.imd.consume(&mut s.medium);
            p.shield.consume(&mut s.medium);
        }
    }
    if !extra.is_empty() {
        phase = tr.switch(phase, extra_name.1);
        for n in extra.iter_mut() {
            n.consume(&mut s.medium);
        }
    }
    phase = tr.switch(phase, "observe");
    observe(s);
    phase = tr.switch(phase, "medium.end_block");
    s.medium.end_block();
    tr.end(phase);
    tr.end(block);
}

/// Span names for extra nodes: none attached.
pub const NO_EXTRA: (&str, &str) = ("extra.produce", "extra.consume");
/// Span names for an attached eavesdropper.
pub const EVE: (&str, &str) = ("eve.produce", "eve.consume");
/// Span names for a defense rig's own nodes.
pub const RIG: (&str, &str) = ("defense.nodes_produce", "defense.nodes_consume");

/// Fingerprint of everything observable after an exchange: the medium
/// tick, IMD and shield counters of every patient, and the IMD
/// transmissions `tx` taken from the exchange's log.
pub fn fingerprint(s: &Scenario, tx: &[TxRecord]) -> u64 {
    let mut text = String::new();
    let _ = write!(
        text,
        "{} {:?} {:?}",
        s.medium.tick(),
        s.imd.stats,
        s.imd.battery()
    );
    if let Some(shield) = s.shield.as_ref() {
        let _ = write!(text, " {:?}", shield.stats);
    }
    for p in &s.patients {
        let _ = write!(text, " {:?} {:?}", p.imd.stats, p.shield.stats);
    }
    for r in tx {
        let _ = write!(text, " {}:{:?}:{:?}", r.start_tick, r.bits, r.payload);
    }
    fnv1a64(text.as_bytes())
}

/// Folds one value into a running digest.
pub fn fold(digest: u64, value: u64) -> u64 {
    let mut bytes = digest.to_le_bytes().to_vec();
    bytes.extend_from_slice(&value.to_le_bytes());
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_imd::commands::Command;
    use hb_testbed::scenario::{ScenarioBuilder, ScenarioConfig};

    /// The block driver reproduces `Scenario::run_blocks` bit for bit.
    #[test]
    fn traced_blocks_match_run_blocks() {
        for seed in [1u64, 2] {
            let mut a = ScenarioBuilder::new(ScenarioConfig::paper(seed)).build();
            let mut b = ScenarioBuilder::new(ScenarioConfig::paper(seed)).build();
            a.shield
                .as_mut()
                .unwrap()
                .queue_command(Command::Interrogate);
            b.shield
                .as_mut()
                .unwrap()
                .queue_command(Command::Interrogate);
            let blocks = a.medium.blocks_for_duration(0.060);
            a.run_blocks(&mut [], blocks);
            let mut tr = Tracer::default();
            for _ in 0..blocks {
                traced_block(&mut b, &mut [], NO_EXTRA, &mut tr, |_| {});
            }
            let (ta, tb) = (a.imd.take_tx_log(), b.imd.take_tx_log());
            assert!(!ta.is_empty(), "the IMD replied");
            assert_eq!(fingerprint(&a, &ta), fingerprint(&b, &tb));
            assert_eq!(
                tr.spans().iter().filter(|s| s.name == "block").count() as u64,
                blocks
            );
        }
    }
}
