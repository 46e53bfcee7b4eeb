//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! library's public layer functions. Each span has a name, a start, an
//! end, a parent (the span open when it began) and the id of the trial or
//! exchange it belongs to. Nothing is written until the pass ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `shield.consume`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Trial or exchange the span belongs to.
    pub unit: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }
}

impl Tracer {
    /// Sets the trial or exchange id stamped on spans begun from now on.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Closes span `id`, the innermost open one, and opens its sibling
    /// `name` at the same instant: one clock read for two boundaries.
    pub fn switch(&mut self, id: u32, name: &'static str) -> u32 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        let next = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            unit: self.unit,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(next);
        next
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes the spans as tab-separated lines: id, parent (-1 at top
    /// level), unit, name, start ns, end ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tunit\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.unit, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut i = 0;
    while i < kids.len() {
        let parent = kids[i].0;
        let p = spans[parent as usize];
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        while i < kids.len() && kids[i].0 == parent {
            let lo = kids[i].1.clamp(reach, p.end_ns);
            let hi = kids[i].2.clamp(lo, p.end_ns);
            covered += hi - lo;
            reach = hi;
            i += 1;
        }
        out[parent as usize] -= covered;
    }
    out
}

/// Count and total time of all spans with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Totals per span name.
pub fn totals_by_name(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += own;
    }
    out
}

/// Name of the row holding a root's own (uncovered) time.
pub const UNATTRIBUTED: &str = "unattributed";

/// Breakdown of all spans named `root`: one row per direct-child name
/// (its total time), then an [`UNATTRIBUTED`] row with the roots' self
/// time. The rows add up to the roots' total, which is returned too.
pub fn breakdown(spans: &[Span], self_ns: &[u64], root: &str) -> (Vec<(&'static str, u64)>, u64) {
    let mut rows: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut unattributed = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            total += s.dur();
            unattributed += self_ns[i];
        } else if s.parent != NO_PARENT && spans[s.parent as usize].name == root {
            *rows.entry(s.name).or_default() += s.dur();
        }
    }
    let mut out: Vec<(&'static str, u64)> = rows.into_iter().collect();
    out.push((UNATTRIBUTED, unattributed));
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("block", NO_PARENT, 0, 100),
            span("imd", 0, 10, 30),
            span("shield", 0, 30, 70),
            span("inner", 2, 40, 50),
            span("block", NO_PARENT, 100, 150),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 50]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("root", NO_PARENT, 100, 200),
            span("a", 0, 90, 150),
            span("b", 0, 140, 160),
            span("c", 0, 190, 260),
        ];
        // Covered: [100,160) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn breakdown_rows_add_up_to_the_root_total() {
        let spans = [
            span("block", NO_PARENT, 0, 100),
            span("imd", 0, 10, 30),
            span("shield", 0, 30, 70),
            span("inner", 2, 40, 50),
            span("block", NO_PARENT, 100, 150),
            span("imd", 4, 100, 140),
        ];
        let own = self_times(&spans);
        let (rows, total) = breakdown(&spans, &own, "block");
        assert_eq!(total, 150);
        assert_eq!(rows, vec![("imd", 60), ("shield", 40), (UNATTRIBUTED, 50)]);
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), total);
        let by_name = totals_by_name(&spans, &own);
        assert_eq!(
            by_name["shield"],
            Totals {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
    }

    #[test]
    fn tracer_nests_and_stamps_units() {
        let mut tr = Tracer::default();
        tr.set_unit(7);
        tr.span("outer", |tr| {
            let a = tr.begin("a");
            let b = tr.switch(a, "b");
            tr.end(b);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].parent, 0);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert!(s.iter().all(|x| x.unit == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
