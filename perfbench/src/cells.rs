//! The closed loop shared by the one-client workloads (`study_cold`,
//! `prove_service`): a seeded list of cells, one op per cell, whole passes
//! over the list until the run's time is up.

use crate::common::{
    layer_metrics, median, peak_rss_mb, percentile, reset_peak_rss, Args, Counters, EndToEnd,
    Outcome, SpeedProbe, TunerCounters,
};
use crate::trace::{Layer, LayerTotals, Op, Tracer};
use std::time::Instant;

/// Least op samples a timed run takes, so that at least ten lie beyond the
/// reported 99th percentile, which is taken over every sample.
pub const MIN_OPS: usize = 1000;

/// What the generated code of one op looks like, for the exact-count
/// end-to-end metrics.
#[derive(Debug, Default)]
pub struct Sample {
    pub guest_cycles: Vec<f64>,
    pub prove_cost_ms: Vec<f64>,
    pub code_size: Vec<f64>,
}

/// A workload made of independent cells.
pub trait CellWorkload {
    type Out: PartialEq;
    fn cells(&self) -> usize;
    /// One op through the layers' usual entry points.
    fn untraced(&mut self, cell: usize) -> Result<Self::Out, String>;
    /// The same op, call for call, with a span around each layer call.
    fn traced(&mut self, cell: usize, op: &mut Op, c: &mut Counters) -> Result<Self::Out, String>;
    /// Whether the op's outputs equal the reference outputs.
    fn check(&self, cell: usize, out: &Self::Out) -> bool;
    fn sample(&self, cell: usize, out: &Self::Out, into: &mut Sample);
    /// The cell's program and profile or VM, for notes.
    fn describe(&self, cell: usize) -> String;
}

/// The slowest ops of a run, for notes.
fn slowest<W: CellWorkload>(w: &W, op_ms: &[f64]) -> String {
    let mut idx: Vec<usize> = (0..op_ms.len()).collect();
    idx.sort_by(|&a, &b| op_ms[b].total_cmp(&op_ms[a]));
    let top: Vec<String> = idx
        .iter()
        .take(5)
        .map(|&i| format!("{} {:.1} ms", w.describe(i % w.cells()), op_ms[i]))
        .collect();
    format!("slowest ops: {}", top.join("; "))
}

/// Each cell's median op time over the run's passes. Each cell runs once
/// per pass, spread across the run, and its median shrugs off the short
/// bursts of noise that a plain average would report.
fn cell_medians(cells: usize, op_ms: &[f64]) -> Vec<f64> {
    let mut by_cell = vec![Vec::new(); cells];
    for (i, &ms) in op_ms.iter().enumerate() {
        by_cell[i % cells].push(ms);
    }
    by_cell.iter().map(|v| median(v)).collect()
}

/// 1 if the op failed: a stage error, or outputs that differ from the
/// reference.
fn failures<W: CellWorkload>(
    w: &W,
    cell: usize,
    out: &Result<W::Out, String>,
    notes: &mut Vec<String>,
) -> u64 {
    let ok = match out {
        Ok(o) => w.check(cell, o),
        Err(e) => {
            if notes.len() < 8 {
                notes.push(format!("{} failed: {e}", w.describe(cell)));
            }
            false
        }
    };
    u64::from(!ok)
}

/// Run a cell workload and report its end-to-end (untraced) or per-layer
/// (traced) metrics.
pub fn run<W: CellWorkload>(args: &Args, w: &mut W, setup_s: Vec<f64>) -> Outcome {
    let mut notes = Vec::new();
    let min_ops = if args.tiny { 1 } else { MIN_OPS };
    if !args.trace {
        reset_peak_rss();
        // Whole passes until the time is up. Each op is checked as it
        // finishes and its outputs dropped, except the first pass's exact
        // counts, so memory does not grow with the number of ops.
        let start = Instant::now();
        let mut probe = SpeedProbe::new();
        let (mut raw_ms, mut failed, mut s) = (Vec::new(), 0, Sample::default());
        while raw_ms.len() < min_ops || start.elapsed().as_secs_f64() < args.seconds {
            for cell in 0..w.cells() {
                probe.tick(raw_ms.len());
                let t = Instant::now();
                let out = w.untraced(cell);
                raw_ms.push(t.elapsed().as_secs_f64() * 1e3);
                failed += failures(w, cell, &out, &mut notes);
                if let (Ok(o), true) = (&out, raw_ms.len() <= w.cells()) {
                    w.sample(cell, o, &mut s);
                }
            }
        }
        let peak_rss_mb = peak_rss_mb();
        probe.read(raw_ms.len());
        let op_ms: Vec<f64> = raw_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| ms * probe.scale(i))
            .collect();
        let medians = cell_medians(w.cells(), &op_ms);
        notes.push(probe.note());
        notes.push(format!(
            "unscaled: {:.4} ops/s, op_ms_p50 {:.4} ms, op_ms_p99 {:.4} ms",
            w.cells() as f64 * 1e3 / cell_medians(w.cells(), &raw_ms).iter().sum::<f64>(),
            percentile(&raw_ms, 50.0),
            percentile(&raw_ms, 99.0)
        ));
        let e = EndToEnd {
            setup_s,
            ops: raw_ms.len() as u64,
            failed,
            ops_per_s: w.cells() as f64 * 1e3 / medians.iter().sum::<f64>(),
            op_ms,
            peak_rss_mb,
            guest_cycles: s.guest_cycles,
            prove_cost_ms: s.prove_cost_ms,
            code_size: s.code_size,
        };
        notes.push(e.sample_note());
        notes.push(slowest(w, &e.op_ms));
        return Outcome {
            correct: failed == 0,
            attempted: e.ops,
            failed,
            metrics: e.metrics(),
            notes,
        };
    }
    // Traced: every op runs twice back to back, untraced and traced (in
    // alternating order, so neither side always finds the caches warm), so
    // both sides see the same machine and must give the same outputs.
    let tracer = Tracer::new();
    let mut counters = Counters::default();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    let (mut n, mut failed, mut differ) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while n == 0 || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        for cell in 0..w.cells() {
            let mut plain = |w: &mut W| {
                let t = Instant::now();
                let out = w.untraced(cell);
                plain_ms += t.elapsed().as_secs_f64() * 1e3;
                out
            };
            let mut traced = |w: &mut W| {
                let mut op = tracer.op(n, Layer::Core, "op");
                let out = w.traced(cell, &mut op, &mut counters);
                traced_ms += op.finish(out.is_err()) as f64 / 1e6;
                out
            };
            let (a, b) = if n % 2 == 0 {
                let a = plain(w);
                (a, traced(w))
            } else {
                let b = traced(w);
                (plain(w), b)
            };
            let differs = a != b;
            differ += u64::from(differs);
            failed += u64::from(failures(w, cell, &b, &mut notes) > 0 || differs);
            n += 1;
        }
    }
    if differ > 0 {
        notes.push(format!(
            "traced ops differ from untraced ones on {differ} of {n} ops"
        ));
    }
    let ops = tracer.into_ops();
    let mut totals = LayerTotals::default();
    totals.add_ops(&ops);
    notes.push(format!(
        "{n} ops: {traced_ms:.1} ms traced vs {plain_ms:.1} ms untraced; \
         layer self times sum to {:.1} ms, tracing bookkeeping {:.1} ms",
        totals.total_ms(),
        totals.self_ms(Layer::Tracing)
    ));
    Outcome {
        correct: failed == 0,
        attempted: n,
        failed,
        metrics: layer_metrics(
            &totals,
            &ops,
            &counters,
            &TunerCounters::default(),
            (traced_ms / plain_ms - 1.0) * 100.0,
        ),
        notes,
    }
}
