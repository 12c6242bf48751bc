//! Spans recorded from the benchmark's own calls into each layer.
//!
//! Nothing inside the program under test is instrumented: a span wraps one
//! call the benchmark makes into a layer's public function. Every op owns a
//! root span (layer `core`, the orchestration) and one level of children, one
//! per layer call. Spans stay in memory until the run ends; a layer's self
//! time is its spans' durations minus the part their children cover.

use std::sync::Mutex;
use std::time::Instant;

/// The workspace crates on the path of an op, plus `tracing` for the
/// benchmark's own bookkeeping inside a traced op (excluded from every
/// layer, so it shows only in the tracing overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Lang,
    Passes,
    Ir,
    Riscv,
    Vm,
    Prover,
    Tuner,
    Core,
    Tracing,
}

/// Layers reported as per-layer metrics, in output order.
pub const LAYERS: [Layer; 8] = [
    Layer::Lang,
    Layer::Passes,
    Layer::Ir,
    Layer::Riscv,
    Layer::Vm,
    Layer::Prover,
    Layer::Tuner,
    Layer::Core,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Lang => "lang",
            Layer::Passes => "passes",
            Layer::Ir => "ir",
            Layer::Riscv => "riscv",
            Layer::Vm => "vm",
            Layer::Prover => "prover",
            Layer::Tuner => "tuner",
            Layer::Core => "core",
            Layer::Tracing => "tracing",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` indexes the op's span list (`None` for the root).
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub op: u64,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub failed: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span store shared by every worker thread of a run.
pub struct Tracer {
    epoch: Instant,
    ops: Mutex<Vec<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            ops: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open an op: its root span (`layer`, usually `core`) starts now.
    pub fn op(&self, id: u64, layer: Layer, name: &'static str) -> Op<'_> {
        let start = self.now();
        Op {
            tracer: self,
            spans: vec![Span {
                layer,
                name,
                op: id,
                start,
                end: start,
                parent: None,
                failed: false,
            }],
        }
    }

    /// Every finished op's spans.
    pub fn into_ops(self) -> Vec<Vec<Span>> {
        self.ops.into_inner().expect("span store")
    }
}

/// An open op. Children are recorded when their call returns; a call that
/// panics leaves no span behind (its time stays with the root).
pub struct Op<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Op<'_> {
    /// Time `f` as a child span of the root.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.record(layer, name, f, |_| false)
    }

    /// Time a fallible call; an `Err` marks the span failed.
    pub fn span_res<T, E>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.record(layer, name, f, Result::is_err)
    }

    fn record<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> R,
        failed: impl FnOnce(&R) -> bool,
    ) -> R {
        let start = self.tracer.now();
        let r = f();
        let end = self.tracer.now();
        self.spans.push(Span {
            layer,
            name,
            op: self.spans[0].op,
            start,
            end,
            parent: Some(0),
            failed: failed(&r),
        });
        r
    }

    /// Close the root span, store the op, and return its duration in
    /// nanoseconds.
    pub fn finish(mut self, failed: bool) -> u64 {
        let end = self.tracer.now();
        self.spans[0].end = end;
        self.spans[0].failed = failed;
        let ns = self.spans[0].ns();
        let spans = std::mem::take(&mut self.spans);
        self.tracer.ops.lock().expect("span store").push(spans);
        ns
    }
}

/// Per-layer totals over a set of ops.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub calls: [u64; 9],
    pub self_ns: [u64; 9],
    pub failures: [u64; 9],
}

impl LayerTotals {
    pub fn idx(l: Layer) -> usize {
        l as usize
    }

    /// Fold ops in: every span counts one call of its layer, and adds its
    /// duration minus its children's durations to the layer's self time.
    pub fn add_ops(&mut self, ops: &[Vec<Span>]) {
        for spans in ops {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p] += s.ns();
                }
            }
            for (s, c) in spans.iter().zip(&child_ns) {
                let i = Self::idx(s.layer);
                self.calls[i] += 1;
                self.self_ns[i] += s.ns().saturating_sub(*c);
                self.failures[i] += u64::from(s.failed);
            }
        }
    }

    pub fn self_ms(&self, l: Layer) -> f64 {
        self.self_ns[Self::idx(l)] as f64 / 1e6
    }

    /// Sum of the named spans' durations.
    pub fn named_ms(ops: &[Vec<Span>], name: &str) -> f64 {
        ops.iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .fold(0.0, |a, b| a + b)
    }

    /// Self time of every reported layer, excluding the tracing bucket.
    pub fn total_ms(&self) -> f64 {
        LAYERS.iter().map(|&l| self.self_ms(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "t",
            op: 0,
            start,
            end,
            parent,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let ops = vec![vec![
            span(Layer::Core, 0, 100, None),
            span(Layer::Passes, 10, 40, Some(0)),
            span(Layer::Vm, 40, 90, Some(0)),
            span(Layer::Tracing, 90, 95, Some(0)),
        ]];
        let mut t = LayerTotals::default();
        t.add_ops(&ops);
        assert_eq!(t.self_ns[LayerTotals::idx(Layer::Core)], 15);
        assert_eq!(t.self_ns[LayerTotals::idx(Layer::Passes)], 30);
        assert_eq!(t.self_ns[LayerTotals::idx(Layer::Vm)], 50);
        let all: u64 = t.self_ns.iter().sum();
        assert_eq!(all, 100, "self times partition the op span");
        assert_eq!(t.calls[LayerTotals::idx(Layer::Core)], 1);
    }

    #[test]
    fn ops_record_children_and_failures() {
        let tracer = Tracer::new();
        let mut op = tracer.op(7, Layer::Core, "op");
        let x = op.span(Layer::Lang, "lower", || 3);
        let r: Result<(), ()> = op.span_res(Layer::Riscv, "codegen", || Err(()));
        assert_eq!(x, 3);
        assert!(r.is_err());
        op.finish(true);
        let ops = tracer.into_ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].len(), 3);
        assert!(ops[0].iter().all(|s| s.op == 7));
        assert!(ops[0][2].failed && ops[0][0].failed && !ops[0][1].failed);
    }
}
