//! Shared pieces: arguments, seeded input generation, the IR-interpreter
//! reference, statistics, and the result line.

use crate::trace::{Layer, LayerTotals, LAYERS};
use std::fmt::Write as _;
use zkvmopt_ir::interp::InterpConfig;
use zkvmopt_ir::{Interp, Module};
use zkvmopt_vm::CryptoEcalls;
use zkvmopt_workloads::Workload;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A few programs and a small search, for the self-test.
    pub tiny: bool,
    /// Corrupt one reference output on purpose, for the self-test: every op
    /// on that program must then count as failed.
    pub bad_reference: bool,
}

/// Set-ups per run; the reported set-up time is their median.
pub const SETUPS: usize = 7;

/// Readings of the machine's speed taken either side of each set-up.
const SETUP_READS: usize = 3;

/// Worker threads: the machine's cores, as the workloads specify.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// gives never depend on the code under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// How long the calibration kernel takes on the reference machine, in ms.
/// A speed-scaled time is the measured time × this ÷ the kernel's time
/// measured alongside it: milliseconds on a machine that runs the kernel in
/// exactly this long.
pub const REF_CALIBRATION_MS: f64 = 5.0;

/// Seconds between two readings of the machine's speed in a timed loop.
const PROBE_PERIOD_S: f64 = 0.25;

/// Share of the calibration kernel's time spent on execution-like work in
/// the one-client workloads and in every set-up: half, as in the study's
/// mix of execution and compilation.
pub const BALANCED: f64 = 0.5;

/// A fixed kernel of std-only work that reads the machine's current speed:
/// a small register machine running seeded bytecode over a 64 KiB memory
/// (the dispatch loop an emulator runs) for `exec_share` of its time, then
/// allocation churn with a hash map (the mix a compiler does) for the rest.
/// On the box this benchmark was sized on, the study's op rate moved one
/// for one with the balanced kernel's time as the box's load changed,
/// where a sort-and-ordered-map kernel under-read the slowdowns by about
/// 40%. It runs no code of the program under test, so a change to the
/// program cannot move it. Returns milliseconds (5 to 7 on that box,
/// whatever the share).
pub fn calibrate(exec_share: f64) -> f64 {
    type Machine = (Vec<[u8; 4]>, Vec<u32>);
    thread_local! {
        // Built once, outside the timed part.
        static MACHINE: std::cell::RefCell<Machine> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
    }
    MACHINE.with(|machine| {
        let mut machine = machine.borrow_mut();
        let (code, mem) = &mut *machine;
        if code.is_empty() {
            let mut rng = Rng::new(11, 11);
            *code = (0..256)
                .map(|_| {
                    [rng.below(10), rng.below(16), rng.below(16), rng.below(16)].map(|x| x as u8)
                })
                .collect();
            *mem = vec![0; 16_384];
        }
        mem.fill(0);
        let t = std::time::Instant::now();
        let (mut reg, mut pc) = ([1u32; 16], 0usize);
        for _ in 0..(2_000_000.0 * exec_share) as usize {
            let [op, a, b, c] = code[pc].map(usize::from);
            match op {
                0 => reg[a] = reg[b].wrapping_add(reg[c]),
                1 => reg[a] = reg[b].wrapping_sub(reg[c]),
                2 => reg[a] = reg[b] ^ reg[c].rotate_left(5),
                3 => reg[a] = reg[b].wrapping_mul(reg[c] | 1),
                4 => reg[a] = mem[reg[b] as usize & 16_383],
                5 => mem[reg[b] as usize & 16_383] = reg[c],
                6 => reg[a] = reg[b] >> (reg[c] & 31),
                7 if reg[a] & 1 == 0 => pc = (pc + (b << 2)) & 255,
                8 => reg[a] = reg[b].wrapping_add(c as u32),
                _ => reg[a] = reg[b] & reg[c],
            }
            pc = (pc + 1) & 255;
        }
        std::hint::black_box(reg);
        let mut rng = Rng::new(5, 5);
        let (mut map, mut live) = (std::collections::HashMap::new(), Vec::new());
        for i in 0..(60_000.0 * (1.0 - exec_share)) as u32 {
            live.push((0..rng.below(24) as u32 + 1).collect::<Vec<u32>>());
            map.insert(rng.next() % 4096, i);
            if live.len() > 512 {
                live.swap_remove(rng.below(512));
            }
        }
        std::hint::black_box((map.len(), live.len()));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// Reads the machine's speed every quarter second of a timed loop, between
/// ops. The box this benchmark was sized on runs whole stretches of tens of
/// seconds 20–50% slower when its neighbours are busy; scaling each op by
/// the speed read around it takes that out of the timings.
pub struct SpeedProbe {
    last: std::time::Instant,
    /// (ops done when read, kernel ms)
    marks: Vec<(usize, f64)>,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let mut p = SpeedProbe {
            last: std::time::Instant::now(),
            marks: Vec::new(),
        };
        p.read(0);
        p
    }

    /// Read the speed if a period has passed; call between ops.
    pub fn tick(&mut self, ops: usize) {
        if self.last.elapsed().as_secs_f64() >= PROBE_PERIOD_S {
            self.read(ops);
        }
    }

    pub fn read(&mut self, ops: usize) {
        self.marks.push((ops, calibrate(BALANCED)));
        self.last = std::time::Instant::now();
    }

    /// Scale for op `i`: the reference kernel time over the median of the
    /// five readings around the op.
    pub fn scale(&self, i: usize) -> f64 {
        let k = self.marks.partition_point(|m| m.0 <= i).saturating_sub(1);
        let near: Vec<f64> = self.marks[k.saturating_sub(2)..(k + 3).min(self.marks.len())]
            .iter()
            .map(|m| m.1)
            .collect();
        REF_CALIBRATION_MS / median(&near)
    }

    pub fn note(&self) -> String {
        let ms: Vec<f64> = self.marks.iter().map(|m| m.1).collect();
        format!(
            "machine speed: calibration kernel {:.3} ms median over {} readings ({:.3}–{:.3})",
            median(&ms),
            ms.len(),
            ms.iter().copied().fold(f64::INFINITY, f64::min),
            ms.iter().copied().fold(0.0, f64::max)
        )
    }
}

/// Build a workload's state `SETUPS` times and keep the last build. Each
/// set-up is speed-scaled like an op, by the median of the speed readings
/// taken either side of it, and reported in reference seconds. Returns the
/// build, the scaled set-up times, and a note with the plain ones.
pub fn timed_setups<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, String), String> {
    let (mut built, mut scaled, mut plain) = (None, Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        drop(built.take());
        let mut speed: Vec<f64> = (0..SETUP_READS).map(|_| calibrate(BALANCED)).collect();
        let t = std::time::Instant::now();
        built = Some(build()?);
        let s = t.elapsed().as_secs_f64();
        speed.extend((0..SETUP_READS).map(|_| calibrate(BALANCED)));
        plain.push(s);
        scaled.push(s * REF_CALIBRATION_MS / median(&speed));
    }
    let note = format!(
        "set-up: {scaled:.4?} ref s (median {:.4}); unscaled {plain:.4?} s",
        median(&scaled)
    );
    Ok((built.expect("SETUPS > 0"), scaled, note))
}

/// Expected outputs of one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub journal: Vec<i32>,
    pub exit: i64,
}

impl Reference {
    /// The IR interpreter (with the real crypto ecalls) run on `w`'s
    /// *unoptimized* lowered module `m`: independent of the optimizer, the
    /// backend, the engine and the prover.
    pub fn of(w: &Workload, m: &Module) -> Result<Reference, String> {
        let cfg = InterpConfig {
            inputs: w.inputs.clone(),
            ..InterpConfig::default()
        };
        let out = Interp::new(m, cfg, CryptoEcalls)
            .run_main()
            .map_err(|e| format!("{} reference: {e}", w.name))?;
        Ok(Reference {
            journal: out.journal,
            exit: out.exit_value,
        })
    }

    pub fn matches(&self, journal: &[i32], exit: i32) -> bool {
        self.journal == journal && self.exit == i64::from(exit)
    }

    /// A deliberately wrong copy (self-test only).
    pub fn corrupted(&self) -> Reference {
        let mut r = self.clone();
        match r.journal.first_mut() {
            Some(j) => *j ^= 1,
            None => r.exit ^= 1,
        }
        r
    }
}

/// `w` lowered to unoptimized IR.
pub fn lower(w: &Workload) -> Result<Module, String> {
    zkvmopt_lang::compile_guest(&w.source).map_err(|e| format!("{}: {e}", w.name))
}

/// References for `ws`, computed before any timing starts.
pub fn references(ws: &[&Workload]) -> Result<Vec<Reference>, String> {
    ws.iter().map(|w| Reference::of(w, &lower(w)?)).collect()
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

/// Restart the peak-resident-set count, so that `peak_rss_mb` covers the
/// timed phase and not the benchmark's own preparation. Free heap memory is
/// handed back to the system first: whether the allocator kept the IR
/// interpreter's 8 MiB of guest memory from the references depends on the
/// order of earlier allocations, and moved the reading by 8 MiB between
/// seeds.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages; it
        // touches no memory the program still holds.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory inside the working directory, removed on drop.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        let p = std::path::PathBuf::from(".perfbench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(TempDir(p))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// Counts taken at the layer boundaries of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub src_bytes: u64,
    pub ir_insts_in: u64,
    pub ir_insts_out: u64,
    pub applies: u64,
    pub applies_changed: u64,
    pub insts_emitted: u64,
    pub spilled_vregs: u64,
    pub instret: u64,
    pub paging_cycles: u64,
    pub segments: u64,
    pub traces_formed: u64,
    pub trace_exits: u64,
    pub probe_hits: u64,
    pub probe_misses: u64,
    pub padded_rows: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.src_bytes += o.src_bytes;
        self.ir_insts_in += o.ir_insts_in;
        self.ir_insts_out += o.ir_insts_out;
        self.applies += o.applies;
        self.applies_changed += o.applies_changed;
        self.insts_emitted += o.insts_emitted;
        self.spilled_vregs += o.spilled_vregs;
        self.instret += o.instret;
        self.paging_cycles += o.paging_cycles;
        self.segments += o.segments;
        self.traces_formed += o.traces_formed;
        self.trace_exits += o.trace_exits;
        self.probe_hits += o.probe_hits;
        self.probe_misses += o.probe_misses;
        self.padded_rows += o.padded_rows;
    }

    pub fn add_exec(&mut self, r: &zkvmopt_vm::ExecutionReport) {
        self.instret += r.instret;
        self.paging_cycles += r.paging_cycles;
        self.segments += r.segments;
        self.traces_formed += r.stats.traces_formed;
        self.trace_exits += r.stats.trace_exits;
        self.probe_hits += r.stats.probe_hits;
        self.probe_misses += r.stats.probe_misses;
    }
}

/// The tuner's counters for the traced run (zero outside `tune_service`).
#[derive(Debug, Clone, Default)]
pub struct TunerCounters {
    pub fitness_calls: u64,
    pub cache_hits: u64,
    pub evaluated: u64,
    pub retries: u64,
    pub quarantined: u64,
    /// Quarantined candidates that failed for a compiler fault rather than
    /// a blown cycle budget.
    pub compiler_faults: u64,
    pub fitness_busy_ms: f64,
    pub db_save_ms: f64,
    pub db_load_ms: f64,
    /// Counters that differed between the run's repeated searches.
    pub nonrepeating: Vec<&'static str>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric, by name and unit.
pub fn layer_metrics(
    t: &LayerTotals,
    ops: &[Vec<crate::trace::Span>],
    c: &Counters,
    tc: &TunerCounters,
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let total = t.total_ms();
    for l in LAYERS {
        let i = LayerTotals::idx(l);
        let n = l.name();
        m.push(Metric::new(
            format!("{n}.calls"),
            t.calls[i] as f64,
            "count",
        ));
        m.push(Metric::new(format!("{n}.self_ms"), t.self_ms(l), "ms"));
        m.push(Metric::new(
            format!("{n}.share"),
            ratio(t.self_ms(l), total),
            "ratio",
        ));
        m.push(Metric::new(
            format!("{n}.failures"),
            t.failures[i] as f64,
            "count",
        ));
    }
    let lang_s = t.self_ms(Layer::Lang) / 1e3;
    m.push(Metric::new(
        "lang.src_kb_per_s",
        ratio(c.src_bytes as f64 / 1024.0, lang_s),
        "KiB/s",
    ));
    let passes_ms = t.self_ms(Layer::Passes);
    m.push(Metric::new(
        "passes.ir_insts_in",
        c.ir_insts_in as f64,
        "count",
    ));
    m.push(Metric::new(
        "passes.ir_insts_out",
        c.ir_insts_out as f64,
        "count",
    ));
    m.push(Metric::new(
        "passes.changed_ratio",
        ratio(c.applies_changed as f64, c.applies as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "passes.us_per_ir_inst",
        ratio(passes_ms * 1e3, c.ir_insts_in as f64),
        "us",
    ));
    m.push(Metric::new(
        "ir.verify_ms",
        LayerTotals::named_ms(ops, "verify_module"),
        "ms",
    ));
    m.push(Metric::new(
        "ir.module_clone_ms",
        LayerTotals::named_ms(ops, "module_clone"),
        "ms",
    ));
    m.push(Metric::new(
        "riscv.insts_emitted",
        c.insts_emitted as f64,
        "count",
    ));
    m.push(Metric::new(
        "riscv.spilled_vregs",
        c.spilled_vregs as f64,
        "count",
    ));
    let decode_ms = LayerTotals::named_ms(ops, "decode");
    let run_s = (t.self_ms(Layer::Vm) - decode_ms) / 1e3;
    m.push(Metric::new("vm.decode_ms", decode_ms, "ms"));
    m.push(Metric::new("vm.instret", c.instret as f64, "count"));
    m.push(Metric::new(
        "vm.minst_per_s",
        ratio(c.instret as f64 / 1e6, run_s),
        "Minst/s",
    ));
    m.push(Metric::new(
        "vm.paging_cycles",
        c.paging_cycles as f64,
        "cycles",
    ));
    m.push(Metric::new("vm.segments", c.segments as f64, "count"));
    m.push(Metric::new(
        "vm.traces_formed",
        c.traces_formed as f64,
        "count",
    ));
    m.push(Metric::new("vm.trace_exits", c.trace_exits as f64, "count"));
    m.push(Metric::new(
        "vm.probe_hit_ratio",
        ratio(c.probe_hits as f64, (c.probe_hits + c.probe_misses) as f64),
        "ratio",
    ));
    let prover_s = t.self_ms(Layer::Prover) / 1e3;
    m.push(Metric::new(
        "prover.padded_rows",
        c.padded_rows as f64,
        "count",
    ));
    m.push(Metric::new(
        "prover.krows_per_s",
        ratio(c.padded_rows as f64 / 1e3, prover_s),
        "krows/s",
    ));
    m.push(Metric::new(
        "tuner.fitness_calls",
        tc.fitness_calls as f64,
        "count",
    ));
    m.push(Metric::new(
        "tuner.cache_hits",
        tc.cache_hits as f64,
        "count",
    ));
    m.push(Metric::new(
        "tuner.cache_hit_ratio",
        ratio(tc.cache_hits as f64, tc.evaluated as f64),
        "ratio",
    ));
    m.push(Metric::new("tuner.retries", tc.retries as f64, "count"));
    m.push(Metric::new(
        "tuner.quarantined",
        tc.quarantined as f64,
        "count",
    ));
    m.push(Metric::new(
        "tuner.compiler_faults",
        tc.compiler_faults as f64,
        "count",
    ));
    m.push(Metric::new(
        "tuner.fitness_busy_ms",
        tc.fitness_busy_ms,
        "ms",
    ));
    m.push(Metric::new("tuner.db_save_ms", tc.db_save_ms, "ms"));
    m.push(Metric::new("tuner.db_load_ms", tc.db_load_ms, "ms"));
    m.push(Metric::new(
        "tuner.nonrepeating_counts",
        tc.nonrepeating.len() as f64,
        "count",
    ));
    m.push(Metric::new("tracing.overhead_pct", overhead_pct, "%"));
    m
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics every workload reports with tracing off.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    /// Ops per speed-scaled second.
    pub ops_per_s: f64,
    /// Every op's speed-scaled latency sample; the percentiles are taken
    /// over these.
    pub op_ms: Vec<f64>,
    /// Read as the timed phase ends.
    pub peak_rss_mb: f64,
    pub guest_cycles: Vec<f64>,
    pub prove_cost_ms: Vec<f64>,
    pub code_size: Vec<f64>,
}

impl EndToEnd {
    /// How many latency samples the percentiles rest on.
    pub fn sample_note(&self) -> String {
        let p99 = percentile(&self.op_ms, 99.0);
        let beyond = self.op_ms.iter().filter(|&&x| x > p99).count();
        format!(
            "op latency: {} samples, {beyond} beyond op_ms_p99",
            self.op_ms.len()
        )
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("ops_per_s", self.ops_per_s, "1/ref_s"),
            Metric::new("op_ms_p50", percentile(&self.op_ms, 50.0), "ref_ms"),
            Metric::new("op_ms_p99", percentile(&self.op_ms, 99.0), "ref_ms"),
            Metric::new(
                "ok_ratio",
                1.0 - self.failed as f64 / self.ops.max(1) as f64,
                "ratio",
            ),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
            Metric::new(
                "guest_cycles_geomean",
                geomean(self.guest_cycles.iter().copied()),
                "cycles",
            ),
            Metric::new(
                "prove_cost_ms_geomean",
                geomean(self.prove_cost_ms.iter().copied()),
                "model_ms",
            ),
            Metric::new(
                "code_size_geomean",
                geomean(self.code_size.iter().copied()),
                "insts",
            ),
        ]
    }
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn speed_scale_uses_the_readings_around_an_op() {
        let probe = SpeedProbe {
            last: std::time::Instant::now(),
            marks: vec![(0, 5.0), (10, 10.0), (20, 10.0), (30, 10.0), (40, 10.0)],
        };
        assert_eq!(probe.scale(25), REF_CALIBRATION_MS / 10.0);
        assert_eq!(probe.scale(0), REF_CALIBRATION_MS / 10.0);
    }

    #[test]
    fn set_up_is_timed_each_time_and_keeps_the_last_build() {
        let mut n = 0;
        let (last, times, _) = timed_setups(|| {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!((last, times.len()), (SETUPS, SETUPS));
        assert!(times.iter().all(|&t| t > 0.0));
        assert!(timed_setups(|| Err::<(), _>("no".to_string())).is_err());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(5, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(5, 1).next(), Rng::new(6, 1).next());
        assert_ne!(Rng::new(5, 1).next(), Rng::new(5, 2).next());
    }

    #[test]
    fn a_corrupted_reference_never_matches() {
        let r = Reference {
            journal: vec![7, 8],
            exit: 0,
        };
        assert!(r.matches(&[7, 8], 0));
        assert!(!r.corrupted().matches(&[7, 8], 0));
        let e = Reference {
            journal: vec![],
            exit: 3,
        };
        assert!(!e.corrupted().matches(&[], 3));
    }

    #[test]
    fn result_line_is_json_with_units() {
        let o = Outcome {
            correct: true,
            attempted: 2,
            failed: 0,
            metrics: vec![Metric::new("a", 1.5, "ms"), Metric::new("b", 2.0, "count")],
            notes: vec![],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
