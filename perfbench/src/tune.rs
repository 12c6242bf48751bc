//! `tune_service`: the autotuning service. One op is one candidate
//! evaluation charged to the search budget: `tune_suite` driving
//! `BatchEvaluator::classified_fitness` on RISC Zero, with checkpointing on.
//! After the timed search the tune database is saved and reopened, and
//! every winner is re-run, checked against the reference, and proved once.

use crate::common::{
    calibrate, layer_metrics, median, nproc, peak_rss_mb, references, reset_peak_rss, timed_setups,
    Args, Counters, EndToEnd, Metric, Outcome, Reference, Rng, TempDir, TunerCounters,
    REF_CALIBRATION_MS,
};
use crate::trace::{Layer, LayerTotals, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use zkvmopt_core::{OptProfile, PipelineError, SuiteRunner};
use zkvmopt_ir::Module;
use zkvmopt_prover::{prove_segmented, RiscZeroBackend};
use zkvmopt_tuner::{
    tune_suite, Candidate, EvalResult, FailureClass, ServiceConfig, ServiceReport, TuneDb,
    TuneTarget,
};
use zkvmopt_vm::{DecodedProgram, Engine, ExecConfig, VmKind, VmProfile};
use zkvmopt_workloads::Workload;

const TARGETS: usize = 6;
/// Readings of the machine's speed taken by each thread between two
/// searches.
const SPEED_READS: usize = 7;
/// Programs whose unoptimized RISC Zero run is at least this long are not
/// tuning targets.
const MAX_BASELINE_CYCLES: u64 = 500_000;
const VM: VmKind = VmKind::RiscZero;

/// Share of the calibration kernel spent on execution-like work when it
/// reads the machine's speed for a search: a search spends about nine
/// tenths of its time compiling (see the measured shares in README.md).
/// With the balanced kernel, readings between searches flipped between
/// about 5 ms and 7.5 ms while the search's own speed held.
const EXEC_SHARE: f64 = 0.1;

/// The machine's speed as a search meets it: the calibration kernel on as
/// many threads at once as the search has workers, each thread's median
/// reading, averaged.
fn read_speed(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    median(
                        &(0..SPEED_READS)
                            .map(|_| calibrate(EXEC_SHARE))
                            .collect::<Vec<_>>(),
                    )
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("speed reader"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Seed of the one draw that picks the tuning targets, and of the search.
/// Both stay the same from run to run: which programs a draw picks, and
/// which candidates a search seed leads to, change a run's cost several
/// fold, which would drown any change to the service itself. The workload
/// seed orders the targets, and so the service's work queue.
const DRAW_SEED: u64 = 0;

/// Six targets, one from each sixth of the eligible programs ranked by
/// unoptimized cycles, so the draw mixes short and long programs.
fn draw_targets(rng: &mut Rng, n: usize) -> Result<Vec<&'static Workload>, String> {
    let mut runner = SuiteRunner::new();
    let mut eligible = Vec::new();
    for w in zkvmopt_workloads::all() {
        let r = runner
            .run(w, &OptProfile::baseline(), VM, false)
            .map_err(|e| format!("{}: {e}", w.name))?;
        if r.exec.total_cycles < MAX_BASELINE_CYCLES {
            eligible.push((r.exec.total_cycles, w));
        }
    }
    eligible.sort_by_key(|&(c, w)| (c, w.name));
    let picked: Vec<&'static Workload> = (0..n)
        .map(|k| {
            let (lo, hi) = (k * eligible.len() / n, (k + 1) * eligible.len() / n);
            eligible[lo + rng.below(hi - lo)].1
        })
        .collect();
    Ok(picked)
}

fn service_config(args: &Args, seed: u64) -> ServiceConfig {
    let (islands, population, generations) = if args.tiny { (1, 4, 2) } else { (2, 8, 12) };
    ServiceConfig {
        islands,
        population,
        generations,
        seed,
        threads: nproc(),
        ..ServiceConfig::default()
    }
}

/// What `eval_classified` holds for one target, rebuilt from the runner so
/// the traced fitness can repeat its stages from outside.
struct Entry {
    module: Module,
    inputs: Vec<i32>,
    journal: Vec<i32>,
    exit: i32,
}

/// One search: a fresh database and checkpoint under `dir`.
struct Search {
    report: ServiceReport,
    wall_s: f64,
    db_text: String,
    save_ms: f64,
    load_ms: f64,
    reopened_equal: bool,
}

fn search<F>(config: &ServiceConfig, targets: &[TuneTarget], dir: &Path, fitness: F) -> Search
where
    F: Fn(usize, &Candidate) -> EvalResult + Sync,
{
    let mut config = config.clone();
    config.checkpoint_path = Some(dir.join("checkpoint"));
    let db_path = dir.join("tune.db");
    let mut db = TuneDb::open(&db_path);
    let t = Instant::now();
    let report = tune_suite(&config, targets, &mut db, fitness);
    let wall_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let saved = db.save();
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let reopened = TuneDb::open(&db_path);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let db_text = db.to_string_pretty();
    let reopened_equal =
        saved.is_ok() && reopened.to_string_pretty() == db_text && reopened.iter().eq(db.iter());
    Search {
        report,
        wall_s,
        db_text,
        save_ms,
        load_ms,
        reopened_equal,
    }
}

/// Counters that should repeat between two searches with one seed; returns
/// the names of those that did not.
fn nonrepeating(a: &ServiceReport, b: &ServiceReport) -> Vec<&'static str> {
    let pairs = [
        ("tuner.fitness_calls", a.fitness_evals, b.fitness_evals),
        ("tuner.cache_hits", a.cache_hits, b.cache_hits),
        ("tuner.evaluated", a.evaluated, b.evaluated),
        ("tuner.retries", a.retries, b.retries),
        ("tuner.quarantined", a.quarantine_total, b.quarantine_total),
    ];
    pairs.iter().filter(|p| p.1 != p.2).map(|p| p.0).collect()
}

/// Candidates the service quarantined for a compiler fault: any class but a
/// blown cycle budget (a slow candidate is a legitimate outcome). The
/// service contains them, but each is a stage error or a miscompile, so
/// each counts as a failed op. Returns one line per fault.
fn compiler_faults(r: &ServiceReport) -> Vec<String> {
    let mut faults = Vec::new();
    for wr in &r.workloads {
        for q in wr
            .quarantined
            .iter()
            .filter(|q| q.class != FailureClass::Budget)
        {
            faults.push(format!(
                "compiler fault on {}: {:?} after {:?} (inline {}, unroll {})",
                wr.name,
                q.class,
                q.candidate.passes,
                q.candidate.inline_threshold,
                q.candidate.unroll_threshold
            ));
        }
    }
    faults
}

/// Re-run every winner through the runner, check it against the reference
/// and its recorded fitness, and prove it once.
struct Winners {
    cycles: Vec<f64>,
    cost_ms: Vec<f64>,
    code_size: Vec<f64>,
    failed: u64,
}

fn check_winners(
    runner: &mut SuiteRunner,
    targets: &[&'static Workload],
    refs: &[Reference],
    r: &ServiceReport,
    notes: &mut Vec<String>,
) -> Winners {
    let mut out = Winners {
        cycles: Vec::new(),
        cost_ms: Vec::new(),
        code_size: Vec::new(),
        failed: 0,
    };
    for ((w, reference), wr) in targets.iter().zip(refs).zip(&r.workloads) {
        let checked = (|| -> Result<(), String> {
            let best = wr.best.as_ref().ok_or("no winner")?;
            let profile = OptProfile::sequence("winner", best.passes.clone(), best.pass_config());
            let (report, records) = runner
                .run_segmented(w, &profile, VM)
                .map_err(|e| e.to_string())?;
            if Some(report.total_cycles) != wr.best_fitness {
                return Err(format!(
                    "winner runs {} cycles, tuner recorded {:?}",
                    report.total_cycles, wr.best_fitness
                ));
            }
            if !reference.matches(&report.journal, report.exit_code) {
                return Err("winner output differs from the reference".into());
            }
            let proof = prove_segmented(&RiscZeroBackend, &report, &records, nproc())
                .map_err(|e| e.to_string())?;
            let size = runner
                .compile(w, &profile)
                .map_err(|e| e.to_string())?
                .program
                .len();
            out.cycles.push(report.total_cycles as f64);
            out.cost_ms.push(proof.total_cost_ms);
            out.code_size.push(size as f64);
            Ok(())
        })();
        if let Err(e) = checked {
            notes.push(format!("{}: {e}", w.name));
            out.failed += 1;
        }
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut draw = Rng::new(DRAW_SEED, 2);
    let mut targets_w = draw_targets(&mut draw, if args.tiny { 2 } else { TARGETS })?;
    let config = service_config(args, draw.next());
    Rng::new(args.seed, 2).shuffle(&mut targets_w);
    let mut refs = references(&targets_w)?;
    if args.bad_reference {
        refs[0] = refs[0].corrupted();
    }
    let mut notes = vec![format!(
        "targets: {}",
        targets_w
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    )];

    let ((mut runner, ev, targets), setup_s, setup_note) = timed_setups(|| {
        let mut runner = SuiteRunner::new();
        let ev = runner
            .batch_evaluator(&targets_w, VM)
            .map_err(|e| e.to_string())?;
        let targets = ev.tune_targets();
        Ok((runner, ev, targets))
    })?;
    notes.push(setup_note);
    let tmp = TempDir::new("tune").map_err(|e| e.to_string())?;

    // Fitness-call latencies, tagged with the search they belong to, so each
    // can be scaled by the machine's speed around that search.
    let latencies = Mutex::new(Vec::<(usize, f64)>::new());
    let search_idx = AtomicUsize::new(0);
    let fitness = ev.classified_fitness();
    let timed_fitness = |widx: usize, c: &Candidate| {
        let t = Instant::now();
        let r = fitness(widx, c);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let i = search_idx.load(Ordering::Relaxed);
        latencies.lock().expect("latencies").push((i, ms));
        r
    };

    if !args.trace {
        // Whole searches until the time is up; each must rebuild the same
        // database as the first.
        reset_peak_rss();
        let start = Instant::now();
        // The machine's speed is read between searches, never during one
        // (a search keeps every core busy); each search is scaled by the
        // readings either side of it (see `SpeedProbe`).
        let read = || read_speed(config.threads);
        let (mut searches, mut speed) = (Vec::new(), vec![read()]);
        while searches.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            search_idx.store(searches.len(), Ordering::Relaxed);
            let dir = tmp.0.join(format!("search{}", searches.len()));
            searches.push(search(&config, &targets, &dir, timed_fitness));
            speed.push(read());
        }
        let scales: Vec<f64> = speed
            .windows(2)
            .map(|w| REF_CALIBRATION_MS * 2.0 / (w[0] + w[1]))
            .collect();
        let peak_rss_mb = peak_rss_mb();
        let first = &searches[0];
        // Compiler faults are counted in every search, as `attempted`
        // counts every search's evaluations; each distinct one is noted.
        let mut failed = 0;
        for s in &searches {
            let faults = compiler_faults(&s.report);
            failed += faults.len() as u64;
            for f in faults {
                if !notes.contains(&f) {
                    notes.push(f);
                }
            }
        }
        let winners = check_winners(&mut runner, &targets_w, &refs, &first.report, &mut notes);
        failed += winners.failed;
        for (i, s) in searches.iter().enumerate() {
            if !s.reopened_equal {
                notes.push(format!(
                    "search {i}: the saved tune database reopened different"
                ));
                failed += 1;
            }
            if s.db_text != first.db_text {
                notes.push(format!("search {i}: tune database differs from search 0"));
                failed += 1;
            }
            let odd = nonrepeating(&first.report, &s.report);
            if !odd.is_empty() {
                notes.push(format!(
                    "search {i}: non-repeating counts (excluded from claims): {odd:?}"
                ));
            }
        }
        let op_ms: Vec<f64> = latencies
            .into_inner()
            .expect("latencies")
            .iter()
            .map(|&(i, ms)| ms * scales[i])
            .collect();
        let ops: u64 = searches.iter().map(|s| s.report.evaluated as u64).sum();
        let e = EndToEnd {
            setup_s,
            ops,
            failed,
            ops_per_s: ops as f64
                / searches
                    .iter()
                    .zip(&scales)
                    .map(|(s, k)| s.wall_s * k)
                    .sum::<f64>(),
            op_ms,
            peak_rss_mb,
            guest_cycles: winners.cycles,
            prove_cost_ms: winners.cost_ms,
            code_size: winners.code_size,
        };
        notes.push(format!(
            "{} searches; {}; speed scales {scales:.3?}; unscaled {:.4} ops/s",
            searches.len(),
            e.sample_note(),
            ops as f64 / searches.iter().map(|s| s.wall_s).sum::<f64>()
        ));
        return Ok(Outcome {
            correct: failed == 0,
            attempted: e.ops,
            failed,
            metrics: e.metrics(),
            notes,
        });
    }

    // Traced: one untraced search, then the same search with the fitness
    // repeated stage by stage from outside.
    let entries = targets_w
        .iter()
        .map(|w| {
            let module = runner.lower(w).map_err(|e| e.to_string())?;
            let base = runner
                .run(w, &OptProfile::baseline(), VM, false)
                .map_err(|e| e.to_string())?;
            Ok(Entry {
                module,
                inputs: w.inputs.clone(),
                journal: base.exec.journal,
                exit: base.exec.exit_code,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    for (i, e) in entries.iter().enumerate() {
        if zkvmopt_ir::stable_module_fingerprint(&e.module) != ev.fingerprint(i) {
            return Err(format!(
                "{}: lowered module differs from the evaluator's",
                targets_w[i].name
            ));
        }
    }
    // Untraced, traced, untraced: the traced search is compared with the
    // mean of the searches either side of it, so a drift in the machine's
    // speed cancels out of the tracing overhead.
    let plain = search(&config, &targets, &tmp.0.join("plain"), timed_fitness);
    let tracer = Tracer::new();
    let ids = AtomicU64::new(0);
    let counters = Mutex::new(Counters::default());
    let traced_fitness = |widx: usize, cand: &Candidate| -> EvalResult {
        let e = &entries[widx];
        let mut op = tracer.op(ids.fetch_add(1, Ordering::Relaxed), Layer::Core, "fitness");
        let mut c = Counters::default();
        // `BatchEvaluator::eval_classified`, stage by stage.
        let r = (|| -> Result<u64, PipelineError> {
            let profile =
                OptProfile::sequence("candidate", cand.passes.clone(), cand.pass_config());
            let program = catch_unwind(AssertUnwindSafe(|| {
                let mut m = op.span(Layer::Ir, "module_clone", || e.module.clone());
                op.span(Layer::Passes, "OptProfile::apply", || profile.apply(&mut m));
                op.span(Layer::Tracing, "count", || {
                    c.ir_insts_in += e.module.size() as u64;
                    c.ir_insts_out += m.size() as u64;
                    c.applies += 1;
                    c.applies_changed += u64::from(m != e.module);
                });
                op.span_res(Layer::Ir, "verify_module", || {
                    zkvmopt_ir::verify::verify_module(&m)
                })
                .map_err(|err| PipelineError::Verify {
                    message: err.to_string(),
                })?;
                op.span_res(Layer::Riscv, "compile_module", || {
                    zkvmopt_riscv::compile_module(&m, &profile.backend)
                })
                .map_err(PipelineError::from)
            }))
            .unwrap_or_else(|payload| Err(PipelineError::from_panic(payload)))?;
            c.insts_emitted += program.len() as u64;
            c.spilled_vregs += u64::from(program.spilled_vregs);
            let budget = ev.candidate_budget(widx);
            let decoded = op.span(Layer::Vm, "decode", || DecodedProgram::decode(&program));
            let exec = op
                .span_res(Layer::Vm, "run", || {
                    let config = ExecConfig {
                        inputs: e.inputs.clone(),
                        max_cycles: budget,
                    };
                    Engine::new(&decoded, VmProfile::for_kind(VM), config).run()
                })
                .map_err(|err| PipelineError::from_exec(err, budget))?;
            c.add_exec(&exec);
            if exec.journal != e.journal || exec.exit_code != e.exit {
                return Err(PipelineError::Divergence);
            }
            Ok(exec.total_cycles)
        })();
        op.finish(r.is_err());
        counters.lock().expect("counters").add(&c);
        r.map_err(|e| e.class())
    };
    let traced = search(&config, &targets, &tmp.0.join("traced"), traced_fitness);
    let after = search(&config, &targets, &tmp.0.join("after"), timed_fitness);
    let faults = compiler_faults(&traced.report);
    let n_faults = faults.len() as u64;
    let mut failed = n_faults;
    notes.extend(faults);
    for (name, s) in [
        ("untraced", &plain),
        ("traced", &traced),
        ("untraced", &after),
    ] {
        if !s.reopened_equal {
            notes.push(format!(
                "{name} search: the saved tune database reopened different"
            ));
            failed += 1;
        }
    }
    if traced.db_text != plain.db_text || after.db_text != plain.db_text {
        notes.push("the searches built different tune databases".into());
        failed += 1;
    }
    let winners = check_winners(&mut runner, &targets_w, &refs, &traced.report, &mut notes);
    failed += winners.failed;
    let mut odd = nonrepeating(&plain.report, &traced.report);
    odd.extend(nonrepeating(&plain.report, &after.report));
    odd.sort_unstable();
    odd.dedup();
    if !odd.is_empty() {
        notes.push(format!(
            "non-repeating counts (excluded from claims): {odd:?}"
        ));
    }

    let ops = tracer.into_ops();
    let mut totals = LayerTotals::default();
    totals.add_ops(&ops);
    let busy_ms: f64 = ops.iter().map(|o| o[0].ns() as f64 / 1e6).sum();
    let workers = config.threads.max(1) as f64;
    let tuner = LayerTotals::idx(Layer::Tuner);
    totals.calls[tuner] += 3; // tune_suite, TuneDb::save, TuneDb::open
    let tuner_ms =
        (traced.wall_s * 1e3 * workers - busy_ms).max(0.0) + traced.save_ms + traced.load_ms;
    totals.self_ns[tuner] += (tuner_ms * 1e6) as u64;
    let r = &traced.report;
    let tc = TunerCounters {
        fitness_calls: r.fitness_evals as u64,
        cache_hits: r.cache_hits as u64,
        evaluated: r.evaluated as u64,
        retries: r.retries as u64,
        quarantined: r.quarantine_total as u64,
        compiler_faults: n_faults,
        fitness_busy_ms: busy_ms,
        db_save_ms: traced.save_ms,
        db_load_ms: traced.load_ms,
        nonrepeating: odd,
    };
    let plain_s = (plain.wall_s + after.wall_s) / 2.0;
    let overhead_pct = (traced.wall_s / plain_s - 1.0) * 100.0;
    notes.push(format!(
        "search wall: {:.3} s untraced, {:.3} s traced; {} fitness calls",
        plain_s, traced.wall_s, r.fitness_evals,
    ));
    let metrics: Vec<Metric> = layer_metrics(
        &totals,
        &ops,
        &counters.into_inner().expect("counters"),
        &tc,
        overhead_pct,
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: r.evaluated as u64,
        failed,
        metrics,
        notes,
    })
}
