//! `study_cold`: the paper's study traffic. One op is one (program,
//! profile) cell: a cold compile through a fresh `SuiteRunner`, then a
//! segmented run and a segmented proof on both VMs.

use crate::cells::{CellWorkload, Sample};
use crate::common::{lower, timed_setups, Args, Counters, Outcome, Reference, Rng};
use crate::trace::{Layer, Op};
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner, KEY_PASSES};
use zkvmopt_prover::{
    check_segment_accounting, prove_segmented, ProverBackend, RiscZeroBackend, SegmentedProof,
    Sp1Backend,
};
use zkvmopt_vm::{DecodedProgram, Engine, ExecConfig, ExecutionReport, VmKind, VmProfile};
use zkvmopt_workloads::Workload;

/// Each VM with the proving backend that matches it.
pub const VMS: [(VmKind, &dyn ProverBackend); 2] = [
    (VmKind::RiscZero, &RiscZeroBackend),
    (VmKind::Sp1, &Sp1Backend),
];

/// The observable result of one run on one VM: what must match the
/// reference, plus the exact counts the end-to-end metrics report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOut {
    pub exit_code: i32,
    pub journal: Vec<i32>,
    pub total_cycles: u64,
    pub instret: u64,
    pub paging_cycles: u64,
    pub segments: u64,
    pub root: [u8; 32],
    pub cost_bits: u64,
}

impl RunOut {
    pub fn new(r: &ExecutionReport, p: &SegmentedProof) -> RunOut {
        RunOut {
            exit_code: r.exit_code,
            journal: r.journal.clone(),
            total_cycles: r.total_cycles,
            instret: r.instret,
            paging_cycles: r.paging_cycles,
            segments: r.segments,
            root: p.root,
            cost_bits: p.total_cost_ms.to_bits(),
        }
    }

    pub fn cost_ms(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

/// One cell's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOut {
    pub code_size: usize,
    pub spilled_vregs: u32,
    pub runs: Vec<RunOut>,
}

pub fn padded_rows(p: &SegmentedProof) -> u64 {
    p.segments.iter().map(|s| s.padded_rows).sum()
}

struct Study {
    programs: Vec<&'static Workload>,
    refs: Vec<Reference>,
    /// (program, profile) in seeded order.
    cells: Vec<(usize, OptProfile)>,
    max_cycles: u64,
}

impl CellWorkload for Study {
    type Out = CellOut;

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn untraced(&mut self, cell: usize) -> Result<CellOut, String> {
        let (w, profile) = &self.cells[cell];
        let w = self.programs[*w];
        let mut runner = SuiteRunner::new();
        let cw = runner.compile(w, profile).map_err(|e| e.to_string())?;
        let (code_size, spilled_vregs) = (cw.program.len(), cw.program.spilled_vregs);
        let mut runs = Vec::with_capacity(VMS.len());
        for (vm, backend) in VMS {
            let (report, records) = runner
                .run_segmented(w, profile, vm)
                .map_err(|e| e.to_string())?;
            let proof =
                prove_segmented(backend, &report, &records, 1).map_err(|e| e.to_string())?;
            runs.push(RunOut::new(&report, &proof));
        }
        Ok(CellOut {
            code_size,
            spilled_vregs,
            runs,
        })
    }

    /// `SuiteRunner::compile` and `SuiteRunner::run_segmented`, stage by
    /// stage: lower, clone the lowered module, apply the profile, codegen,
    /// decode; then per VM run segmented, check the accounting, prove.
    fn traced(&mut self, cell: usize, op: &mut Op, c: &mut Counters) -> Result<CellOut, String> {
        let (w, profile) = &self.cells[cell];
        let w = self.programs[*w];
        let base = op
            .span_res(Layer::Lang, "compile_guest", || {
                zkvmopt_lang::compile_guest(&w.source)
            })
            .map_err(|e| e.to_string())?;
        let mut m = op.span(Layer::Ir, "module_clone", || base.clone());
        op.span(Layer::Passes, "OptProfile::apply", || profile.apply(&mut m));
        op.span(Layer::Tracing, "count", || {
            c.src_bytes += w.source.len() as u64;
            c.ir_insts_in += base.size() as u64;
            c.ir_insts_out += m.size() as u64;
            c.applies += 1;
            c.applies_changed += u64::from(m != base);
        });
        let program = op
            .span_res(Layer::Riscv, "compile_module", || {
                zkvmopt_riscv::compile_module(&m, &profile.backend)
            })
            .map_err(|e| e.to_string())?;
        let decoded = op.span(Layer::Vm, "decode", || DecodedProgram::decode(&program));
        c.insts_emitted += program.len() as u64;
        c.spilled_vregs += u64::from(program.spilled_vregs);
        let mut runs = Vec::with_capacity(VMS.len());
        for (vm, backend) in VMS {
            let (report, records) = op
                .span_res(Layer::Vm, "run_segmented", || {
                    let config = ExecConfig {
                        inputs: w.inputs.clone(),
                        max_cycles: self.max_cycles,
                    };
                    Engine::new(&decoded, VmProfile::for_kind(vm), config).run_segmented()
                })
                .map_err(|e| e.to_string())?;
            op.span_res(Layer::Prover, "check_segment_accounting", || {
                check_segment_accounting(&report, &records)
            })
            .map_err(|e| e.to_string())?;
            let proof = op
                .span_res(Layer::Prover, "prove_segmented", || {
                    prove_segmented(backend, &report, &records, 1)
                })
                .map_err(|e| e.to_string())?;
            c.add_exec(&report);
            c.padded_rows += crate::study::padded_rows(&proof);
            runs.push(RunOut::new(&report, &proof));
        }
        Ok(CellOut {
            code_size: program.len(),
            spilled_vregs: program.spilled_vregs,
            runs,
        })
    }

    fn check(&self, cell: usize, out: &CellOut) -> bool {
        let r = &self.refs[self.cells[cell].0];
        out.runs
            .iter()
            .all(|run| r.matches(&run.journal, run.exit_code))
    }

    fn describe(&self, cell: usize) -> String {
        let (w, p) = &self.cells[cell];
        format!("{}/{}", self.programs[*w].name, p.name)
    }

    fn sample(&self, _cell: usize, out: &CellOut, into: &mut Sample) {
        into.code_size.push(out.code_size as f64);
        for run in &out.runs {
            into.guest_cycles.push(run.total_cycles as f64);
            into.prove_cost_ms.push(run.cost_ms());
        }
    }
}

/// Seed of the one draw that picks each program's single passes. The
/// draw stays the same from run to run, so the spread between runs measures
/// the system and not the mix of passes; the workload seed orders the
/// cells.
const DRAW_SEED: u64 = 0;

/// The study's cells: every program under baseline, `-O3` and zk-`-O3`,
/// and under three single passes drawn for that program from the paper's
/// key-pass axis; in seeded order.
fn cells(seed: u64, programs: usize) -> Vec<(usize, OptProfile)> {
    let mut draw = Rng::new(DRAW_SEED, 1);
    let mut cells = Vec::with_capacity(programs * 6);
    for w in 0..programs {
        let mut keys = KEY_PASSES.to_vec();
        draw.shuffle(&mut keys);
        cells.push((w, OptProfile::baseline()));
        cells.push((w, OptProfile::level(OptLevel::O3)));
        cells.push((w, OptProfile::zk_o3()));
        cells.extend(keys[..3].iter().map(|p| (w, OptProfile::single_pass(p))));
    }
    Rng::new(seed, 1).shuffle(&mut cells);
    cells
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut programs: Vec<&'static Workload> = zkvmopt_workloads::all().iter().collect();
    if args.tiny {
        programs.truncate(3);
    }
    let cells = cells(args.seed, programs.len());
    // Every op is cold, so the study keeps no system state between ops. Its
    // set-up is the one system step whose result every op's check rests on:
    // lowering every program. The references are then computed from the
    // lowered modules, outside the timed set-up.
    let (modules, setup_s, setup_note) = timed_setups(|| {
        programs
            .iter()
            .map(|w| lower(w))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut refs = programs
        .iter()
        .zip(&modules)
        .map(|(w, m)| Reference::of(w, m))
        .collect::<Result<Vec<_>, _>>()?;
    drop(modules);
    if args.bad_reference {
        let first = cells[0].0;
        refs[first] = refs[first].corrupted();
    }
    let mut study = Study {
        programs,
        refs,
        cells,
        max_cycles: SuiteRunner::new().max_cycles(),
    };
    let mut out = crate::cells::run(args, &mut study, setup_s);
    out.notes.push(setup_note);
    Ok(out)
}
