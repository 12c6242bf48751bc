//! `prove_service`: execute and prove programs compiled ahead of time. One
//! op is one (program, VM) cell: `SuiteRunner::run_segmented` on the `-O3`
//! build the set-up compiled, then `prove_segmented` across the machine's
//! cores.

use crate::cells::{CellWorkload, Sample};
use crate::common::{nproc, references, timed_setups, Args, Counters, Outcome, Reference, Rng};
use crate::study::{padded_rows, RunOut, VMS};
use crate::trace::{Layer, Op};
use zkvmopt_core::{OptLevel, OptProfile, SuiteRunner};
use zkvmopt_prover::{check_segment_accounting, prove_segmented};
use zkvmopt_vm::{Engine, ExecConfig, VmProfile};
use zkvmopt_workloads::Workload;

/// One cell's outputs: the run, plus the static size of the program it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ProveOut {
    pub code_size: usize,
    pub run: RunOut,
}

struct ProveService {
    runner: SuiteRunner,
    profile: OptProfile,
    programs: Vec<&'static Workload>,
    refs: Vec<Reference>,
    /// Static size of each program's `-O3` build, read at set-up.
    code_sizes: Vec<usize>,
    /// (program, index into `VMS`) in seeded order.
    cells: Vec<(usize, usize)>,
    threads: usize,
}

impl CellWorkload for ProveService {
    type Out = ProveOut;

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn untraced(&mut self, cell: usize) -> Result<ProveOut, String> {
        let (w, v) = self.cells[cell];
        let (w, (vm, backend)) = (self.programs[w], VMS[v]);
        let (report, records) = self
            .runner
            .run_segmented(w, &self.profile, vm)
            .map_err(|e| e.to_string())?;
        let proof =
            prove_segmented(backend, &report, &records, self.threads).map_err(|e| e.to_string())?;
        Ok(ProveOut {
            code_size: self.code_sizes[self.cells[cell].0],
            run: RunOut::new(&report, &proof),
        })
    }

    /// `SuiteRunner::run_segmented` stage by stage: the compile-cache hit,
    /// the segmented engine run, the accounting check; then the proof.
    fn traced(&mut self, cell: usize, op: &mut Op, c: &mut Counters) -> Result<ProveOut, String> {
        let (w, v) = self.cells[cell];
        let (w, (vm, backend)) = (self.programs[w], VMS[v]);
        let max_cycles = self.runner.max_cycles();
        let (runner, profile) = (&mut self.runner, &self.profile);
        let cw = op
            .span_res(Layer::Core, "SuiteRunner::compile", || {
                runner.compile(w, profile)
            })
            .map_err(|e| e.to_string())?;
        let (report, records) = op
            .span_res(Layer::Vm, "run_segmented", || {
                let config = ExecConfig {
                    inputs: w.inputs.clone(),
                    max_cycles,
                };
                Engine::new(&cw.decoded, VmProfile::for_kind(vm), config).run_segmented()
            })
            .map_err(|e| e.to_string())?;
        op.span_res(Layer::Prover, "check_segment_accounting", || {
            check_segment_accounting(&report, &records)
        })
        .map_err(|e| e.to_string())?;
        let proof = op
            .span_res(Layer::Prover, "prove_segmented", || {
                prove_segmented(backend, &report, &records, self.threads)
            })
            .map_err(|e| e.to_string())?;
        c.add_exec(&report);
        c.padded_rows += padded_rows(&proof);
        Ok(ProveOut {
            code_size: self.code_sizes[self.cells[cell].0],
            run: RunOut::new(&report, &proof),
        })
    }

    fn check(&self, cell: usize, out: &ProveOut) -> bool {
        self.refs[self.cells[cell].0].matches(&out.run.journal, out.run.exit_code)
    }

    fn describe(&self, cell: usize) -> String {
        let (w, v) = self.cells[cell];
        format!("{}/{}", self.programs[w].name, VMS[v].0.name())
    }

    fn sample(&self, _cell: usize, out: &ProveOut, into: &mut Sample) {
        into.guest_cycles.push(out.run.total_cycles as f64);
        into.prove_cost_ms.push(out.run.cost_ms());
        into.code_size.push(out.code_size as f64);
    }
}

/// Set-up: a fresh runner with every program compiled at `-O3`.
fn setup(programs: &[&'static Workload], profile: &OptProfile) -> Result<SuiteRunner, String> {
    let mut runner = SuiteRunner::new();
    for w in programs {
        runner.compile(w, profile).map_err(|e| e.to_string())?;
    }
    Ok(runner)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut programs: Vec<&'static Workload> = zkvmopt_workloads::all().iter().collect();
    if args.tiny {
        programs.truncate(3);
    }
    let mut cells: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|w| (0..VMS.len()).map(move |v| (w, v)))
        .collect();
    Rng::new(args.seed, 3).shuffle(&mut cells);
    let mut refs = references(&programs)?;
    if args.bad_reference {
        let first = cells[0].0;
        refs[first] = refs[first].corrupted();
    }
    let profile = OptProfile::level(OptLevel::O3);
    let (mut runner, setup_s, setup_note) = timed_setups(|| setup(&programs, &profile))?;
    let code_sizes = programs
        .iter()
        .map(|w| runner.compile(w, &profile).map(|cw| cw.program.len()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut service = ProveService {
        runner,
        code_sizes,
        profile,
        programs,
        refs,
        cells,
        threads: nproc(),
    };
    let mut out = crate::cells::run(args, &mut service, setup_s);
    out.notes.push(setup_note);
    Ok(out)
}
