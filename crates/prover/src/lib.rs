//! # zkvmopt-prover
//!
//! Proving-cost models for the two zkVM profiles, plus a Merkle-commitment
//! "toy prover" that does real hashing work proportional to the trace.
//!
//! **Substitution note:** the paper measures wall-clock proving
//! on a GPU rig; every claim it makes is *relative* (percent vs. baseline).
//! In STARK zkVMs the dominant cost is the padded trace area, proved per
//! segment (RISC Zero continuations) or shard (SP1) with a per-unit
//! aggregation overhead. That is exactly what [`ProvingModel`] computes. The
//! SP1 shard-count discontinuity the paper hits in §6.1 (regex-match: 16 →
//! 20 shards) falls out of the same arithmetic.

use zkvmopt_crypto::MerkleTree;
use zkvmopt_vm::{ExecutionReport, VmKind};

pub mod pipeline;

pub use pipeline::{
    check_segment_accounting, prove_segmented, standard_backends, verify_segmented,
    AccountingMismatch, LookupCentricBackend, ProverBackend, RiscZeroBackend, SegmentProof,
    SegmentedProof, Sp1Backend,
};

/// Rows after padding, as measured proving time sees them. Real STARK
/// provers pad the main trace to a power of two, but the many secondary
/// chip tables pad at much finer granularity, so measured proving time
/// tracks rows far more continuously than a single pow2 pad would suggest.
/// Model that blend: half the cost follows the pow2-padded main trace
/// (min 4 Ki rows), half follows 2 KiB-granular chip tables.
#[must_use]
pub fn padded_rows_blend(rows: u64) -> u64 {
    let pow2 = rows.next_power_of_two().max(1 << 12);
    let fine = rows.div_ceil(2048).max(1) * 2048;
    (pow2 + fine) / 2
}

/// Analytic proving-cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvingModel {
    /// Which VM this models.
    pub kind: VmKind,
    /// Rows per proving unit (segment/shard) before padding.
    pub unit_rows: u64,
    /// Fixed per-unit cost (commit phases, FRI setup), milliseconds.
    pub per_unit_ms: f64,
    /// Per-padded-row cost, milliseconds.
    pub per_row_ms: f64,
    /// Per-unit aggregation/recursion overhead once more than one unit
    /// exists, milliseconds.
    pub aggregation_ms: f64,
}

impl ProvingModel {
    /// RISC Zero–like: ~1 Mi-row segments, heavier per-segment cost.
    pub fn risc_zero() -> ProvingModel {
        ProvingModel {
            kind: VmKind::RiscZero,
            unit_rows: 1 << 20,
            per_unit_ms: 180.0,
            per_row_ms: 1.15e-3,
            aggregation_ms: 25.0,
        }
    }

    /// SP1-like: 512 Ki-row shards, lighter per-shard cost, visible
    /// aggregation overhead.
    pub fn sp1() -> ProvingModel {
        ProvingModel {
            kind: VmKind::Sp1,
            unit_rows: 1 << 19,
            per_unit_ms: 28.0,
            per_row_ms: 1.5e-4,
            aggregation_ms: 9.0,
        }
    }

    /// Model for a [`VmKind`].
    pub fn for_kind(kind: VmKind) -> ProvingModel {
        match kind {
            VmKind::RiscZero => ProvingModel::risc_zero(),
            VmKind::Sp1 => ProvingModel::sp1(),
        }
    }

    /// Trace rows implied by an execution report.
    ///
    /// RISC Zero's trace includes paging activity; SP1's chip tables charge
    /// extra rows for multiplies/divides and memory operations.
    pub fn rows(&self, r: &ExecutionReport) -> u64 {
        match self.kind {
            VmKind::RiscZero => r.total_cycles,
            VmKind::Sp1 => {
                r.user_cycles + r.mix.mul + 2 * r.mix.div + (r.mix.load + r.mix.store) / 2
            }
        }
    }

    /// Number of proving units (segments/shards) for a report.
    pub fn units(&self, r: &ExecutionReport) -> u64 {
        self.rows(r).div_ceil(self.unit_rows).max(1)
    }

    /// Modelled proving time in milliseconds.
    pub fn proving_time_ms(&self, r: &ExecutionReport) -> f64 {
        let rows = self.rows(r);
        let units = self.units(r);
        let mut ms = 0.0;
        let mut remaining = rows;
        for _ in 0..units {
            let in_unit = remaining.min(self.unit_rows);
            remaining = remaining.saturating_sub(self.unit_rows);
            ms += self.per_unit_ms + padded_rows_blend(in_unit) as f64 * self.per_row_ms;
        }
        if units > 1 {
            ms += units as f64 * self.aggregation_ms;
        }
        ms
    }
}

/// A toy "proof": a Merkle commitment over per-segment trace digests plus
/// the journal. Real hashing work, real verification — not zero-knowledge,
/// but enough to give the workspace an artifact whose construction cost
/// scales with the trace like a real prover's does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToyProof {
    /// Merkle root over the committed leaves.
    pub root: [u8; 32],
    /// Number of committed leaves.
    pub leaves: usize,
    /// The public journal the proof binds.
    pub journal: Vec<i32>,
    /// Exit code the proof binds.
    pub exit_code: i32,
}

/// Build a toy proof from an execution report.
///
/// One leaf per `unit_rows` cycles (so bigger executions hash more), plus
/// one leaf binding the journal and exit code.
pub fn toy_prove(model: &ProvingModel, r: &ExecutionReport) -> ToyProof {
    let units = model.units(r);
    let mut leaves: Vec<Vec<u8>> = Vec::with_capacity(units as usize + 1);
    for u in 0..units {
        let mut leaf = Vec::with_capacity(40);
        leaf.extend_from_slice(b"segment");
        leaf.extend_from_slice(&u.to_le_bytes());
        leaf.extend_from_slice(&r.instret.to_le_bytes());
        leaf.extend_from_slice(&r.total_cycles.to_le_bytes());
        leaves.push(leaf);
    }
    let mut public = Vec::new();
    public.extend_from_slice(b"journal");
    public.extend_from_slice(&r.exit_code.to_le_bytes());
    for j in &r.journal {
        public.extend_from_slice(&j.to_le_bytes());
    }
    leaves.push(public);
    let tree = MerkleTree::new(&leaves);
    ToyProof {
        root: tree.root(),
        leaves: leaves.len(),
        journal: r.journal.clone(),
        exit_code: r.exit_code,
    }
}

/// Verify that a toy proof binds the given journal and exit code (rebuilds
/// the public leaf and checks it against the root via a fresh proof path).
pub fn toy_verify(model: &ProvingModel, r: &ExecutionReport, proof: &ToyProof) -> bool {
    let rebuilt = toy_prove(model, r);
    rebuilt.root == proof.root && proof.journal == r.journal && proof.exit_code == r.exit_code
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkvmopt_vm::{run_program, VmKind};

    fn report(cycles_hint: u32) -> ExecutionReport {
        let src = format!(
            "fn main() -> i32 {{
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < {cycles_hint}; i += 1) {{ s += i; }}
               return s;
             }}"
        );
        let m = zkvmopt_lang::compile_guest(&src).unwrap();
        let p = zkvmopt_riscv::compile_module(&m, &zkvmopt_riscv::TargetCostModel::zk()).unwrap();
        run_program(&p, VmKind::RiscZero, &[]).unwrap()
    }

    #[test]
    fn proving_time_scales_with_cycles() {
        let small = report(100);
        let big = report(100_000);
        for kind in VmKind::BOTH {
            let model = ProvingModel::for_kind(kind);
            let ts = model.proving_time_ms(&small);
            let tb = model.proving_time_ms(&big);
            assert!(tb > ts, "{kind}: {tb} !> {ts}");
        }
    }

    #[test]
    fn shard_boundaries_add_aggregation_cost() {
        let model = ProvingModel::sp1();
        // Synthetic reports just under / over one shard.
        let mut r = report(100);
        r.user_cycles = model.unit_rows - 10;
        r.total_cycles = r.user_cycles;
        r.mix = zkvmopt_vm::InstMix {
            alu: r.user_cycles,
            ..Default::default()
        };
        let one = model.proving_time_ms(&r);
        assert_eq!(model.units(&r), 1);
        r.user_cycles = model.unit_rows * 2;
        r.total_cycles = r.user_cycles;
        r.mix.alu = r.user_cycles;
        let three = model.proving_time_ms(&r);
        assert!(model.units(&r) >= 2);
        assert!(
            three > one * 1.5,
            "crossing shards must jump: {one} -> {three}"
        );
    }

    #[test]
    fn risczero_charges_paging_rows() {
        let model = ProvingModel::risc_zero();
        let mut r = report(100);
        let base_rows = model.rows(&r);
        r.paging_cycles += 100_000;
        r.total_cycles += 100_000;
        assert!(model.rows(&r) > base_rows);
        // SP1 ignores paging cycles in its row count.
        let sp1 = ProvingModel::sp1();
        let rows_before = sp1.rows(&r);
        r.paging_cycles += 1_000_000;
        r.total_cycles += 1_000_000;
        assert_eq!(sp1.rows(&r), rows_before);
    }

    #[test]
    fn toy_proof_roundtrip_and_tamper() {
        let r = report(500);
        let model = ProvingModel::risc_zero();
        let proof = toy_prove(&model, &r);
        assert!(toy_verify(&model, &r, &proof));
        let mut bad = proof.clone();
        bad.root[0] ^= 1;
        assert!(!toy_verify(&model, &r, &bad));
        let mut other = r.clone();
        other.journal.push(42);
        assert!(!toy_verify(&model, &other, &proof));
    }

    fn segmented(
        cycles_hint: u32,
        kind: VmKind,
    ) -> (ExecutionReport, Vec<zkvmopt_vm::SegmentRecord>) {
        let src = format!(
            "static A: [i32; 16384];
             fn main() -> i32 {{
               let mut s: i32 = 0;
               for (let mut i: i32 = 0; i < {cycles_hint}; i += 1) {{
                 A[i % 16384] = i; s += A[(i * 7) % 16384];
               }}
               commit(s);
               return s;
             }}"
        );
        let m = zkvmopt_lang::compile_guest(&src).unwrap();
        let p = zkvmopt_riscv::compile_module(&m, &zkvmopt_riscv::TargetCostModel::zk()).unwrap();
        let d = zkvmopt_vm::DecodedProgram::decode(&p);
        let mut profile = zkvmopt_vm::VmProfile::for_kind(kind);
        // Small segments so even modest runs split into several.
        profile.segment_cycles = 1 << 14;
        zkvmopt_vm::Engine::new(&d, profile, zkvmopt_vm::ExecConfig::default())
            .run_segmented()
            .unwrap()
    }

    #[test]
    fn segment_records_pass_the_accounting_gate() {
        for kind in VmKind::BOTH {
            let (report, records) = segmented(20_000, kind);
            assert!(records.len() > 1, "{kind}: want a multi-segment run");
            check_segment_accounting(&report, &records).unwrap();
        }
    }

    #[test]
    fn accounting_gate_rejects_tampered_records() {
        let (report, mut records) = segmented(5_000, VmKind::RiscZero);
        records[0].user_cycles += 1;
        let err = check_segment_accounting(&report, &records).unwrap_err();
        assert_eq!(err.field, "user_cycles");
        records[0].user_cycles -= 1;
        records.pop();
        let err = check_segment_accounting(&report, &records).unwrap_err();
        assert_eq!(err.field, "segments");
    }

    #[test]
    fn parallel_proving_matches_sequential_bit_for_bit() {
        let (report, records) = segmented(20_000, VmKind::RiscZero);
        for backend in standard_backends() {
            let seq = prove_segmented(backend, &report, &records, 1).unwrap();
            for threads in [0, 2, 4] {
                let par = prove_segmented(backend, &report, &records, threads).unwrap();
                assert_eq!(par.root, seq.root, "{}: root", backend.name());
                assert_eq!(par.segments, seq.segments, "{}: segments", backend.name());
                assert!(
                    par.total_cost_ms == seq.total_cost_ms,
                    "{}: cost {} != {}",
                    backend.name(),
                    par.total_cost_ms,
                    seq.total_cost_ms
                );
            }
            assert!(verify_segmented(backend, &report, &records, &seq));
        }
    }

    #[test]
    fn segmented_proofs_bind_segments_and_journal() {
        let (report, records) = segmented(10_000, VmKind::RiscZero);
        let backend: &dyn ProverBackend = &RiscZeroBackend;
        let proof = prove_segmented(backend, &report, &records, 1).unwrap();
        assert_eq!(proof.segments.len(), records.len());

        // Tampering with a record breaks verification (the accounting gate
        // catches sum changes; a compensated swap changes the commitment).
        let mut moved = records.clone();
        if moved.len() >= 2 {
            let a = moved[0].user_cycles;
            moved[0].user_cycles = moved[1].user_cycles;
            moved[1].user_cycles = a;
            if moved[0] != records[0] {
                assert!(!verify_segmented(backend, &report, &moved, &proof));
            }
        }
        // Tampering with the journal breaks the public-leaf binding.
        let mut other = report.clone();
        other.journal.push(42);
        assert!(!verify_segmented(backend, &other, &records, &proof));
    }

    #[test]
    fn backends_disagree_on_cost_shape() {
        let (report, records) = segmented(20_000, VmKind::RiscZero);
        let r0 = prove_segmented(&RiscZeroBackend, &report, &records, 1).unwrap();
        let sp1 = prove_segmented(&Sp1Backend, &report, &records, 1).unwrap();
        let lk = prove_segmented(&LookupCentricBackend, &report, &records, 1).unwrap();
        // Paging-heavy risc0 charges paging rows; sp1 does not.
        let r0_rows: u64 = r0.segments.iter().map(|s| s.rows).sum();
        let sp1_rows: u64 = sp1.segments.iter().map(|s| s.rows).sum();
        assert!(r0_rows > sp1_rows, "paging rows: {r0_rows} vs {sp1_rows}");
        // All three produce distinct total costs on a paging workload.
        assert!(r0.total_cost_ms != sp1.total_cost_ms);
        assert!(sp1.total_cost_ms != lk.total_cost_ms);
    }

    #[test]
    fn mismatched_report_and_records_are_rejected() {
        let (report, _) = segmented(5_000, VmKind::RiscZero);
        let (_, other_records) = segmented(20_000, VmKind::RiscZero);
        assert!(prove_segmented(&RiscZeroBackend, &report, &other_records, 1).is_err());
    }

    #[test]
    fn padded_rows_give_power_of_two_discontinuities() {
        let model = ProvingModel::risc_zero();
        let mut r = report(100);
        r.mix = zkvmopt_vm::InstMix {
            alu: 1,
            ..Default::default()
        };
        r.paging_cycles = 0;
        r.user_cycles = (1 << 16) - 100;
        r.total_cycles = r.user_cycles;
        let a = model.proving_time_ms(&r);
        r.user_cycles = (1 << 16) + 100;
        r.total_cycles = r.user_cycles;
        let b = model.proving_time_ms(&r);
        assert!(b > a, "crossing a padding boundary must cost: {a} -> {b}");
    }
}
