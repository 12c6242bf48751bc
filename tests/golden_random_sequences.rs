//! Golden optimizer-output snapshots for random pass sequences, pinned in
//! `tests/golden_random_sequences.json`.
//!
//! `golden_static.json` pins what the fixed `-O2` pipeline produces; this
//! file pins what the tuner's *random* candidates produce — the sequence
//! shape the autotuning service actually feeds the optimizer. Each case is
//! one `Candidate::random(seed, 20)` (passes plus its inline/unroll
//! thresholds) applied through the pass manager to one lowered tuning
//! target, exactly as `BatchEvaluator` does. It records every function's
//! `content_fingerprint` (value ids, ops, block lists, terminators) and the
//! module's static size, or the failure class when the pipeline panics or
//! the result fails verification. Any optimizer change that is meant to be
//! output-preserving — a faster data structure, a different rewrite order —
//! must leave this file untouched.
//!
//! `content_fingerprint` hashes with the standard library's fixed-key
//! `DefaultHasher`, so a toolchain that changes that hasher needs a rebless
//! on unchanged optimizer code. To regenerate after an intentional change:
//!
//! ```text
//! ZKVMOPT_BLESS=1 cargo test --test golden_random_sequences
//! ```
//!
//! and commit the updated JSON alongside the change that moved it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use zkvm_opt::ir::analysis::{content_fingerprint, fingerprint_to_hex};
use zkvm_opt::study::OptProfile;
use zkvm_opt::tuner::Candidate;

/// The tuning targets the repository benchmark's `tune_service` draws.
const TARGETS: [&str; 6] = [
    "polybench-lu",
    "polybench-syrk",
    "polybench-nussinov",
    "sha3-bench",
    "sha2-chain",
    "keccak256",
];

/// Random candidates per target; seeds are `target_index * PER_TARGET + k`.
const PER_TARGET: u64 = 32;

/// Maximum sequence depth, as in the tuner.
const MAX_DEPTH: usize = 20;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_random_sequences.json")
}

/// One case as a JSON line, keyed by `"<target>#<seed>"`.
fn run_case(target: &str, module: &zkvm_opt::ir::Module, seed: u64) -> String {
    let cand = Candidate::random(seed, MAX_DEPTH);
    let profile = OptProfile::sequence("candidate", cand.passes.clone(), cand.pass_config());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut m = module.clone();
        profile.apply(&mut m);
        zkvm_opt::ir::verify::verify_module(&m).map(|()| m)
    }));
    let result = match outcome {
        Err(_) => "\"failure\": \"panic\"".to_string(),
        Ok(Err(_)) => "\"failure\": \"verify\"".to_string(),
        Ok(Ok(m)) => {
            let fps: Vec<String> = m
                .funcs
                .iter()
                .map(|f| format!("\"{}\"", fingerprint_to_hex(content_fingerprint(f))))
                .collect();
            format!("\"size\": {}, \"funcs\": [{}]", m.size(), fps.join(", "))
        }
    };
    format!(
        "\"{target}#{seed}\": {{ \"passes\": \"{}\", \"inline\": {}, \"unroll\": {}, {result} }}",
        cand.passes.join(","),
        cand.inline_threshold,
        cand.unroll_threshold,
    )
}

fn current_cases() -> Vec<String> {
    // Failing candidates are recorded, not reported: keep their panic
    // messages out of the test output.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut cases = Vec::new();
    for (ti, target) in TARGETS.iter().enumerate() {
        let w = zkvm_opt::workloads::by_name(target)
            .unwrap_or_else(|| panic!("unknown workload {target}"));
        let module =
            zkvm_opt::lang::compile_guest(&w.source).unwrap_or_else(|e| panic!("{target}: {e}"));
        for k in 0..PER_TARGET {
            cases.push(run_case(target, &module, ti as u64 * PER_TARGET + k));
        }
    }
    std::panic::set_hook(hook);
    cases
}

fn render(cases: &[String]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"zkvmopt-golden-random-sequences-v1\",\n");
    writeln!(s, "  \"max_depth\": {MAX_DEPTH},").expect("string write");
    s.push_str("  \"cases\": {\n");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        writeln!(s, "    {c}{comma}").expect("string write");
    }
    s.push_str("  }\n}\n");
    s
}

/// The case lines of a rendered file, without trailing commas.
fn case_lines(text: &str) -> Vec<&str> {
    text.lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('"') && l.contains('#'))
        .collect()
}

#[test]
fn random_sequence_outputs_are_stable() {
    let cases = current_cases();
    let path = golden_path();
    if std::env::var("ZKVMOPT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, render(&cases)).expect("write golden file");
        eprintln!("blessed {} cases into {}", cases.len(), path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with ZKVMOPT_BLESS=1 to generate",
            path.display()
        )
    });
    let golden = case_lines(&text);
    assert_eq!(
        golden.len(),
        TARGETS.len() * PER_TARGET as usize,
        "golden file must cover every case"
    );
    let drift: Vec<String> = cases
        .iter()
        .zip(&golden)
        .filter(|(now, then)| now.as_str() != **then)
        .map(|(now, then)| format!("golden {then}\n    got {now}"))
        .collect();
    assert!(
        drift.is_empty(),
        "optimizer output drifted from tests/golden_random_sequences.json — if \
         intentional, rebless with ZKVMOPT_BLESS=1:\n  {}",
        drift.join("\n  ")
    );
}
