//! Redundancy elimination: `early-cse`, `gvn`, `newgvn`.

use crate::framework::{FunctionContext, ModuleInfo};
use crate::util;
use crate::PassConfig;
use std::collections::{HashMap, HashSet};
use zkvmopt_ir::analysis::AnalysisCache;
use zkvmopt_ir::{BlockId, Forwarding, Function, Op, Operand, ValueId};

/// Hashable key for pure expressions (commutative operands canonicalized).
fn expr_key(f: &Function, op: &Op) -> Option<String> {
    let fmt = |o: &Operand| format!("{o:?}");
    Some(match op {
        Op::Bin { op, a, b } => {
            let (x, y) = (fmt(a), fmt(b));
            let (x, y) = if op.commutative() && y < x {
                (y, x)
            } else {
                (x, y)
            };
            format!("bin:{op:?}:{x}:{y}")
        }
        Op::Icmp { pred, a, b } => format!("icmp:{pred:?}:{}:{}", fmt(a), fmt(b)),
        Op::Select { c, t, f: fo } => format!("sel:{}:{}:{}", fmt(c), fmt(t), fmt(fo)),
        Op::Gep {
            base,
            index,
            stride,
            offset,
        } => {
            format!("gep:{}:{}:{stride}:{offset}", fmt(base), fmt(index))
        }
        Op::GlobalAddr(g) => format!("ga:{g:?}"),
        Op::Cast { kind, v, to } => format!("cast:{kind:?}:{}:{to:?}", fmt(v)),
        Op::Call { callee, args } => {
            // Only readnone calls are CSE-able; caller checks the attribute.
            let _ = f;
            let a: Vec<String> = args.iter().map(fmt).collect();
            format!("call:{callee:?}:{}", a.join(":"))
        }
        _ => return None,
    })
}

/// Block-local common-subexpression elimination with store-to-load
/// forwarding.
pub fn early_cse(
    f: &mut Function,
    _ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    early_cse_function(f, cx.info)
}

fn early_cse_function(f: &mut Function, info: &ModuleInfo) -> bool {
    let mut changed = false;
    let mut fw = Forwarding::new();
    for b in f.block_ids() {
        let mut avail: HashMap<String, ValueId> = HashMap::new();
        // Memory state: pointer operand -> last known value (from store or load).
        let mut mem: HashMap<Operand, Operand> = HashMap::new();
        let insts = f.blocks[b.index()].insts.clone();
        for v in insts {
            f.forward_operands(v, &fw);
            let Some(op) = f.op(v).cloned() else { continue };
            let key = match &op {
                Op::Load { ptr, .. } => {
                    if let Some(known) = mem.get(ptr) {
                        fw.insert(v, *known);
                        f.remove_inst(b, v);
                        changed = true;
                    } else {
                        mem.insert(*ptr, Operand::val(v));
                    }
                    None
                }
                Op::Store { ptr, val, .. } => {
                    // Invalidate anything that may alias, then record.
                    let ptr = *ptr;
                    let val = *val;
                    let keys: Vec<Operand> = mem.keys().copied().collect();
                    for k in keys {
                        if k != ptr && util::may_alias_through(f, &fw, &k, &ptr) {
                            mem.remove(&k);
                        }
                    }
                    mem.insert(ptr, val);
                    None
                }
                Op::Call { callee, .. } if info.is_readnone(*callee) => expr_key(f, &op),
                Op::Call { .. } | Op::Ecall { .. } => {
                    mem.clear();
                    None
                }
                _ if op.is_speculatable() => expr_key(f, &op),
                _ => None,
            };
            let Some(key) = key else { continue };
            if let Some(&prev) = avail.get(&key) {
                fw.insert(v, Operand::val(prev));
                f.remove_inst(b, v);
                changed = true;
            } else {
                avail.insert(key, v);
            }
        }
    }
    f.apply_forwarding(&fw);
    changed
}

/// Which pointer bases are written anywhere in the function, and whether any
/// instruction could write through an unknown pointer.
struct MemFacts {
    written: HashSet<util::PtrBase>,
    unknown_writes: bool,
}

fn mem_facts(f: &Function, info: &ModuleInfo) -> MemFacts {
    let mut written = HashSet::new();
    let mut unknown_writes = false;
    for b in f.reachable_blocks() {
        for &v in &f.blocks[b.index()].insts {
            match f.op(v) {
                Some(Op::Store { ptr, .. }) => {
                    let base = util::ptr_base(f, ptr);
                    if base == util::PtrBase::Unknown {
                        unknown_writes = true;
                    } else {
                        written.insert(base);
                    }
                }
                Some(Op::Call { callee, .. })
                    if !info.is_readnone(*callee) && !info.is_readonly(*callee) =>
                {
                    unknown_writes = true;
                }
                Some(Op::Ecall { .. }) => unknown_writes = true,
                _ => {}
            }
        }
    }
    MemFacts {
        written,
        unknown_writes,
    }
}

/// Dominator-scoped global value numbering.
///
/// Pure expressions are value-numbered across the dominator tree; loads are
/// value-numbered only when their base is provably never written in the
/// function (sound without a memory SSA).
pub fn gvn(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    _cfg: &PassConfig,
) -> bool {
    let facts = mem_facts(f, cx.info);
    gvn_function(f, ac, &facts, cx.info)
}

fn gvn_function(
    f: &mut Function,
    ac: &mut AnalysisCache,
    facts: &MemFacts,
    info: &ModuleInfo,
) -> bool {
    let dom = ac.dom(f);
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        if let Some(d) = dom.idom(b) {
            children[d.index()].push(b);
        }
    }
    let mut changed = false;
    // Operands dominate their users, so by the time the dominator-tree walk
    // reaches an instruction every value its pointer chain passes through
    // has been visited and forwarded.
    let mut fw = Forwarding::new();
    // Scoped table: stack of (key, value) insertions to undo on exit.
    let mut table: HashMap<String, ValueId> = HashMap::new();
    enum Step {
        Enter(BlockId),
        Exit(Vec<String>),
    }
    let mut stack = vec![Step::Enter(f.entry)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Exit(keys) => {
                for k in keys {
                    table.remove(&k);
                }
            }
            Step::Enter(b) => {
                let mut inserted = Vec::new();
                let insts = f.blocks[b.index()].insts.clone();
                for v in insts {
                    f.forward_operands(v, &fw);
                    let Some(op) = f.op(v).cloned() else { continue };
                    let key = match &op {
                        Op::Load { ptr, ty } => {
                            let base = util::ptr_base(f, ptr);
                            let stable = !facts.unknown_writes
                                && base != util::PtrBase::Unknown
                                && !facts.written.contains(&base);
                            if stable {
                                Some(format!("load:{ptr:?}:{ty:?}"))
                            } else {
                                None
                            }
                        }
                        Op::Call { callee, .. } => {
                            if info.is_readnone(*callee) {
                                expr_key(f, &op)
                            } else {
                                None
                            }
                        }
                        _ if op.is_speculatable() => expr_key(f, &op),
                        _ => None,
                    };
                    let Some(key) = key else { continue };
                    if let Some(&prev) = table.get(&key) {
                        fw.insert(v, Operand::val(prev));
                        f.remove_inst(b, v);
                        changed = true;
                    } else {
                        table.insert(key.clone(), v);
                        inserted.push(key);
                    }
                }
                stack.push(Step::Exit(inserted));
                for &c in children[b.index()].iter().rev() {
                    stack.push(Step::Enter(c));
                }
            }
        }
    }
    f.apply_forwarding(&fw);
    changed
}

/// `newgvn`: block-local CSE with memory forwarding, followed by
/// dominator-scoped GVN (a stronger combination than either alone, mirroring
/// LLVM's redesigned GVN).
pub fn newgvn(
    f: &mut Function,
    ac: &mut AnalysisCache,
    cx: &FunctionContext<'_>,
    cfg: &PassConfig,
) -> bool {
    let a = early_cse(f, ac, cx, cfg);
    let b = gvn(f, ac, cx, cfg);
    a || b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_pass_preserves;
    use crate::PassConfig;

    #[test]
    fn early_cse_removes_duplicate_exprs() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = x * 3 + 7;
                     let b: i32 = x * 3 + 7;
                     return a + b;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "early-cse"], &cfg);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn early_cse_forwards_store_to_load() {
        let src = "static G: i32;
                   fn main() -> i32 { G = 41; return G + 1; }";
        let cfg = PassConfig::default();
        check_pass_preserves(src, &["early-cse"], &cfg);
        let mut m = zkvmopt_lang::compile(src).unwrap();
        crate::run_pass("early-cse", &mut m, &cfg);
        crate::run_pass("dce", &mut m, &cfg);
        let f = &m.funcs[0];
        let mut loads = 0;
        for b in f.reachable_blocks() {
            for &v in &f.blocks[b.index()].insts {
                if matches!(f.op(v), Some(Op::Load { .. })) {
                    loads += 1;
                }
            }
        }
        assert_eq!(loads, 0, "store-to-load forwarding should kill the load");
    }

    #[test]
    fn early_cse_respects_clobbers() {
        let src = "static A: [i32; 4];
                   fn main() -> i32 {
                     A[0] = 1;
                     let x: i32 = A[0];
                     A[0] = 2;
                     let y: i32 = A[0];
                     return x * 10 + y;
                   }";
        check_pass_preserves(src, &["early-cse"], &PassConfig::default());
    }

    #[test]
    fn gvn_works_across_blocks() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = x * 5;
                     let mut r: i32 = 0;
                     if (x > 0) { r = x * 5 + 1; } else { r = x * 5 - 1; }
                     return r + a;
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["mem2reg", "gvn", "dce"], &cfg);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn gvn_does_not_merge_loads_of_written_memory() {
        let src = "static G: i32;
                   fn main() -> i32 {
                     let mut s: i32 = 0;
                     for (let mut i: i32 = 0; i < 4; i += 1) { G = i; s += G; }
                     return s;
                   }";
        check_pass_preserves(src, &["mem2reg", "gvn"], &PassConfig::default());
    }

    #[test]
    fn gvn_merges_global_addr_and_geps() {
        let src = "static A: [i32; 8];
                   fn main() -> i32 {
                     A[3] = 5;
                     return A[3] + A[3];
                   }";
        let cfg = PassConfig::default();
        let (before, after) = check_pass_preserves(src, &["gvn", "dce"], &cfg);
        assert!(after <= before);
    }

    #[test]
    fn newgvn_combines_both() {
        let src = "fn main() -> i32 {
                     let x: i32 = read_input(0);
                     let a: i32 = (x + 1) * (x + 1);
                     let b: i32 = (x + 1) * (x + 1);
                     return a - b;
                   }";
        check_pass_preserves(src, &["mem2reg", "newgvn", "dce"], &PassConfig::default());
    }
}
