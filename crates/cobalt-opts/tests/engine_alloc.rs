//! Guard evaluation allocates only what it keeps.
//!
//! The engine evaluates a rule's guards at every node of a procedure,
//! `ψ2` once per substitution reaching the node, so whatever one
//! evaluation allocates is paid thousands of times per pass. Names are
//! inline, a substitution is one exact-size vector, and matching clones
//! nothing it does not keep; this bounds what `legal_sites` allocates
//! for the registry's pipeline on a fixed generated procedure. Preparing
//! and labelling a procedure, paid once per procedure version, is
//! bounded too: the CFG is a few flat arrays, the domain is built only
//! for the fragment kinds a guard enumerates, and the labels keep the
//! analysis's rows, not one instance per node and substitution.
//! `mayDef`/`mayUse` run as compiled `case` arms, building no
//! substitution for their parameter.

use cobalt_dsl::LabelEnv;
use cobalt_engine::{AnalyzedProc, Engine};
use cobalt_il::{generate, GenConfig, Proc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocation calls the current thread makes while counting
/// is on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded to the system allocator unchanged;
// the thread-local counters are const-initialized and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocation calls `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get))
}

/// A fixed call-free generated procedure of 177 statements.
fn procedure() -> Proc {
    let cfg = GenConfig {
        num_helpers: 0,
        call_ratio: 0.0,
        seed: 0x5eed,
        ..GenConfig::sized(160, 0)
    };
    let proc = generate(&cfg).procs.remove(0);
    assert_eq!(proc.stmts.len(), 177);
    proc
}

#[test]
fn analyzed_proc_allocations_are_bounded() {
    let proc = procedure();
    let (ap, calls) = allocations_of(|| AnalyzedProc::new(proc));
    ap.unwrap();
    eprintln!("AnalyzedProc::new allocations: {calls}");
    assert!(calls <= 30, "{calls} allocations");
}

#[test]
fn labelling_allocations_are_bounded() {
    let engine = Engine::new(LabelEnv::standard());
    let mut ap = AnalyzedProc::new(procedure()).unwrap();
    let mut calls = 0;
    for analysis in cobalt_opts::all_analyses() {
        let (ran, c) = allocations_of(|| engine.run_pure_analysis(&mut ap, &analysis));
        ran.unwrap();
        let name = &analysis.defines.0;
        let labelled = (0..ap.proc.len()).filter(|&i| ap.labels.at(i).any(|l| l.name == *name));
        assert!(labelled.count() > 0, "{} adds no label", analysis.name);
        calls += c;
    }
    eprintln!("run_pure_analysis allocations: {calls}");
    assert!(calls <= 150, "{calls} allocations");
}

#[test]
fn legal_sites_allocations_are_bounded() {
    let engine = Engine::new(LabelEnv::standard());
    let mut ap = AnalyzedProc::new(procedure()).unwrap();
    for analysis in cobalt_opts::all_analyses() {
        engine.run_pure_analysis(&mut ap, &analysis).unwrap();
    }
    let mut total = 0;
    let mut per_pass = Vec::new();
    for opt in cobalt_opts::default_pipeline() {
        let (sites, calls) = allocations_of(|| engine.legal_sites(&ap, &opt));
        sites.unwrap();
        total += calls;
        per_pass.push((opt.name.to_string(), calls));
    }
    eprintln!("legal_sites allocations: {total} in all, per pass {per_pass:?}");
    let of = |name: &str| per_pass.iter().find(|(n, _)| n == name).map_or(0, |p| p.1);
    assert!(total <= 7_000, "{total} allocations in all: {per_pass:?}");
    let dae = of("dae");
    assert!(dae <= 3_000, "{dae} allocations in dae: {per_pass:?}");
}
