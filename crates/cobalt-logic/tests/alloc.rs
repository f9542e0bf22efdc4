//! A `prove` allocates for its task, not for the bank under it.
//!
//! A batch of obligations shares one frozen bank, and each obligation's
//! solver is an overlay on it. The congruence core keeps state only for
//! the terms a search touches, so proving a small task over a large
//! base costs what the task needs. A core sized to the bank would
//! allocate tens of bytes per base term here, megabytes in all.

use cobalt_logic::{Formula, ProofTask, Solver, TermBank};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the bytes the current thread asks for while counting is on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every call is forwarded to the system allocator unchanged;
// the thread-local counters are const-initialized and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes `f` allocates on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get))
}

/// Base terms under the task.
const BASE_TERMS: usize = 100_000;

#[test]
fn a_prove_allocates_for_its_task_not_for_the_bank() {
    let mut base = TermBank::new();
    for i in 0..BASE_TERMS {
        base.app0(&format!("c{i}"));
    }
    // The task's vocabulary comes last, as a batch's later obligations'
    // does: a core indexed by term id would span the whole base.
    let f = base.sym("f");
    let select = base.sym("select");
    let (x, y, z, m, v) = (
        base.app0("x"),
        base.app0("y"),
        base.app0("z"),
        base.app0("m"),
        base.app0("v"),
    );
    let (fx, fz) = (base.app(f, vec![x]), base.app(f, vec![z]));
    let l = base.var("l");
    let l_sym = base.sym("l");
    let read = base.app(select, vec![m, l]);
    let read_x = base.app(select, vec![m, x]);
    assert!(base.len() > BASE_TERMS);
    let base: Arc<TermBank> = base.freeze();
    // x = y, y = z, and no cell of m holds v; so f(x) = f(z), and m's
    // cell at x is not v, by congruence and one instance.
    let task = ProofTask {
        hypotheses: vec![
            Formula::Eq(x, y),
            Formula::Eq(y, z),
            Formula::Forall {
                vars: vec![l_sym],
                triggers: vec![read],
                body: Box::new(Formula::ne(read, v)),
            },
        ],
        goal: Formula::and([Formula::Eq(fx, fz), Formula::ne(read_x, v)]),
    };
    // A first call pays for whatever the process initializes once.
    assert!(Solver::with_base_bank(Arc::clone(&base))
        .prove(&task)
        .is_proved());
    let mut solver = Solver::with_base_bank(base);
    let (outcome, bytes) = allocated_by(|| solver.prove(&task));
    assert!(outcome.is_proved(), "{outcome:?}");
    assert!(
        bytes <= 48 * 1024,
        "proving a small task over {BASE_TERMS} base terms allocated {bytes} bytes"
    );
}
