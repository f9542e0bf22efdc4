//! Counterexample program synthesis for rejected optimizations —
//! the future-work item of paper §7:
//!
//! > "When Simplify cannot prove a given proposition, it returns a
//! > counterexample context… An interesting approach would be to use
//! > this counterexample context to synthesize a small
//! > intermediate-language program that illustrates a potential
//! > unsoundness of the given optimization."
//!
//! This module realizes the goal by search rather than by decoding the
//! prover's open branch: it generates random programs biased toward the
//! pointer-heavy shapes that unsound optimizations typically mishandle,
//! optimizes each through an [`OptimizeSession`] — the one optimize
//! driver, so the optimization sees the labels of the suite's pure
//! analyses exactly as it would in a real pipeline — and differentially
//! executes original vs transformed. A hit is then *minimized* by
//! replacing statements with `skip` while the miscompilation persists,
//! yielding a small witness program a compiler writer can read — the
//! same artifact §6's narrative reconstructs by hand.

use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_engine::{Engine, OptimizeSession};
use cobalt_il::{generate, GenConfig, Interp, Program, Stmt, Value};

/// A concrete demonstration that an optimization is unsound.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The (minimized) input program.
    pub program: Program,
    /// The transformed program.
    pub transformed: Program,
    /// The input on which the two disagree.
    pub arg: i64,
    /// What the original returns.
    pub original_result: Value,
    /// What the transformed program returns (or a description of its
    /// failure).
    pub transformed_result: Result<Value, String>,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "// main({}) returns {} before the optimization,", self.arg, self.original_result)?;
        match &self.transformed_result {
            Ok(v) => writeln!(f, "// but {v} after it:")?,
            Err(e) => writeln!(f, "// but fails ({e}) after it:")?,
        }
        write!(f, "{}", cobalt_il::pretty_program(&self.program))
    }
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of random programs to try.
    pub tries: u64,
    /// Statements per generated program.
    pub program_size: usize,
    /// Inputs to run each candidate on.
    pub args: Vec<i64>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            tries: 3_000,
            program_size: 14,
            args: vec![0, 1, 2, 5],
            seed: 0,
        }
    }
}

/// Searches for a program the optimization miscompiles, with `env`'s
/// label definitions in scope and `analyses` labelling each program
/// before the optimization runs.
///
/// Returns `None` if no counterexample is found within the budget —
/// which is evidence of soundness only in the empirical sense; the real
/// guarantee comes from `cobalt-verify`.
pub fn find_counterexample(
    opt: &Optimization,
    env: &LabelEnv,
    analyses: &[PureAnalysis],
    config: &SynthConfig,
) -> Option<Counterexample> {
    let mut session = OptimizeSession::new(Engine::new(env.clone()));
    let opts = std::slice::from_ref(opt);
    for t in 0..config.tries {
        let gen_cfg = GenConfig {
            num_stmts: config.program_size,
            num_vars: 5,
            num_helpers: 0,
            pointer_ratio: 0.45,
            branch_ratio: 0.05,
            call_ratio: 0.0,
            seed: config.seed.wrapping_add(t),
        };
        let prog = generate(&gen_cfg);
        if let Some(cx) = try_program(&mut session, opts, analyses, &prog, &config.args) {
            return Some(minimize(&mut session, opts, analyses, cx, &config.args));
        }
    }
    None
}

/// Optimizes `prog` with `opts` for one round, after `analyses`, and
/// looks for a behavioural difference. A program the optimization does
/// not rewrite, or on which a pass was quarantined, is no
/// counterexample.
fn try_program(
    session: &mut OptimizeSession,
    opts: &[Optimization],
    analyses: &[PureAnalysis],
    prog: &Program,
    args: &[i64],
) -> Option<Counterexample> {
    let (transformed, report) = session.optimize_program(prog, analyses, opts, 1);
    if report.applied == 0 || report.degraded() {
        return None;
    }
    for &arg in args {
        let orig = Interp::new(prog).with_fuel(100_000).run(arg);
        let Ok(original_result) = orig else { continue };
        let new = Interp::new(&transformed).with_fuel(200_000).run(arg);
        let differs = match &new {
            Ok(v) => *v != original_result,
            Err(_) => true,
        };
        if differs {
            return Some(Counterexample {
                program: prog.clone(),
                transformed,
                arg,
                original_result,
                transformed_result: new.map_err(|e| e.to_string()),
            });
        }
    }
    None
}

/// Shrinks the counterexample: greedily replaces statements with `skip`
/// while the miscompilation persists.
fn minimize(
    session: &mut OptimizeSession,
    opts: &[Optimization],
    analyses: &[PureAnalysis],
    mut cx: Counterexample,
    args: &[i64],
) -> Counterexample {
    loop {
        let main = match cx.program.main() {
            Some(m) => m.clone(),
            None => return cx,
        };
        let mut improved = false;
        for i in 0..main.len() {
            if matches!(main.stmts[i], Stmt::Skip | Stmt::Return(_)) {
                continue;
            }
            let mut reduced = main.clone();
            reduced.stmts[i] = Stmt::Skip;
            let candidate = cx.program.with_proc_replaced(reduced);
            if cobalt_il::validate(&candidate).is_err() {
                continue;
            }
            if let Some(smaller) = try_program(session, opts, analyses, &candidate, args) {
                cx = smaller;
                improved = true;
                break;
            }
        }
        if !improved {
            return cx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesizes_a_counterexample_for_the_buggy_load_elim() {
        let cx = find_counterexample(
            &cobalt_opts::buggy_optimizations()[0],
            &LabelEnv::standard(),
            &cobalt_opts::all_analyses(),
            &SynthConfig::default(),
        )
        .expect("the unsound optimization must have a counterexample");
        // The witness is small and really demonstrates the bug.
        let text = cx.to_string();
        assert!(text.contains("*"), "needs a pointer to exhibit aliasing:\n{text}");
        let nontrivial = cx
            .program
            .main()
            .unwrap()
            .stmts
            .iter()
            .filter(|s| !matches!(s, Stmt::Skip))
            .count();
        assert!(nontrivial <= 12, "minimization left {nontrivial} statements:\n{text}");
        // Re-check the discrepancy from the stored artifact.
        let orig = Interp::new(&cx.program).run(cx.arg).unwrap();
        assert_eq!(orig, cx.original_result);
        if let Ok(v) = &cx.transformed_result { assert_ne!(orig, *v) }
    }

    #[test]
    fn finds_nothing_for_a_proven_optimization() {
        // A cheap budget suffices: the point is that the search comes up
        // empty for the sound version on the same workload family.
        let cfg = SynthConfig {
            tries: 400,
            ..SynthConfig::default()
        };
        let analyses = cobalt_opts::all_analyses();
        for name in ["load_elim", "const_prop"] {
            let opt = cobalt_opts::optimization(name).unwrap();
            assert!(find_counterexample(&opt, &LabelEnv::standard(), &analyses, &cfg).is_none());
        }
    }

    #[test]
    fn finds_the_miscompile_behind_an_analysis_label() {
        // `myLabel` means only `notPointedTo`, which does not keep `Y`'s
        // value: the rule holds only where the suite's own analysis
        // labels the program, so the search must run that analysis.
        let suite = cobalt_dsl::parse_suite(
            "analysis mytaint { stmt(decl X) followed by !stmt(... := &X)
                 defines myLabel(X) with witness notPointedTo(X) }
             forward bad_prop { stmt(Y := C) followed by myLabel(Y)
                 until X := Y => X := C with witness eta(Y) == C }",
        )
        .unwrap();
        let mut analyses = cobalt_opts::all_analyses();
        analyses.extend(suite.analyses.iter().cloned());
        let cx = find_counterexample(
            &suite.optimizations[0],
            &suite.label_env(),
            &analyses,
            &SynthConfig::default(),
        )
        .expect("the rule miscompiles once its label holds");
        let orig = Interp::new(&cx.program).run(cx.arg).unwrap();
        assert_eq!(orig, cx.original_result);
        assert_ne!(cx.transformed_result, Ok(orig));
    }
}
