//! A program that the deliberately unsound optimization of paper §6
//! (`suite/buggy.cob`, served by [`crate::buggy_optimizations`])
//! miscompiles.

/// A program the buggy optimization miscompiles: `p` points to `y`, and
/// the direct assignment `y := 9` between the two loads changes `*p`.
///
/// Running the original returns 9; after `buggy_load_elim_no_alias`
/// rewrites the second load to `b := a`, it returns 7.
pub fn counterexample_program() -> cobalt_il::Program {
    cobalt_il::parse_program(COUNTEREXAMPLE_SRC).expect("counterexample program parses")
}

/// Source text of [`counterexample_program`].
pub const COUNTEREXAMPLE_SRC: &str = "proc main(x) {
    decl y;
    decl p;
    decl a;
    decl b;
    p := &y;
    y := 7;
    a := *p;
    y := 9;
    b := *p;
    return b;
}";

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelEnv;
    use cobalt_engine::{AnalyzedProc, Engine};
    use cobalt_il::{Interp, Value};

    #[test]
    fn buggy_optimization_changes_behaviour() {
        let prog = counterexample_program();
        assert_eq!(Interp::new(&prog).run(0).unwrap(), Value::Int(9));

        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        let (bad, applied) = engine.apply(&ap, &crate::buggy_optimizations()[0]).unwrap();
        assert_eq!(applied.len(), 1, "buggy opt should fire");
        assert_eq!(bad.stmts[8].to_string(), "b := a");
        let bad_prog = cobalt_il::Program::new(vec![bad]);
        // Miscompiled: returns the stale value.
        assert_eq!(Interp::new(&bad_prog).run(0).unwrap(), Value::Int(7));
    }

    #[test]
    fn sound_load_elim_declines_the_counterexample() {
        let prog = counterexample_program();
        let engine = Engine::new(LabelEnv::standard());
        let ap = AnalyzedProc::new(prog.main().unwrap().clone()).unwrap();
        let load_elim = crate::optimization("load_elim").unwrap();
        let (_, applied) = engine.apply(&ap, &load_elim).unwrap();
        assert!(applied.is_empty());
    }
}
