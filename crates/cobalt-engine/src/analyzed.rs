//! A procedure prepared for analysis: CFG, instantiation domain, and the
//! per-node semantic label sets `L_p(ι)`.

use crate::error::EngineError;
use cobalt_dsl::{Domain, LabelEnv, LabelInst, LabelSet, NodeCtx};
use cobalt_il::{Cfg, Index, Proc};
use std::sync::OnceLock;

/// A procedure together with everything guard evaluation needs.
#[derive(Debug, Clone)]
pub struct AnalyzedProc {
    /// The procedure.
    pub proc: Proc,
    /// Its control-flow graph.
    pub cfg: Cfg,
    /// The instantiation domain for pattern variables.
    pub domain: Domain,
    /// Semantic labels per node, indexed by statement index.
    pub labels: Vec<LabelSet>,
}

impl AnalyzedProc {
    /// Prepares a procedure: builds the CFG and an empty labeling.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::IllFormed`] if the CFG cannot be built.
    pub fn new(proc: Proc) -> Result<Self, EngineError> {
        let cfg = Cfg::new(&proc)?;
        let domain = Domain::of_proc(&proc);
        let labels = vec![LabelSet::new(); proc.len()];
        Ok(AnalyzedProc {
            proc,
            cfg,
            domain,
            labels,
        })
    }

    /// The guard-evaluation context for node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node_ctx<'a>(&'a self, env: &'a LabelEnv, index: Index) -> NodeCtx<'a> {
        NodeCtx {
            stmt: &self.proc.stmts[index],
            labels: &self.labels[index],
            env,
            domain: &self.domain,
        }
    }

    /// [`node_ctx`](Self::node_ctx), seeing no semantic labels when
    /// `masked`, as on [`without_labels`](Self::without_labels).
    pub(crate) fn ctx<'a>(&'a self, env: &'a LabelEnv, index: Index, masked: bool) -> NodeCtx<'a> {
        static NONE: OnceLock<LabelSet> = OnceLock::new();
        let ctx = self.node_ctx(env, index);
        let none = NONE.get_or_init(LabelSet::new);
        let labels = if masked { none } else { ctx.labels };
        NodeCtx { labels, ..ctx }
    }

    /// Adds a semantic label to a node.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn add_label(&mut self, index: Index, label: LabelInst) {
        self.labels[index].insert(label);
    }

    /// A copy with all semantic labels cleared. Used when evaluating
    /// backward optimizations, which may not consume forward-analysis
    /// labels (paper §4.1).
    pub fn without_labels(&self) -> AnalyzedProc {
        AnalyzedProc {
            proc: self.proc.clone(),
            cfg: self.cfg.clone(),
            domain: self.domain.clone(),
            labels: vec![cobalt_dsl::LabelSet::new(); self.proc.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::LabelArg;
    use cobalt_il::{parse_program, Var};

    fn sample() -> AnalyzedProc {
        let prog = parse_program("proc main(x) { decl y; y := 5; return y; }").unwrap();
        AnalyzedProc::new(prog.main().unwrap().clone()).unwrap()
    }

    #[test]
    fn builds_cfg_and_domain() {
        let ap = sample();
        assert_eq!(ap.cfg.len(), 3);
        assert_eq!(ap.domain.vars.len(), 2);
        assert_eq!(ap.labels.len(), 3);
    }

    #[test]
    fn labels_are_per_node() {
        let mut ap = sample();
        ap.add_label(1, LabelInst::new("notTainted", vec![LabelArg::Var(Var::new("y"))]));
        assert_eq!(ap.labels[1].len(), 1);
        assert!(ap.labels[0].is_empty());
    }

    #[test]
    fn rejects_ill_formed() {
        let prog = parse_program("proc main(x) { skip; }").unwrap();
        assert!(AnalyzedProc::new(prog.main().unwrap().clone()).is_err());
    }
}
