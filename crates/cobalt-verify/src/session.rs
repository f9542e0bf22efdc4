//! Crash-safe verification sessions: a [`Session`] wraps a
//! [`Verifier`] and a persistent proof journal so that a killed or
//! deadline-expired run resumes *warm* — already-proved obligations are
//! replayed from the journal instead of re-proved, failures and
//! resource-limited obligations are re-attempted (resuming their
//! [`RetryPolicy`](crate::RetryPolicy) escalation where it left off),
//! and any journal corruption degrades to re-proving, never to a
//! trusted-but-wrong outcome. See `DESIGN.md` §10.
//!
//! The [`Verifier`] and a session prove a rule through the same
//! routine; a session without a journal ([`Session::new`])
//! fingerprints, replays and persists nothing. A session is also how a
//! suite is verified: each analysis it proves lends its label's meaning
//! to the rules verified after it.
//!
//! # Fingerprints
//!
//! A cached outcome is only reused when its **content fingerprint**
//! matches: an FNV-64 hash over the rule's full AST (its `Debug`
//! rendering), the obligation id, the obligation's actual logical
//! encoding (every hypothesis and the goal, rendered against the term
//! bank), and the prover limit tiers. Any semantic change — to the
//! rule, to the obligation builders, to the encoding, or to the limits
//! the proof would run under — changes the fingerprint and invalidates
//! the cache entry. The per-report wall-clock deadline is deliberately
//! *not* part of the fingerprint: it bounds a run, not a proof, so a
//! resumed run may use a different deadline and still reuse outcomes.
//!
//! # Degradation
//!
//! A journal that cannot be written mid-run (disk full, injected
//! `journal.write`/`journal.fsync` fault) switches the session to
//! uncached verification: proving continues, nothing is lost except
//! warmth, and [`Session::degraded`] reports why.

use crate::checker::{ObligationOutcome, Report, Verifier};
use crate::enc::SemanticMeanings;
use crate::error::VerifyError;
use crate::oblig::Prepared;
use cobalt_dsl::{LabelArgPat, Optimization, PureAnalysis, VarPat};
use cobalt_logic::Limits;
pub use cobalt_support::journal::ResumeMode;
use cobalt_support::journal::{
    decode_fields, encode_fields, Fnv64, LoadReport, Record, Store, DEFAULT_LOCK_WAIT,
};
use cobalt_support::pool::{self, TaskResult};
use std::path::Path;
use std::time::{Duration, Instant};

/// Version tag mixed into every fingerprint; bump on any change to the
/// fingerprint inputs or the record format so stale journals invalidate
/// wholesale instead of aliasing.
const FINGERPRINT_VERSION: &str = "cobalt-oblig-fp-v1";

/// Stable content fingerprint of one prepared obligation.
///
/// Inputs: the fingerprint version, the rule's `Debug` AST rendering
/// (`rule_src`), the obligation id, every hypothesis and the goal of
/// the proof task rendered against the solver's term bank, and the
/// retry policy's limit tiers. 64 bits of FNV-1a — collisions are
/// vanishingly unlikely within one registry, and a collision could
/// only replay a *proved* outcome of a different obligation, which the
/// next fresh run would correct.
pub fn fingerprint_obligation(rule_src: &str, p: &Prepared, tiers: &[Limits]) -> u64 {
    let mut h = Fnv64::new();
    h.write(FINGERPRINT_VERSION.as_bytes()).write(b"\0");
    h.write(rule_src.as_bytes()).write(b"\0");
    h.write(p.id.as_bytes()).write(b"\0");
    for hyp in &p.task.hypotheses {
        h.write(hyp.display(&p.solver.bank).as_bytes()).write(b"\n");
    }
    h.write(b"|-\n");
    h.write(p.task.goal.display(&p.solver.bank).as_bytes());
    h.write(b"\0");
    for tier in tiers {
        h.write(format!("{tier:?}").as_bytes()).write(b"\0");
    }
    h.finish()
}

/// One journaled obligation outcome, as parsed back from a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalEntry {
    pub fingerprint: u64,
    pub rule: String,
    pub id: String,
    pub proved: bool,
    pub resource_limited: bool,
    pub attempts: u32,
    pub escalations: u32,
    /// Next limit tier to attempt (tiers `0..tier` are already
    /// exhausted); how escalation state survives a crash.
    pub tier: u32,
    pub elapsed_us: u64,
    pub detail: String,
}

/// Tab-separated `key=value` fields behind a version tag; every field
/// is required (`detail` may be empty but present).
impl Record for JournalEntry {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn encode(&self) -> Vec<u8> {
        encode_fields(
            self.fingerprint,
            &[
                ("rule", &self.rule),
                ("id", &self.id),
                ("proved", &u8::from(self.proved)),
                ("rl", &u8::from(self.resource_limited)),
                ("attempts", &self.attempts),
                ("esc", &self.escalations),
                ("tier", &self.tier),
                ("elapsed_us", &self.elapsed_us),
                ("detail", &self.detail),
            ],
        )
    }

    fn decode(payload: &[u8]) -> Option<JournalEntry> {
        let keys = [
            "rule", "id", "proved", "rl", "attempts", "esc", "tier", "elapsed_us", "detail",
        ];
        let (fingerprint, [rule, id, proved, rl, attempts, esc, tier, elapsed_us, detail]) =
            decode_fields(payload, keys)?;
        Some(JournalEntry {
            fingerprint,
            rule,
            id,
            proved: proved == "1",
            resource_limited: rl == "1",
            attempts: attempts.parse().ok()?,
            escalations: esc.parse().ok()?,
            tier: tier.parse().ok()?,
            elapsed_us: elapsed_us.parse().ok()?,
            detail,
        })
    }
}

/// A resumable verification session. See the [module docs](self).
#[derive(Debug)]
pub struct Session {
    verifier: Verifier,
    /// The proof journal; `None` for a session without one.
    store: Option<Store<JournalEntry>>,
    /// Fingerprints of this session's outcomes (replayed and fresh, in
    /// obligation order); what [`finish`](Self::finish) compacts the
    /// journal down to.
    session_fps: Vec<u64>,
}

impl Session {
    /// A session without a journal: nothing is fingerprinted,
    /// replayed, or persisted.
    pub fn new(verifier: Verifier) -> Session {
        Session {
            verifier,
            store: None,
            session_fps: Vec::new(),
        }
    }

    /// Opens (creating if absent) the proof journal at `path` as a
    /// locked [`Store`] and resumes from its intact records.
    ///
    /// **Never fails**: lock contention (concurrent `cobalt verify
    /// --journal same-path`) or a journal that cannot be opened at all
    /// (bad path, permissions, injected `journal.load` fault) starts
    /// the session **degraded**: verification runs uncached with
    /// unchanged verdicts, and [`degraded`](Self::degraded) says why.
    /// Corruption inside the file is not an error.
    pub fn with_journal(verifier: Verifier, path: impl AsRef<Path>, mode: ResumeMode) -> Session {
        Session {
            verifier,
            store: Some(Store::open(path, mode, DEFAULT_LOCK_WAIT, None)),
            session_fps: Vec::new(),
        }
    }

    /// What the journal loader recovered and discarded at open.
    pub fn load_report(&self) -> LoadReport {
        self.store
            .as_ref()
            .map(|store| store.load_report().clone())
            .unwrap_or_default()
    }

    /// Why journaling was disabled mid-run, if it was. Verification
    /// results are unaffected — only caching is lost.
    pub fn degraded(&self) -> Option<&str> {
        self.store.as_ref()?.degraded()
    }

    /// Verifies an optimization, replaying journaled outcomes where
    /// fingerprints match and journaling every fresh outcome as it
    /// lands.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the optimization cannot be encoded
    /// (same contract as [`Verifier::verify_optimization`]).
    pub fn verify_optimization(&mut self, opt: &Optimization) -> Result<Report, VerifyError> {
        let prepared = self.verifier.prepare_optimization(opt)?;
        Ok(self.run(&opt.name, opt, prepared))
    }

    /// Verifies a pure analysis with the same journaling behaviour as
    /// [`verify_optimization`](Self::verify_optimization); when every
    /// obligation proves, registers its label's meaning (paper §2.4)
    /// for the rules this session verifies after it.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the analysis cannot be encoded, if its
    /// `defines` arguments are not pattern variables, or if its label
    /// already has a different meaning.
    pub fn verify_analysis(&mut self, analysis: &PureAnalysis) -> Result<Report, VerifyError> {
        let prepared = self.verifier.prepare_analysis(analysis)?;
        let report = self.run(&analysis.name, analysis, prepared);
        if report.all_proved() {
            let (label, args) = &analysis.defines;
            let params = args
                .iter()
                .map(|a| match a {
                    LabelArgPat::Var(VarPat::Pat(p)) => Ok(p.clone()),
                    other => Err(VerifyError::Unsupported(format!(
                        "label parameter `{other}` is not a pattern variable"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            let meanings = &mut self.verifier.meanings;
            meanings.register(label.clone(), params, analysis.witness.clone())?;
        }
        Ok(report)
    }

    /// The semantic-label meanings later rules are verified against:
    /// the verifier's, plus those of the analyses this session proved.
    pub fn meanings(&self) -> &SemanticMeanings {
        &self.verifier.meanings
    }

    /// Compacts the journal down to this session's outcomes, dropping
    /// superseded and stale records, and releases its lock. Call once
    /// after the last report; skipping it costs only disk. A
    /// compaction failure degrades rather than erroring.
    pub fn finish(&mut self) {
        if let Some(store) = &mut self.store {
            store.finish(&self.session_fps);
        }
    }

    /// Discharges one rule's obligations against the journal, if any;
    /// the rule's `Debug` rendering is its fingerprint source.
    fn run(&mut self, name: &str, rule: &dyn std::fmt::Debug, prepared: Vec<Prepared>) -> Report {
        let journal = self.store.as_mut().map(|store| (format!("{rule:?}"), store));
        let (report, fps) = discharge(&self.verifier, name.to_string(), prepared, journal);
        self.session_fps.extend(fps);
        report
    }
}

/// Discharges one rule's prepared obligations into a [`Report`]: the
/// one path behind [`Verifier`] and [`Session`].
///
/// With a `journal` (the rule's source and the store), each obligation
/// is fingerprinted: a journaled proof replays as cached, a journaled
/// resource-limited failure resumes escalation at the tier after the
/// last one it exhausted, and every fresh outcome is appended and
/// fsynced as it lands, in obligation order, so journal bytes do not
/// depend on the worker count. Without one nothing is fingerprinted and
/// every obligation starts at tier 0. Journal trouble degrades the
/// store instead of failing verification.
///
/// The parallel contract: fresh obligations fan out across the
/// verifier's [`jobs`](Verifier::with_jobs); outcomes appear in
/// obligation order regardless of completion order, each obligation
/// keeps its full retry escalation, and each runs to its own verdict
/// whatever its siblings find, so a report — sound or not — is the same
/// at any job count.
///
/// Returns the report and the fingerprints this run replayed or
/// journaled, in obligation order.
pub(crate) fn discharge(
    verifier: &Verifier,
    name: String,
    prepared: Vec<Prepared>,
    mut journal: Option<(String, &mut Store<JournalEntry>)>,
) -> (Report, Vec<u64>) {
    let start = Instant::now();
    let budget = verifier.report_budget();
    let mut outcomes: Vec<Option<ObligationOutcome>> = Vec::with_capacity(prepared.len());
    let mut fps: Vec<Option<u64>> = vec![None; prepared.len()];
    // Per obligation to discharge: its index, fingerprint, start tier
    // and id (which survives outside the slot so a task that dies twice
    // still yields a named outcome), and the obligation itself.
    let mut meta: Vec<(usize, Option<u64>, usize, String)> = Vec::with_capacity(prepared.len());
    let mut slots: Vec<Option<Prepared>> = Vec::with_capacity(prepared.len());
    for (idx, p) in prepared.into_iter().enumerate() {
        let (mut fp, mut start_tier) = (None, 0);
        if let Some((rule_src, store)) = &journal {
            let key = fingerprint_obligation(rule_src, &p, &verifier.policy.tiers);
            match store.get(key) {
                Some(cached) if cached.proved => {
                    outcomes.push(Some(ObligationOutcome {
                        id: p.id,
                        proved: true,
                        elapsed: Duration::from_micros(cached.elapsed_us),
                        detail: String::new(),
                        attempts: cached.attempts,
                        escalations: cached.escalations,
                        resource_limited: false,
                        cached: true,
                    }));
                    fps[idx] = Some(key);
                    continue;
                }
                // Open-branch and panic failures (deterministic, but
                // the rule or encoding may have been the problem last
                // time) simply retry from the first tier.
                Some(cached) if cached.resource_limited => start_tier = cached.tier as usize,
                _ => {}
            }
            fp = Some(key);
        }
        outcomes.push(None);
        meta.push((idx, fp, start_tier, p.id.clone()));
        slots.push(Some(p));
    }
    pool::run_ordered(
        verifier.jobs,
        slots,
        |fi, slot| {
            // The slot is empty only if a previous execution of this
            // task panicked *after* taking the obligation — possible
            // for a mid-discharge casualty, impossible for the
            // `pool.task` fault (which fires before pickup).
            let p = slot.take()?;
            Some(verifier.discharge_from(p, &budget, meta[fi].2))
        },
        |fi, result| {
            let (idx, fp, start_tier, id) = &meta[fi];
            let outcome = match result {
                TaskResult::Done(Some(outcome)) => outcome,
                TaskResult::Done(None) => panicked_outcome(id, "obligation lost to a worker crash"),
                TaskResult::Panicked(message) => panicked_outcome(id, &message),
            };
            if let (Some(fp), Some((_, store))) = (*fp, journal.as_mut()) {
                store.insert(JournalEntry {
                    fingerprint: fp,
                    rule: name.clone(),
                    id: outcome.id.clone(),
                    proved: outcome.proved,
                    resource_limited: outcome.resource_limited,
                    attempts: outcome.attempts,
                    escalations: outcome.escalations,
                    tier: (*start_tier as u32).saturating_add(outcome.attempts),
                    elapsed_us: outcome.elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                    detail: outcome.detail.clone(),
                });
                fps[*idx] = Some(fp);
            }
            outcomes[*idx] = Some(outcome);
        },
    );
    let report = Report {
        name,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every obligation produced exactly one outcome"))
            .collect(),
        elapsed: start.elapsed(),
    };
    (report, fps.into_iter().flatten().collect())
}

/// The outcome recorded for an obligation whose task died past the
/// pool's supervision budget (or lost the obligation to a mid-discharge
/// crash). Shaped like the checker's in-obligation panic outcome:
/// failed, not resource-limited — a panic is evidence of a bug, not of
/// an undersized budget.
fn panicked_outcome(id: &str, message: &str) -> ObligationOutcome {
    ObligationOutcome {
        id: id.to_string(),
        proved: false,
        elapsed: Duration::ZERO,
        detail: format!("panicked: {message}"),
        attempts: 0,
        escalations: 0,
        resource_limited: false,
        cached: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> JournalEntry {
        JournalEntry {
            fingerprint: 0xdead_beef_0123_4567,
            rule: "const_prop".into(),
            id: "F2/assign_var".into(),
            proved: false,
            resource_limited: true,
            attempts: 2,
            escalations: 1,
            tier: 2,
            elapsed_us: 1234,
            detail: "deadline;\twith\ttabs\nand newlines\\".into(),
        }
    }

    #[test]
    fn record_roundtrip_preserves_every_field() {
        let e = entry();
        let decoded = JournalEntry::decode(&e.encode()).expect("roundtrip");
        assert_eq!(decoded, e);
    }

    /// The on-disk bytes of one record, pinned literally so a codec
    /// change cannot silently orphan existing journals.
    #[test]
    fn record_bytes_are_golden() {
        assert_eq!(
            entry().encode(),
            b"v1\tfp=deadbeef01234567\trule=const_prop\tid=F2/assign_var\tproved=0\trl=1\t\
              attempts=2\tesc=1\ttier=2\telapsed_us=1234\t\
              detail=deadline;\\twith\\ttabs\\nand newlines\\\\"
        );
    }

    #[test]
    fn decode_rejects_unknown_versions_and_junk_without_panicking() {
        assert_eq!(JournalEntry::decode(b""), None);
        assert_eq!(JournalEntry::decode(b"v0\tfp=00"), None);
        assert_eq!(JournalEntry::decode(b"v1"), None, "missing fields");
        assert_eq!(JournalEntry::decode(b"v1\tfp=nothex"), None);
        assert_eq!(JournalEntry::decode(&[0xff, 0xfe, 0x00]), None, "not utf-8");
        let mut truncated = entry().encode();
        truncated.truncate(truncated.len() / 2);
        // Either decodes to None or to nothing usable; must not panic.
        let _ = JournalEntry::decode(&truncated);
    }

    #[test]
    fn unknown_keys_are_ignored_for_forward_compat() {
        let mut payload = entry().encode();
        payload.extend_from_slice(b"\tfuture_field=whatever");
        assert_eq!(JournalEntry::decode(&payload), Some(entry()));
    }

    #[test]
    fn fingerprint_depends_on_rule_id_and_tiers() {
        use cobalt_dsl::LabelEnv;
        use crate::enc::SemanticMeanings;
        let opt = cobalt_opts_fixture();
        let prepared = crate::oblig::obligations_for_optimization_with(
            &opt,
            &LabelEnv::standard(),
            &SemanticMeanings::standard(),
            crate::oblig::BankMode::default(),
        )
        .unwrap();
        let p = &prepared[0];
        let tiers = crate::RetryPolicy::default().tiers;
        let base = fingerprint_obligation("rule-src", p, &tiers);
        assert_eq!(
            base,
            fingerprint_obligation("rule-src", p, &tiers),
            "deterministic"
        );
        assert_ne!(base, fingerprint_obligation("rule-src-2", p, &tiers));
        let capped = [Limits {
            max_splits: 1,
            ..tiers[0].clone()
        }];
        assert_ne!(
            base,
            fingerprint_obligation("rule-src", p, &capped),
            "limit tiers are fingerprint inputs"
        );
        let mut renamed = crate::oblig::obligations_for_optimization_with(
            &opt,
            &LabelEnv::standard(),
            &SemanticMeanings::standard(),
            crate::oblig::BankMode::default(),
        )
        .unwrap();
        renamed[0].id.push('!');
        assert_ne!(base, fingerprint_obligation("rule-src", &renamed[0], &tiers));
    }

    /// The doc-comment const_prop rule, rebuilt here as a fixture.
    fn cobalt_opts_fixture() -> Optimization {
        use cobalt_dsl::*;
        Optimization::new(
            "const_prop",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Region(RegionGuard {
                    psi1: Guard::Stmt(StmtPat::Assign(
                        LhsPat::Var(VarPat::pat("Y")),
                        ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                    )),
                    psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
                }),
                from: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
                ),
                to: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                ),
                where_clause: Guard::True,
                witness: Witness::Forward(ForwardWitness::VarEqConst(
                    VarPat::pat("Y"),
                    ConstPat::pat("C"),
                )),
            },
        )
    }
}
