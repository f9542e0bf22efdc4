//! Crash-safe verification sessions: a [`Session`] wraps a
//! [`Verifier`] and a persistent proof journal so that a killed or
//! deadline-expired run resumes *warm* — already-proved obligations are
//! replayed from the journal instead of re-proved, failures and
//! resource-limited obligations are re-attempted (resuming their
//! [`RetryPolicy`](crate::RetryPolicy) escalation where it left off),
//! and any journal corruption degrades to re-proving, never to a
//! trusted-but-wrong outcome. See `DESIGN.md` §10.
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
use crate::error::VerifyError;
use crate::oblig::{obligations_for_analysis_with, obligations_for_optimization_with, Prepared};
use cobalt_dsl::{Optimization, PureAnalysis};
use cobalt_logic::Limits;
pub use cobalt_support::journal::ResumeMode;
use cobalt_support::journal::{
    decode_fields, encode_fields, Fnv64, LoadReport, Record, Store, DEFAULT_LOCK_WAIT,
};
use std::io;
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
    store: Store<JournalEntry>,
    /// Fingerprints of this session's outcomes (replayed and fresh, in
    /// obligation order); what [`finish`](Self::finish) compacts the
    /// journal down to.
    session_fps: Vec<u64>,
}

impl Session {
    /// A session without a journal: verification behaves like calling
    /// the [`Verifier`] directly, and nothing is persisted.
    pub fn new(verifier: Verifier) -> Session {
        Session {
            verifier,
            store: Store::in_memory(),
            session_fps: Vec::new(),
        }
    }

    /// Opens (creating if absent) the proof journal at `path` as a
    /// locked [`Store`] and resumes from its intact records. Lock
    /// contention (concurrent `cobalt verify --journal same-path`)
    /// starts the session **degraded**: verification runs uncached with
    /// unchanged verdicts, and [`degraded`](Self::degraded) says why.
    ///
    /// # Errors
    ///
    /// The `io::Error` of a journal that cannot be opened or reset at
    /// all (bad path, permissions, injected `journal.load` fault).
    /// Corruption inside the file is *not* an error.
    pub fn with_journal(
        verifier: Verifier,
        path: impl AsRef<Path>,
        mode: ResumeMode,
    ) -> io::Result<Session> {
        Ok(Session {
            verifier,
            store: Store::open(path, mode, DEFAULT_LOCK_WAIT, None)?,
            session_fps: Vec::new(),
        })
    }

    /// What the journal loader recovered and discarded at open.
    pub fn load_report(&self) -> &LoadReport {
        self.store.load_report()
    }

    /// Why journaling was disabled mid-run, if it was. Verification
    /// results are unaffected — only caching is lost.
    pub fn degraded(&self) -> Option<&str> {
        self.store.degraded()
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
        self.verifier.lint_gate(&opt.name, |ctx, opts| {
            cobalt_lint::lint_optimization(opt, ctx, opts)
        })?;
        let prepared = obligations_for_optimization_with(
            opt,
            &self.verifier.env,
            &self.verifier.meanings,
            self.verifier.bank_mode,
        )?;
        let rule_src = format!("{opt:?}");
        Ok(self.run(opt.name.clone(), &rule_src, prepared))
    }

    /// Verifies a pure analysis with the same journaling behaviour as
    /// [`verify_optimization`](Self::verify_optimization).
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the analysis cannot be encoded.
    pub fn verify_analysis(&mut self, analysis: &PureAnalysis) -> Result<Report, VerifyError> {
        self.verifier.lint_gate(&analysis.name, |ctx, opts| {
            cobalt_lint::lint_analysis(analysis, ctx, opts)
        })?;
        let prepared = obligations_for_analysis_with(
            analysis,
            &self.verifier.env,
            &self.verifier.meanings,
            self.verifier.bank_mode,
        )?;
        let rule_src = format!("{analysis:?}");
        Ok(self.run(analysis.name.clone(), &rule_src, prepared))
    }

    /// Compacts the journal down to this session's outcomes, dropping
    /// superseded and stale records, and releases its lock. Call once
    /// after the last report; skipping it costs only disk. A
    /// compaction failure degrades rather than erroring.
    pub fn finish(&mut self) {
        self.store.finish(&self.session_fps);
    }

    /// The session analogue of `Verifier::discharge_all`: per
    /// obligation, replay a cached proof, or discharge (resuming
    /// escalation for a known resource-limited failure) and journal the
    /// outcome. Fresh obligations go through the verifier's batch
    /// discharge, so a parallel (`jobs > 1`) verifier fans them out
    /// across its pool; the journaling sink receives outcomes in
    /// obligation order, so journal bytes are identical to a
    /// sequential run's.
    fn run(&mut self, name: String, rule_src: &str, prepared: Vec<Prepared>) -> Report {
        let start = Instant::now();
        let budget = self.verifier.report_budget();
        let tiers = self.verifier.policy.tiers.clone();
        let total = prepared.len();
        // Partition: cache hits replay immediately into their slots,
        // everything else queues for (possibly parallel) discharge.
        let mut outcome_slots: Vec<Option<ObligationOutcome>> = (0..total).map(|_| None).collect();
        // The fingerprints this run replays or journals, by obligation.
        let mut fp_slots: Vec<Option<u64>> = vec![None; total];
        let mut fresh: Vec<(Prepared, usize)> = Vec::new();
        let mut fresh_meta: Vec<(usize, u64, usize)> = Vec::new(); // (orig idx, fp, start_tier)
        for (idx, p) in prepared.into_iter().enumerate() {
            let fp = fingerprint_obligation(rule_src, &p, &tiers);
            let hit = self.store.get(fp);
            if let Some(cached) = hit.filter(|c| c.proved) {
                outcome_slots[idx] = Some(ObligationOutcome {
                    id: p.id,
                    proved: true,
                    elapsed: Duration::from_micros(cached.elapsed_us),
                    detail: String::new(),
                    attempts: cached.attempts,
                    escalations: cached.escalations,
                    resource_limited: false,
                    cached: true,
                });
                fp_slots[idx] = Some(fp);
                continue;
            }
            // A recorded resource-limited failure resumes at the tier
            // after the last one it exhausted; open-branch and panic
            // failures (deterministic, but the rule or encoding may
            // have been the problem last time the fingerprint was
            // computed — it matches, so they simply retry) start cold.
            let start_tier = match hit {
                Some(c) if c.resource_limited => c.tier as usize,
                _ => 0,
            };
            fresh_meta.push((idx, fp, start_tier));
            fresh.push((p, start_tier));
        }
        // Split borrows so the journaling sink can write while the
        // verifier discharges. Outcomes are journaled (append + fsync)
        // as they land, in obligation order; journal trouble degrades
        // the store instead of failing verification.
        let verifier = &self.verifier;
        let store = &mut self.store;
        let fresh_outcomes = verifier.discharge_batch(fresh, &budget, |fi, outcome| {
            let (orig_idx, fp, start_tier) = fresh_meta[fi];
            store.insert(JournalEntry {
                fingerprint: fp,
                rule: name.clone(),
                id: outcome.id.clone(),
                proved: outcome.proved,
                resource_limited: outcome.resource_limited,
                attempts: outcome.attempts,
                escalations: outcome.escalations,
                tier: (start_tier as u32).saturating_add(outcome.attempts),
                elapsed_us: outcome.elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                detail: outcome.detail.clone(),
            });
            fp_slots[orig_idx] = Some(fp);
        });
        for (fi, outcome) in fresh_outcomes.into_iter().enumerate() {
            outcome_slots[fresh_meta[fi].0] = Some(outcome);
        }
        self.session_fps.extend(fp_slots.into_iter().flatten());
        Report {
            name,
            outcomes: outcome_slots
                .into_iter()
                .map(|o| o.expect("every obligation produced exactly one outcome"))
                .collect(),
            elapsed: start.elapsed(),
        }
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
        let prepared = crate::oblig::obligations_for_optimization(
            &opt,
            &LabelEnv::standard(),
            &SemanticMeanings::standard(),
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
        assert_ne!(
            base,
            fingerprint_obligation("rule-src", p, &tiers[..1]),
            "limit tiers are fingerprint inputs"
        );
        let mut renamed = crate::oblig::obligations_for_optimization(
            &opt,
            &LabelEnv::standard(),
            &SemanticMeanings::standard(),
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
