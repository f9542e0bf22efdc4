//! Deterministic fault injection for robustness testing.
//!
//! The resource-governance layer (prover deadlines, checker retries,
//! pass quarantine) exists to make the system *degrade* instead of
//! hanging or dying. Degradation paths are only trustworthy if they are
//! exercised, so this module provides named **fault points** that the
//! solver, checker, and engine call at their interesting seams:
//!
//! ```text
//! cobalt_support::fault::point("solver.split");
//! cobalt_support::fault::point_err("engine.pass")?;
//! ```
//!
//! Faults are **off by default** and cost one relaxed atomic load per
//! point when disarmed. They are armed either by the `COBALT_FAULTS`
//! environment variable (read once, on the first point hit) or by the
//! scoped, thread-local [`with_faults`] override used in tests.
//!
//! # Grammar
//!
//! `COBALT_FAULTS` is a comma-separated list of `site:action` items:
//!
//! ```text
//! COBALT_FAULTS=solver.split:panic@3,checker.obligation:delay_ms@20
//! ```
//!
//! | action       | effect at the named site                                |
//! |--------------|---------------------------------------------------------|
//! | `panic@n`    | panic on the *n*-th hit of the site (once; 1-based)     |
//! | `fail@n`     | [`point_err`] returns `Err` on the *n*-th hit (once)    |
//! | `delay_ms@k` | sleep `k` milliseconds on *every* hit                   |
//!
//! `panic` and `fail` default to `@1` when the `@n` part is omitted.
//! `fail` is honoured only by [`point_err`]; a plain [`point`] treats it
//! as a no-op (it has no error channel to report through).
//!
//! Everything is deterministic: hit counters are per-spec and
//! monotonic, so a given workload hits a given fault at the same place
//! every run.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The environment variable holding the fault configuration.
pub const ENV_VAR: &str = "COBALT_FAULTS";

/// What a fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic on the configured hit.
    Panic,
    /// Make [`point_err`] return an error on the configured hit.
    Fail,
    /// Sleep for the configured number of milliseconds on every hit.
    DelayMs,
}

/// One configured fault: a site, an action, and its argument.
#[derive(Debug)]
pub struct FaultSpec {
    /// The fault-point name this spec applies to.
    pub site: String,
    /// What to do when it fires.
    pub action: Action,
    /// For `panic`/`fail`: the 1-based hit to fire on. For `delay_ms`:
    /// the sleep duration in milliseconds.
    pub arg: u64,
    hits: AtomicU64,
}

impl FaultSpec {
    fn new(site: &str, action: Action, arg: u64) -> Self {
        FaultSpec {
            site: site.to_string(),
            action,
            arg,
            hits: AtomicU64::new(0),
        }
    }
}

/// The error [`point_err`] returns when a `fail` fault fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that fired.
    pub site: String,
    /// Which hit of the site fired (1-based).
    pub hit: u64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at `{}` (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for FaultError {}

/// Parses a `COBALT_FAULTS`-style specification string.
///
/// # Errors
///
/// Returns a description of the first malformed item.
pub fn parse(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (site, rest) = item
            .split_once(':')
            .ok_or_else(|| format!("`{item}`: expected `site:action[@n]`"))?;
        if site.is_empty() {
            return Err(format!("`{item}`: empty site name"));
        }
        let (action_name, arg) = match rest.split_once('@') {
            Some((a, n)) => {
                let n: u64 = n
                    .parse()
                    .map_err(|e| format!("`{item}`: bad argument `{n}`: {e}"))?;
                (a, Some(n))
            }
            None => (rest, None),
        };
        let (action, arg) = match action_name {
            "panic" => (Action::Panic, arg.unwrap_or(1)),
            "fail" => (Action::Fail, arg.unwrap_or(1)),
            "delay_ms" => (
                Action::DelayMs,
                arg.ok_or_else(|| format!("`{item}`: delay_ms requires `@millis`"))?,
            ),
            other => {
                return Err(format!(
                    "`{item}`: unknown action `{other}` (expected panic, fail, or delay_ms)"
                ))
            }
        };
        out.push(FaultSpec::new(site, action, arg));
    }
    Ok(out)
}

fn env_config() -> &'static [FaultSpec] {
    static CONFIG: OnceLock<Vec<FaultSpec>> = OnceLock::new();
    CONFIG.get_or_init(|| match std::env::var(ENV_VAR) {
        Ok(s) if !s.trim().is_empty() => parse(&s)
            .unwrap_or_else(|e| panic!("invalid {ENV_VAR}: {e}")),
        _ => Vec::new(),
    })
}

/// True once any fault source (env or override) may be active. The env
/// branch caches the parse result, so after the first hit this is one
/// atomic load.
fn armed() -> bool {
    static ENV_ARMED: OnceLock<bool> = OnceLock::new();
    OVERRIDES_ACTIVE.load(Ordering::Relaxed) != 0
        || *ENV_ARMED.get_or_init(|| !env_config().is_empty())
}

/// Count of threads currently inside [`with_faults`]; keeps the
/// disarmed fast path a single relaxed load.
static OVERRIDES_ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERRIDE: RefCell<Option<Arc<Vec<FaultSpec>>>> = const { RefCell::new(None) };
}

/// A shareable handle to a thread's active fault override, captured
/// with [`capture_overrides`] and re-installed on another thread with
/// [`with_overrides`]. Worker pools use this to make a test's scoped
/// [`with_faults`] configuration visible inside their worker threads:
/// the hit counters live behind the shared `Arc`, so `panic@n`/`fail@n`
/// still fire exactly once *globally*, no matter which worker reaches
/// the site.
#[derive(Debug, Clone)]
pub struct OverrideHandle(Arc<Vec<FaultSpec>>);

/// Captures the calling thread's active fault override, if any.
/// Returns `None` outside [`with_faults`]/[`with_overrides`] scopes —
/// the environment configuration needs no capturing, every thread
/// already sees it.
pub fn capture_overrides() -> Option<OverrideHandle> {
    OVERRIDE.with(|o| o.borrow().clone().map(OverrideHandle))
}

/// Runs `f` with a captured override installed on *this* thread,
/// restoring the previous configuration afterwards (also on panic).
/// With `handle == None` this is just `f()`.
pub fn with_overrides<R>(handle: Option<&OverrideHandle>, f: impl FnOnce() -> R) -> R {
    match handle {
        None => f(),
        Some(h) => install(h.0.clone(), f),
    }
}

fn install<R>(specs: Arc<Vec<FaultSpec>>, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<Arc<Vec<FaultSpec>>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            OVERRIDE.with(|o| *o.borrow_mut() = self.0.take());
            OVERRIDES_ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
    OVERRIDES_ACTIVE.fetch_add(1, Ordering::Relaxed);
    let prev = OVERRIDE.with(|o| o.borrow_mut().replace(specs));
    let _guard = Guard(prev);
    f()
}

/// Runs `f` with the given fault specification active *on this thread
/// only*, overriding `COBALT_FAULTS`. Restores the previous
/// configuration afterwards, including when `f` panics — which it will,
/// if the faults say so.
///
/// # Panics
///
/// Panics immediately if `spec` does not parse; see [`parse`].
pub fn with_faults<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    let parsed = parse(spec).unwrap_or_else(|e| panic!("with_faults: {e}"));
    install(Arc::new(parsed), f)
}

/// What happened at a fault point.
enum Fired {
    Nothing,
    Fail(FaultError),
}

/// Evaluates the configured faults for `site`. Panics and delays happen
/// in here; `fail` is reported back for the caller to surface.
fn evaluate(site: &str) -> Fired {
    // Thread-local override takes precedence over the environment.
    let overridden = OVERRIDE.with(|o| {
        o.borrow()
            .as_ref()
            .map(|specs| evaluate_specs(site, specs))
    });
    match overridden {
        Some(fired) => fired,
        None => evaluate_specs(site, env_config()),
    }
}

fn evaluate_specs(site: &str, specs: &[FaultSpec]) -> Fired {
    for spec in specs.iter().filter(|s| s.site == site) {
        let hit = spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match spec.action {
            Action::DelayMs => std::thread::sleep(Duration::from_millis(spec.arg)),
            Action::Panic if hit == spec.arg => {
                panic!("injected fault: `{site}` panic at hit {hit}")
            }
            Action::Fail if hit == spec.arg => {
                return Fired::Fail(FaultError {
                    site: site.to_string(),
                    hit,
                });
            }
            Action::Panic | Action::Fail => {}
        }
    }
    Fired::Nothing
}

/// A fault point with no error channel: may panic or delay, per the
/// active configuration. Disarmed cost: one relaxed atomic load.
#[inline]
pub fn point(site: &str) {
    if !armed() {
        return;
    }
    let _ = evaluate(site);
}

/// A fault point with an error channel: may panic or delay, and
/// additionally surfaces `fail` actions as an `Err` for the caller to
/// handle through its normal error path.
///
/// # Errors
///
/// Returns [`FaultError`] when a configured `fail` action fires.
#[inline]
pub fn point_err(site: &str) -> Result<(), FaultError> {
    if !armed() {
        return Ok(());
    }
    match evaluate(site) {
        Fired::Nothing => Ok(()),
        Fired::Fail(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let specs = parse("solver.split:panic@3,checker.obligation:delay_ms@20,x:fail").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].site, "solver.split");
        assert_eq!(specs[0].action, Action::Panic);
        assert_eq!(specs[0].arg, 3);
        assert_eq!(specs[1].action, Action::DelayMs);
        assert_eq!(specs[1].arg, 20);
        assert_eq!(specs[2].action, Action::Fail);
        assert_eq!(specs[2].arg, 1, "fail defaults to hit 1");
    }

    #[test]
    fn parse_rejects_malformed_items() {
        assert!(parse("no-colon").is_err());
        assert!(parse("site:explode").is_err());
        assert!(parse("site:panic@notanumber").is_err());
        assert!(parse("site:delay_ms").is_err(), "delay needs a duration");
        assert!(parse(":panic").is_err(), "empty site");
        assert!(parse("").unwrap().is_empty());
        assert!(parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn disarmed_points_are_noops() {
        point("not.configured");
        assert!(point_err("not.configured").is_ok());
    }

    #[test]
    fn panic_fires_on_the_exact_hit_once() {
        with_faults("t.panic:panic@2", || {
            point("t.panic"); // hit 1: nothing
            let caught = std::panic::catch_unwind(|| point("t.panic"));
            assert!(caught.is_err(), "hit 2 must panic");
            point("t.panic"); // hit 3: nothing again
        });
    }

    #[test]
    fn fail_surfaces_through_point_err_only() {
        with_faults("t.fail:fail@1", || {
            let e = point_err("t.fail").unwrap_err();
            assert_eq!(e.site, "t.fail");
            assert_eq!(e.hit, 1);
            assert!(e.to_string().contains("injected fault"));
            assert!(point_err("t.fail").is_ok(), "fires once");
        });
        // A plain point() ignores `fail` (no error channel).
        with_faults("t.fail2:fail@1", || point("t.fail2"));
    }

    #[test]
    fn delay_fires_every_hit() {
        with_faults("t.delay:delay_ms@5", || {
            let start = std::time::Instant::now();
            point("t.delay");
            point("t.delay");
            assert!(start.elapsed() >= Duration::from_millis(10));
        });
    }

    #[test]
    fn override_is_scoped_and_restored_after_panic() {
        let result = std::panic::catch_unwind(|| {
            with_faults("t.scoped:panic@1", || point("t.scoped"));
        });
        assert!(result.is_err());
        // Back outside: the same site is disarmed again.
        point("t.scoped");
        assert!(point_err("t.scoped").is_ok());
    }

    #[test]
    fn captured_overrides_share_hit_counters_across_threads() {
        with_faults("t.cap:fail@2", || {
            let handle = capture_overrides().expect("inside with_faults");
            assert!(point_err("t.cap").is_ok(), "hit 1 on the origin thread");
            let worker = {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    with_overrides(Some(&handle), || point_err("t.cap"))
                })
            };
            // Hit 2 fires on the worker: the counter is shared, not
            // per-thread.
            assert!(worker.join().unwrap().is_err());
            assert!(point_err("t.cap").is_ok(), "hit 3: already fired");
        });
        assert!(capture_overrides().is_none(), "no override outside the scope");
    }

    #[test]
    fn sites_are_independent() {
        with_faults("a:fail@1,b:fail@1", || {
            assert!(point_err("c").is_ok());
            assert!(point_err("a").is_err());
            assert!(point_err("b").is_err());
        });
    }
}
