//! `serve_mixed`: an in-process daemon (`Server::start`, 2 jobs) with a
//! journaled proof cache, driven over loopback TCP by an open loop.
//!
//! An earlier daemon generation pre-seeds the cache while the inputs
//! are prepared (not timed). Load is seeded Poisson arrivals at one
//! fixed rate from at most two sender threads, one TCP connection per
//! request as `cobalt client` does. About 90 % of requests repeat a
//! pre-seeded suite (cache reads); the rest are first-seen suites —
//! registry rules renamed so their fingerprints differ, every eighth
//! one unsound — which cost a fresh proof plus a journal append and
//! fsync (writes). Framing, queue, dispatcher, cache and journal do
//! most of the work; the prover does little and the engine none.
//! Latency is timed from each request's due time, so a stall also
//! charges the requests queued behind it. A request that waits for a
//! free sender (both held by slow fresh proofs, which block the
//! dispatcher's hits queued behind them) starts late; that wait is part
//! of its latency and shows in `loadgen.late_ms_p99`; past 50 ms at p99
//! the run prints a `flag:` line, but its outputs are not wrong, so it
//! is not a failure.
//!
//! Oracles: every verdict matches the suite's known answer, and every
//! payload is byte-identical to an in-process `exec::execute` of the
//! same request. A run whose served mix drifted from the plan is
//! flagged.
//!
//! Traced, the client side records connect, send, first-byte wait and
//! read spans, and an in-process replay of the same request stream
//! times the server-side steps (decode, cache lookup, exec, cache
//! insert with fsync, encode) on a copy of the pre-seeded journal.

use crate::trace::Tracer;
use crate::verify_wl::suite_blocks;
use crate::{
    host_scale, low_quartile, mean, median, ms, peak_rss_mb, process_cpu, quantile, Outcome, RunCfg,
};
use cobalt_serve::cache::ProofCache;
use cobalt_serve::exec::{self, ExecConfig, ExecResult};
use cobalt_serve::{
    request_with_retry, ClientConfig, Request, RequestOp, Response, ServeConfig, ServedFrom,
    Server, ServerHandle, Status,
};
use cobalt_support::journal::{Fnv64, ResumeMode};
use cobalt_support::pool::Cancel;
use cobalt_support::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered load, requests per second; the parent daemon sustains it
/// without a growing backlog.
const RATE: f64 = 100.0;
const HIT_SHARE: f64 = 0.9;
/// Distinct pre-seeded suites the repeats draw from.
const HIT_SUITES: usize = 26;
/// Every `UNSOUND_EVERY`-th first-seen suite is unsound (exit 2).
const UNSOUND_EVERY: usize = 8;
const SENDERS: usize = 2;
const JOBS: usize = 2;
const SETUP_REPS: usize = 21;
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Lateness beyond which the generator counts as fallen behind.
const LATE_LIMIT_MS: f64 = 50.0;
/// Windows of due time the latency median is taken in.
const SLICES: usize = 30;

/// One planned request.
struct Planned {
    id: String,
    line: String,
    due: Duration,
    hit: bool,
    sound: bool,
    /// Index of the expected result.
    expect: usize,
}

fn renamed(block: &str, name: &str, suffix: &str) -> String {
    block.replacen(&format!(" {name} "), &format!(" {name}_{suffix} "), 1)
}

fn unsound_suite(suffix: &str) -> String {
    format!(
        "forward bad_prop_{suffix} {{\n    stmt(Y := C)\n    followed by !mayDef(X)\n    \
         until X := Y => X := C\n    with witness eta(Y) == C\n}}\n"
    )
}

fn verify_op(suite: String) -> RequestOp {
    RequestOp::Verify {
        suite: Some(suite),
        include_buggy: false,
    }
}

/// The pre-seeded suites: registry rules renamed `<rule>_h<i>`.
fn hit_suites() -> Vec<String> {
    let blocks = suite_blocks();
    (0..HIT_SUITES)
        .map(|i| {
            let (name, block) = &blocks[i % blocks.len()];
            renamed(block, name, &format!("h{i}"))
        })
        .collect()
}

/// A seeded open-loop schedule for one phase of `budget`. First-seen
/// suites cycle through the registry so every run sees the same mix of
/// rule kinds; the seed decides arrival times, hit/miss draws, which
/// pre-seeded suite repeats, and the names of first-seen suites.
fn plan_phase(
    seed: u64,
    phase: usize,
    budget: Duration,
    hits: &[String],
    expected: &mut Vec<ExecResult>,
    cache: &mut HashMap<String, usize>,
) -> Vec<Planned> {
    let blocks = suite_blocks();
    let mut rng = Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(phase as u64),
    );
    // A Poisson process conditioned on its count: a fixed number of
    // arrivals at uniformly drawn times, so every run offers the same
    // load.
    let n = (RATE * budget.as_secs_f64()).round() as usize;
    let mut dues: Vec<f64> = (0..n)
        .map(|_| rng.gen_f64() * budget.as_secs_f64())
        .collect();
    dues.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(n);
    let mut misses = 0usize;
    for t in dues {
        let hit = rng.gen_bool(HIT_SHARE);
        let (suite, sound) = if hit {
            (hits[rng.gen_range(0..hits.len())].clone(), true)
        } else {
            let k = misses;
            misses += 1;
            let suffix = format!("s{seed}p{phase}m{k}");
            if k % UNSOUND_EVERY == UNSOUND_EVERY - 1 {
                (unsound_suite(&suffix), false)
            } else {
                let (name, block) = &blocks[k % blocks.len()];
                (renamed(block, name, &suffix), true)
            }
        };
        let expect = *cache.entry(suite.clone()).or_insert_with(|| {
            let op = verify_op(suite.clone());
            expected.push(exec::execute(&op, &ExecConfig::default(), &Cancel::new()));
            expected.len() - 1
        });
        let id = format!("p{phase}-{}", out.len());
        let line = Request {
            id: id.clone(),
            op: verify_op(suite),
        }
        .encode();
        out.push(Planned {
            id,
            line,
            due: Duration::from_secs_f64(t),
            hit,
            sound,
            expect,
        });
    }
    out
}

fn plan_hash(phases: &[Vec<Planned>]) -> u64 {
    let mut h = Fnv64::new();
    for p in phases.iter().flatten() {
        h.write(p.line.as_bytes())
            .write(&p.due.as_nanos().to_le_bytes());
    }
    h.finish()
}

/// What a client exchange observed.
struct Exchange {
    resp: Response,
    first_byte_wait: Duration,
}

/// One connect → send → receive exchange, like `cobalt client`, with
/// the client-side steps recorded as spans.
fn exchange(t: &mut Tracer, addr: &str, line: &str, id: &str) -> Result<Exchange, String> {
    t.span("serve.request", id, |t| {
        let stream = t
            .span("serve.connect", id, |_| TcpStream::connect(addr))
            .map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| format!("socket: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        t.span("serve.send", id, |_| {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| writer.flush())
        })
        .map_err(|e| format!("send: {e}"))?;
        let sent = Instant::now();
        let mut reader = BufReader::new(stream);
        let got = reader
            .fill_buf()
            .map(<[u8]>::len)
            .map_err(|e| format!("receive: {e}"))?;
        let first = Instant::now();
        t.record("serve.first_byte", id, sent, first);
        if got == 0 {
            return Err("connection closed before a response".into());
        }
        let resp = t.span("serve.read", id, |_| {
            let mut l = String::new();
            reader
                .read_line(&mut l)
                .map_err(|e| format!("receive: {e}"))
                .and_then(|_| Response::decode(l.trim_end()).map_err(|e| format!("decode: {e}")))
        })?;
        Ok(Exchange {
            resp,
            first_byte_wait: first - sent,
        })
    })
}

/// One answered request of a load phase.
struct Sample {
    idx: usize,
    late: Duration,
    latency: Duration,
    first_byte_wait: Duration,
    ok: bool,
}

/// Does the response carry the planned request's expected answer?
fn check(p: &Planned, exp: &ExecResult, resp: &Response) -> bool {
    let known = if p.sound {
        (0, "proved")
    } else {
        (exec::EXIT_UNSOUND, "unsound")
    };
    let served = if p.hit {
        ServedFrom::Cache
    } else {
        ServedFrom::Fresh
    };
    resp.status == Status::Ok
        && resp.id == p.id
        && (resp.exit, resp.verdict.as_str()) == known
        && (exp.exit, exp.verdict.as_str()) == known
        && resp.output == exp.output
        && resp.served == served
}

/// What one load phase observed.
struct Observed {
    samples: Vec<Sample>,
    tracer: Tracer,
    /// Process CPU time used within each of `SLICES` equal windows.
    slice_cpu: Vec<Duration>,
    /// `host_scale()` sampled at the end of each window.
    scales: Vec<f64>,
}

/// Runs one open-loop phase of `budget` against `addr`.
fn load_phase(
    addr: &str,
    expected: &[ExecResult],
    phase: &[Planned],
    budget: Duration,
    trace: bool,
    epoch: Instant,
) -> Observed {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut tracer = Tracer::new(trace, epoch);
    let mut samples = Vec::with_capacity(phase.len());
    let mut slice_cpu = Vec::with_capacity(SLICES);
    let mut scales = Vec::with_capacity(SLICES);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SENDERS)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Tracer::new(trace, epoch);
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = phase.get(idx) else { break };
                        let due = start + p.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        t.record("loadgen.late", &p.id, due, sent);
                        let got = exchange(&mut t, addr, &p.line, &p.id);
                        let latency = Instant::now() - due;
                        let (ok, first_byte_wait) = match &got {
                            Ok(x) => (check(p, &expected[p.expect], &x.resp), x.first_byte_wait),
                            Err(_) => (false, Duration::ZERO),
                        };
                        mine.push(Sample {
                            idx,
                            late: sent - due,
                            latency,
                            first_byte_wait,
                            ok,
                        });
                    }
                    (mine, t)
                })
            })
            .collect();
        let mut from = process_cpu();
        for k in 1..=SLICES {
            let boundary = start + budget * k as u32 / SLICES as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            slice_cpu.push(process_cpu() - from);
            // Between the windows, so its own CPU time is not charged
            // to the daemon.
            scales.push(host_scale());
            from = process_cpu();
        }
        for w in workers {
            let (mine, t) = w.join().expect("sender thread panicked");
            samples.extend(mine);
            tracer.absorb(t);
        }
    });
    samples.sort_by_key(|s| s.idx);
    Observed {
        samples,
        tracer,
        slice_cpu,
        scales,
    }
}

/// Daemon counters from the `stats` op.
fn stats(addr: &str) -> Result<HashMap<String, u64>, String> {
    let line = Request {
        id: "stats".into(),
        op: RequestOp::Stats,
    }
    .encode();
    let x = exchange(
        &mut Tracer::new(false, Instant::now()),
        addr,
        &line,
        "stats",
    )?;
    Ok(x.resp
        .output
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn serve_config(journal: &Path, mode: ResumeMode) -> ServeConfig {
    ServeConfig {
        jobs: JOBS,
        queue_cap: 1024,
        journal: Some((journal.to_path_buf(), mode)),
        lock_wait: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

/// The earlier daemon generation: proves every pre-seeded suite into a
/// fresh journal, then drains (which compacts the journal).
fn preseed(journal: &Path, hits: &[String]) -> Result<(), String> {
    let handle =
        Server::start(serve_config(journal, ResumeMode::Fresh)).map_err(|e| e.to_string())?;
    let client = ClientConfig {
        addr: handle.addr().to_string(),
        ..ClientConfig::default()
    };
    let mut result = Ok(());
    for (i, suite) in hits.iter().enumerate() {
        let req = Request {
            id: format!("seed{i}"),
            op: verify_op(suite.clone()),
        };
        match request_with_retry(&client, &req) {
            Ok(r) if r.exit == 0 => {}
            Ok(r) => result = Err(format!("pre-seeding: suite {i} answered exit {}", r.exit)),
            Err(e) => result = Err(format!("pre-seeding: {e}")),
        }
    }
    handle.shutdown();
    let summary = handle.join();
    if result.is_ok() && summary.cache_entries != hits.len() as u64 {
        result = Err(format!(
            "pre-seeding cached {} of {} suites",
            summary.cache_entries,
            hits.len()
        ));
    }
    result
}

/// Starts the daemon generation under test on the pre-seeded journal
/// and waits for its first answer; the set-up time.
fn start(journal: &Path) -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let handle =
        Server::start(serve_config(journal, ResumeMode::Resume)).map_err(|e| e.to_string())?;
    let line = Request {
        id: "ping".into(),
        op: RequestOp::Ping,
    }
    .encode();
    let pong = exchange(
        &mut Tracer::new(false, t),
        &handle.addr().to_string(),
        &line,
        "ping",
    )?;
    if pong.resp.output != "pong\n" {
        return Err("daemon did not answer ping".into());
    }
    Ok((handle, t.elapsed()))
}

/// The in-process replay of a phase's request stream through the
/// server-side steps. Returns each request's server-side time.
fn replay_server(
    t: &mut Tracer,
    journal: &Path,
    expected: &[ExecResult],
    phase: &[Planned],
    out: &mut Outcome,
) -> Vec<Duration> {
    let mut cache = t.span("journal.load", "cache", |_| {
        ProofCache::open(journal, ResumeMode::Resume, Duration::from_secs(2))
    });
    let cfg = ExecConfig {
        jobs: JOBS,
        ..ExecConfig::default()
    };
    let mut server = Vec::with_capacity(phase.len());
    for p in phase {
        let before = t.spans().len();
        let ok = t.span("serve.server", &p.id, |t| {
            let Ok(req) = t.span("serve.decode", &p.id, |_| Request::decode(&p.line)) else {
                return false;
            };
            let (fp, hit) = t.span("serve.cache_get", &p.id, |_| {
                let fp = exec::request_fingerprint(&req.op, &cfg);
                (fp, cache.get(fp).cloned())
            });
            let (result, served) = match hit {
                Some(c) => (
                    ExecResult {
                        exit: c.exit,
                        verdict: c.verdict,
                        output: c.output,
                    },
                    ServedFrom::Cache,
                ),
                None => {
                    let r = t.span("serve.exec", &p.id, |_| {
                        exec::execute(&req.op, &cfg, &Cancel::new())
                    });
                    t.span("serve.cache_insert", &p.id, |_| {
                        cache.insert(r.to_cached(fp, &req.op))
                    });
                    (r, ServedFrom::Fresh)
                }
            };
            let resp = Response::ok(&req.id, result.exit, &result.verdict, served, result.output);
            let line = t.span("serve.encode", &p.id, |_| resp.encode());
            Response::decode(&line).is_ok_and(|r| check(p, &expected[p.expect], &r))
        });
        if !ok {
            out.problem(format!(
                "server-side replay of {} disagrees with the expected payload",
                p.id
            ));
        }
        server.push(t.spans()[before].child);
    }
    if cache.degraded().is_some() {
        out.problem("replay proof cache degraded");
    }
    server
}

struct Scored {
    latency: Vec<f64>,
    /// Median latency within each of `SLICES` equal windows of due time.
    slice_p50: Vec<f64>,
    /// Requests answered correctly per CPU-second of the whole
    /// process, within each window.
    slice_per_cpu_s: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    late: Vec<f64>,
}

fn score(
    phase: &[Planned],
    samples: &[Sample],
    budget: Duration,
    slice_cpu: &[Duration],
    out: &mut Outcome,
) -> Scored {
    let mut s = Scored {
        latency: Vec::new(),
        slice_p50: Vec::new(),
        slice_per_cpu_s: Vec::new(),
        hit: Vec::new(),
        miss: Vec::new(),
        late: Vec::new(),
    };
    let mut slices = vec![Vec::new(); SLICES];
    for x in samples {
        out.attempted += 1;
        if !x.ok {
            out.failed += 1;
            continue;
        }
        let l = ms(x.latency);
        s.latency.push(l);
        let slice =
            (phase[x.idx].due.as_secs_f64() / budget.as_secs_f64() * SLICES as f64) as usize;
        slices[slice.min(SLICES - 1)].push(l);
        if phase[x.idx].hit {
            s.hit.push(l)
        } else {
            s.miss.push(l)
        }
        s.late.push(ms(x.late));
    }
    s.slice_p50 = slices
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    s.slice_per_cpu_s = slices
        .iter()
        .zip(slice_cpu)
        .map(|(v, c)| v.len() as f64 / c.as_secs_f64())
        .collect();
    if quantile(&s.late, 0.99) > LATE_LIMIT_MS {
        out.flags.push(format!(
            "the load generator fell behind (late p99 {:.1} ms > {LATE_LIMIT_MS} ms)",
            quantile(&s.late, 0.99)
        ));
    }
    s
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.out_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.problem(format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    run_in(cfg, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(cfg: &RunCfg, dir: &Path, out: &mut Outcome) {
    // Preparation, not timed: plan, expected answers, pre-seeded cache.
    let hits = hit_suites();
    let budget = cfg.phase_budget();
    let n_phases = if cfg.trace { 2 } else { 1 };
    let make_plan = || {
        let mut expected = Vec::new();
        let mut cache = HashMap::new();
        let phases: Vec<Vec<Planned>> = (0..n_phases)
            .map(|ph| plan_phase(cfg.seed, ph, budget, &hits, &mut expected, &mut cache))
            .collect();
        (phases, expected)
    };
    let (phases, expected) = make_plan();
    out.inputs_hash = plan_hash(&phases);
    if plan_hash(&make_plan().0) != out.inputs_hash {
        out.problem("the same seed generated different inputs");
    }
    let journal = dir.join("cache.jrnl");
    let replay_journal = dir.join("replay.jrnl");
    if let Err(e) = preseed(&journal, &hits).and_then(|()| {
        std::fs::copy(&journal, &replay_journal)
            .map(drop)
            .map_err(|e| e.to_string())
    }) {
        out.problem(e);
        return;
    }

    // Set-up: daemon start on the pre-seeded journal to first answer.
    let mut setups = Vec::new();
    let mut handle = None;
    for r in 0..SETUP_REPS {
        match start(&journal) {
            Ok((h, d)) => {
                setups.push(d.as_secs_f64() * host_scale());
                if r + 1 < SETUP_REPS {
                    h.shutdown();
                    h.join();
                } else {
                    handle = Some(h);
                }
            }
            Err(e) => {
                out.problem(format!("daemon start: {e}"));
                return;
            }
        }
    }
    let handle = handle.expect("last set-up keeps its daemon");
    let addr = handle.addr().to_string();

    let before = stats(&addr);
    let epoch = Instant::now();
    let untraced = load_phase(&addr, &expected, &phases[0], budget, false, epoch);
    out.peak_rss_mb = peak_rss_mb();
    let scored = score(
        &phases[0],
        &untraced.samples,
        budget,
        &untraced.slice_cpu,
        out,
    );
    let traced = cfg.trace.then(|| {
        let o = load_phase(&addr, &expected, &phases[1], budget, true, epoch);
        let s = score(&phases[1], &o.samples, budget, &o.slice_cpu, out);
        (o.samples, o.tracer, s)
    });
    let after = stats(&addr);
    handle.shutdown();
    let summary = handle.join();
    if let Some(why) = summary.degraded {
        out.problem(format!("daemon proof cache degraded: {why}"));
    }

    // Run validity: the daemon's own counters against the plan.
    let planned: Vec<&Planned> = phases.iter().flatten().collect();
    let planned_hits = planned.iter().filter(|p| p.hit).count() as f64;
    let counters = before.and_then(|b| after.map(|a| (b, a)));
    let (hit_ratio, coalesced, shed, errors) = match counters {
        Ok((b, a)) => {
            let d = |k: &str| {
                a.get(k)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(b.get(k).copied().unwrap_or(0)) as f64
            };
            let served = d("cache_hits") + d("fresh") + d("coalesced");
            (
                d("cache_hits") / served.max(1.0),
                d("coalesced"),
                d("shed"),
                d("errors"),
            )
        }
        Err(e) => {
            out.problem(format!("stats: {e}"));
            (0.0, 0.0, 0.0, 0.0)
        }
    };
    let planned_ratio = planned_hits / planned.len().max(1) as f64;
    if (hit_ratio - planned_ratio).abs() > 1e-9 {
        out.problem(format!(
            "run invalid: served hit ratio {hit_ratio:.4} drifted from the planned {planned_ratio:.4}"
        ));
    }

    out.set("setup_s", low_quartile(&setups));
    // The offered rate is fixed, so the daemon's cost shows as CPU time:
    // requests answered per CPU-second of the process. Both figures are
    // normalized to host speed: on a slower host, fresh proofs take
    // longer and hold up the cache reads queued behind them.
    let scale = median(&untraced.scales);
    out.set(
        "work_per_s",
        quantile(&scored.slice_per_cpu_s, 0.75) / scale,
    );
    out.set("op_ms_p50", low_quartile(&scored.slice_p50) * scale);
    if !cfg.trace {
        return;
    }

    out.set("serve.latency_ms_p50", median(&scored.latency));
    out.set("serve.latency_ms_p99", quantile(&scored.latency, 0.99));
    out.set("serve.hit_ms_p50", median(&scored.hit));
    out.set("serve.miss_ms_p50", median(&scored.miss));
    out.set("loadgen.late_ms_p99", quantile(&scored.late, 0.99));
    out.set("serve.hit_ratio", hit_ratio);
    out.set("serve.coalesced", coalesced);
    out.set("serve.shed", shed);
    out.set("serve.errors", errors);

    let Some((samples, mut tracer, traced_scored)) = traced else {
        return;
    };
    let mut replay = Tracer::new(true, epoch);
    let server = replay_server(&mut replay, &replay_journal, &expected, &phases[1], out);
    let per =
        |name: &str, t: &Tracer| -> Vec<f64> { t.durations(name).into_iter().map(ms).collect() };
    out.set(
        "serve.connect_ms_p50",
        median(&per("serve.connect", &tracer)),
    );
    out.set(
        "serve.first_byte_ms_p50",
        median(&per("serve.first_byte", &tracer)),
    );
    let unattributed: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| ms(s.first_byte_wait) - ms(server[s.idx]))
        .collect();
    out.set("serve.unattributed_ms_p50", median(&unattributed));
    let n = phases[1].len().max(1) as f64;
    let misses = phases[1].iter().filter(|p| !p.hit).count().max(1) as f64;
    let total = |name: &str, t: &Tracer| per(name, t).iter().sum::<f64>();
    out.set("serve.decode_us", total("serve.decode", &replay) / n * 1e3);
    out.set(
        "serve.cache_get_us",
        total("serve.cache_get", &replay) / n * 1e3,
    );
    out.set("serve.exec_ms", total("serve.exec", &replay) / misses);
    out.set(
        "serve.cache_insert_ms",
        total("serve.cache_insert", &replay) / misses,
    );
    out.set("serve.encode_us", total("serve.encode", &replay) / n * 1e3);
    out.set("journal.load_ms", total("journal.load", &replay));

    // Attribution per request: client-side spans, the replayed
    // server-side spans standing in for the first-byte wait, and the
    // named remainder (accept, queue, dispatch, socket, threads).
    let e2e = mean(&traced_scored.latency);
    let server_ms = server.iter().map(|d| ms(*d)).sum::<f64>() / n;
    let client_ms = ["loadgen.late", "serve.connect", "serve.send", "serve.read"]
        .iter()
        .map(|s| total(s, &tracer) / n)
        .sum::<f64>();
    out.set("trace.e2e_ms", e2e);
    out.set("trace.untraced_ms", mean(&scored.latency));
    out.set(
        "trace.overhead_pct",
        (e2e - mean(&scored.latency)) / mean(&scored.latency) * 100.0,
    );
    out.set("trace.unattributed_ms", e2e - client_ms - server_ms);
    tracer.absorb(replay);
    if let Err(e) = tracer.write_jsonl(&cfg.out_dir.join("trace-serve_mixed.jsonl")) {
        out.problem(format!("cannot write trace: {e}"));
    }
}
