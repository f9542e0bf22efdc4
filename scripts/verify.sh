#!/usr/bin/env bash
# Tier-1 verification, run fully offline to prove the workspace is
# hermetic (no external registry dependencies; see DESIGN.md).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release --offline"
cargo build --release --offline

# The benchmark (perfbench/) is its own workspace that calls the public
# APIs of the crates; build it so an API slip fails here, not only when
# the benchmark runs.
echo "== cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== robustness stage (bounded)"
COBALT="target/release/cobalt"

# Degenerate/bounded limits: a severely capped run must finish quickly
# and exit 0 (all proved anyway) or 3 (resource-limited) — never hang,
# crash, or claim unsoundness (2).
set +e
"$COBALT" verify --timeout 5 --max-splits 10 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 0 && $code -ne 3 ]]; then
    echo "robustness: capped verify exited $code (want 0 or 3)"; exit 1
fi

# Deadline exit code: --timeout 0 must exit 3 (resource-limited).
set +e
"$COBALT" verify --timeout 0 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "robustness: verify --timeout 0 exited $code (want 3)"; exit 1
fi

# Fault-injection smoke through the env-var path: an injected prover
# panic is isolated to one obligation (exit 2, completed report with
# its FAILED line on stdout), and an injected pass panic is
# quarantined by the optimization session (exit 0, degraded report).
set +e
out=$(COBALT_FAULTS=checker.obligation:panic@1 "$COBALT" verify 2>/dev/null)
code=$?
set -e
if [[ $code -ne 2 ]]; then
    echo "robustness: fault-injected verify exited $code (want 2)"; exit 1
fi
if ! grep -q "FAILED" <<<"$out"; then
    echo "robustness: fault-injected verify printed no FAILED line on stdout:"; echo "$out"; exit 1
fi
out=$(COBALT_FAULTS=engine.pass:panic@1 "$COBALT" optimize examples/programs/redundant.il 2>&1)
if ! grep -q "degraded" <<<"$out"; then
    echo "robustness: fault-injected optimize did not report degradation:"; echo "$out"; exit 1
fi

echo "== lint stage"

# The built-in registry and every example program must be lint-clean.
"$COBALT" lint >/dev/null
"$COBALT" lint examples/programs/*.il >/dev/null

# Exit-code contract: a structurally broken program must exit 4, and
# the JSON report must be one object per line on stdout.
bad_il=$(mktemp /tmp/cobalt_lint_bad_XXXXXX.il)
printf 'proc main(x) { if x goto 9 else 1; return x; }\n' >"$bad_il"
set +e
"$COBALT" lint "$bad_il" >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 4 ]]; then
    echo "lint: broken program exited $code (want 4)"; rm -f "$bad_il"; exit 1
fi
set +e
json=$("$COBALT" lint "$bad_il" --json 2>/dev/null)
code=$?
set -e
rm -f "$bad_il"
if [[ $code -ne 4 ]]; then
    echo "lint: --json on broken program exited $code (want 4)"; exit 1
fi
while IFS= read -r line; do
    case "$line" in
        '{"code":"'*'}') ;;
        *) echo "lint: not a JSON object line: $line"; exit 1 ;;
    esac
done <<<"$json"

# An injected lint fault must surface as CL000 and fail the run.
set +e
COBALT_FAULTS=lint.rule:fail@1 "$COBALT" lint >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 4 ]]; then
    echo "lint: fault-injected lint exited $code (want 4)"; exit 1
fi

echo "== journal stage (crash-safe resume)"

# Interrupted run: a tight report deadline kills the suite mid-way
# (exit 3, resource-limited) but journals whatever did prove.
journal=$(mktemp -u /tmp/cobalt_verify_journal_XXXXXX.cobj)
set +e
"$COBALT" verify --journal "$journal" --timeout 0.002 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "journal: interrupted verify exited $code (want 3)"; rm -f "$journal"; exit 1
fi
if [[ ! -s "$journal" ]]; then
    echo "journal: interrupted run left no journal file"; rm -f "$journal"; exit 1
fi

# Resume: the rerun replays the cached proofs and proves only the
# remainder — it must succeed outright and say so.
set +e
out=$("$COBALT" verify --journal "$journal" --resume 2>&1)
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "journal: resumed verify exited $code (want 0):"; echo "$out"; rm -f "$journal"; exit 1
fi
# A third run must be fully warm: no report may show a nonzero fresh
# count.
set +e
out=$("$COBALT" verify --journal "$journal" --resume 2>&1)
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "journal: warm verify exited $code (want 0)"; rm -f "$journal"; exit 1
fi
if ! grep -q "cached" <<<"$out"; then
    echo "journal: warm verify reported no cached obligations:"; echo "$out"; rm -f "$journal"; exit 1
fi
if grep -qE '\([0-9]+ cached, [1-9][0-9]* fresh\)' <<<"$out"; then
    echo "journal: warm verify still proved fresh obligations:"; echo "$out"; rm -f "$journal"; exit 1
fi
rm -f "$journal"

# Graceful degradation: an injected journal write failure must not
# change the verdict — the run completes uncached (exit 0) and says
# journaling was disabled.
journal=$(mktemp -u /tmp/cobalt_verify_journal_XXXXXX.cobj)
set +e
out=$(COBALT_FAULTS=journal.write:fail@1 "$COBALT" verify --journal "$journal" 2>&1)
code=$?
set -e
rm -f "$journal"
if [[ $code -ne 0 ]]; then
    echo "journal: write-fault verify exited $code (want 0):"; echo "$out"; exit 1
fi
if ! grep -q "journaling disabled" <<<"$out"; then
    echo "journal: write-fault verify did not report degradation:"; echo "$out"; exit 1
fi

echo "== parallel stage (supervised discharge)"

# Determinism: the full registry, buggy variants included, verified at
# --jobs 1 and --jobs 4 must produce byte-identical output once
# per-report wall-clock times are normalized away. (Verdicts, ids,
# order, attempt counts, the failed obligations of an unsound rule —
# everything observable except speed.)
normalize_times() { sed -E 's/ in [0-9]+(\.[0-9]+)?(ns|µs|ms|s)//g'; }
seq_out=$("$COBALT" verify --include-buggy 2>&1 | normalize_times)
par_out=$("$COBALT" verify --include-buggy --jobs 4 2>&1 | normalize_times)
if [[ "$seq_out" != "$par_out" ]]; then
    echo "parallel: --jobs 4 output diverged from --jobs 1:"
    diff <(echo "$seq_out") <(echo "$par_out") || true
    exit 1
fi
# And COBALT_JOBS is the same knob.
env_out=$(COBALT_JOBS=4 "$COBALT" verify --include-buggy 2>&1 | normalize_times)
if [[ "$seq_out" != "$env_out" ]]; then
    echo "parallel: COBALT_JOBS=4 output diverged from --jobs 1"; exit 1
fi
# A bad jobs value is a typed CLI error (exit 1), not a panic.
set +e
"$COBALT" verify --jobs 0 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 1 ]]; then
    echo "parallel: verify --jobs 0 exited $code (want 1)"; exit 1
fi

# A worker panic injected mid-batch is retried by the pool supervisor:
# same verdict, exit 0.
set +e
COBALT_FAULTS=pool.task:panic@3 "$COBALT" verify --jobs 4 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "parallel: worker-panic verify exited $code (want 0)"; exit 1
fi

# Two concurrent processes sharing one journal: the advisory lock
# serializes or degrades them, but both must exit 0.
journal=$(mktemp -u /tmp/cobalt_verify_journal_XXXXXX.cobj)
"$COBALT" verify --jobs 2 --journal "$journal" >/tmp/cobalt_par_a.$$ 2>&1 &
pid_a=$!
"$COBALT" verify --jobs 2 --journal "$journal" >/tmp/cobalt_par_b.$$ 2>&1 &
pid_b=$!
set +e
wait "$pid_a"; code_a=$?
wait "$pid_b"; code_b=$?
set -e
if [[ $code_a -ne 0 || $code_b -ne 0 ]]; then
    echo "parallel: concurrent journaled verifies exited $code_a/$code_b (want 0/0)"
    cat /tmp/cobalt_par_a.$$ /tmp/cobalt_par_b.$$
    rm -f "$journal" /tmp/cobalt_par_a.$$ /tmp/cobalt_par_b.$$
    exit 1
fi
rm -f /tmp/cobalt_par_a.$$ /tmp/cobalt_par_b.$$

# Lock-contention timeout: an injected journal.lock fault degrades to
# uncached verification — exit 0 with the "journaling disabled" note,
# never a hard failure.
set +e
out=$(COBALT_FAULTS=journal.lock:fail@1 "$COBALT" verify --jobs 4 --journal "$journal" 2>&1)
code=$?
set -e
rm -f "$journal"
if [[ $code -ne 0 ]]; then
    echo "parallel: lock-fault verify exited $code (want 0):"; echo "$out"; exit 1
fi
if ! grep -q "journaling disabled" <<<"$out"; then
    echo "parallel: lock-fault verify did not report degradation:"; echo "$out"; exit 1
fi

echo "== engine stage (governed, parallel, journaled optimize)"

# A small multi-procedure program with a loop, so per-procedure
# fixpoints do real work under --jobs and --timeout.
engine_prog=$(mktemp /tmp/cobalt_engine_prog_XXXXXX.il)
cat >"$engine_prog" <<'EOF'
proc main(x) {
    decl i;
    decl s;
    i := x;
    s := 0;
    if i goto 5 else 8;
    s := s + i;
    i := i - 1;
    if i goto 5 else 8;
    return s;
}
proc helper(n) {
    decl a;
    decl c;
    a := 2;
    c := a;
    return c;
}
EOF

# Determinism: optimized bytes at --jobs 1 and --jobs 4 must be
# identical — no normalization, the engine reports carry no timestamps.
opt_seq=$("$COBALT" optimize "$engine_prog" --jobs 1 2>&1)
opt_par=$("$COBALT" optimize "$engine_prog" --jobs 4 2>&1)
if [[ "$opt_seq" != "$opt_par" ]]; then
    echo "engine: optimize --jobs 4 output diverged from --jobs 1:"
    diff <(echo "$opt_seq") <(echo "$opt_par") || true
    rm -f "$engine_prog"; exit 1
fi

# Resource governance: an already-expired deadline must exit 3 (the
# printed program is unoptimized but correct), never hang or crash.
set +e
"$COBALT" optimize "$engine_prog" --timeout 0 >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "engine: optimize --timeout 0 exited $code (want 3)"; rm -f "$engine_prog"; exit 1
fi

# Fault injection: an injected fixpoint failure quarantines the pass —
# exit 0 with a degradation note, not a hard failure.
set +e
out=$(COBALT_FAULTS=engine.fixpoint:fail@1 "$COBALT" optimize "$engine_prog" 2>&1)
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "engine: fixpoint-fault optimize exited $code (want 0):"; echo "$out"; rm -f "$engine_prog"; exit 1
fi
if ! grep -q "degraded" <<<"$out"; then
    echo "engine: fixpoint-fault optimize did not report degradation:"; echo "$out"; rm -f "$engine_prog"; exit 1
fi

# Crash-safe journaling: a cold journaled run completes and records
# every procedure; the warm rerun replays them as cached with
# byte-identical program text (the resume path a killed run takes).
engine_journal=$(mktemp -u /tmp/cobalt_engine_journal_XXXXXX.cobj)
cold=$("$COBALT" optimize "$engine_prog" --journal "$engine_journal" 2>&1)
if [[ ! -s "$engine_journal" ]]; then
    echo "engine: journaled optimize left no journal file"; rm -f "$engine_prog" "$engine_journal"; exit 1
fi
warm=$("$COBALT" optimize "$engine_prog" --journal "$engine_journal" 2>&1)
if ! grep -q "procs cached" <<<"$warm"; then
    echo "engine: warm optimize replayed nothing:"; echo "$warm"; rm -f "$engine_prog" "$engine_journal"; exit 1
fi
if [[ "$(grep -v '^//' <<<"$cold")" != "$(grep -v '^//' <<<"$warm")" ]]; then
    echo "engine: warm optimize program text diverged from cold run"
    diff <(echo "$cold") <(echo "$warm") || true
    rm -f "$engine_prog" "$engine_journal"; exit 1
fi

# Journal trouble must degrade, not fail: an injected engine.journal
# fault leaves exit 0 with the "journaling disabled" note.
set +e
out=$(COBALT_FAULTS=engine.journal:fail@1 "$COBALT" optimize "$engine_prog" --journal "$engine_journal" 2>&1)
code=$?
set -e
rm -f "$engine_prog" "$engine_journal"
if [[ $code -ne 0 ]]; then
    echo "engine: journal-fault optimize exited $code (want 0):"; echo "$out"; exit 1
fi
if ! grep -q "journaling disabled" <<<"$out"; then
    echo "engine: journal-fault optimize did not report degradation:"; echo "$out"; exit 1
fi

# Correctness smoke over the benchmark's 40-procedure corpus: the
# traced replay labels before every pass and must print the session's
# bytes, and the interpreter oracle checks refinement. The last line is
# the run's JSON result.
last=$(perfbench/target/release/perfbench --workload optimize_generated --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0' <<<"$last"; then
    echo "engine: perfbench optimize_generated smoke failed:"; echo "$last"; exit 1
fi

echo "== serve stage (daemon, shared cache, drain)"

# A daemon with a proof-cache journal, hammered by concurrent clients:
# every client must exit 0, the daemon payload must be byte-identical
# to the one-shot CLI (normalized for wall-clock), and a warm replay
# must be byte-identical to the cold serve.
serve_port=$(mktemp -u /tmp/cobalt_serve_port_XXXXXX)
serve_journal=$(mktemp -u /tmp/cobalt_serve_journal_XXXXXX.cobj)
"$COBALT" serve --port-file "$serve_port" --journal "$serve_journal" --jobs 2 \
    >/tmp/cobalt_serve_log.$$ 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [[ -s "$serve_port" ]] && break; sleep 0.05; done
if [[ ! -s "$serve_port" ]]; then
    echo "serve: daemon never wrote its port file"; cat /tmp/cobalt_serve_log.$$; exit 1
fi
"$COBALT" client verify --include-buggy --port-file "$serve_port" >/tmp/cobalt_serve_a.$$ 2>&1 &
pid_a=$!
"$COBALT" client verify --include-buggy --port-file "$serve_port" >/tmp/cobalt_serve_b.$$ 2>&1 &
pid_b=$!
set +e
wait "$pid_a"; code_a=$?
wait "$pid_b"; code_b=$?
set -e
if [[ $code_a -ne 0 || $code_b -ne 0 ]]; then
    echo "serve: concurrent clients exited $code_a/$code_b (want 0/0)"
    cat /tmp/cobalt_serve_a.$$ /tmp/cobalt_serve_b.$$; exit 1
fi
if [[ "$(cat /tmp/cobalt_serve_a.$$)" != "$seq_out" ]]; then
    echo "serve: daemon payload diverged from one-shot CLI verify:"
    diff <(echo "$seq_out") /tmp/cobalt_serve_a.$$ || true
    exit 1
fi
warm_serve=$("$COBALT" client verify --include-buggy --port-file "$serve_port" 2>&1)
if [[ "$warm_serve" != "$(cat /tmp/cobalt_serve_a.$$)" ]]; then
    echo "serve: warm cache replay diverged from the cold serve"
    diff /tmp/cobalt_serve_a.$$ <(echo "$warm_serve") || true
    exit 1
fi
rm -f /tmp/cobalt_serve_a.$$ /tmp/cobalt_serve_b.$$

# The one-shot optimize prints the daemon's optimize payload byte for
# byte — no normalization at all (both run through cobalt-serve::exec).
"$COBALT" optimize examples/programs/redundant.il >/tmp/cobalt_opt_cli.$$ 2>/dev/null
"$COBALT" client optimize examples/programs/redundant.il --port-file "$serve_port" \
    >/tmp/cobalt_opt_served.$$ 2>/dev/null
if ! cmp -s /tmp/cobalt_opt_cli.$$ /tmp/cobalt_opt_served.$$; then
    echo "serve: daemon optimize payload diverged from one-shot CLI optimize:"
    diff /tmp/cobalt_opt_cli.$$ /tmp/cobalt_opt_served.$$ || true
    exit 1
fi
rm -f /tmp/cobalt_opt_cli.$$ /tmp/cobalt_opt_served.$$

# Graceful drain: an in-band shutdown must report the drain and the
# daemon process must exit 0 with a compacted journal left behind.
out=$("$COBALT" client shutdown --port-file "$serve_port" 2>&1)
if ! grep -q "draining" <<<"$out"; then
    echo "serve: shutdown did not report draining: $out"; exit 1
fi
set +e
wait "$serve_pid"; code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "serve: drained daemon exited $code (want 0):"; cat /tmp/cobalt_serve_log.$$; exit 1
fi
if [[ ! -s "$serve_journal" ]]; then
    echo "serve: drained daemon left no proof-cache journal"; exit 1
fi
rm -f "$serve_port" "$serve_journal" /tmp/cobalt_serve_log.$$

# Overload smoke: a one-slot queue behind a deliberately slow prover
# must answer the overflow client with a typed shed (exit 3 after
# retries), never a hang or a protocol error.
rm -f "$serve_port"
COBALT_FAULTS=checker.obligation:delay_ms@10 \
    "$COBALT" serve --port-file "$serve_port" --queue 1 --jobs 1 \
    >/tmp/cobalt_serve_log.$$ 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [[ -s "$serve_port" ]] && break; sleep 0.05; done
"$COBALT" client verify --port-file "$serve_port" >/dev/null 2>&1 &
pid_a=$!
"$COBALT" client verify --port-file "$serve_port" >/dev/null 2>&1 &
pid_b=$!
sleep 0.4
set +e
out=$("$COBALT" client verify --port-file "$serve_port" --retries 0 2>&1)
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "serve: overflow client exited $code (want 3, shed): $out"; exit 1
fi
set +e
wait "$pid_a"; wait "$pid_b"
set -e
"$COBALT" client shutdown --port-file "$serve_port" >/dev/null 2>&1
set +e
wait "$serve_pid"; code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "serve: overloaded daemon drained with exit $code (want 0)"; exit 1
fi
rm -f "$serve_port" /tmp/cobalt_serve_log.$$

# Cache-fault smoke: a broken proof-cache journal must degrade to
# uncached service (verdicts unchanged, exit 0) with a visible note —
# never change an answer.
rm -f "$serve_port"
serve_journal=$(mktemp -u /tmp/cobalt_serve_journal_XXXXXX.cobj)
COBALT_FAULTS=serve.cache:fail@1 \
    "$COBALT" serve --port-file "$serve_port" --journal "$serve_journal" \
    >/tmp/cobalt_serve_log.$$ 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [[ -s "$serve_port" ]] && break; sleep 0.05; done
set +e
out=$("$COBALT" client verify --port-file "$serve_port" 2>&1)
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "serve: cache-fault verify exited $code (want 0):"; echo "$out"; exit 1
fi
if ! grep -q "degraded" <<<"$out"; then
    echo "serve: cache-fault daemon did not report degradation:"; echo "$out"; exit 1
fi
"$COBALT" client shutdown --port-file "$serve_port" >/dev/null 2>&1
set +e
wait "$serve_pid"
set -e
rm -f "$serve_port" "$serve_journal" /tmp/cobalt_serve_log.$$

echo "== perf stage (verify_registry correctness smoke)"

# Correctness smoke over the benchmark's verify workload: the registry
# plus the section-6 unsound rule, proved rule by rule. The traced
# replay re-derives every obligation and must match the Verifier's
# verdicts; the oracles require every sound rule to prove and the
# unsound rule to be rejected. The last line is the run's JSON result.
last=$(perfbench/target/release/perfbench --workload verify_registry --seed 1 \
    --seconds 2 --trace 1 | tail -n 1)
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0' <<<"$last"; then
    echo "perf: perfbench verify_registry smoke failed:"; echo "$last"; exit 1
fi

# Build every paper-experiment bench and run each benchmark once
# (smoke mode), so a bench that no longer compiles or whose asserts
# fail (a rule stops proving, the section-6 rule proves, a validation
# fails) breaks here rather than at the next measurement.
echo "== cargo bench --offline -p cobalt-bench -- --test"
cargo bench --offline -p cobalt-bench -- --test

echo "verify: OK"
