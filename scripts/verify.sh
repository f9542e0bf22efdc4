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

# A misspelled flag is an error (exit 1), never silently dropped: here
# it would otherwise skip the §6 regression check and still exit 0.
set +e
err=$("$COBALT" verify --include-bugy 2>&1 >/dev/null)
code=$?
set -e
if [[ $code -ne 1 ]] || ! grep -q "unknown flag" <<<"$err"; then
    echo "robustness: verify --include-bugy exited $code (want 1, unknown flag):"; echo "$err"; exit 1
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

# Lint and `run` state §3.1 well-formedness once (`cobalt_il::violations`):
# a duplicate procedure, which `run` and `optimize` reject, is IL008 and
# fails lint with exit 4.
dup_il=$(mktemp /tmp/cobalt_lint_dup_XXXXXX.il)
printf 'proc main(x) { y := f(x); return y; } proc f(a) { return a; } proc f(b) { decl c; return b; }\n' >"$dup_il"
set +e
out=$("$COBALT" lint "$dup_il" 2>/dev/null)
code=$?
set -e
rm -f "$dup_il"
if [[ $code -ne 4 || "$out" != *IL008* ]]; then
    echo "lint: duplicate procedure exited $code (want 4, naming IL008)"; exit 1
fi

# Rules read the IL's tokens: a statement pattern may use any IL
# operator, here `!=`, and the rule lints clean. Its witness names the
# expression through `E`: the checker cannot encode `eta(A != B)`, and
# lint says so with CL011 (exit 4). Its template is a variable: the
# checker cannot prove a template that applies an operator, and lint
# says so with CL012 (exit 4).
ne_cob=$(mktemp /tmp/cobalt_lint_ne_XXXXXX.cob)
ne_rule() {
    printf 'forward ne_cse {\n    %s\n    followed by !mayDef(Y) && !mayDef(A) && !mayDef(B)\n    until X := A != B => X := Y\n    with witness %s\n}\n' "$1" "$2"
}
ne_rule 'stmt(Y := E) && stmt(Y := A != B)' 'eta(Y) == eta(E)' >"$ne_cob"
set +e
"$COBALT" lint "$ne_cob" >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "lint: a rule using \`!=\` exited $code (want 0)"; rm -f "$ne_cob"; exit 1
fi
ne_rule 'stmt(Y := A != B)' 'eta(Y) == eta(A != B)' >"$ne_cob"
set +e
out=$("$COBALT" lint "$ne_cob" 2>/dev/null)
code=$?
set -e
if [[ $code -ne 4 || "$out" != *CL011* ]]; then
    echo "lint: witness \`eta(A != B)\` exited $code (want 4, naming CL011)"; rm -f "$ne_cob"; exit 1
fi
printf 'local ne { rewrite X := A != B => X := B != A }\n' >"$ne_cob"
set +e
out=$("$COBALT" lint "$ne_cob" 2>/dev/null)
code=$?
set -e
rm -f "$ne_cob"
if [[ $code -ne 4 || "$out" != *CL012* ]]; then
    echo "lint: template \`X := B != A\` exited $code (want 4, naming CL012)"; exit 1
fi

# Semantic labels come into scope as `verify` gives them meaning, so
# lint fails (exit 4) where `verify` refuses: a label no analysis
# defines (CL003), one an analysis uses before the analysis that
# defines it (CL003), and a redefinition of `notTainted` with another
# witness (CL013).
lint_label_case() {
    local want=$1 cob
    shift
    cob=$(mktemp /tmp/cobalt_lint_label_XXXXXX.cob)
    printf '%s\n' "$@" >"$cob"
    set +e
    out=$("$COBALT" lint "$cob" 2>/dev/null)
    code=$?
    set -e
    rm -f "$cob"
    if [[ $code -ne 4 || "$out" != *"error[$want]"* ]]; then
        echo "lint: $* exited $code (want 4, naming $want):"; echo "$out"; exit 1
    fi
}
lint_label_case CL003 \
    'forward bad_prop { stmt(Y := C) followed by myLabel(Y) until X := Y => X := C with witness eta(Y) == C }'
lint_label_case CL003 \
    'analysis early { stmt(decl X) followed by myLabel(X) defines early(X) with witness notPointedTo(X) }' \
    'analysis mytaint { stmt(decl X) followed by !stmt(... := &X) defines myLabel(X) with witness notPointedTo(X) }'
lint_label_case CL013 \
    'analysis zero { stmt(X := 0) followed by !mayDef(X) defines notTainted(X) with witness eta(X) == 0 }'

# An injected lint fault must surface as CL000 and fail the run.
set +e
COBALT_FAULTS=lint.rule:fail@1 "$COBALT" lint >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 4 ]]; then
    echo "lint: fault-injected lint exited $code (want 4)"; exit 1
fi

echo "== verify stage (analysis-defined labels)"

# A label an analysis defines means that analysis's verified witness.
# Here `myLabel` means only notPointedTo(X), which does not keep Y's
# value, so `bad_prop` is unsound: verify rejects it (exit 2, the same
# 14 F2 failures as under the built-in notTainted) and hunt, which runs
# the file's analyses, finds the miscompile. A label no analysis gives
# a meaning is refused (exit 1), never read as false.
hole_cob=$(mktemp /tmp/cobalt_hole_XXXXXX.cob)
printf '%s\n' \
    'analysis mytaint { stmt(decl X) followed by !stmt(... := &X) defines myLabel(X) with witness notPointedTo(X) }' \
    'forward bad_prop { stmt(Y := C) followed by myLabel(Y) until X := Y => X := C with witness eta(Y) == C }' \
    >"$hole_cob"
set +e
out=$("$COBALT" verify "$hole_cob" 2>/dev/null)
code=$?
hunt=$("$COBALT" hunt "$hole_cob" 2>&1)
sed -i 1d "$hole_cob"
err=$("$COBALT" verify "$hole_cob" 2>&1 >/dev/null)
code_unknown=$?
set -e
rm -f "$hole_cob"
if [[ $code -ne 2 ]] || ! grep -qF '  FAILED F2/assign_const' <<<"$out"; then
    echo "verify: the analysis-label suite exited $code (want 2, FAILED F2/assign_const):"; echo "$out"; exit 1
fi
if ! grep -qF 'counterexample found for `bad_prop`' <<<"$hunt"; then
    echo "verify: hunt found no counterexample for the analysis-label suite:"; echo "$hunt"; exit 1
fi
if [[ $code_unknown -ne 1 ]] || ! grep -qF '`myLabel`' <<<"$err"; then
    echo "verify: a label with no verified meaning exited $code_unknown (want 1, naming it):"; echo "$err"; exit 1
fi

# A refusal keeps the reports before it: `bad` fails, so `myLabel` has
# no meaning and the rule using it is refused (exit 1). `bad`'s FAILED
# lines, which say why, are on stdout; the refusal is on stderr.
bad_cob=$(mktemp /tmp/cobalt_refused_XXXXXX.cob)
printf '%s\n' \
    'analysis bad { stmt(decl X) followed by true defines myLabel(X) with witness notPointedTo(X) }' \
    'forward use_bad { stmt(Y := C) followed by myLabel(Y) until X := Y => X := C with witness eta(Y) == C }' \
    >"$bad_cob"
set +e
out=$("$COBALT" verify "$bad_cob" 2>/tmp/cobalt_refused_err.$$)
code=$?
set -e
err=$(cat /tmp/cobalt_refused_err.$$)
rm -f "$bad_cob" /tmp/cobalt_refused_err.$$
if [[ $code -ne 1 ]] || ! grep -q '^  FAILED A2/' <<<"$out" || ! grep -qF '`myLabel`' <<<"$err"; then
    echo "verify: a late refusal exited $code (want 1, bad's FAILED lines, then the refusal):"
    echo "$out"; echo "$err"; exit 1
fi

# A `$`-variable only a statement atom names is local to it, in the
# checker as in the engine: `noStore(Y)` excludes every pointer store,
# so constant propagation under it proves, and the §6 rule's region
# admits no store or call, so it builds no F2 obligation for one.
nostore_cob=$(mktemp /tmp/cobalt_nostore_XXXXXX.cob)
printf '%s\n' \
    'label noStore(Y) { !stmt(*$Q := ...) && !mayDef(Y) }' \
    'forward nostore_prop { stmt(Y := C) followed by noStore(Y) until X := Y => X := C with witness eta(Y) == C }' \
    >"$nostore_cob"
set +e
out=$("$COBALT" verify "$nostore_cob" 2>&1)
code=$?
set -e
rm -f "$nostore_cob"
if [[ $code -ne 0 ]] || ! grep -qF 'nostore_prop: 19/19 obligations proved' <<<"$out"; then
    echo "verify: the noStore suite exited $code (want 0, 19/19):"; echo "$out"; exit 1
fi
# Every statement kind the engine admits into a region is a shape the
# checker enumerates, an operator on two constants included
# (`F2/assign_op2cc`): const_prop proves 29 obligations, and the §6
# rule fails that one too.
out=$("$COBALT" verify --include-buggy 2>&1)
if ! grep -qF 'const_prop: 29/29 obligations proved' <<<"$out"; then
    echo "verify: const_prop should read 29/29:"; echo "$out"; exit 1
fi
if ! grep -qF 'buggy_load_elim_no_alias: 5/17 obligations proved' <<<"$out" \
    || grep -qE 'F2/(store|call)_' <<<"$out"; then
    echo "verify: the §6 rule should read 5/17 with no F2/store_ or F2/call_ obligation:"; echo "$out"; exit 1
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

# A journal path that cannot be opened degrades the same way: exit 0,
# uncached, with the note.
missing_dir=$(mktemp -d /tmp/cobalt_verify_missing_XXXXXX)
set +e
out=$("$COBALT" verify --journal "$missing_dir/missing/j" 2>&1)
code=$?
set -e
rm -rf "$missing_dir"
if [[ $code -ne 0 ]] || ! grep -q "journaling disabled" <<<"$out"; then
    echo "journal: unopenable-journal verify exited $code (want 0, degraded):"; echo "$out"; exit 1
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

# The supervisor runs at every job count: at --jobs 1 the calling
# thread drains the pool, so the same fault fires (its panic message
# reaches stderr), is retried, and stdout matches the unfaulted run.
plain_out=$("$COBALT" verify --jobs 1 2>/dev/null | normalize_times)
set +e
faulted_out=$(COBALT_FAULTS=pool.task:panic@3 "$COBALT" verify --jobs 1 \
    2>/tmp/cobalt_pool_err.$$)
code=$?
set -e
if [[ $code -ne 0 ]] || ! grep -q "pool.task" /tmp/cobalt_pool_err.$$; then
    echo "parallel: --jobs 1 worker-panic verify exited $code (want 0, fault fired):"
    cat /tmp/cobalt_pool_err.$$; rm -f /tmp/cobalt_pool_err.$$; exit 1
fi
rm -f /tmp/cobalt_pool_err.$$
if [[ "$(normalize_times <<<"$faulted_out")" != "$plain_out" ]]; then
    echo "parallel: --jobs 1 worker-panic output diverged from the unfaulted run:"
    diff <(echo "$plain_out") <(normalize_times <<<"$faulted_out") || true
    exit 1
fi

# Without --journal nothing is cached: a rule stated twice is proved
# twice, never replayed.
twice=$(mktemp /tmp/cobalt_twice_XXXXXX.cob)
for _ in 1 2; do
    printf 'forward const_prop {\n    stmt(Y := C)\n    followed by !mayDef(Y)\n' >>"$twice"
    printf '    until X := Y => X := C\n    with witness eta(Y) == C\n}\n' >>"$twice"
done
out=$("$COBALT" verify "$twice" 2>&1)
rm -f "$twice"
if [[ $(grep -c "const_prop: 29/29 obligations proved" <<<"$out") -ne 2 ]] || grep -q "cached" <<<"$out"; then
    echo "parallel: a rule stated twice without a journal was not proved twice:"; echo "$out"; exit 1
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

# Recursive DAE (paper §5.2) runs in the session's per-procedure task:
# it removes a mutually-dead loop cycle that plain DAE keeps, its
# removals count in the summary and in --json, it spends --max-steps per
# procedure, and when it runs out it keeps the program and names the
# skipped pass (exit 3).
dead_cycle='proc main(x) { decl a; decl b; decl i; i := x; a := b + 1; b := a + 1; i := i - 1; if i goto 4 else 8; return x; }'
rdae_prog=$(mktemp /tmp/cobalt_rdae_XXXXXX.il)
rdae_copies=$(mktemp /tmp/cobalt_rdae_copies_XXXXXX.il)
echo "$dead_cycle" >"$rdae_prog"
for name in main c1 c2 c3; do echo "${dead_cycle/main/$name}"; done >"$rdae_copies"
set +e
out=$("$COBALT" optimize "$rdae_prog" --recursive-dae --jobs 2 2>&1)
json=$("$COBALT" optimize "$rdae_prog" --recursive-dae --json 2>&1)
copies=$("$COBALT" optimize "$rdae_copies" --recursive-dae --max-steps 120 2>/dev/null)
code_copies=$?
short=$("$COBALT" optimize "$rdae_prog" --recursive-dae --max-steps 20 2>/dev/null)
code_short=$?
set -e
rm -f "$rdae_prog" "$rdae_copies"
if ! grep -qx '// 2 rewrites in 1 rounds' <<<"$out" || ! grep -qF '/* 4 */ skip;' <<<"$out" \
    || ! grep -qF '/* 5 */ skip;' <<<"$out"; then
    echo "engine: recursive DAE did not remove the dead cycle:"; echo "$out"; exit 1
fi
if ! grep -qF '"applied":2,' <<<"$json"; then
    echo "engine: --recursive-dae --json does not count the removed sites:"; echo "$json"; exit 1
fi
if [[ $code_copies -ne 0 ]] || ! grep -qx '// 8 rewrites in 1 rounds' <<<"$copies"; then
    echo "engine: recursive DAE on four procedures at --max-steps 120 exited $code_copies (want 0, 8 rewrites):"
    echo "$copies"; exit 1
fi
if [[ $code_short -ne 3 ]] || ! grep -q '^proc main' <<<"$short"; then
    echo "engine: recursive DAE at --max-steps 20 exited $code_short (want 3, program on stdout):"
    echo "$short"; exit 1
fi

# Correctness smoke over the benchmark's 40-procedure corpus: the
# traced replay labels before every pass and must print the session's
# bytes, and the interpreter oracle checks refinement. The last line is
# the run's JSON result.
engine_smoke=$(perfbench/target/release/perfbench --workload optimize_generated --seed 1 \
    --seconds 2 --trace 1)
last=$(tail -n 1 <<<"$engine_smoke")
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0' <<<"$last"; then
    echo "engine: perfbench optimize_generated smoke failed:"; echo "$last"; exit 1
fi
# The rewrites themselves, not only their refinement: the traced replay
# runs each procedure of the seed-1 corpus through every pass, so a
# speed change that adds or drops a legal site, a rewrite, a round or
# an analysis run fails here.
for want in "engine.sites = 3900" "engine.applied = 2602" "engine.rounds = 120" \
    "engine.analysis_calls = 1320"; do
    if ! grep -qx "metric $want count" <<<"$engine_smoke"; then
        echo "engine: optimize_generated smoke: want $want, got:"
        grep -E '^metric engine\.(sites|applied|rounds|analysis_calls) ' <<<"$engine_smoke"
        exit 1
    fi
done

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

# Signal drain: SIGTERM funnels into the same drain as an in-band
# shutdown, so the daemon exits 0 and leaves its proof-cache journal.
serve_journal=$(mktemp -u /tmp/cobalt_serve_journal_XXXXXX.cobj)
"$COBALT" serve --port-file "$serve_port" --journal "$serve_journal" \
    >/tmp/cobalt_serve_log.$$ 2>&1 &
serve_pid=$!
for _ in $(seq 1 200); do [[ -s "$serve_port" ]] && break; sleep 0.05; done
if ! "$COBALT" client verify --port-file "$serve_port" >/dev/null 2>&1; then
    echo "serve: client verify failed before SIGTERM"; cat /tmp/cobalt_serve_log.$$; exit 1
fi
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"; code=$?
set -e
if [[ $code -ne 0 ]]; then
    echo "serve: SIGTERM-drained daemon exited $code (want 0):"; cat /tmp/cobalt_serve_log.$$; exit 1
fi
if [[ ! -s "$serve_journal" ]]; then
    echo "serve: SIGTERM-drained daemon left no proof-cache journal"; exit 1
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
smoke=$(perfbench/target/release/perfbench --workload verify_registry --seed 1 \
    --seconds 2 --trace 1)
last=$(tail -n 1 <<<"$smoke")
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0' <<<"$last"; then
    echo "perf: perfbench verify_registry smoke failed:"; echo "$last"; exit 1
fi
# The search itself, not only its verdicts: every obligation gets a
# fresh solver, so these counts do not depend on the seed, and a speed
# change that moves a split, an instance or a branch fails here. The
# default retry policy is one tier, so each obligation is one attempt
# and nothing escalates.
for want in "verify.obligations = 278" "verify.attempts = 278" "verify.escalations = 0" \
    "logic.calls = 278" "logic.splits = 2411" "logic.instances = 5477" \
    "logic.branches = 2640"; do
    if ! grep -qx "metric $want count" <<<"$smoke"; then
        echo "perf: verify_registry smoke: want $want, got:"
        grep -E '^metric (verify\.(obligations|attempts|escalations)|logic\.(calls|splits|instances|branches)) ' <<<"$smoke"
        exit 1
    fi
done

# Build every paper-experiment bench and run each benchmark once
# (smoke mode), so a bench that no longer compiles or whose asserts
# fail (a rule stops proving, the section-6 rule proves, a validation
# fails) breaks here rather than at the next measurement.
echo "== cargo bench --offline -p cobalt-bench -- --test"
cargo bench --offline -p cobalt-bench -- --test

echo "verify: OK"
