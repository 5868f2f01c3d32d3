#!/bin/sh
# Fixture-driven self-test for tools/tlat_lint.py, run by ctest
# (tier1) with the repository root as $1.
#
# Each directory under tests/lint_fixtures/ is a miniature source
# tree. The meta-check at the bottom enforces the fixture contract
# structurally: every rule the linter registers must have a firing
# fixture (directory named after the rule, dashes as underscores)
# that makes the linter fail mentioning that rule, and a clean
# fixture (clean_<rule>) that lints with exit 0. Together with the
# `tlat_lint` ctest entry (the real tree must be clean), this pins
# both directions for every rule: the rule fires, and the tree obeys
# it. A rule added without fixtures fails this script, not review.
set -u

ROOT=${1:?usage: tlat_lint_test.sh <repo-root>}
LINT="$ROOT/tools/tlat_lint.py"
FIXTURES="$ROOT/tests/lint_fixtures"
PYTHON=${PYTHON:-python3}
failures=0

# expect_rule <fixture-dir> <rule-name>: lint must exit 1 and report
# the named rule at least once.
expect_rule() {
    fixture=$1
    rule=$2
    out=$("$PYTHON" "$LINT" --root "$FIXTURES/$fixture" 2>&1)
    status=$?
    if [ "$status" -ne 1 ]; then
        echo "FAIL: $fixture: expected exit 1, got $status"
        echo "$out"
        failures=$((failures + 1))
    elif ! printf '%s' "$out" | grep -q "\[$rule\]"; then
        echo "FAIL: $fixture: no [$rule] finding in output:"
        echo "$out"
        failures=$((failures + 1))
    else
        echo "ok: $fixture triggers [$rule]"
    fi
}

# expect_clean <fixture-dir>: lint must exit 0 with no findings.
expect_clean() {
    fixture=$1
    out=$("$PYTHON" "$LINT" --root "$FIXTURES/$fixture" 2>&1)
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAIL: $fixture: expected clean exit 0, got $status:"
        echo "$out"
        failures=$((failures + 1))
    else
        echo "ok: $fixture lints clean"
    fi
}

# Extra firing fixtures beyond the one-per-rule minimum: the
# two manifest-row batch-twin variants, a second schema constant, and
# the orphan kernel file that never names its twin.
expect_rule batch_twin_soa batch-twin
expect_rule batch_twin_combining batch-twin
expect_rule schema_once_v3 schema-once
expect_rule simd_twin_orphan simd-twin

# The serve SPSC allowance is one exact path, not a directory: the
# firing tree's src/serve/mailbox.hh (raw std::atomic in a serve file
# that is not spsc_ring.hh) must be named in the findings, while the
# clean tree's src/serve/spsc_ring.hh (same spelling, sanctioned
# path) rides through the clean_lock_discipline expect_clean below.
out=$("$PYTHON" "$LINT" --root "$FIXTURES/lock_discipline" 2>&1)
if ! printf '%s' "$out" | grep -q "src/serve/mailbox\.hh.*\[lock-discipline\]"; then
    echo "FAIL: lock_discipline: src/serve/mailbox.hh did not fire:"
    echo "$out"
    failures=$((failures + 1))
else
    echo "ok: serve lookalike outside spsc_ring.hh still fires"
fi

# The raw_rand fixture packs several sources; all four must be caught.
out=$("$PYTHON" "$LINT" --root "$FIXTURES/raw_rand" 2>&1)
count=$(printf '%s\n' "$out" | grep -c "\[raw-rand\]")
if [ "$count" -lt 4 ]; then
    echo "FAIL: raw_rand: expected >=4 findings, got $count"
    echo "$out"
    failures=$((failures + 1))
else
    echo "ok: raw_rand reports $count distinct sources"
fi

# Sanctioned escapes must not fire: justified suppression comment,
# the collect-then-sort ordered projection, and intrinsics inside the
# util/simd kernel family with the scalar twin named.
expect_clean suppressed

# Raw-string regression: the hostile R"tl(...)tl" literal (embedded
# quotes, a )" that would fool a naive delimiter scan, // text,
# rand() text) must contribute nothing, while the one real
# std::rand() after it still fires — exactly one finding.
out=$("$PYTHON" "$LINT" --root "$FIXTURES/raw_string_scan" 2>&1)
status=$?
count=$(printf '%s\n' "$out" | grep -c "\[raw-rand\]")
if [ "$status" -ne 1 ] || [ "$count" -ne 1 ]; then
    echo "FAIL: raw_string_scan: want exit 1 with exactly one" \
         "raw-rand finding, got exit $status with $count:"
    echo "$out"
    failures=$((failures + 1))
else
    echo "ok: raw string scanned as one literal, real finding kept"
fi

# Line-continuation regression: a // comment ending in a backslash
# splices the next physical line (which spells srand/rand/time) into
# the comment; the tree must lint clean.
expect_clean line_continuation

# A malformed allow() must not shield the finding under it: the
# bad_suppression tree reports the raw-rand findings AND the
# bad-suppression diagnostics.
out=$("$PYTHON" "$LINT" --root "$FIXTURES/bad_suppression" 2>&1)
if ! printf '%s' "$out" | grep -q "\[raw-rand\]"; then
    echo "FAIL: bad_suppression: malformed allow() suppressed the" \
         "underlying raw-rand finding:"
    echo "$out"
    failures=$((failures + 1))
else
    echo "ok: malformed allow() suppresses nothing"
fi

# The --json report must carry its schema tag and the same finding
# count the text mode exits on (CI uploads this as an artifact).
out=$("$PYTHON" "$LINT" --root "$FIXTURES/raw_rand" --json 2>/dev/null)
if ! printf '%s' "$out" | grep -q '"schema": "tlat-lint-report-v1"'; then
    echo "FAIL: --json report missing schema tlat-lint-report-v1:"
    echo "$out"
    failures=$((failures + 1))
else
    echo "ok: --json report carries its schema tag"
fi

# Meta-check: every registered rule must have a firing fixture
# (<rule> with dashes as underscores) and a clean fixture
# (clean_<rule>). --list-rules is the single source of truth, so a
# rule added to the linter without fixtures fails right here.
rules=$("$PYTHON" "$LINT" --list-rules | awk '{print $1}')
if [ -z "$rules" ]; then
    echo "FAIL: --list-rules returned no rules"
    failures=$((failures + 1))
fi
for rule in $rules; do
    dir=$(printf '%s' "$rule" | tr '-' '_')
    if [ ! -d "$FIXTURES/$dir" ]; then
        echo "FAIL: rule $rule has no firing fixture $dir/"
        failures=$((failures + 1))
    else
        expect_rule "$dir" "$rule"
    fi
    if [ ! -d "$FIXTURES/clean_$dir" ]; then
        echo "FAIL: rule $rule has no clean fixture clean_$dir/"
        failures=$((failures + 1))
    else
        expect_clean "clean_$dir"
    fi
done
echo "ok: every registered rule has firing and clean fixtures"

if [ "$failures" -ne 0 ]; then
    echo "$failures lint self-test(s) failed"
    exit 1
fi
echo "all tlat-lint fixture checks passed"
