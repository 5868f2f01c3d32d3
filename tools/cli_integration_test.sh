#!/bin/sh
# Integration test for the tlat CLI exit-code contract and --json
# output. Driven by ctest (tier1) with the binary path as $1.
#
# Pinned contract (tools/tlat_cli.cpp):
#   0  success (including asked-for help: `tlat help` / --help / -h
#      print the command summary on stdout)
#   1  runtime failure (unloadable trace, ...)
#   2  usage error (bad/duplicate/unknown option, bad scheme; the
#      same summary goes to stderr)
#   3  unknown command
set -u

TLAT=${1:?usage: cli_integration_test.sh <path-to-tlat>}
failures=0

# expect <expected-exit> <description> <args...>
expect() {
    want=$1
    what=$2
    shift 2
    "$TLAT" "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $what: expected exit $want, got $got (tlat $*)"
        failures=$((failures + 1))
    else
        echo "ok: $what (exit $got)"
    fi
}

expect 0 "list succeeds" list
expect 0 "help succeeds" help
expect 0 "--help succeeds" --help
expect 0 "-h succeeds" -h
expect 3 "unknown command" frobnicate

# Asked-for help goes to stdout and names every subcommand, so the
# surface stays discoverable as commands are added.
help_out=$("$TLAT" help 2>/dev/null)
for cmd in help list "trace convert" stats run profile disasm cost \
        compare ras cpi serve; do
    if ! printf '%s\n' "$help_out" | grep -q "$cmd"; then
        echo "FAIL: help output does not mention '$cmd'"
        failures=$((failures + 1))
    fi
done
if printf '%s\n' "$help_out" | grep -q "usage: tlat"; then
    echo "ok: help lists all subcommands on stdout"
else
    echo "FAIL: help output lacks the usage banner"
    failures=$((failures + 1))
fi
expect 2 "no arguments is a usage error"
expect 2 "unknown option" list --frobnicate
expect 2 "bad --budget value" run BTFN eqntott --budget twelve
expect 2 "bad --jobs value" compare BTFN --jobs 0
# 2^32 + 1 once narrowed to one thread; it is over the 256-thread
# bound and must be refused before any thread starts.
expect 2 "--jobs over the thread bound" compare BTFN --jobs 4294967297
# TLAT_JOBS has the same bound; 2^32 once narrowed to 0, i.e. every
# hardware thread, so this value starts no extra threads on any build.
jobs_err="${TMPDIR:-/tmp}/tlat_cli_jobs_$$.err"
TLAT_JOBS=4294967296 "$TLAT" compare BTFN --budget 1000 >/dev/null 2>"$jobs_err"
got=$?
if [ "$got" -eq 1 ] && grep -q "want 1 <= N <= 256" "$jobs_err"; then
    echo "ok: TLAT_JOBS over the thread bound (exit 1)"
else
    echo "FAIL: TLAT_JOBS=4294967296: expected exit 1 naming the bound," \
        "got $got"
    failures=$((failures + 1))
fi
# 2^64 + 1 once wrapped to 1 job; over-range numbers are now rejected.
TLAT_JOBS=18446744073709551617 "$TLAT" compare BTFN --budget 1000 \
    >/dev/null 2>"$jobs_err"
got=$?
if [ "$got" -eq 1 ] && grep -q "want 1 <= N <= 256" "$jobs_err"; then
    echo "ok: TLAT_JOBS over 2^64 - 1 (exit 1)"
else
    echo "FAIL: TLAT_JOBS=18446744073709551617: expected exit 1 naming" \
        "the bound, got $got"
    failures=$((failures + 1))
fi
rm -f "$jobs_err"
# Over-range numbers are rejected, not wrapped (2^64 + 1 measured one
# branch; 2^64 + 512 entries built a 512-entry AHRT).
expect 2 "--budget over 2^64 - 1" \
    run BTFN eqntott --budget 18446744073709551617
expect 2 "HRT entries over 2^64 - 1 (cost)" \
    cost "AT(AHRT(18446744073709552128,12SR),PT(2^12,A2),)"
expect 2 "missing option value" run BTFN eqntott --budget
expect 2 "duplicate option" run BTFN eqntott --budget 100 --budget 200
expect 2 "bad scheme name" run "NotAScheme(x)" eqntott
expect 2 "bad scheme name (profile)" profile "NotAScheme(x)" eqntott
expect 2 "bad scheme name (cpi)" cpi "NotAScheme(x)" eqntott
expect 2 "bad scheme name (compare)" compare "NotAScheme(x)"
expect 2 "wrong positional count" run BTFN

# Table geometries the predictor constructors cannot build are scheme
# name errors (exit 2), never an assertion abort.
expect 2 "AHRT entries not divisible by ways" \
    run "AT(AHRT(3,12SR),PT(2^12,A2),)" eqntott --budget 100
expect 2 "HHRT entries not a power of two" \
    run "AT(HHRT(3,12SR),PT(2^12,A2),)" eqntott --budget 100
expect 2 "LS AHRT entries not divisible by ways" \
    run "LS(AHRT(3,A2),,)" eqntott --budget 100
expect 2 "ST AHRT set count not a power of two" \
    run "ST(AHRT(6,12SR),PT(2^12,PB),Same)" eqntott --budget 100
expect 2 "AHRT far too large" \
    run "AT(AHRT(4096000000,12SR),PT(2^12,A2),)" eqntott --budget 100
expect 2 "bad geometry (cost)" cost "AT(AHRT(2,12SR),PT(2^12,A2),)"
expect 2 "bad geometry inside CMB (compare)" \
    compare "CMB(LS(HHRT(96,A2),,),BTFN,CT(2^4))" --budget 100

# A bad scheme name must list the valid spellings (including the
# combining grammar) on stderr so the notation is discoverable.
scheme_err=$("$TLAT" run "NotAScheme(x)" eqntott 2>&1 >/dev/null)
for example in "AT(AHRT" "GSH(" "CMB(" "BTFN"; do
    if ! printf '%s\n' "$scheme_err" | grep -qF "$example"; then
        echo "FAIL: bad-scheme stderr does not list '$example'"
        failures=$((failures + 1))
    fi
done
if printf '%s\n' "$scheme_err" | grep -q "bad scheme name 'NotAScheme(x)'"; then
    echo "ok: bad scheme name lists valid spellings on stderr"
else
    echo "FAIL: bad-scheme stderr lacks the offending name"
    failures=$((failures + 1))
fi
expect 1 "nonexistent trace file" run BTFN /nonexistent/trace.tltr

# A malformed text trace must fail at runtime with a line number.
tmpdir=${TMPDIR:-/tmp}
badtrace="$tmpdir/tlat_cli_bad_trace_$$.txt"
printf '1 100 C T\n2 200 C N extra\n' >"$badtrace"
"$TLAT" run BTFN "$badtrace" >/dev/null 2>"$badtrace.err"
got=$?
if [ "$got" -ne 1 ]; then
    echo "FAIL: malformed trace: expected exit 1, got $got"
    failures=$((failures + 1))
elif ! grep -q "line 2" "$badtrace.err"; then
    echo "FAIL: malformed trace error lacks line number:"
    cat "$badtrace.err"
    failures=$((failures + 1))
else
    echo "ok: malformed trace rejected with line number (exit 1)"
fi
rm -f "$badtrace" "$badtrace.err"

# A signed count, pc or target would wrap on an unsigned read (2^64-1
# instructions); stats must reject it with the line instead.
for signed in '# mix: -1 2 3 4 5\n1 40 c T\n:1' '-1 40 c T\n:1' \
    '1 40 C T\n40 -8 C N\n:2'; do
    printf '%b' "${signed%:*}" >"$badtrace"
    "$TLAT" stats "$badtrace" >/dev/null 2>"$badtrace.err"
    got=$?
    if [ "$got" -ne 1 ] || ! grep -q "line ${signed##*:}:" "$badtrace.err"; then
        echo "FAIL: signed text field: expected exit 1 naming line ${signed##*:}, got $got:"
        cat "$badtrace.err"
        failures=$((failures + 1))
    else
        echo "ok: signed text field rejected at line ${signed##*:} (exit 1)"
    fi
done
rm -f "$badtrace" "$badtrace.err"

# trace convert: text -> binary -> text must round-trip, each file's
# format given by its extension alone, with the documented exit codes
# on misuse. The format flags are gone: the --out extension decides.
expect 2 "convert without --out" trace convert some.txt
expect 2 "removed --to-binary option" trace convert a.txt --out b.tltr --to-binary
expect 2 "removed --to-text option" trace convert a.tltr --out b.txt --to-text
expect 1 "convert nonexistent input" trace convert /nonexistent/t.txt --out "$tmpdir/tlat_cli_out_$$.tltr"

conv_txt="$tmpdir/tlat_cli_conv_$$.txt"
conv_bin="$tmpdir/tlat_cli_conv_$$.tltr"
conv_back="$tmpdir/tlat_cli_conv_back_$$.txt"
# Headers written exactly as writeText renders them, so the text ->
# binary -> text round-trip compares byte-for-byte.
printf '# name: convtest\n# mix: 10 0 5 3 0\n1000 100 C T\n1004 2000 U N\n1008 100 c T\n' >"$conv_txt"
expect 0 "convert text to binary" trace convert "$conv_txt" --out "$conv_bin"
expect 0 "convert binary back to text" trace convert "$conv_bin" --out "$conv_back"
if cmp -s "$conv_txt" "$conv_back"; then
    echo "ok: trace convert round-trips text <-> binary"
else
    echo "FAIL: trace convert round-trip differs:"
    diff "$conv_txt" "$conv_back"
    failures=$((failures + 1))
fi
# The binary output must be loadable by the other commands too.
expect 0 "run on converted binary trace" run BTFN "$conv_bin"
# A record count the file cannot hold (2^40; the count sits at byte
# 60 behind the 8-byte name) is rejected, never an allocation abort.
bad_count="$tmpdir/tlat_cli_bad_count_$$.tltr"
cp "$conv_bin" "$bad_count"
printf '\000\000\000\000\000\001\000\000' |
    dd of="$bad_count" bs=1 seek=60 conv=notrunc 2>/dev/null
expect 1 "stats on a TLTR file with a corrupt record count" stats "$bad_count"
rm -f "$bad_count"

# Streamed binary->binary convert (the mmap chunk iterator) must be
# byte-identical to the whole-buffer text->binary conversion it
# copies, at any chunk size (TLAT_CHUNK_RECORDS is the one knob).
conv_stream="$tmpdir/tlat_cli_conv_stream_$$.tltr"
TLAT_CHUNK_RECORDS=2 "$TLAT" trace convert "$conv_bin" --out "$conv_stream" >/dev/null 2>&1
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: streamed binary convert: expected exit 0, got $got"
    failures=$((failures + 1))
else
    echo "ok: streamed binary convert (exit 0)"
fi
if cmp -s "$conv_stream" "$conv_bin"; then
    echo "ok: streamed convert is byte-identical to the whole-buffer convert"
else
    echo "FAIL: streamed convert output differs from the whole-buffer convert"
    failures=$((failures + 1))
fi

# run on a TLTR file streams; the result must match run on the text
# form of the same trace (which loads the whole buffer) byte-for-byte,
# chunked or not, JSON included. Only the JSON context's "source"
# names the file format, so it is normalized before the compare.
run_stream="$tmpdir/tlat_cli_run_stream_$$.txt"
run_whole="$tmpdir/tlat_cli_run_whole_$$.txt"
SCHEME="AT(IHRT(,6SR),PT(2^6,A2),)"
TLAT_CHUNK_RECORDS=1 "$TLAT" run "$SCHEME" "$conv_bin" >"$run_stream" 2>/dev/null
"$TLAT" run "$SCHEME" "$conv_txt" >"$run_whole" 2>/dev/null
if cmp -s "$run_stream" "$run_whole"; then
    echo "ok: streamed run matches the whole-buffer text run"
else
    echo "FAIL: streamed run differs from the whole-buffer text run"
    diff "$run_stream" "$run_whole"
    failures=$((failures + 1))
fi
TLAT_CHUNK_RECORDS=2 "$TLAT" run "$SCHEME" "$conv_bin" --json >"$run_stream" 2>/dev/null
"$TLAT" run "$SCHEME" "$conv_txt" --json 2>/dev/null |
    sed 's/"source": "text"/"source": "tltr"/' >"$run_whole"
if cmp -s "$run_stream" "$run_whole"; then
    echo "ok: streamed run --json matches the whole-buffer text run"
else
    echo "FAIL: streamed run --json differs from the whole-buffer text run"
    diff "$run_stream" "$run_whole" | head -20
    failures=$((failures + 1))
fi
expect 2 "removed --chunk-records option" run BTFN eqntott --chunk-records 2
expect 2 "removed --no-stream option" run BTFN eqntott --no-stream

# A file of many default chunks (~430k records: over three times the
# decode ring's depth of 4 x 32Ki-record chunks) keeps every ring slot
# busy and wraps the ring several times. run, run --json and
# profile --json must be byte-identical under the default chunking,
# a prime chunk size that straddles every default boundary, and one
# chunk larger than the file.
ring_bin="$tmpdir/tlat_cli_ring_$$.tltr"
ring_default="$tmpdir/tlat_cli_ring_default_$$.txt"
ring_sized="$tmpdir/tlat_cli_ring_sized_$$.txt"
"$TLAT" trace gcc --budget 300000 --out "$ring_bin" >/dev/null 2>&1
ring_ok=1
for command in "run $SCHEME" \
    "run CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^6)) --json" \
    "profile AT(AHRT(512,12SR),PT(2^12,A2),) --json"; do
    set -- $command
    verb=$1
    scheme=$2
    shift 2
    if ! "$TLAT" "$verb" "$scheme" "$ring_bin" "$@" >"$ring_default" 2>/dev/null; then
        echo "FAIL: tlat $verb on the multi-chunk file failed"
        ring_ok=0
        continue
    fi
    for chunking in 7919 1000000; do
        TLAT_CHUNK_RECORDS=$chunking "$TLAT" "$verb" "$scheme" "$ring_bin" "$@" \
            >"$ring_sized" 2>/dev/null
        if ! cmp -s "$ring_default" "$ring_sized"; then
            echo "FAIL: tlat $verb $* on the multi-chunk file differs at TLAT_CHUNK_RECORDS=$chunking"
            diff "$ring_default" "$ring_sized" | head -10
            ring_ok=0
        fi
    done
done
if [ "$ring_ok" -eq 1 ]; then
    echo "ok: multi-chunk file runs are byte-identical at every chunking"
else
    failures=$((failures + 1))
fi
rm -f "$ring_bin" "$ring_default" "$ring_sized"

# A corrupt record in a later chunk ends the metrics pipeline cleanly:
# run --json and profile --json exit 1 naming the record, with the
# sink stage stopped, both at two-record chunks and at the default
# (the bad record sits in the third 32Ki-record chunk).
late_bin="$tmpdir/tlat_cli_late_$$.tltr"
late_records=$("$TLAT" trace gcc --budget 60000 --out "$late_bin" 2>/dev/null |
    sed -n 's/^wrote \([0-9]*\) branch records.*/\1/p')
late_ok=1
if [ -z "$late_records" ] || [ "$late_records" -le 65636 ]; then
    echo "FAIL: the late-corruption file needs over 65636 records, got '$late_records'"
    late_ok=0
else
    # Record count-100's class byte: the record array ends the file.
    late_bad=$((late_records - 100))
    late_size=$(wc -c <"$late_bin")
    printf '\177' | dd of="$late_bin" bs=1 \
        seek=$((late_size - 100 * 18 + 16)) conv=notrunc 2>/dev/null
    for chunking in 2 ""; do
        for verb in run profile; do
            env ${chunking:+TLAT_CHUNK_RECORDS=$chunking} timeout 120 \
                "$TLAT" "$verb" "$SCHEME" "$late_bin" --json \
                >/dev/null 2>"$run_stream"
            got=$?
            if [ "$got" -ne 1 ] ||
                ! grep -q "corrupt record at index $late_bad\$" "$run_stream"; then
                echo "FAIL: $verb --json on a late corrupt record at chunking ${chunking:-default}: expected exit 1 naming index $late_bad, got $got:"
                cat "$run_stream"
                late_ok=0
            fi
        done
    done
fi
if [ "$late_ok" -eq 1 ]; then
    echo "ok: run/profile --json exit 1 on a corrupt record in a later chunk"
else
    failures=$((failures + 1))
fi
rm -f "$late_bin"

# A trace file's --json context names what was measured: the file's
# format and header record count, never a --budget (none applies to a
# file) and never the chunk size, so the document is byte-identical
# at TLAT_CHUNK_RECORDS 1, 2, 63 and the default.
gen_bin="$tmpdir/tlat_cli_gen_$$.tltr"
gen_records=$("$TLAT" trace espresso --budget 3000 --out "$gen_bin" 2>/dev/null |
    sed -n 's/^wrote \([0-9]*\) branch records.*/\1/p')
CMB_SMALL="CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^6))"
"$TLAT" run "$CMB_SMALL" "$gen_bin" --json >"$run_whole" 2>/dev/null
context_ok=1
for chunking in 1 2 63; do
    TLAT_CHUNK_RECORDS=$chunking "$TLAT" run "$CMB_SMALL" "$gen_bin" --json >"$run_stream" 2>/dev/null
    if ! cmp -s "$run_stream" "$run_whole"; then
        echo "FAIL: run --json on a file differs at TLAT_CHUNK_RECORDS=$chunking"
        diff "$run_stream" "$run_whole" | head -10
        context_ok=0
    fi
done
gen_txt="$tmpdir/tlat_cli_gen_$$.txt"
"$TLAT" trace convert "$gen_bin" --out "$gen_txt" >/dev/null 2>&1
"$TLAT" run "$CMB_SMALL" "$gen_txt" --json 2>/dev/null |
    sed 's/"source": "text"/"source": "tltr"/' >"$run_stream"
if ! cmp -s "$run_stream" "$run_whole"; then
    echo "FAIL: run --json on the whole-buffer text form differs"
    diff "$run_stream" "$run_whole" | head -10
    context_ok=0
fi
if [ -z "$gen_records" ]; then
    echo "FAIL: tlat trace did not report a record count"
    context_ok=0
elif ! grep -q '"source": "tltr"' "$run_whole" ||
    ! grep -q "\"records\": \"$gen_records\"" "$run_whole"; then
    echo "FAIL: file run context lacks source/records:"
    sed -n '/"context"/,/}/p' "$run_whole"
    context_ok=0
elif grep -q '"budget"' "$run_whole"; then
    echo "FAIL: file run context carries a budget"
    context_ok=0
fi
"$TLAT" run "ST(AHRT(64,6SR),PT(2^6,PB),Diff)" "$gen_bin" --train eqntott \
    --budget 2000 --json >"$run_stream" 2>/dev/null
if ! grep -q '"train": "eqntott"' "$run_stream" ||
    ! grep -q '"source": "tltr"' "$run_stream"; then
    echo "FAIL: trained file run context lacks train/source"
    context_ok=0
fi
"$TLAT" run BTFN eqntott --budget 2000 --json >"$run_stream" 2>/dev/null
if ! grep -q '"budget": "2000"' "$run_stream" ||
    grep -q '"source"' "$run_stream"; then
    echo "FAIL: benchmark run context should carry only the budget"
    context_ok=0
fi
# profile --json shares the context rule: a file has no budget.
"$TLAT" profile "$CMB_SMALL" "$gen_bin" --json >"$run_stream" 2>/dev/null
if ! grep -q '"source": "tltr"' "$run_stream" ||
    ! grep -q "\"records\": \"$gen_records\"" "$run_stream" ||
    grep -q '"budget"' "$run_stream"; then
    echo "FAIL: file profile context should carry source/records only:"
    sed -n '/"context"/,/}/p' "$run_stream"
    context_ok=0
fi
"$TLAT" profile BTFN eqntott --budget 2000 --json >"$run_stream" 2>/dev/null
if ! grep -q '"budget": "2000"' "$run_stream" ||
    grep -q '"source"' "$run_stream"; then
    echo "FAIL: benchmark profile context should carry only the budget"
    context_ok=0
fi
if [ "$context_ok" -eq 1 ]; then
    echo "ok: run/profile --json context records source, records and train"
else
    failures=$((failures + 1))
fi

# run, profile and cpi share one training protocol: --train wins,
# else a Diff scheme trains on its workload's training set, else on
# the measured trace. A Diff scheme with no training trace fails in
# every command.
ST_DIFF="ST(AHRT(64,6SR),PT(2^6,PB),Diff)"
ST_SAME="ST(AHRT(64,6SR),PT(2^6,PB),Same)"
for cmd in run profile cpi; do
    expect 1 "$cmd: Diff scheme on a benchmark without a training set" \
        "$cmd" "$ST_DIFF" eqntott --budget 2000
    expect 1 "$cmd: Diff scheme on a trace file without --train" \
        "$cmd" "$ST_DIFF" "$gen_bin"
done
protocol_ok=1
prof_json="$tmpdir/tlat_cli_prof_$$.json"
"$TLAT" run "$ST_DIFF" gcc --budget 5000 --json >"$run_stream" 2>/dev/null
"$TLAT" profile "$ST_DIFF" gcc --budget 5000 --json >"$prof_json" 2>/dev/null
if ! cmp -s "$run_stream" "$prof_json" ||
    ! grep -q '"train": "gcc"' "$run_stream"; then
    echo "FAIL: profile --json differs from run --json for a Diff scheme"
    diff "$run_stream" "$prof_json" | head -10
    protocol_ok=0
fi
"$TLAT" run "$ST_SAME" li --train "$gen_bin" --budget 5000 --json >"$run_stream" 2>/dev/null
"$TLAT" profile "$ST_SAME" li --train "$gen_bin" --budget 5000 --json >"$prof_json" 2>/dev/null
if ! cmp -s "$run_stream" "$prof_json" ||
    ! grep -q '"train": "espresso"' "$run_stream"; then
    echo "FAIL: profile --json differs from run --json with --train FILE"
    diff "$run_stream" "$prof_json" | head -10
    protocol_ok=0
fi
# cpi's direction flushes are the predictor's conditional misses, so
# with --train they equal run's, and differ from Same-data training.
flushes() {
    "$TLAT" cpi "$@" 2>/dev/null |
        sed -n 's/^| direction flushes *| *\([0-9]*\).*/\1/p'
}
run_misses=$(sed -n 's/^ *"misses": \([0-9]*\),$/\1/p' "$run_stream" | head -n 1)
trained=$(flushes "$ST_SAME" li --train "$gen_bin" --budget 5000)
same_data=$(flushes "$ST_SAME" li --budget 5000)
if [ -z "$trained" ] || [ "$trained" != "$run_misses" ] ||
    [ "$trained" = "$same_data" ]; then
    echo "FAIL: cpi ignores --train (flushes $trained, run misses" \
        "$run_misses, Same-data flushes $same_data)"
    protocol_ok=0
fi
# ST runs the chunked fused path: its trained file run --json and
# profile --json are byte-identical at every chunking.
for verb in run profile; do
    "$TLAT" "$verb" "$ST_SAME" "$gen_bin" --train "$gen_bin" --json \
        >"$run_whole" 2>/dev/null
    if ! grep -q '"train": "espresso"' "$run_whole"; then
        echo "FAIL: $verb --json of ST with --train FILE lacks its train"
        protocol_ok=0
    fi
    for chunking in 1 63; do
        TLAT_CHUNK_RECORDS=$chunking "$TLAT" "$verb" "$ST_SAME" "$gen_bin" \
            --train "$gen_bin" --json >"$run_stream" 2>/dev/null
        if ! cmp -s "$run_stream" "$run_whole"; then
            echo "FAIL: ST $verb --json differs at TLAT_CHUNK_RECORDS=$chunking"
            diff "$run_stream" "$run_whole" | head -10
            protocol_ok=0
        fi
    done
done
if [ "$protocol_ok" -eq 1 ]; then
    echo "ok: run, profile and cpi follow one training protocol"
else
    failures=$((failures + 1))
fi
rm -f "$prof_json"
rm -f "$conv_txt" "$conv_bin" "$conv_back" "$conv_stream" \
    "$run_stream" "$run_whole" "$gen_bin" "$gen_txt"

# run --json emits the schema-tagged document on stdout.
json=$("$TLAT" run BTFN eqntott --budget 2000 --json 2>/dev/null)
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: run --json: expected exit 0, got $got"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"schema": "tlat-run-metrics-v3"'; then
    echo "FAIL: run --json output lacks schema tag"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"top_offenders"'; then
    echo "FAIL: run --json output lacks top_offenders"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"h2p"'; then
    echo "FAIL: run --json output lacks the h2p section"
    failures=$((failures + 1))
else
    echo "ok: run --json emits tlat-run-metrics-v3"
fi

# profile --json uses the same schema.
json=$("$TLAT" profile BTFN eqntott --budget 2000 --json 2>/dev/null)
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: profile --json: expected exit 0, got $got"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"schema": "tlat-run-metrics-v3"'; then
    echo "FAIL: profile --json output lacks schema tag"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"systematic_misses"'; then
    echo "FAIL: profile --json output lacks the h2p taxonomy"
    failures=$((failures + 1))
else
    echo "ok: profile --json emits tlat-run-metrics-v3"
fi

# Text profile reads the same report as profile --json: its first
# ten rows are the document's top_offenders (pc, executions, misses),
# and its summary line is the h2p static sites, the miss rate and the
# share of all misses the top ten hold.
PROFILE_SCHEME="AT(AHRT(64,6SR),PT(2^6,A2),)"
prof_text="$tmpdir/tlat_cli_prof_text_$$.txt"
prof_json="$tmpdir/tlat_cli_prof_json_$$.json"
"$TLAT" profile "$PROFILE_SCHEME" gcc --budget 5000 >"$prof_text" 2>/dev/null
"$TLAT" profile "$PROFILE_SCHEME" gcc --budget 5000 --json >"$prof_json" 2>/dev/null
want_rows=$(awk -F'[:,] *' '
    /"top_offenders"/ { inside = 1 }
    inside && /"pc"/ { gsub(/"/, "", $2); pc = $2 }
    inside && /"executions"/ { execs = $2 }
    inside && /"mispredictions"/ { print pc, execs, $2; if (++n == 10) exit }
' "$prof_json")
got_rows=$(awk -F'|' '
    $2 ~ /^ *0x/ { gsub(/ /, ""); split($0, f, "|"); print f[2], f[3], f[4]
                   if (++n == 10) exit }
' "$prof_text")
want_summary=$(awk -F'[:,] *' '
    /"conditional_branches"/ { branches = $2 }
    /"top_offenders"/ { inside = 1 }
    inside && /"mispredictions"/ && n < 10 { top += $2; ++n }
    /"h2p"/ { inside = 0 }
    /"static_sites"/ { sites = $2 }
    /"total_mispredictions"/ { misses = $2 }
    END {
        printf "static branches: %d, total miss rate %6.2f %%; ", sites,
            100 * misses / branches
        printf "top-10 sites hold %6.2f %% of the misses\n",
            top / misses * 100
    }
' "$prof_json")
got_summary=$(grep '^static branches:' "$prof_text")
if [ -z "$want_rows" ] || [ "$got_rows" != "$want_rows" ]; then
    echo "FAIL: text profile rows differ from profile --json top_offenders"
    printf 'text:\n%s\njson:\n%s\n' "$got_rows" "$want_rows"
    failures=$((failures + 1))
elif [ "$got_summary" != "$want_summary" ]; then
    echo "FAIL: text profile summary differs from profile --json"
    printf 'text: %s\njson: %s\n' "$got_summary" "$want_summary"
    failures=$((failures + 1))
else
    echo "ok: text profile rows and summary match profile --json"
fi
rm -f "$prof_text" "$prof_json"

# Adversarial workloads resolve as benchmarks everywhere a SPEC
# mirror does.
expect 0 "run on adversarial kmp" run BTFN kmp --budget 2000
json=$("$TLAT" profile "AT(IHRT(,6SR),PT(2^6,A2),)" kmp --budget 2000 --json 2>/dev/null)
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: profile kmp --json: expected exit 0, got $got"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"h2p"'; then
    echo "FAIL: profile kmp --json lacks the h2p section"
    failures=$((failures + 1))
else
    echo "ok: adversarial kmp profiles with an h2p section"
fi

# Combining (tournament) schemes are first-class CLI citizens: run
# emits the chooser block, and compare is byte-identical regardless
# of the worker count.
CMB="CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^8))"
json=$("$TLAT" run "$CMB" eqntott --budget 2000 --json 2>/dev/null)
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: run combining --json: expected exit 0, got $got"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"combining"'; then
    echo "FAIL: combining run --json lacks the combining block"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"present": true'; then
    echo "FAIL: combining run --json lacks present: true"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"chooser_flips"'; then
    echo "FAIL: combining run --json lacks chooser_flips"
    failures=$((failures + 1))
else
    echo "ok: combining run --json emits the chooser block"
fi
# Non-combining runs keep the block, zeroed, with present: false.
json=$("$TLAT" run BTFN eqntott --budget 2000 --json 2>/dev/null)
if printf '%s' "$json" | grep -q '"present": false'; then
    echo "ok: non-combining run --json marks combining absent"
else
    echo "FAIL: non-combining run --json lacks present: false"
    failures=$((failures + 1))
fi

cmp_base="$tmpdir/tlat_cli_cmb_$$"
for jobs in 1 4 8; do
    "$TLAT" compare "$CMB" --budget 4000 --jobs "$jobs" \
        >"$cmp_base.j$jobs" 2>/dev/null
    got=$?
    if [ "$got" -ne 0 ]; then
        echo "FAIL: compare combining --jobs $jobs: exit $got"
        failures=$((failures + 1))
    fi
done
if cmp -s "$cmp_base.j1" "$cmp_base.j4" &&
    cmp -s "$cmp_base.j1" "$cmp_base.j8"; then
    echo "ok: combining compare byte-identical at --jobs 1/4/8"
else
    echo "FAIL: combining compare output differs across --jobs"
    diff "$cmp_base.j1" "$cmp_base.j4" | head -20
    diff "$cmp_base.j1" "$cmp_base.j8" | head -20
    failures=$((failures + 1))
fi
rm -f "$cmp_base.j1" "$cmp_base.j4" "$cmp_base.j8"
# Static Training columns, Same and Diff (skipped cells included).
for jobs in 1 4; do
    "$TLAT" compare "ST(AHRT(64,6SR),PT(2^6,PB),Same)" \
        "ST(IHRT(,6SR),PT(2^6,PB),Diff)" --budget 4000 --jobs "$jobs" \
        >"$cmp_base.j$jobs" 2>/dev/null || echo "exit $?" >>"$cmp_base.j$jobs"
done
if cmp -s "$cmp_base.j1" "$cmp_base.j4" && grep -q "ST(" "$cmp_base.j1"; then
    echo "ok: Static Training compare byte-identical at --jobs 1/4"
else
    echo "FAIL: Static Training compare differs across --jobs or failed"
    diff "$cmp_base.j1" "$cmp_base.j4" | head -20
    failures=$((failures + 1))
fi
rm -f "$cmp_base.j1" "$cmp_base.j4"

# serve: the multi-tenant engine behind --replay shares the exit-code
# contract (0 ok, 1 runtime, 2 usage) and emits tlat-serve-metrics-v1.
expect 2 "serve without --replay" serve BTFN
expect 2 "serve with zero shards" serve BTFN --replay "$tmpdir" --shards 0
expect 2 "serve with zero batch" serve BTFN --replay "$tmpdir" --batch-records 0
expect 2 "serve with non-power-of-two ring" serve BTFN --replay "$tmpdir" --ring-capacity 3
expect 2 "serve with shards over the thread bound" serve BTFN --replay "$tmpdir" --shards 4294967297
expect 2 "serve with ring over the slot bound" serve BTFN --replay "$tmpdir" --ring-capacity 2097152
expect 2 "serve rejects bad scheme" serve "NotAScheme(x)" --replay "$tmpdir"
expect 2 "serve rejects training scheme" serve "ST(HHRT(512,12SR),PT(2^12,PB),Diff)" --replay "$tmpdir"
expect 1 "serve on unreadable replay dir" serve BTFN --replay /nonexistent/replays
serve_dir="$tmpdir/tlat_cli_serve_$$"
mkdir -p "$serve_dir"
expect 1 "serve on empty replay dir" serve BTFN --replay "$serve_dir"
printf '# name: tenant-a\n# mix: 10 0 5 3 0\n1000 100 C T\n1004 2000 U N\n1008 100 c T\n1000 100 C T\n' >"$serve_dir/tenant_a.txt"
printf '# name: tenant-b\n# mix: 10 0 5 3 0\n2000 100 C N\n2004 100 C N\n2008 100 c T\n' >"$serve_dir/tenant_b.txt"
expect 0 "serve replays a trace directory" serve "$SCHEME" --replay "$serve_dir"
json=$("$TLAT" serve "$SCHEME" --replay "$serve_dir" --shards 2 --json 2>/dev/null)
got=$?
if [ "$got" -ne 0 ]; then
    echo "FAIL: serve --json: expected exit 0, got $got"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"schema": "tlat-serve-metrics-v1"'; then
    echo "FAIL: serve --json output lacks schema tag"
    failures=$((failures + 1))
elif ! printf '%s' "$json" | grep -q '"tenant": "tenant_a.txt"'; then
    echo "FAIL: serve --json output lacks the tenant entries"
    failures=$((failures + 1))
else
    echo "ok: serve --json emits tlat-serve-metrics-v1"
fi
# The determinism contract at CLI granularity: the metrics document
# is byte-identical across shard counts and batch sizes.
serve_a="$tmpdir/tlat_cli_serve_a_$$.json"
serve_b="$tmpdir/tlat_cli_serve_b_$$.json"
"$TLAT" serve "$SCHEME" --replay "$serve_dir" --shards 1 --batch-records 1 --json >"$serve_a" 2>/dev/null
"$TLAT" serve "$SCHEME" --replay "$serve_dir" --shards 4 --batch-records 64 --json >"$serve_b" 2>/dev/null
if cmp -s "$serve_a" "$serve_b"; then
    echo "ok: serve --json byte-identical across shards/batch"
else
    echo "FAIL: serve --json differs across shards/batch"
    diff "$serve_a" "$serve_b" | head -20
    failures=$((failures + 1))
fi
rm -rf "$serve_dir" "$serve_a" "$serve_b"

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed"
    exit 1
fi
echo "all CLI integration checks passed"
