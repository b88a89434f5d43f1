#!/bin/sh
# CI gate: formatting, vet, build, and the full test suite under the
# race detector. Run from the repository root.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== fused multiply-add gate =="
# The Go spec lets the compiler fuse x*y + z into one fused multiply-add,
# and it does so off amd64. That changes float results per architecture:
# figures, cache payloads and even generated guest images. Every product
# that meets a sum is rounded explicitly (float64(x*y) + z), which is
# what amd64 computes. Cross-compile for four fusing architectures and
# fail on any fused instruction attributed to a repository source line.
asm=$(mktemp)
for arch in arm64 ppc64le s390x riscv64; do
    if ! GOARCH=$arch go build -gcflags='repro/...=-S' -o /dev/null ./internal/... ./cmd/... > "$asm" 2>&1; then
        tail -20 "$asm" >&2
        rm -f "$asm"
        exit 1
    fi
    fused=$(grep -E '\bFN?M(ADD|SUB)[DS]?\b' "$asm" | grep -F -e "($PWD/" -e "(repro/" |
        sed -E 's/.*\(([^)]*:[0-9]+)\).*/\1/' | sort -u)
    if [ -n "$fused" ]; then
        echo "fused multiply-adds on $arch at:" >&2
        echo "$fused" >&2
        rm -f "$asm"
        exit 1
    fi
done
rm -f "$asm"

echo "== replay inlining gate =="
# Every profiling context pays the per-block pieces once per block, so
# the ones a steady-state block runs must inline into both loops: the
# counter body sampledEvent, the cycle charge, whose batch sums then
# stay in registers, and the region cursor's in-region step
# followRegion. The inliner's budget is easy to overrun by a line; fail
# when one is no longer reported inlined into fillBatch or drainBatch
# (internal/dbt/multi.go).
inl=$(go build -gcflags='repro/internal/dbt=-m' ./internal/dbt 2>&1)
for fn in fillBatch drainBatch; do
    set -- $(awk -v fn="$fn" '$0 ~ "^func \\(e \\*Engine\\) " fn "\\(" {s = NR} s && !e && /^}/ {e = NR} END {print s, e}' internal/dbt/multi.go)
    for callee in sampledEvent charge followRegion; do
        if ! printf '%s\n' "$inl" | awk -F: -v s="$1" -v e="$2" -v c="$callee" \
            '$1 ~ /multi\.go$/ && $2 + 0 >= s && $2 + 0 <= e && $0 ~ ("inlining call to \\(\\*Engine\\)\\." c "$") {found = 1} END {exit !found}'; then
            echo "$callee is not inlined into $fn (go build -gcflags='repro/internal/dbt=-m' ./internal/dbt)" >&2
            exit 1
        fi
    done
done

echo "== one translator configuration gate =="
# Every non-test run takes its translator configuration from
# core.TranslatorConfig (DESIGN §3e), so the one non-test dbt.Config
# literal under cmd/ and internal/ is the one that function returns.
# Slices of built configs ([]dbt.Config{...}) are not literals of one.
lits=$(grep -rnE '(^|[^]])dbt\.Config\{' --include='*.go' cmd internal | grep -v '_test\.go:' || true)
if [ "$(printf '%s\n' "$lits" | cut -d: -f1 | sort -u)" != "internal/core/core.go" ]; then
    echo "dbt.Config literals outside core.TranslatorConfig:" >&2
    printf '%s\n' "$lits" >&2
    exit 1
fi

echo "== go test -race =="
go test -race ./...

echo "== unit lifecycle stress (-race) =="
# A benchmark reports when its last live unit exits, and a race on that
# count (onDone firing twice) survived a single -race pass: rerun the
# scheduler and daemon tests a few times at one and four processors.
go test -race -count=3 -cpu=1,4 ./internal/core/ ./internal/serve/

echo "== benchmark module =="
# bench/ is a separate Go module (repro/bench, replacing repro with the
# checkout), so the root build and tests never compile it: vet and test
# it here, so that deleting core or study API it still calls fails CI.
(cd bench && go vet ./... && go test ./...)

echo "== trace smoke (-race) =="
# The flight recorder must survive full pool parallelism: record a
# tiny-scale study under the race detector, then parse and summarize
# the trace it produced (the strict reader is the schema check).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# Build the race-instrumented binary once and run it directly: `go run`
# collapses every non-zero child exit to 1, which would hide the exit
# codes the smokes below assert.
go build -race -o "$tmpdir/inipstudy" ./cmd/inipstudy
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    -trace "$tmpdir/trace.jsonl" -benchjson "$tmpdir/bench.json" > /dev/null
"$tmpdir/inipstudy" -tracesum "$tmpdir/trace.jsonl" > /dev/null

echo "== fault-injection smoke (-race) =="
# One injected failure under each policy. Fail-fast must refuse to
# produce figures; degrade must complete with the surviving benchmark's
# figures byte-identical to a clean run over that subset (the gap
# annotation names the drop, so strip it before comparing).
"$tmpdir/inipstudy" -scale 0.001 -bench swim -fig fig8 \
    > "$tmpdir/clean.txt"
code=0
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    -inject trap:gzip/ref@500 > /dev/null 2> "$tmpdir/failfast.err" || code=$?
if [ "$code" -ne 1 ]; then
    echo "fail-fast run with an injected fault exited $code, want 1" >&2
    exit 1
fi
grep -q "injected guest trap at block 500" "$tmpdir/failfast.err"
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    -failpolicy degrade -inject trap:gzip/ref@500 \
    > "$tmpdir/degrade.txt" 2> "$tmpdir/degrade.err"
grep -q "gzip" "$tmpdir/degrade.err"
grep -v "^gap: " "$tmpdir/degrade.txt" > "$tmpdir/degrade-stripped.txt"
cmp "$tmpdir/clean.txt" "$tmpdir/degrade-stripped.txt"

echo "== kill-and-resume smoke (-race) =="
# Stop the study after one benchmark, then rerun it over the same
# result cache: the rerun serves the finished units from the cache and
# its figure output is byte-identical to an uninterrupted run.
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    > "$tmpdir/full.txt"
code=0
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    -cache "$tmpdir/resume-cache" -stopafter 1 \
    > /dev/null 2> "$tmpdir/stop.err" || code=$?
if [ "$code" -ne 130 ]; then
    echo "stopped run exited $code, want 130" >&2
    cat "$tmpdir/stop.err" >&2
    exit 1
fi
grep -q -- "-cache $tmpdir/resume-cache" "$tmpdir/stop.err"
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -fig fig8 \
    -cache "$tmpdir/resume-cache" > "$tmpdir/resumed.txt"
cmp "$tmpdir/full.txt" "$tmpdir/resumed.txt"
# Atomic-write temporaries (".<base>.tmp*") never outlive the cycle:
# anything a killed run left behind is swept on the next startup.
leftovers=$(find "$tmpdir" -name '.*.tmp*')
if [ -n "$leftovers" ]; then
    echo "orphaned atomic-write temporaries after stop/rerun:" >&2
    echo "$leftovers" >&2
    exit 1
fi

echo "== cold/warm result-cache smoke (-race) =="
# A cold full-suite run populates the cache; the warm rerun must serve
# everything from it — zero guest blocks executed, nonzero hits — and
# its figure output must be byte-identical to the cold run's. The
# differential verify pass then re-executes everything against the
# warmed store.
"$tmpdir/inipstudy" -scale 0.001 -fig all -cache "$tmpdir/cache" \
    -benchjson "$tmpdir/cold.json" > "$tmpdir/cold-figs.txt" 2> /dev/null
# Each of the 26 benchmarks stores exactly three entries: its ref bundle
# (every follower's comparison included), its training run and its
# training comparison.
entries=$(find "$tmpdir/cache" -maxdepth 1 -name '[!.]*.json' | wc -l)
if [ "$entries" -ne 78 ]; then
    echo "cold run stored $entries cache entries, want 78 (3 per benchmark)" >&2
    exit 1
fi
# The entries hold what the figures read: each follower's result, not
# its snapshot. Their byte total is a fixed figure of the code, held to
# the ceiling in BENCH_floor.json (see its comment).
cache_ceil=$(sed -n 's/.*"resultcache_scale0001_bytes": *\([0-9]*\).*/\1/p' BENCH_floor.json)
cache_bytes=$(cat "$tmpdir"/cache/[!.]*.json | wc -c)
awk -v got="$cache_bytes" -v ceil="$cache_ceil" 'BEGIN {
    if (ceil == "" || got + 0 > ceil + 0) {
        printf "cold run stored %s bytes of cache entries, ceiling %s\n", got, ceil > "/dev/stderr"
        exit 1
    }
}'
"$tmpdir/inipstudy" -scale 0.001 -fig all -cache "$tmpdir/cache" \
    -benchjson "$tmpdir/warm.json" > "$tmpdir/warm-figs.txt" 2> "$tmpdir/warm.err"
cmp "$tmpdir/cold-figs.txt" "$tmpdir/warm-figs.txt"
grep -q '"blocks_executed": 0' "$tmpdir/warm.json"
# result_cache_hits is omitted from the JSON when zero, so its presence
# asserts the warm run actually hit the cache.
grep -q '"result_cache_hits"' "$tmpdir/warm.json"
grep -q ': 78 hits, 0 misses, 0 stores, 0 errors$' "$tmpdir/warm.err"
"$tmpdir/inipstudy" -scale 0.001 -fig all -cache "$tmpdir/cache" \
    -cacheverify > "$tmpdir/verify-figs.txt" 2> /dev/null
cmp "$tmpdir/cold-figs.txt" "$tmpdir/verify-figs.txt"

echo "== predictor smoke (-race) =="
# The predictor zoo rides the replayed reference trace as a read-only
# observer: two identical runs must report identical mispredict rates
# (figp1/figp2 byte-for-byte), and enabling predictors must not move a
# single byte of the paper figures.
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -predictors all \
    -fig figp1,figp2 > "$tmpdir/pred1.txt"
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -predictors all \
    -fig figp1,figp2 > "$tmpdir/pred2.txt"
cmp "$tmpdir/pred1.txt" "$tmpdir/pred2.txt"
grep -q "perceptron" "$tmpdir/pred1.txt"
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -predictors all \
    -fig fig8 > "$tmpdir/fig8-pred.txt"
# full.txt is the kill-and-resume smoke's uninterrupted fig8 run of the
# same configuration without predictors.
cmp "$tmpdir/full.txt" "$tmpdir/fig8-pred.txt"

echo "== sampling smoke (-race) =="
# Sampled-profiling frontier (DESIGN §3i): a cold sweep populates the
# cache and the warm rerun must replay it byte-identically at zero
# guest blocks; the measured cost ratio must fall monotonically with
# the period from exactly 1 at period 1; and enabling the sweep must
# not move a byte of the paper figures.
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -sampleperiods 1,4,16 \
    -fig figs1,figs2 -cache "$tmpdir/spcache" \
    -benchjson "$tmpdir/sp-cold.json" > "$tmpdir/sp-cold.txt" 2> /dev/null
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -sampleperiods 1,4,16 \
    -fig figs1,figs2 -cache "$tmpdir/spcache" \
    -benchjson "$tmpdir/sp-warm.json" > "$tmpdir/sp-warm.txt" 2> /dev/null
cmp "$tmpdir/sp-cold.txt" "$tmpdir/sp-warm.txt"
# The cold run executed sampled units; the warm rerun replayed
# everything — zero guest blocks, zero sampled units (sampled_units is
# omitted from the JSON when zero, so its absence is the assertion).
grep -q '"sampled_units"' "$tmpdir/sp-cold.json"
grep -q '"blocks_executed": 0' "$tmpdir/sp-warm.json"
if grep -q '"sampled_units"' "$tmpdir/sp-warm.json"; then
    echo "warm sampling rerun reports sampled execution" >&2
    exit 1
fi
# Monotone cost: in the figs2 table both classes' measured cost ratios
# (columns 3 and 5) strictly fall as the period grows.
awk '/^== figs2/ { infig = 1; next }
    infig && /^T / { next }
    infig && /^note/ { infig = 0; next }
    infig && /^[0-9]/ {
        if (n == 0 && ($3 != "1.0000" || $5 != "1.0000")) {
            print "period-1 cost ratio is not 1.0000: " $0 > "/dev/stderr"
            bad = 1; exit 1
        }
        if (n > 0 && ($3 + 0 >= prev3 || $5 + 0 >= prev5)) {
            print "cost ratio not monotone at period " $1 ": " $0 > "/dev/stderr"
            bad = 1; exit 1
        }
        prev3 = $3 + 0; prev5 = $5 + 0; n++
    }
    END {
        if (!bad && n < 3) {
            print "figs2 table rows missing (saw " n ")" > "/dev/stderr"
            exit 1
        }
    }' "$tmpdir/sp-cold.txt"
# full.txt is the kill-and-resume smoke's uninterrupted fig8 run of
# the same configuration without sampling.
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -sampleperiods 1,4,16 \
    -fig fig8 > "$tmpdir/fig8-sp.txt"
cmp "$tmpdir/full.txt" "$tmpdir/fig8-sp.txt"
# No orphaned atomic-write temporaries in the sampling cache.
leftovers=$(find "$tmpdir/spcache" -name '.*.tmp*')
if [ -n "$leftovers" ]; then
    echo "orphaned atomic-write temporaries after sampling smoke:" >&2
    echo "$leftovers" >&2
    exit 1
fi

echo "== learned smoke (-race) =="
# Profile-free learned model (DESIGN §3j): the cold full-suite run
# collects branch-site data (the training entries come warm out of the
# cache above; the new entries are the `ref` entries that carry the
# learned collection, whose key names the model) and
# fits the cross-validated model; the warm rerun must replay everything
# byte-identically — figures and dumped model — at zero guest blocks.
"$tmpdir/inipstudy" -scale 0.001 -learned logreg -fig figl1,figl2 \
    -cache "$tmpdir/cache" -learnedjson "$tmpdir/lm-cold.json" \
    > "$tmpdir/lm-cold.txt" 2> "$tmpdir/lm-cold.err"
"$tmpdir/inipstudy" -scale 0.001 -learned logreg -fig figl1,figl2 \
    -cache "$tmpdir/cache" -learnedjson "$tmpdir/lm-warm.json" \
    -benchjson "$tmpdir/lm-warm-perf.json" > "$tmpdir/lm-warm.txt" 2> /dev/null
cmp "$tmpdir/lm-cold.txt" "$tmpdir/lm-warm.txt"
cmp "$tmpdir/lm-cold.json" "$tmpdir/lm-warm.json"
grep -q '"blocks_executed": 0' "$tmpdir/lm-warm-perf.json"
grep -q "^== figl1" "$tmpdir/lm-cold.txt"
grep -q "^== figl2" "$tmpdir/lm-cold.txt"
# Held-out accuracy gate: over the full suite the leave-one-benchmark-
# out mispredict rate must be strictly below the always-taken baseline
# (the rates are in the -learnedjson summary line on stderr).
lrate=$(sed -n 's/.*mispredicted = \([0-9.]*\) vs always-taken.*/\1/p' "$tmpdir/lm-cold.err")
trate=$(sed -n 's/.*vs always-taken \([0-9.]*\).*/\1/p' "$tmpdir/lm-cold.err")
awk -v l="$lrate" -v t="$trate" 'BEGIN {
    if (l == "" || t == "" || l + 0 >= t + 0) {
        print "held-out learned rate " l " does not beat always-taken " t > "/dev/stderr"
        exit 1
    }
}'
# full.txt is the kill-and-resume smoke's uninterrupted fig8 run of
# the same configuration without the learned class.
"$tmpdir/inipstudy" -scale 0.001 -bench gzip,swim -learned logreg \
    -fig fig8 > "$tmpdir/fig8-lm.txt"
cmp "$tmpdir/full.txt" "$tmpdir/fig8-lm.txt"
# No orphaned atomic-write temporaries in the now learned-warm cache.
leftovers=$(find "$tmpdir/cache" -name '.*.tmp*')
if [ -n "$leftovers" ]; then
    echo "orphaned atomic-write temporaries after learned smoke:" >&2
    echo "$leftovers" >&2
    exit 1
fi

echo "== all-axes cache smoke (-race) =="
# Every study axis rides the one `ref` entry of its benchmark (DESIGN
# §3): a cold run with all predictors, two sample periods and the
# learned model fills it; the warm rerun must replay the axis figures
# byte-identically at zero guest blocks, and the differential verify
# pass must re-execute them byte-identically against the filled store.
axes="-scale 0.001 -bench gzip,swim -predictors all -sampleperiods 4,16 -learned tree -fig figp1,figs1,figl1"
# $axes is a flag list, word-split on purpose.
"$tmpdir/inipstudy" $axes -cache "$tmpdir/axcache" > "$tmpdir/ax-cold.txt" 2> /dev/null
"$tmpdir/inipstudy" $axes -cache "$tmpdir/axcache" \
    -benchjson "$tmpdir/ax-warm.json" > "$tmpdir/ax-warm.txt" 2> /dev/null
cmp "$tmpdir/ax-cold.txt" "$tmpdir/ax-warm.txt"
grep -q '"blocks_executed": 0' "$tmpdir/ax-warm.json"
"$tmpdir/inipstudy" $axes -cache "$tmpdir/axcache" -cacheverify \
    > "$tmpdir/ax-verify.txt" 2> /dev/null
cmp "$tmpdir/ax-cold.txt" "$tmpdir/ax-verify.txt"

echo "== section-5 cache smoke (-race) =="
# -ext and -conv are a study whose reference traces also carry the
# adaptive, continuous-trip-count and convergence variants (DESIGN
# §4b). Cold, warm and verify runs over one cache must print both
# committed goldens; the warm rerun must execute no guest block, and a
# one-worker run must print the same tables.
s5="-ext -conv -scale 0.01"
cat internal/study/testdata/golden_ext.txt internal/study/testdata/golden_conv.txt > "$tmpdir/s5-golden.txt"
# $s5 is a flag list, word-split on purpose.
"$tmpdir/inipstudy" $s5 -cache "$tmpdir/s5cache" > "$tmpdir/s5-cold.txt" 2> /dev/null
cmp "$tmpdir/s5-golden.txt" "$tmpdir/s5-cold.txt"
"$tmpdir/inipstudy" $s5 -cache "$tmpdir/s5cache" \
    -benchjson "$tmpdir/s5-warm.json" > "$tmpdir/s5-warm.txt" 2> /dev/null
cmp "$tmpdir/s5-golden.txt" "$tmpdir/s5-warm.txt"
grep -q '"blocks_executed": 0' "$tmpdir/s5-warm.json"
"$tmpdir/inipstudy" $s5 -cache "$tmpdir/s5cache" -cacheverify > "$tmpdir/s5-verify.txt" 2> /dev/null
cmp "$tmpdir/s5-golden.txt" "$tmpdir/s5-verify.txt"
"$tmpdir/inipstudy" $s5 -par 1 > "$tmpdir/s5-par1.txt" 2> /dev/null
cmp "$tmpdir/s5-golden.txt" "$tmpdir/s5-par1.txt"

echo "== coverage floors =="
# Statement-coverage floors for the packages the sampling and caching
# test nets lean on hardest: comfortably below the measured values
# (dbt 79%, study 90%, core 88% at the time the floors were set) so
# flaky skips cannot trip them, high enough that deleting a test suite
# does.
go test -cover ./internal/dbt/ ./internal/study/ ./internal/core/ > "$tmpdir/cover.txt"
awk '{
    for (i = 1; i <= NF; i++) if ($i == "coverage:") {
        split($(i + 1), a, "%"); cov = a[1] + 0
        floor = ($2 ~ /internal\/dbt$/) ? 75 : ($2 ~ /internal\/core$/) ? 78 : 85
        if (cov < floor) {
            printf "%s coverage %.1f%% below floor %d%%\n", $2, cov, floor > "/dev/stderr"
            exit 1
        }
    }
}' "$tmpdir/cover.txt"

echo "== perf smoke =="
# Hot-loop throughput gate against the committed floors in
# BENCH_floor.json (see its comment for how the baselines were chosen:
# far enough under a healthy measurement to absorb machine variance,
# high enough that a 2x hot-loop regression trips the gate). The
# microbenchmarks run without -race — race instrumentation would
# measure the instrumentation, not the loop.
frac=$(sed -n 's/.*"max_regression_frac": *\([0-9.]*\).*/\1/p' BENCH_floor.json)
micro_base=$(sed -n 's/.*"exec_block_loop_heavy_blocks_per_sec": *\([0-9.]*\).*/\1/p' BENCH_floor.json)
study_base=$(sed -n 's/.*"study_race_scale001_blocks_per_sec": *\([0-9.]*\).*/\1/p' BENCH_floor.json)
alloc_ceil=$(sed -n 's/.*"runmulti_wide_followers_16_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_floor.json)
bytes_ceil=$(sed -n 's/.*"runmulti_wide_followers_16_bytes_per_op": *\([0-9]*\).*/\1/p' BENCH_floor.json)
go test -run='^$' -bench 'BenchmarkExecBlock|BenchmarkRunMulti' \
    -benchmem -benchtime=0.3s ./internal/dbt/ > "$tmpdir/bench.txt"
# Allocation gates: the wide guest's shared-trace run allocates a fixed
# count and size per op whatever the host's speed, so both are held to
# a ceiling rather than a fraction of a measurement.
for gate in "allocs/op $alloc_ceil" "B/op $bytes_ceil"; do
    set -- $gate
    got=$(awk -v unit="$1" '/^BenchmarkRunMulti\/wide\/followers_16/ {
        for (i = 2; i <= NF; i++) if ($i == unit) print $(i - 1) }' "$tmpdir/bench.txt")
    awk -v got="$got" -v ceil="$2" -v unit="$1" 'BEGIN {
        if (got == "" || ceil == "" || got + 0 > ceil + 0) {
            printf "BenchmarkRunMulti/wide/followers_16: %s %s, ceiling %s\n", got, unit, ceil > "/dev/stderr"
            exit 1
        }
    }'
done
# Predictor observers ride the same trace; one pass of their batch
# benchmark keeps it building and running (no floor: its ns/branch
# depends on the host).
go test -run='^$' -bench 'BenchmarkObserve' -benchtime=1x ./internal/predict/ > /dev/null
# The learned tree's cross validation allocates a fixed count per op
# (its fit buffers and nodes), held to a ceiling like RunMulti's.
cv_ceil=$(sed -n 's/.*"crossvalidate_tree_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_floor.json)
cv_got=$(go test -run='^$' -bench 'BenchmarkCrossValidateTree' -benchmem -benchtime=1x ./internal/learned/ |
    awk '/^BenchmarkCrossValidateTree/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1) }')
awk -v got="$cv_got" -v ceil="$cv_ceil" 'BEGIN {
    if (got == "" || ceil == "" || got + 0 > ceil + 0) {
        printf "BenchmarkCrossValidateTree: %s allocs/op, ceiling %s\n", got, ceil > "/dev/stderr"
        exit 1
    }
}'
# One warm compare on a filled store (BenchmarkWarmCompare) builds and
# hashes two images and reads three cache entries; its allocation count
# is a figure of the code, not of the host, held to a ceiling like the
# two above.
wc_ceil=$(sed -n 's/.*"warm_compare_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_floor.json)
wc_got=$(go test -run='^$' -bench 'BenchmarkWarmCompare' -benchmem -benchtime=100x ./internal/serve/ |
    awk '/^BenchmarkWarmCompare/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1) }')
awk -v got="$wc_got" -v ceil="$wc_ceil" 'BEGIN {
    if (got == "" || ceil == "" || got + 0 > ceil + 0) {
        printf "BenchmarkWarmCompare: %s allocs/op, ceiling %s\n", got, ceil > "/dev/stderr"
        exit 1
    }
}'
# One pass of mcf's reference trace behind its threshold ladder, the
# study's critical path, keeps that benchmark building too (no floor).
go test -run='^$' -bench 'BenchmarkMcfReference' -benchtime=1x ./internal/spec/ > /dev/null
micro=$(awk '/^BenchmarkExecBlock\/loop_heavy/ {
    for (i = 2; i <= NF; i++) if ($i == "blocks/s") print $(i - 1) }' "$tmpdir/bench.txt")
awk -v got="$micro" -v base="$micro_base" -v frac="$frac" 'BEGIN {
    floor = base * (1 - frac)
    if (got == "" || got + 0 < floor) {
        printf "BenchmarkExecBlock/loop_heavy: %s blocks/s, floor %.0f (baseline %.0f - %.0f%%)\n",
            got, floor, base, frac * 100 > "/dev/stderr"
        exit 1
    }
}'
# Full-suite Scale 0.01 study under the race detector: the hot loop at
# study scale, gated against the race-instrumented baseline. Figure
# bytes are pinned by the golden corpus — assert that explicitly here
# so a perf-motivated engine change cannot pass this section while
# drifting results.
go test -race -run '^TestGoldenFigures$' ./internal/study/
"$tmpdir/inipstudy" -scale 0.01 -fig all -benchjson "$tmpdir/perf.json" > /dev/null
studybps=$(sed -n 's/.*"blocks_per_sec": *\([0-9.]*\).*/\1/p' "$tmpdir/perf.json" | head -n 1)
awk -v got="$studybps" -v base="$study_base" -v frac="$frac" 'BEGIN {
    floor = base * (1 - frac)
    if (got == "" || got + 0 < floor) {
        printf "scale 0.01 study: %s blocks/s, floor %.0f (baseline %.0f - %.0f%%)\n",
            got, floor, base, frac * 100 > "/dev/stderr"
        exit 1
    }
}'

echo "== serve smoke (-race) =="
# Boot the daemon, hit it cold and warm (byte-identical bodies, zero
# guest blocks warm), overload it (429 + Retry-After), drain with
# SIGTERM, and ask a fresh daemon over the same cache the same question:
# it must answer warm with the first daemon's cold bytes.
go build -race -o "$tmpdir/inipd" ./cmd/inipd
servedir="$tmpdir/serve"
mkdir -p "$servedir"
dpid=""
trap '[ -n "$dpid" ] && kill "$dpid" 2> /dev/null; rm -rf "$tmpdir"' EXIT

wait_file() { # path tries
    _i=0
    while [ ! -s "$1" ]; do
        _i=$((_i + 1))
        if [ "$_i" -gt "$2" ]; then
            echo "daemon never published $1" >&2
            cat "$servedir"/d*.err >&2 || true
            return 1
        fi
        sleep 0.05
    done
}

"$tmpdir/inipd" -addr 127.0.0.1:0 -addrfile "$servedir/addr" \
    -scale 0.001 -maxinflight 1 -maxqueue -1 \
    -cache "$servedir/cache" -trace "$servedir/trace.jsonl" \
    2> "$servedir/d1.err" &
dpid=$!
wait_file "$servedir/addr" 200
base="http://$(cat "$servedir/addr")"

# Cold compare populates the shared cache; the identical repeat must be
# served warm — zero guest blocks — with a byte-identical body (the
# volatile data lives in X-Inipd-* headers, not the body).
curl -sf -D "$servedir/cold.hdr" -o "$servedir/cold.json" \
    -d '{"bench":"gzip","t":2000}' "$base/v1/compare"
grep -qi '^x-inipd-cache: miss' "$servedir/cold.hdr"
curl -sf -D "$servedir/warm.hdr" -o "$servedir/warm.json" \
    -d '{"bench":"gzip","t":2000}' "$base/v1/compare"
grep -qi '^x-inipd-cache: hit' "$servedir/warm.hdr"
grep -qi '^x-inipd-guest-blocks: 0' "$servedir/warm.hdr"
cmp "$servedir/cold.json" "$servedir/warm.json"

# Overload: a slow compare holds the single execution slot
# (-maxinflight 1, waiting disabled); a differently-keyed request
# arriving meanwhile is answered 429 with Retry-After, not queued.
curl -sf -o "$servedir/slow.json" \
    -d '{"bench":"gzip","t":100,"scale":0.05}' "$base/v1/compare" &
slowpid=$!
# The burst starts only once the slow compare holds the slot, so a
# burst request can never take it first.
_i=0
until curl -s "$base/v1/metrics" | grep -q '^inipd_compare_inflight 1$'; do
    _i=$((_i + 1))
    if [ "$_i" -gt 500 ]; then
        echo "slow compare never took the execution slot" >&2
        exit 1
    fi
    sleep 0.01
done
saw429=0
_i=0
while [ "$_i" -lt 100 ]; do
    _i=$((_i + 1))
    code=$(curl -s -o /dev/null -D "$servedir/burst.hdr" \
        -w '%{http_code}' -d '{"bench":"swim","t":100}' "$base/v1/compare")
    if [ "$code" = "429" ]; then
        saw429=1
        grep -qi '^retry-after:' "$servedir/burst.hdr"
        break
    fi
    sleep 0.02
done
if [ "$saw429" -ne 1 ]; then
    echo "overload burst never answered 429" >&2
    exit 1
fi
wait "$slowpid"

kill -TERM "$dpid"
if ! wait "$dpid"; then
    echo "daemon drain exited nonzero" >&2
    cat "$servedir/d1.err" >&2
    exit 1
fi
dpid=""
grep -q "drained" "$servedir/d1.err"

# A second daemon over the same -cache answers the first daemon's cold
# compare warm across the process boundary: zero guest blocks and the
# same bytes.
"$tmpdir/inipd" -addr 127.0.0.1:0 -addrfile "$servedir/addr2" \
    -scale 0.001 -cache "$servedir/cache" 2> "$servedir/d2.err" &
dpid=$!
wait_file "$servedir/addr2" 200
base="http://$(cat "$servedir/addr2")"
curl -sf -D "$servedir/restart.hdr" -o "$servedir/restart.json" \
    -d '{"bench":"gzip","t":2000}' "$base/v1/compare"
grep -qi '^x-inipd-cache: hit' "$servedir/restart.hdr"
grep -qi '^x-inipd-guest-blocks: 0' "$servedir/restart.hdr"
cmp "$servedir/cold.json" "$servedir/restart.json"

kill -TERM "$dpid"
if ! wait "$dpid"; then
    echo "second daemon drain exited nonzero" >&2
    cat "$servedir/d2.err" >&2
    exit 1
fi
dpid=""
# The two daemon lifetimes must leave no orphaned atomic-write
# temporaries in the cache directory or next to the trace.
leftovers=$(find "$servedir" -name '.*.tmp*')
if [ -n "$leftovers" ]; then
    echo "orphaned atomic-write temporaries after daemon restart:" >&2
    echo "$leftovers" >&2
    exit 1
fi

echo "== fuzz smoke (10s per target) =="
go test -run='^$' -fuzz='^FuzzISADecode$' -fuzztime=10s ./internal/isa/
go test -run='^$' -fuzz='^FuzzImageLoad$' -fuzztime=10s ./internal/guest/
go test -run='^$' -fuzz='^FuzzFaultSpec$' -fuzztime=10s ./internal/faultinject/
go test -run='^$' -fuzz='^FuzzFlowSolve$' -fuzztime=10s ./internal/markov/
go test -run='^$' -fuzz='^FuzzNormalize$' -fuzztime=10s ./internal/navep/
go test -run='^$' -fuzz='^FuzzRegionProb$' -fuzztime=10s ./internal/region/
go test -run='^$' -fuzz='^FuzzFingerprintMatchesFmtRendering$' -fuzztime=10s ./internal/dbt/
go test -run='^$' -fuzz='^FuzzExecPaths$' -fuzztime=10s ./internal/dbt/
go test -run='^$' -fuzz='^FuzzPredictReplay$' -fuzztime=10s ./internal/dbt/
go test -run='^$' -fuzz='^FuzzSampledReplay$' -fuzztime=10s ./internal/dbt/
go test -run='^$' -fuzz='^FuzzSnapshotBinary$' -fuzztime=10s ./internal/profile/
go test -run='^$' -fuzz='^FuzzStoreLookup$' -fuzztime=10s ./internal/resultcache/
go test -run='^$' -fuzz='^FuzzCompareRequest$' -fuzztime=10s ./internal/serve/

echo "CI OK"
