#!/bin/sh
# Benchmarks the round hot path (unfused / fused / serve-batched), the
# paper's Table II configuration (one step of the 120x128 arm filter) and
# the per-sub-filter sort (sortnet's BenchmarkNetSort: scalar and AVX2
# stages at m = 64, 128, 512), and writes BENCH_<pr>.json with ns/op and
# particles/sec per configuration.
# The PR number is derived from CHANGES.md: the highest `- PR n:` line
# plus one. (The highest, not the count — not every PR records a bench,
# so neither the CHANGES numbering nor the BENCH_* files on disk can be
# assumed contiguous.) Override with BENCH_PR, or the whole filename
# with BENCH_OUT.
#
# A "baseline" section is merged in from a recorded `go test -bench`
# output of the pre-optimization tree (the PR 1 commit, measured by
# running the same unfused round benchmark there); by default it comes
# from scripts/bench_baseline_seed.txt. Pass a different capture file as
# $1, or an empty string to skip the baseline section. The headline
# number is fused throughput vs that unfused baseline.
#
# Usage: scripts/bench.sh [baseline-capture-file]
set -eu

cd "$(dirname "$0")/.."

BASELINE_FILE="${1-scripts/bench_baseline_seed.txt}"
COUNT="${BENCH_COUNT:-3}"
BENCHTIME="${BENCHTIME:-2s}"
LAST_PR="$(sed -n 's/^- PR \([0-9][0-9]*\):.*/\1/p' CHANGES.md | sort -n | tail -1)"
PR_NUM="${BENCH_PR:-$((${LAST_PR:-0} + 1))}"
OUT="${BENCH_OUT:-BENCH_${PR_NUM}.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench 'BenchmarkRound$|BenchmarkRoundFused$|BenchmarkRoundBatch$|BenchmarkTableIIDefaults$' \
	-benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee "$RAW"
go test -run '^$' -bench '^BenchmarkNetSort$' \
	-benchtime "$BENCHTIME" -count "$COUNT" -benchmem ./internal/sortnet/ | tee -a "$RAW"

# Best (min ns/op) run per benchmark, as JSON objects. allocs/op comes
# from -benchmem; the hot paths are expected to hold it at zero
# steady-state (enforced by bench_guard.sh).
emit_json() {
	awk '
	/^Benchmark/ {
		name = $1; ns = ""; pps = ""; allocs = ""
		for (i = 2; i <= NF; i++) {
			if ($(i) == "ns/op") ns = $(i-1)
			if ($(i) == "particles/s") pps = $(i-1)
			if ($(i) == "allocs/op") allocs = $(i-1)
		}
		if (ns == "") next
		if (!(name in best) || ns + 0 < best[name] + 0) {
			best[name] = ns
			bpps[name] = pps
			ballocs[name] = allocs
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
	}
	END {
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "    \"%s\": {\"ns_per_op\": %s, \"particles_per_sec\": %s, \"allocs_per_op\": %s}%s\n", \
				name, best[name], (bpps[name] == "" ? "null" : bpps[name]), \
				(ballocs[name] == "" ? "null" : ballocs[name]), (i < n ? "," : "")
		}
	}' "$1"
}

{
	echo "{"
	echo "  \"bench\": \"round hot path: SoA particle columns + vectorized lane kernels + block RNG\","
	echo "  \"benchtime\": \"$BENCHTIME\", \"count\": $COUNT,"
	echo "  \"host\": \"$(go env GOOS)/$(go env GOARCH), $(getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?') cpu\","
	echo "  \"current\": {"
	emit_json "$RAW"
	echo "  }"
	if [ -n "$BASELINE_FILE" ] && [ -f "$BASELINE_FILE" ]; then
		echo "  ,\"baseline\": {"
		emit_json "$BASELINE_FILE"
		echo "  }"
	fi
	echo "}"
} >"$OUT"

echo "wrote $OUT"
