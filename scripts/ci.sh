#!/bin/sh
# CI pipeline: the full gate a merge must pass, in fail-fast order —
# cheapest checks first, the expensive race sweep and benchmark smoke
# last. Mirrors `make ci`.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# internal/sortnet has an amd64 assembly stage and a portable fallback:
# cross-vet the fallback (and its kernel caller) so it keeps compiling.
GOARCH=arm64 go vet ./internal/sortnet/ ./internal/kernels/
# Same -require coverage guard as verify.sh: the sweep must include the
# telemetry/wire packages and the //esthera:hotpath-annotated core.
go run ./cmd/esthera-vet -require esthera/internal/telemetry,esthera/internal/shard,esthera/internal/kernels,esthera/internal/sortnet,esthera/internal/scan,esthera/internal/rng,esthera/internal/model,esthera/internal/model/arm,esthera/internal/serve ./...
go test ./...
# The sort network's fuzz target compares the AVX2 and scalar stages and
# the stable reference permutation: give it a fixed budget beyond its
# seed corpus.
go test -run '^$' -fuzz '^FuzzBitonicSort$' -fuzztime 10s ./internal/sortnet/
# The vectorized lane kernels, the branchless sort/search paths and the
# block RNG are sensitive to codegen: re-run the numeric core under
# GOAMD64=v3 (AVX2-era ISA selection), as verify.sh does, so an
# instruction-selection difference that breaks bit-identity fails the
# merge. Only meaningful on amd64 hosts whose CPU has avx2.
if [ "$(go env GOARCH)" = "amd64" ] && grep -q avx2 /proc/cpuinfo 2>/dev/null; then
	GOAMD64=v3 go test ./internal/kernels/ ./internal/filter/ ./internal/sortnet/ ./internal/rng/ ./internal/model/...
else
	echo "ci: skipping GOAMD64=v3 leg (not amd64 or no avx2)"
fi
# The benchmark harness is its own module (perfbench/, replaced onto this
# tree), so the root ./... neither builds nor tests it: check it
# explicitly so an API change cannot silently break the benchmark.
go -C perfbench vet ./...
go -C perfbench test ./...
go test -race ./...
# The serving robustness layer (claim/abandon on cancel, shutdown and
# drain) and the shard transport are pure concurrency: hammer them
# repeatedly under the race detector, as verify.sh does.
go test -race -count=3 ./internal/serve/... ./internal/shard/...
# Benchmark smoke: one short iteration of every benchmark, asserting they
# still run (not measuring them).
go test -run '^$' -bench . -benchtime 1x ./...
