#!/bin/sh
# Full verification: build + vet + the esthera-vet static-analysis suite,
# then tests everywhere, then every package again under the race
# detector. esthera-vet enforces the determinism and work-group safety
# invariants (see DESIGN.md "Static guarantees"); any diagnostic fails
# the run.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# internal/sortnet has an amd64 assembly stage and a portable fallback:
# cross-vet the fallback (and its kernel caller) so it keeps compiling.
GOARCH=arm64 go vet ./internal/sortnet/ ./internal/kernels/
go run ./cmd/esthera-vet -list
# -require makes the sweep fail loudly if a module-path change ever
# silently drops a load-bearing package from ./... coverage: telemetry
# and telemetry/log (leaf packages every hot path calls into, both under
# the noalloc ratchet for their disabled-path helpers), shard (framed
# wire structs under checkpointcompat), the //esthera:hotpath-annotated
# numeric core (kernels/sortnet/scan/rng/model under noalloc+bce, model
# under draworder), and serve (lockorder).
go run ./cmd/esthera-vet -require esthera/internal/telemetry,esthera/internal/telemetry/log,esthera/internal/shard,esthera/internal/kernels,esthera/internal/sortnet,esthera/internal/scan,esthera/internal/rng,esthera/internal/model,esthera/internal/model/arm,esthera/internal/serve ./...
go test ./...
# The benchmark harness is its own module (perfbench/, replaced onto this
# tree), so the root ./... neither builds nor tests it: check it
# explicitly so an API change cannot silently break the benchmark.
go -C perfbench vet ./...
go -C perfbench test ./...
go test -race ./...
# The vectorized lane kernels and the branchless sort/search paths are
# sensitive to codegen: re-run the numeric core once more under
# GOAMD64=v3 (AVX2-era ISA selection) so an instruction-selection
# difference that breaks bit-identity surfaces here, not on a user's
# machine. Probed: only meaningful on amd64, and only when the host CPU
# actually has the v3 feature set (avx2 implies the rest for this
# check's purposes).
if [ "$(go env GOARCH)" = "amd64" ] && grep -q avx2 /proc/cpuinfo 2>/dev/null; then
	GOAMD64=v3 go test ./internal/kernels/ ./internal/filter/ ./internal/sortnet/ ./internal/rng/ ./internal/model/...
else
	echo "verify: skipping GOAMD64=v3 leg (not amd64 or no avx2)"
fi
# The serving robustness layer (cancellation, shutdown, drain) and the
# shard transport are pure concurrency: hammer them repeatedly under the
# race detector so interleaving-dependent regressions surface before
# merge.
go test -race -count=3 ./internal/serve/... ./internal/shard/...
# Adaptive-resampling accuracy gate: the sort-free Metropolis resampler
# and the ESS-driven adaptive allocator must match the fixed-allocation
# RWS/Vose baseline on the arm model. The 2x ratio is deliberately loose
# for the reduced CI budget — it catches a broken resampler or allocator
# (order-of-magnitude divergence), not run-to-run noise.
go run ./cmd/esthera-accuracy -exp adaptive -runs 3 -steps 30 -gate 2.0
# Observability must be free when disabled: assert the fused round hot
# path is within tolerance of the newest recorded benchmark baseline.
scripts/bench_guard.sh
# Sharded-serving chaos drill (router + replicas + kill/restore) is
# opt-in: it builds three binaries and runs ~30s of wall-clock load.
if [ "${CHAOS:-0}" = "1" ]; then
	scripts/test_chaos_shards.sh
fi
