#!/usr/bin/env bash
# check.sh — the full local verification suite. CI runs exactly this script
# (.github/workflows/ci.yml), so a clean local run means a clean CI run.
#
# Steps:
#   1. gofmt        — no unformatted files
#   2. go vet       — the standard toolchain vet
#   3. go build     — everything compiles
#   4. go test      — the full unit suite
#   5. go test -race — concurrency-sensitive packages under the race detector
#                     (core, the public API, the lock-free event table, the
#                     transport rings/seqlock, and the serving path)
#   6. fuzz smoke   — FuzzGrammarInvariants, FuzzDigramIndexDiff,
#                     FuzzConfirmDiff (10s: the recorder's confirming fast
#                     path against the reduction alone),
#                     FuzzTimingReplayDiff (10s: the memoised timing replay
#                     against the per-event reference at every prefix of
#                     the delta log), FuzzFrontierDiff (10s: the predictor —
#                     its window and its frontier walk — against the
#                     allocating reference), FuzzPredictNoisy (fail-open, and
#                     answers independent of earlier queries),
#                     FuzzRecoverJournal, FuzzWireDecode, FuzzRingDecode,
#                     FuzzFlowGuards and FuzzModelLifecycle briefly
#   7. vet fixtures — gofmt/go vet inside the analyzer fixture mini-modules
#                     (separate modules, so ./... sweeps skip them)
#   8. pythia-vet   — the repo's own static-analysis pass, all nine
#                     analyzers; stale baseline entries fail the run
#                     (see cmd/pythia-vet for the exit contract)
#   9. benchmark    — go vet and go test inside bench/. It is a module of
#                     its own, so ./... sweeps skip it, yet it builds
#                     against internal/wire, internal/server and
#                     pythia/client: a change there can break it unseen
#
# With --chaos, additionally runs the fault-injection chaos suite
# (internal/faultinject) under the race detector: injected panics, resource
# exhaustion, and the crash/kill matrix — subprocesses that die mid-
# checkpoint (at every point of the journal write path, with and without
# torn writes, and under a real SIGKILL) and whose journals must salvage.
# It also runs the network chaos leg: the full chaosnet matrix
# (PYTHIA_CHAOS=1 — resets, torn frames, drops, stalls over tcp/unix/shm)
# plus the reconnect, resume, keepalive and connect-pipeline suites, all
# under -race.
# CI gates on this in its own job. With --learn, additionally runs the
# model-lifecycle suites under the race detector: the scored-promotion /
# rollback state machine and learner (core), the lifecycle wire ops and
# reconnect-across-promotion (server), the lineage journal round trips
# (tracefile), and the promotion crash/SIGKILL matrix (faultinject).
# With --bench, additionally runs the repo's benchmark, every workload
# (bash bench/run.sh --workload all; see BENCHMARK.json and bench/README.md).
# With --cluster, additionally runs the pythia-cluster suites under the
# race detector: shard-map placement and token buckets (internal/cluster),
# the wire ops / epoch gossip / migration / replication / QoS suites and
# the fleet failover leg (internal/server), and the fleet-routing client.
# With --serve, additionally runs scripts/serve-smoke.sh
# (pythiad + pythia-loadgen end to end over every transport tier, including
# a SIGTERM drain and a two-daemon cluster leg; its counters are read from
# loadgen's stdout). Benchmarks and the serve smoke are not part of the
# gating suite; loadgen's own tests (every tier and a forced
# promote/rollback against an in-process daemon) run in step 4.
set -u

cd "$(dirname "$0")/.."

run_bench=0
run_chaos=0
run_serve=0
run_learn=0
run_cluster=0
for arg in "$@"; do
    case "${arg}" in
        --bench) run_bench=1 ;;
        --chaos) run_chaos=1 ;;
        --serve) run_serve=1 ;;
        --learn) run_learn=1 ;;
        --cluster) run_cluster=1 ;;
        *) echo "check.sh: unknown argument ${arg}" >&2; exit 2 ;;
    esac
done

failures=0
step() {
    local name="$1"
    shift
    echo "==> ${name}"
    if ! "$@"; then
        echo "FAIL: ${name}" >&2
        failures=$((failures + 1))
    fi
}

check_gofmt() {
    local bad
    bad=$(gofmt -l .)
    if [ -n "${bad}" ]; then
        echo "unformatted files:" >&2
        echo "${bad}" >&2
        return 1
    fi
}

step "gofmt" check_gofmt
step "go vet" go vet ./...
step "go build" go build ./...
step "go test" go test ./...
step "go test -race (core + public API + events + transport + server)" \
    go test -race ./internal/core/... ./pythia/... ./internal/events/ ./internal/transport/ ./internal/server/
step "fuzz smoke (FuzzGrammarInvariants)" \
    go test -fuzz FuzzGrammarInvariants -fuzztime=5s -run '^$' ./internal/grammar/
step "fuzz smoke (FuzzDigramIndexDiff)" \
    go test -fuzz FuzzDigramIndexDiff -fuzztime=5s -run '^$' ./internal/grammar/
step "fuzz smoke (FuzzConfirmDiff)" \
    go test -fuzz FuzzConfirmDiff -fuzztime=10s -run '^$' ./internal/grammar/
step "fuzz smoke (FuzzTimingReplayDiff)" \
    go test -fuzz FuzzTimingReplayDiff -fuzztime=10s -run '^$' ./internal/recorder/
step "fuzz smoke (FuzzFrontierDiff)" \
    go test -fuzz FuzzFrontierDiff -fuzztime=10s -run '^$' ./internal/predictor/
step "fuzz smoke (FuzzPredictNoisy)" \
    go test -fuzz FuzzPredictNoisy -fuzztime=5s -run '^$' ./pythia/
step "fuzz smoke (FuzzRecoverJournal)" \
    go test -fuzz FuzzRecoverJournal -fuzztime=5s -run '^$' ./internal/tracefile/
step "fuzz smoke (FuzzWireDecode)" \
    go test -fuzz FuzzWireDecode -fuzztime=5s -run '^$' ./internal/wire/
step "fuzz smoke (FuzzRingDecode)" \
    go test -fuzz FuzzRingDecode -fuzztime=5s -run '^$' ./internal/transport/
step "fuzz smoke (FuzzFlowGuards)" \
    go test -fuzz FuzzFlowGuards -fuzztime=5s -run '^$' ./internal/vet/
step "fuzz smoke (FuzzModelLifecycle)" \
    go test -fuzz FuzzModelLifecycle -fuzztime=5s -run '^$' ./internal/core/

# The analyzer fixtures under internal/vet/testdata/fixtures are separate
# modules (so repo-wide builds and pythia-vet's own module scan never see
# their seeded bugs); sweep them explicitly so they cannot rot.
check_fixture_modules() {
    local dir ok=0
    for dir in internal/vet/testdata/fixtures/*/; do
        [ -f "${dir}go.mod" ] || continue
        if ! (cd "${dir}" && go vet ./...); then
            echo "go vet failed in ${dir}" >&2
            ok=1
        fi
    done
    return "${ok}"
}
step "vet fixtures (go vet per fixture module)" check_fixture_modules

step "pythia-vet" go run ./cmd/pythia-vet ./...

check_bench_module() {
    (cd bench && go vet . && go test .)
}
step "benchmark module (go vet + go test in bench/)" check_bench_module

if [ "${run_chaos}" -eq 1 ]; then
    step "chaos (fault injection + crash/kill matrix, -race)" \
        go test -race -count=1 ./internal/faultinject/
    step "chaos (chaosnet proxy suite, -race)" \
        go test -race -count=1 ./internal/chaosnet/
    step "chaos (network: chaos matrix + reconnect/resume/keepalive/pipeline, -race)" \
        env PYTHIA_CHAOS=1 go test -race -count=1 \
        -run 'Chaos|Reconnect|Resume|Keepalive|Fallback|Pipeline|OracleClose' \
        ./internal/server/ ./pythia/client/
fi

if [ "${run_learn}" -eq 1 ]; then
    step "learn (lifecycle machine + learner + wire ops, -race)" \
        go test -race -count=1 \
        -run 'Learn|Lifecycle|Promot|Rollback|Generation|Lineage' \
        ./internal/core/ ./internal/server/ ./internal/tracefile/ ./internal/wire/
    step "learn (promotion crash/SIGKILL matrix, -race)" \
        go test -race -count=1 -run 'CrashDuringPromotion|SIGKILLDuringPromotion' \
        ./internal/faultinject/
fi

if [ "${run_cluster}" -eq 1 ]; then
    step "cluster (shard map + token buckets, -race)" \
        go test -race -count=1 ./internal/cluster/
    step "cluster (gossip/migration/replication/QoS + fleet failover, -race)" \
        go test -race -count=1 \
        -run 'ShardMap|WrongShard|ModelOffer|EpochBump|Sweep|Fleet|TenantBudget|Cluster' \
        ./internal/server/ ./internal/wire/ ./pythia/client/
fi

if [ "${run_bench}" -eq 1 ]; then
    step "benchmark, every workload (non-gating)" bash bench/run.sh --workload all
fi

if [ "${run_serve}" -eq 1 ]; then
    step "serve smoke (pythiad + loadgen, non-gating)" ./scripts/serve-smoke.sh
fi

if [ "${failures}" -ne 0 ]; then
    echo "check.sh: ${failures} step(s) failed" >&2
    exit 1
fi
echo "check.sh: all steps passed"
