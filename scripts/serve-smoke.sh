#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke test of the network service: record a
# small trace, start pythiad on an ephemeral TCP port AND a unix socket,
# drive every transport tier with pythia-loadgen (8 concurrent clients,
# zero protocol errors tolerated; tcp, unix, and shared-memory rings), run
# a chaos leg (deterministic resets injected between clients and daemon —
# the reconnect/replay machinery must absorb them), kill the daemon with
# SIGKILL mid-service and restart it on the same unix socket path (already-
# running clients must reconnect), then SIGTERM the daemon and require a
# clean graceful drain that also removes the socket file. A learn leg
# restarts the daemon with -learn and drives a drifted replay with a forced
# promotion and a forced rollback; the lifecycle counters loadgen prints
# must show both transitions. A final cluster leg runs a two-daemon fleet
# where daemon B starts empty: the anti-entropy sweep must replicate the
# model to B with "replicated from" provenance, a forced epoch bump (B
# restarted at epoch 2) must propagate to A by gossip, and the fleet must
# serve cleanly before and after the bump with lineage intact.
#
# Every counter asserted here is read from pythia-loadgen's stdout.
#
# Run directly or via `scripts/check.sh --serve`. Non-gating in CI (shared
# runners make the daemon timing noisy) but must pass locally.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    # daemon_pid may hold several pids (the cluster leg runs two daemons).
    for pid in ${daemon_pid}; do
        if kill -0 "${pid}" 2>/dev/null; then
            kill -9 "${pid}" 2>/dev/null || true
        fi
    done
    rm -rf "${workdir}"
}
trap cleanup EXIT

echo "==> building pythia-record, pythiad, pythia-loadgen, pythia-inspect"
go build -o "${workdir}/pythia-record" ./cmd/pythia-record
go build -o "${workdir}/pythiad" ./cmd/pythiad
go build -o "${workdir}/pythia-loadgen" ./cmd/pythia-loadgen
go build -o "${workdir}/pythia-inspect" ./cmd/pythia-inspect

echo "==> recording EP.small"
mkdir "${workdir}/traces"
"${workdir}/pythia-record" -app EP -class small -o "${workdir}/traces/EP.pythia" >/dev/null

echo "==> starting pythiad (tcp + unix)"
# Port 0 asks the kernel for a free port; parse the bound address from the
# daemon's "listening on" line.
sock="${workdir}/d.sock"
"${workdir}/pythiad" -listen 127.0.0.1:0 -listen "unix://${sock}" \
    -traces "${workdir}/traces" \
    >"${workdir}/pythiad.out" 2>"${workdir}/pythiad.err" &
daemon_pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^pythiad: listening on tcp://\([^ ]*\).*|\1|p' "${workdir}/pythiad.out")
    if [ -n "${addr}" ]; then break; fi
    if ! kill -0 "${daemon_pid}" 2>/dev/null; then
        echo "serve-smoke: pythiad died during startup" >&2
        cat "${workdir}/pythiad.err" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "${addr}" ]; then
    echo "serve-smoke: pythiad never reported its address" >&2
    exit 1
fi
echo "    pythiad on ${addr} and unix://${sock} (pid ${daemon_pid})"

# EP.small streams are short, so predict every 4 events to make sure the
# smoke exercises the timed prediction path and not just Submit batching.
echo "==> loadgen: 8 clients replaying EP.small over tcp"
"${workdir}/pythia-loadgen" -addr "${addr}" -tenant EP -app EP -class small \
    -clients 8 -predict-every 4 -distance 4

echo "==> loadgen: 8 clients replaying EP.small over the unix socket"
"${workdir}/pythia-loadgen" -addr "unix://${sock}" -transport unix \
    -tenant EP -app EP -class small -clients 8 -predict-every 4 -distance 4

echo "==> loadgen: 8 clients replaying EP.small over shared-memory rings"
"${workdir}/pythia-loadgen" -addr "unix://${sock}" -transport shm \
    -tenant EP -app EP -class small -clients 8 -predict-every 4 -distance 4

# loadgen_to FILE ARGS... runs pythia-loadgen with its stdout, which carries
# the counters the legs below assert on, saved to FILE and echoed.
loadgen_to() {
    local out="$1" rc=0
    shift
    "${workdir}/pythia-loadgen" "$@" >"${out}" || rc=$?
    cat "${out}"
    return "${rc}"
}

echo "==> loadgen: 8 clients over tcp with injected chaos (resets + torn frames)"
loadgen_to "${workdir}/loadgen-chaos.out" -addr "${addr}" -tenant EP -app EP -class small \
    -clients 8 -predict-every 4 -distance 4 -chaos -chaos-seed 7
if ! grep -q '^resilience: [0-9]* reconnects' "${workdir}/loadgen-chaos.out"; then
    echo "serve-smoke: chaos leg printed no resilience counters" >&2
    exit 1
fi

echo "==> kill-and-reconnect: SIGKILL pythiad mid-run, restart on the same socket"
# A long replay (predict every event) keeps the clients mid-run while the
# daemon dies and comes back; -chaos gives them the convergence window, so
# a clean exit proves the reconnect + replay path absorbed the restart.
"${workdir}/pythia-loadgen" -addr "unix://${sock}" -transport unix \
    -tenant EP -app EP -class small -clients 4 -predict-every 1 -distance 4 \
    -repeat 300 -chaos -chaos-seed 3 \
    >"${workdir}/loadgen-restart.out" 2>&1 &
loadgen_pid=$!
sleep 0.3
if ! kill -0 "${loadgen_pid}" 2>/dev/null; then
    echo "serve-smoke: restart-leg loadgen finished before the kill; nothing straddled it" >&2
    cat "${workdir}/loadgen-restart.out" >&2
    exit 1
fi
kill -9 "${daemon_pid}" 2>/dev/null || true
wait "${daemon_pid}" 2>/dev/null || true
# The SIGKILL leaves a stale socket file; the restarted daemon must reap it.
"${workdir}/pythiad" -listen 127.0.0.1:0 -listen "unix://${sock}" \
    -traces "${workdir}/traces" \
    >"${workdir}/pythiad.out" 2>"${workdir}/pythiad.err" &
daemon_pid=$!
if ! wait "${loadgen_pid}"; then
    echo "serve-smoke: loadgen did not survive the daemon restart" >&2
    cat "${workdir}/loadgen-restart.out" >&2
    exit 1
fi
cat "${workdir}/loadgen-restart.out"
reconnects=$(sed -n 's/^resilience: \([0-9]*\) reconnects.*/\1/p' "${workdir}/loadgen-restart.out")
if [ -z "${reconnects}" ] || [ "${reconnects}" -lt 1 ]; then
    echo "serve-smoke: expected >=1 reconnect across the daemon restart, got '${reconnects}'" >&2
    exit 1
fi
echo "==> draining pythiad (SIGTERM)"
kill -TERM "${daemon_pid}"
drained=1
for _ in $(seq 1 100); do
    if ! kill -0 "${daemon_pid}" 2>/dev/null; then
        drained=0
        break
    fi
    sleep 0.1
done
if [ "${drained}" -ne 0 ]; then
    echo "serve-smoke: pythiad did not exit within 10s of SIGTERM" >&2
    exit 1
fi
wait "${daemon_pid}" 2>/dev/null || {
    echo "serve-smoke: pythiad exited non-zero after SIGTERM" >&2
    cat "${workdir}/pythiad.err" >&2
    exit 1
}
daemon_pid=""
if ! grep -q "drained, exiting" "${workdir}/pythiad.out"; then
    echo "serve-smoke: drain confirmation missing from pythiad output" >&2
    cat "${workdir}/pythiad.out" >&2
    exit 1
fi
if [ -e "${sock}" ]; then
    echo "serve-smoke: socket file ${sock} survived the drain" >&2
    exit 1
fi

echo "==> learn leg: pythiad -learn, drifted replay, forced promote + rollback"
: >"${workdir}/pythiad.out"
"${workdir}/pythiad" -listen 127.0.0.1:0 -traces "${workdir}/traces" \
    -learn -learn-epoch 128 \
    >"${workdir}/pythiad.out" 2>"${workdir}/pythiad.err" &
daemon_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^pythiad: listening on tcp://\([^ ]*\).*|\1|p' "${workdir}/pythiad.out")
    if [ -n "${addr}" ]; then break; fi
    sleep 0.1
done
if [ -z "${addr}" ]; then
    echo "serve-smoke: learning pythiad never reported its address" >&2
    cat "${workdir}/pythiad.err" >&2
    exit 1
fi
# Phase 2 replays the streams reversed; the forced promotion adopts the
# shadow model 300 events in and the forced rollback restores the previous
# generation 600 events later. Both must land in the lifecycle counters.
loadgen_to "${workdir}/loadgen-learn.out" -addr "${addr}" -tenant EP -app EP \
    -class small -clients 2 -predict-every 2 -repeat 100 -drift \
    -force-promote 300 -force-rollback 600
promotions=$(sed -n 's/^lifecycle: \([0-9]*\) promotions.*/\1/p' "${workdir}/loadgen-learn.out")
rollbacks=$(sed -n 's/^lifecycle: [0-9]* promotions, \([0-9]*\) rollbacks.*/\1/p' "${workdir}/loadgen-learn.out")
if [ -z "${promotions}" ] || [ "${promotions}" -lt 1 ]; then
    echo "serve-smoke: expected >=1 promotion in the learn leg, got '${promotions}'" >&2
    exit 1
fi
if [ -z "${rollbacks}" ] || [ "${rollbacks}" -lt 1 ]; then
    echo "serve-smoke: expected >=1 rollback in the learn leg, got '${rollbacks}'" >&2
    exit 1
fi
kill -TERM "${daemon_pid}"
wait "${daemon_pid}" 2>/dev/null || {
    echo "serve-smoke: learning pythiad exited non-zero after SIGTERM" >&2
    cat "${workdir}/pythiad.err" >&2
    exit 1
}
daemon_pid=""

echo "==> cluster leg: two daemons, warm replica, forced epoch bump"
# Daemon A holds the EP model, daemon B starts empty; with one warm replica
# per tenant the anti-entropy sweep must ship the model to B, stamping its
# provenance with where it came from. Restarting B at a higher epoch then
# forces a shard-map change: A must adopt the epoch by gossip and the fleet
# must keep serving with the model's lineage intact.
ca="127.0.0.1:29221"
cb="127.0.0.1:29222"
cfleet="${ca},${cb}"
mkdir "${workdir}/traces-a" "${workdir}/traces-b"
cp "${workdir}/traces/EP.pythia" "${workdir}/traces-a/"
"${workdir}/pythiad" -listen "${ca}" -traces "${workdir}/traces-a" \
    -cluster-self "${ca}" -cluster-peers "${cfleet}" \
    -cluster-epoch 1 -cluster-replicas 1 -cluster-sync 300ms \
    >"${workdir}/pythiad-a.out" 2>"${workdir}/pythiad-a.err" &
daemon_a_pid=$!
"${workdir}/pythiad" -listen "${cb}" -traces "${workdir}/traces-b" \
    -cluster-self "${cb}" -cluster-peers "${cfleet}" \
    -cluster-epoch 1 -cluster-replicas 1 -cluster-sync 300ms \
    >"${workdir}/pythiad-b.out" 2>"${workdir}/pythiad-b.err" &
daemon_b_pid=$!
daemon_pid="${daemon_a_pid} ${daemon_b_pid}"
replicated=1
for _ in $(seq 1 100); do
    if [ -e "${workdir}/traces-b/EP.pythia" ]; then
        replicated=0
        break
    fi
    sleep 0.1
done
if [ "${replicated}" -ne 0 ]; then
    echo "serve-smoke: EP model never replicated to daemon B" >&2
    cat "${workdir}/pythiad-a.err" "${workdir}/pythiad-b.err" >&2
    exit 1
fi
if ! "${workdir}/pythia-inspect" -trace "${workdir}/traces-b/EP.pythia" \
    | grep -q "replicated from ${ca}"; then
    echo "serve-smoke: replica on daemon B lacks 'replicated from ${ca}' provenance" >&2
    "${workdir}/pythia-inspect" -trace "${workdir}/traces-b/EP.pythia" >&2 || true
    exit 1
fi
echo "==> loadgen: 4 clients through the two-daemon fleet (epoch 1)"
"${workdir}/pythia-loadgen" -daemons "${cfleet}" -tenant EP -app EP \
    -class small -clients 4 -predict-every 4 -distance 4
echo "==> forcing an epoch bump: restart daemon B at epoch 2"
kill -TERM "${daemon_b_pid}"
wait "${daemon_b_pid}" 2>/dev/null || true
"${workdir}/pythiad" -listen "${cb}" -traces "${workdir}/traces-b" \
    -cluster-self "${cb}" -cluster-peers "${cfleet}" \
    -cluster-epoch 2 -cluster-replicas 1 -cluster-sync 300ms \
    >"${workdir}/pythiad-b.out" 2>"${workdir}/pythiad-b.err" &
daemon_b_pid=$!
daemon_pid="${daemon_a_pid} ${daemon_b_pid}"
adopted=1
for _ in $(seq 1 100); do
    if grep -q "cluster epoch 2 adopted" "${workdir}/pythiad-a.out" "${workdir}/pythiad-a.err" 2>/dev/null; then
        adopted=0
        break
    fi
    sleep 0.1
done
if [ "${adopted}" -ne 0 ]; then
    echo "serve-smoke: daemon A never adopted epoch 2 by gossip" >&2
    cat "${workdir}/pythiad-a.err" >&2
    exit 1
fi
echo "==> loadgen: 4 clients through the fleet after the epoch bump"
"${workdir}/pythia-loadgen" -daemons "${cfleet}" -tenant EP -app EP \
    -class small -clients 4 -predict-every 4 -distance 4
if ! "${workdir}/pythia-inspect" -trace "${workdir}/traces-b/EP.pythia" \
    | grep -q "replicated from ${ca}"; then
    echo "serve-smoke: lineage lost after the epoch bump" >&2
    exit 1
fi
kill -TERM "${daemon_a_pid}" "${daemon_b_pid}"
wait "${daemon_a_pid}" 2>/dev/null || {
    echo "serve-smoke: cluster daemon A exited non-zero after SIGTERM" >&2
    cat "${workdir}/pythiad-a.err" >&2
    exit 1
}
wait "${daemon_b_pid}" 2>/dev/null || {
    echo "serve-smoke: cluster daemon B exited non-zero after SIGTERM" >&2
    cat "${workdir}/pythiad-b.err" >&2
    exit 1
}
daemon_pid=""
echo "serve-smoke: ok"
