#!/bin/sh
# CI entry point: full build, the whole test battery (normal and checked
# mode), the differential-oracle smoke run (twice: plain, and with
# metrics + a bounded trace sink to prove instrumentation does not
# perturb the PRNG stream), and a quick bench smoke run of the
# simulation hot path (writes BENCH_hotpath.json) gated against the
# committed baseline.
set -eu

cd "$(dirname "$0")"

echo "==> dune build @all"
dune build @all

echo "==> dune runtest"
dune runtest

echo "==> oracle smoke (engine vs naive reference model, 200 scenarios)"
# The deterministic 'faulted recovery-*' cases in the differential group
# pin the live-replication path (replicas 1-2 + crash bursts) bit-for-bit
# against the oracle on every invocation; the generated scenarios also
# draw replicas 1-3 for half the cases.
DHTLB_ORACLE_CASES=200 dune exec test/test_oracle.exe

echo "==> oracle smoke with metrics + ring trace sink (instrumentation must not perturb)"
DHTLB_ORACLE_CASES=100 DHTLB_METRICS=1 DHTLB_TRACE_OUT=ring:32 \
  dune exec test/test_oracle.exe

echo "==> recovery smoke (--replicas 2 + crash bursts through the real CLI, invariant-checked)"
# End-to-end through bin/dhtlb with live replication on: every tick must
# satisfy conserved-or-accounted-lost (DHTLB_CHECK=1) while two bursts
# kill 35 machines mid-run.
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate \
  --nodes 200 --tasks 20000 --churn 0.02 --failures 0.01 \
  --replicas 2 --repair-lag 2 --faults drop=0.05,crash=20@10+15@30 --seed 7

echo "==> stream smoke (open-system run through the real CLI, invariant-checked, bounded trace)"
# End-to-end through bin/dhtlb with continuous arrivals: a bursty plan
# over Zipf-hot keys under churn and control-plane message drop, every
# tick checked against the conservation law (work_done + remaining +
# lost = initial + arrived) with the ring trace sink bounding memory.
DHTLB_CHECK=1 DHTLB_TRACE_OUT=ring:32 dune exec bin/dhtlb.exe -- stream \
  --nodes 200 --tasks 5000 --churn 0.02 --strategy invitation \
  --faults drop=0.05 \
  --arrivals burst=20:150:10:20,hot=4:0.05:1.1,horizon=120,window=20 --seed 7

echo "==> checkpoint kill-and-resume smoke (SIGKILL mid-run, resumed result must be byte-identical)"
# One uninterrupted reference run writes its result JSON; the same
# configuration is then checkpointed every 200 ticks, SIGKILLed
# mid-run, and rerun with --resume.  The resumed result file must be
# byte-identical to the reference.  Every timing of the kill is legal:
# killed before the first checkpoint, --resume falls back to a fresh
# (still identical) run; killed after the horizon, the rerun resumes
# from the last periodic checkpoint and replays the tail.  The direct
# binary path (not dune exec) keeps the kill from hitting a wrapper.
dhtlb=./_build/default/bin/dhtlb.exe
ckpt_dir=$(mktemp -d)
ckpt_args="--nodes 300 --tasks 10000 --churn 0.02 --strategy invitation \
  --arrivals poisson=60,horizon=3000,window=100 --seed 7"
DHTLB_CHECK=1 "$dhtlb" stream $ckpt_args \
  --out "$ckpt_dir/reference.json" >/dev/null
DHTLB_CHECK=1 "$dhtlb" stream $ckpt_args \
  --checkpoint "$ckpt_dir/run.ckpt" --checkpoint-every 200 \
  --out "$ckpt_dir/killed.json" >/dev/null 2>&1 &
victim=$!
sleep 0.7
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
DHTLB_CHECK=1 "$dhtlb" stream $ckpt_args \
  --checkpoint "$ckpt_dir/run.ckpt" --resume \
  --out "$ckpt_dir/resumed.json" >/dev/null
cmp "$ckpt_dir/reference.json" "$ckpt_dir/resumed.json"
echo "    resumed result byte-identical to the uninterrupted run"
rm -rf "$ckpt_dir"

echo "==> hostile checkpoint smoke (one flipped body byte: --resume refuses before unmarshaling)"
# A completed run leaves its last periodic checkpoint; flipping one bit
# in the middle of the marshaled body (past the five header lines) must
# make --resume exit 2 with the body-digest refusal as its only stderr
# line, without handing the altered bytes to Marshal.
bad_dir=$(mktemp -d)
bad_args="--nodes 100 --tasks 2000 --churn 0.02 --strategy invitation \
  --arrivals poisson=20,horizon=200,window=50 --seed 7"
"$dhtlb" stream $bad_args --checkpoint "$bad_dir/run.ckpt" --checkpoint-every 50 \
  --out "$bad_dir/full.json" >/dev/null 2>&1
header_len=$(head -n 5 "$bad_dir/run.ckpt" | wc -c)
file_len=$(wc -c < "$bad_dir/run.ckpt")
at=$((header_len + (file_len - header_len) / 2))
byte=$(dd if="$bad_dir/run.ckpt" bs=1 skip="$at" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" |
  dd of="$bad_dir/run.ckpt" bs=1 seek="$at" count=1 conv=notrunc 2>/dev/null
status=0
"$dhtlb" stream $bad_args --checkpoint "$bad_dir/run.ckpt" --resume \
  --out "$bad_dir/resumed.json" >/dev/null 2>"$bad_dir/stderr" || status=$?
if [ "$status" -ne 2 ] || [ "$(wc -l < "$bad_dir/stderr")" -ne 1 ] ||
  ! grep -q "refused before unmarshaling" "$bad_dir/stderr"; then
  echo "==> hostile checkpoint smoke FAILED: exit $status, stderr:" >&2
  cat "$bad_dir/stderr" >&2
  rm -rf "$bad_dir"
  exit 1
fi
echo "    refused: $(cat "$bad_dir/stderr")"
rm -rf "$bad_dir"

echo "==> journaled sweep resume smoke (truncated journal recomputes only the missing cells)"
# A journaled sweep must print the same table as an unjournaled one;
# truncating the journal to its first 3 cells and rerunning must
# recompute exactly the missing cells, print a byte-identical table,
# and leave the journal complete again.  Both journal payload shapes go
# through the binary: attack-sweep's carries derived metrics next to
# the aggregate, steady-sweep's is a bare aggregate with NaN-as-null
# fields.
for sweep in attack-sweep steady-sweep; do
  sweep_dir=$(mktemp -d)
  DHTLB_CHECK=1 "$dhtlb" $sweep --trials 1 --seed 11 \
    > "$sweep_dir/reference.txt"
  DHTLB_CHECK=1 "$dhtlb" $sweep --trials 1 --seed 11 \
    --journal "$sweep_dir/sweep.jsonl" > "$sweep_dir/full.txt"
  cmp "$sweep_dir/reference.txt" "$sweep_dir/full.txt"
  cells=$(wc -l < "$sweep_dir/sweep.jsonl")
  head -n 3 "$sweep_dir/sweep.jsonl" > "$sweep_dir/truncated.jsonl"
  DHTLB_CHECK=1 "$dhtlb" $sweep --trials 1 --seed 11 \
    --journal "$sweep_dir/truncated.jsonl" > "$sweep_dir/resumed.txt"
  cmp "$sweep_dir/reference.txt" "$sweep_dir/resumed.txt"
  repaired=$(wc -l < "$sweep_dir/truncated.jsonl")
  if [ "$repaired" -ne "$cells" ]; then
    echo "==> $sweep journal smoke FAILED: $repaired cells after resume, expected $cells" >&2
    rm -rf "$sweep_dir"
    exit 1
  fi
  echo "    $sweep resumed byte-identical; journal repaired to $cells cells"
  rm -rf "$sweep_dir"
done

echo "==> attack smoke (Sybil eclipse through the real CLI, invariant-checked, undefended then defended)"
# End-to-end through bin/dhtlb with the adversary on: a windowed eclipse
# of one ring arc under churn and live replication, every tick checked
# against the attack laws and the conservation law.  Run twice — without
# the admission defense (the eclipse bites) and with --puzzle-cost (the
# puzzle throttles it) — so both adversary paths stay exercised.
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate \
  --nodes 200 --tasks 20000 --churn 0.02 --replicas 2 --repair-lag 2 \
  --attack strength=2,machines=5,target=0.25,width=0.15,window=5:40 --seed 7
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate \
  --nodes 200 --tasks 20000 --churn 0.02 --replicas 2 --repair-lag 2 \
  --attack strength=2,machines=5,target=0.25,width=0.15,window=5:40 \
  --puzzle-cost 4 --seed 7

echo "==> non-Sybil strategy smokes (diffusive + range-reassign through the real CLI, invariant-checked)"
# End-to-end through bin/dhtlb with the two non-Sybil families on: the
# diffusive run must satisfy the relaxed arc-membership law (transferred
# tasks legitimately sit outside their holder's arc once work_transfers
# > 0) while every other invariant stays strict; the range-reassignment
# run moves ownership through the real leave/join machinery under churn
# and drops.  Both families are also drawn by the generated oracle
# sweeps above, which prove them bit-identical to the naive reference.
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate \
  --nodes 200 --tasks 20000 --churn 0.02 --failures 0.01 \
  --strategy diffusive --faults drop=0.05 --seed 7
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate \
  --nodes 200 --tasks 20000 --churn 0.02 --failures 0.01 \
  --strategy range-reassign --faults drop=0.05 --seed 7

echo "==> attack-off oracle smoke (adversary wired in, --attack off must stay bit-identical)"
# The oracle suite's deterministic adversarial scenarios run on every
# invocation above; this pass re-runs the generated sweep with a fresh
# case budget so attack-off runs keep matching the naive reference
# bit-for-bit with lib/adversary linked in.
DHTLB_ORACLE_CASES=100 dune exec test/test_oracle.exe

echo "==> full battery under the invariant harness (DHTLB_CHECK=1)"
DHTLB_CHECK=1 dune runtest --force

echo "==> scale smoke (50k nodes, invariant-checked, golden-pinned engine)"
# The victim-pin suite's scale case: a 50k-node / 200k-task churny run
# with a 1000-machine crash burst, every tick invariant-checked.  Off by
# default in dune runtest because of its size.
DHTLB_SCALE_SMOKE=1 dune exec test/test_victim_pins.exe

if command -v odoc >/dev/null 2>&1; then
  echo "==> dune build @doc"
  dune build @doc
else
  echo "==> dune build @doc skipped (odoc not installed)"
fi

echo "==> bench smoke (hotpath section, quick scale)"
# Keep the committed baseline aside before the bench overwrites it.
baseline=""
if [ -f BENCH_hotpath.json ]; then
  baseline=$(mktemp)
  cp BENCH_hotpath.json "$baseline"
fi

extract() {
  grep '"sim_run_s"' "$1" | head -n1 | sed 's/.*: *//; s/,.*//'
}

# Regression gate: fail if the end-to-end hot-path run slowed by more
# than 25% against the committed BENCH_hotpath.json.  Skip with
# DHTLB_BENCH_GATE=0 (e.g. on known-slow shared machines).
if [ "${DHTLB_BENCH_GATE:-1}" = "0" ] || [ -z "$baseline" ]; then
  DHTLB_ONLY=hotpath dune exec bench/main.exe
  if [ "${DHTLB_BENCH_GATE:-1}" = "0" ]; then
    echo "==> bench gate skipped (DHTLB_BENCH_GATE=0)"
  else
    echo "==> bench gate skipped (no committed BENCH_hotpath.json baseline)"
  fi
else
  # Best-of-3: one run's sim_run_s is noisy on shared machines
  # (scheduler jitter, cold caches) and used to flake the gate; the
  # minimum of three runs is a much steadier estimate of what the code
  # can actually do, while a real regression slows all three.
  best=""
  for i in 1 2 3; do
    DHTLB_ONLY=hotpath dune exec bench/main.exe
    run=$(extract BENCH_hotpath.json)
    if [ -z "$run" ]; then
      echo "==> bench gate: could not read sim_run_s from run $i" >&2
      rm -f "$baseline"
      exit 1
    fi
    if [ -z "$best" ] || awk -v a="$run" -v b="$best" 'BEGIN { exit !(a < b) }'; then
      best=$run
    fi
  done
  old=$(extract "$baseline")
  if [ -z "$old" ]; then
    echo "==> bench gate: could not read sim_run_s from baseline" >&2
    rm -f "$baseline"
    exit 1
  fi
  if awk -v old="$old" -v new="$best" 'BEGIN { exit !(new > old * 1.25) }'; then
    echo "==> bench gate FAILED: best-of-3 sim_run_s ${best}s vs baseline ${old}s (>25% slower)" >&2
    rm -f "$baseline"
    exit 1
  fi
  echo "==> bench gate OK: best-of-3 sim_run_s ${best}s vs baseline ${old}s"
  rm -f "$baseline"
fi

echo "==> scale bench (20k and 100k legs, 3 seeds each; writes BENCH_scale.json)"
# The scale section sweeps three seeds per leg, so one pass already
# yields a stable median — no best-of-3 re-runs of a 30s section.
# Two gates: (a) setup must stay cheaper than the strategy run it feeds
# (sim_create_s_median < sim_run_s_median on both legs — the quick leg's
# line is the first match, the full leg's the last); (b) the full leg's
# median run time must not regress >25% against the committed baseline.
scale_baseline=""
if [ -f BENCH_scale.json ]; then
  scale_baseline=$(mktemp)
  cp BENCH_scale.json "$scale_baseline"
fi

scale_field() { # file field first|last
  if [ "$3" = first ]; then
    grep "\"$2\"" "$1" | head -n1 | sed 's/.*: *//; s/,.*//'
  else
    grep "\"$2\"" "$1" | tail -n1 | sed 's/.*: *//; s/,.*//'
  fi
}

DHTLB_ONLY=scale dune exec bench/main.exe
for leg in first last; do
  create=$(scale_field BENCH_scale.json sim_create_s_median "$leg")
  run=$(scale_field BENCH_scale.json sim_run_s_median "$leg")
  if [ -z "$create" ] || [ -z "$run" ]; then
    echo "==> scale gate: could not read medians from BENCH_scale.json" >&2
    rm -f "$scale_baseline"
    exit 1
  fi
  if awk -v c="$create" -v r="$run" 'BEGIN { exit !(c >= r) }'; then
    echo "==> scale gate FAILED ($leg leg): sim_create_s_median ${create}s >= sim_run_s_median ${run}s" >&2
    rm -f "$scale_baseline"
    exit 1
  fi
done
new_full=$(scale_field BENCH_scale.json sim_run_s_median last)
if [ "${DHTLB_BENCH_GATE:-1}" = "0" ] || [ -z "$scale_baseline" ]; then
  if [ "${DHTLB_BENCH_GATE:-1}" = "0" ]; then
    echo "==> scale regression gate skipped (DHTLB_BENCH_GATE=0); create<run held on both legs"
  else
    echo "==> scale regression gate skipped (no committed BENCH_scale.json baseline); create<run held on both legs"
  fi
else
  old_full=$(scale_field "$scale_baseline" sim_run_s_median last)
  if [ -z "$old_full" ]; then
    echo "==> scale gate: could not read sim_run_s_median from baseline" >&2
    rm -f "$scale_baseline"
    exit 1
  fi
  if awk -v old="$old_full" -v new="$new_full" 'BEGIN { exit !(new > old * 1.25) }'; then
    echo "==> scale gate FAILED: full-leg sim_run_s_median ${new_full}s vs baseline ${old_full}s (>25% slower)" >&2
    rm -f "$scale_baseline"
    exit 1
  fi
  echo "==> scale gate OK: full-leg sim_run_s_median ${new_full}s vs baseline ${old_full}s; create<run held on both legs"
fi
rm -f "$scale_baseline"

echo "==> stream bench (open-system leg, 3 seeds; writes BENCH_stream.json)"
# Same shape as the scale gate: three seeds in one pass give a stable
# median, gated at 25% against the committed baseline, plus the
# setup-cheaper-than-run sanity check.  The leg exercises the streaming
# path end to end: arrival draws, the birth ledger, and the windowed
# steady-state collector are all on the clock.
stream_baseline=""
if [ -f BENCH_stream.json ]; then
  stream_baseline=$(mktemp)
  cp BENCH_stream.json "$stream_baseline"
fi

DHTLB_ONLY=stream dune exec bench/main.exe
s_create=$(scale_field BENCH_stream.json sim_create_s_median first)
s_run=$(scale_field BENCH_stream.json sim_run_s_median first)
if [ -z "$s_create" ] || [ -z "$s_run" ]; then
  echo "==> stream gate: could not read medians from BENCH_stream.json" >&2
  rm -f "$stream_baseline"
  exit 1
fi
if awk -v c="$s_create" -v r="$s_run" 'BEGIN { exit !(c >= r) }'; then
  echo "==> stream gate FAILED: sim_create_s_median ${s_create}s >= sim_run_s_median ${s_run}s" >&2
  rm -f "$stream_baseline"
  exit 1
fi
if [ "${DHTLB_BENCH_GATE:-1}" = "0" ] || [ -z "$stream_baseline" ]; then
  if [ "${DHTLB_BENCH_GATE:-1}" = "0" ]; then
    echo "==> stream regression gate skipped (DHTLB_BENCH_GATE=0); create<run held"
  else
    echo "==> stream regression gate skipped (no committed BENCH_stream.json baseline); create<run held"
  fi
else
  old_run=$(scale_field "$stream_baseline" sim_run_s_median first)
  if [ -z "$old_run" ]; then
    echo "==> stream gate: could not read sim_run_s_median from baseline" >&2
    rm -f "$stream_baseline"
    exit 1
  fi
  if awk -v old="$old_run" -v new="$s_run" 'BEGIN { exit !(new > old * 1.25) }'; then
    echo "==> stream gate FAILED: sim_run_s_median ${s_run}s vs baseline ${old_run}s (>25% slower)" >&2
    rm -f "$stream_baseline"
    exit 1
  fi
  echo "==> stream gate OK: sim_run_s_median ${s_run}s vs baseline ${old_run}s; create<run held"
fi
rm -f "$stream_baseline"

echo "==> ci.sh: all green"
