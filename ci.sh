#!/bin/sh
# CI entry point: full build, the whole test battery (normal and checked
# mode), the differential-oracle smoke run (twice: plain, and with
# metrics + a bounded trace sink to prove instrumentation does not
# perturb the PRNG stream), smokes of the CLI, and the performance
# ledger (bench/ledger: four workloads, digest-checked) gated against
# the committed BENCH_ledger.json.
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

echo "==> seeded churn oracle sweep (10,000 cases; a failure never takes the ring's last vnode)"
# Case 2 of the properties group is the churn strategy's engine = full
# oracle property.  This seed once shrank to a two-machine run whose
# last, keyless vnode left the ring on a failure: the next arrivals were
# charged to tasks_lost with live replication off (~7 s).
QCHECK_SEED=899118630 DHTLB_ORACLE_CASES=10000 \
  dune exec test/test_oracle.exe -- test properties 2

echo "==> seeded checked invitation oracle sweep (500 scenarios, clean-vnode law every tick)"
# Case 6 of the properties group is the invitation strategy's engine =
# full oracle property; 5,000 cases over ten strategies give it 500
# scenarios, half of them with 1-3 replicas.  Under DHTLB_CHECK=1 every
# tick also checks that each vnode outside the repair pass's dirty set
# holds exactly its successor list, so a membership change that forgot
# to mark a vnode fails here even before the oracle's full repair pass
# disagrees.  Seed 2 takes 7-12 s on a 2-core host.
DHTLB_CHECK=1 QCHECK_SEED=2 DHTLB_ORACLE_CASES=5000 \
  dune exec test/test_oracle.exe -- test properties 6

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

echo "==> duplicate-arrival smoke (hot keys repeat after diffusive transfers, invariant-checked)"
# Two hotspots 1e-15 of the ring wide make arrivals repeat keys, and
# diffusive transfers move tasks off their owners' arcs.  A repeat of a
# key stored anywhere must be dropped at the door: admitting it stored
# one task twice and crashed the run (exit 125).
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- stream \
  --nodes 50 --tasks 200 --strategy diffusive --seed 1 \
  --arrivals poisson=20,hot=2:0.000000000000001:1.1,horizon=100 >/dev/null

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

echo "==> range-reassign under live replication (relocations keep the replica map exact, invariant-checked)"
# A relocation is a graceful leave plus a join, and with --replicas on
# each one rewrites the replica map: the leaver's recipient keeps only
# shared holders, the newcomer borrows its donor's.  Crash bursts and
# failures then recover from those lists, so a stale entry would lose
# tasks or fail the holder-map laws checked every tick.
DHTLB_CHECK=1 dune exec bin/dhtlb.exe -- simulate --trials 1 \
  --nodes 200 --tasks 20000 --churn 0.02 --failures 0.01 \
  --strategy range-reassign --replicas 2 --repair-lag 2 \
  --faults drop=0.05,crash=20@10+15@30 --seed 7

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

echo "==> bench gate (performance ledger: 4 workloads, seed 42, 3 reps, vs BENCH_ledger.json)"
# ledger.exe run fails on any failed repetition, broken invariant or
# golden-digest mismatch.  The gate then reads the fresh file and the
# committed baseline, and fails on any workload missing from either.
# Per workload: the keys_per_s median must not fall below the
# baseline's / 1.25 (a run at most 25% slower; DHTLB_BENCH_GATE=0 skips
# this floor on known-slow machines), and setup must stay cheaper than
# the run it feeds: the setup_s median below sim.tasks_completed / the
# keys_per_s median, which is the median untraced run time.
bench_dir=$(mktemp -d)
dune exec bench/ledger/ledger.exe -- run --out "$bench_dir/ledger.json"
if ! awk -v floor_on="${DHTLB_BENCH_GATE:-1}" '
  # After sub(), a field is a string: "+ 0" keeps every comparison numeric.
  function num(s) { sub(/,$/, "", s); return s + 0 }
  { f = FILENAME == ARGV[1] ? "base" : "new" }
  $1 == "{" { w = "" }
  $1 == "\"name\":" { w = $2; gsub(/[",]/, "", w); if (!(w in seen)) { seen[w] = 1; order[++n] = w } }
  $2 == "{" { key = $1 }
  $1 == "\"median\":" && key == "\"keys_per_s\":" { kps[f, w] = num($2) }
  $1 == "\"median\":" && key == "\"setup_s\":" { setup[f, w] = num($2) }
  $1 == "\"value\":" && key == "\"sim.tasks_completed\":" { tasks[f, w] = num($2) }
  END {
    if (n == 0) { print "    no workload in either file"; exit 1 }
    for (i = 1; i <= n; i++) {
      w = order[i]
      if (!(("base", w) in kps) || !(("new", w) in kps) || !(("new", w) in setup) || !(("new", w) in tasks)) {
        printf "    %-17s FAILED: missing from the baseline or the fresh run\n", w; bad = 1; continue
      }
      floor = kps["base", w] / 1.25; run = tasks["new", w] / kps["new", w]
      slow = floor_on != "0" && kps["new", w] < floor; heavy = setup["new", w] >= run
      printf "    %-17s %s: keys_per_s median %.0f vs floor %.0f (baseline %.0f / 1.25); setup %.3f s vs run %.3f s\n",
        w, slow || heavy ? "FAILED" : "OK", kps["new", w], floor, kps["base", w], setup["new", w], run
      if (slow || heavy) bad = 1
    }
    exit bad
  }' BENCH_ledger.json "$bench_dir/ledger.json"; then
  echo "==> bench gate FAILED (fresh run kept in $bench_dir)" >&2
  exit 1
fi
if [ "${DHTLB_BENCH_GATE:-1}" = "0" ]; then
  echo "    throughput floor skipped (DHTLB_BENCH_GATE=0)"
fi
rm -rf "$bench_dir"

echo "==> ci.sh: all green"
