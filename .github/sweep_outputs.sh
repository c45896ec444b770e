#!/usr/bin/env bash
# Write every output a byte-identity check compares into OUTDIR, and check
# that each sweep writes the same bytes serially and with two workers.
#
# Usage: .github/sweep_outputs.sh OUTDIR
#
# Each sweep NAME leaves NAME.serial.csv and NAME.pool.csv (aggregates), their
# .trials.csv files, and NAME.serial.err and NAME.pool.err (stderr); the run
# stops at the first sweep that exits nonzero or whose serial and pooled files
# differ, and if the p = 1 matched sweep's status line counts a trial that did
# not converge or failed.  The sweeps are both shipped configs, the override
# sweeps below, and the benchmark's matched and mismatched inputs at master
# seeds 41001-41003 (its mismatched-2proc workload is the mismatched input on
# two workers).
# Each shipped config and each override sweep also leaves NAME.width.csv,
# NAME.solve.csv and NAME.rsc.csv, and NAME.slope.csv, the slope subcommand's
# refit of its serial aggregate CSV, so every subcommand's CSV is compared on
# every family, design and constraint.  The package runs from this checkout's
# src/, so an empty `diff -r` of two checkouts' OUTDIRs shows that a change
# moved no byte of any of them.
set -euo pipefail

mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
conewidth() {
  PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m conewidth.cli "$@"
}

same_csvs() {  # name, config, overrides...
  local base="$out/$1"
  conewidth sweep --config "$2" --out "$base.serial.csv" "${@:3}" 2> "$base.serial.err" \
    || { cat "$base.serial.err"; return 1; }
  CONEWIDTH_THREADS=2 conewidth sweep --config "$2" --out "$base.pool.csv" "${@:3}" 2> "$base.pool.err" \
    || { cat "$base.pool.err"; return 1; }
  cmp "$base.serial.csv" "$base.pool.csv"
  cmp "$base.serial.csv.trials.csv" "$base.pool.csv.trials.csv"
  cmp "$base.serial.err" "$base.pool.err"
}

every_csv() {  # name, config, overrides...: same_csvs, then the slope, width, solve and rsc CSVs
  same_csvs "$@"
  conewidth slope --csv "$out/$1.serial.csv" --out "$out/$1.slope.csv"
  for command in width solve rsc; do
    conewidth "$command" --config "$2" --out "$out/$1.$command.csv" "${@:3}"
  done
}

every_csv matched configs/matched.cfg
every_csv mismatched configs/mismatched.cfg
# perfbench's logistic-matched overrides
every_csv logistic-matched configs/matched.cfg family=logistic ensemble=rademacher p=100 s=3 \
  theta_magnitude=1.0 n_grid=60,120,240 mu_mode=theoretical rsc_directions=400 trials=3
# a mismatched non-gaussian sweep: rademacher designs tie the localized gradient magnitudes
every_csv logistic-mismatched configs/mismatched.cfg family=logistic ensemble=rademacher p=100 s=3 \
  theta_magnitude=1.0 slack=1.5 n_grid=60,120,240 trials=3 mc_samples=500
# the poisson family under both constraints
every_csv poisson-matched configs/matched.cfg family=poisson p=100 s=3 theta_magnitude=0.1 \
  n_grid=60,120,240 trials=3
every_csv poisson-mismatched configs/mismatched.cfg family=poisson p=100 s=3 theta_magnitude=0.1 \
  slack=0.5 n_grid=60,120,240 trials=3 mc_samples=500
# theta_magnitude=400 underflows the theoretical mu to 0: the only sweeps whose bounds are all inf
underflow="family=logistic ensemble=rademacher p=20 s=2 theta_magnitude=400 n_grid=40,60,90 trials=2
  mc_samples=300 rsc_directions=100 mu_mode=theoretical"
every_csv underflow-matched configs/matched.cfg $underflow
every_csv underflow-mismatched configs/mismatched.cfg $underflow slack=1
# gaussian trials on a Rademacher design keep their design at every n, below p and above it
every_csv gaussian-rademacher configs/mismatched.cfg ensemble=rademacher n_grid=128,256,1024 trials=3 mc_samples=500
# the only sweep whose localized direction set comes up short: rsc counts 109 of 128 directions
short="family=logistic ensemble=rademacher p=10 s=2 theta_magnitude=1.0 slack=4 n_grid=60,120,240 trials=2
  mc_samples=300 mu_mode=theoretical"
every_csv short-directions configs/mismatched.cfg $short
# a p = 1 matched sweep: the slowest geometry for the localized sampler to fill, and
# one where a momentum step clipped back onto a vertex once stalled two solves
every_csv p1-matched configs/matched.cfg p=1 s=1 theta_magnitude=1.0 n_grid=4,8,16,32 trials=3 \
  mc_samples=500 rsc_directions=100
grep -qx "sweep: 12 trials, 0 not converged, 0 failed" "$out/p1-matched.serial.err" \
  || { cat "$out/p1-matched.serial.err"; exit 1; }
# the benchmark's inputs (perfbench/run.py's WORKLOADS)
for seed in 41001 41002 41003; do
  same_csvs "bench-matched-$seed" configs/matched.cfg trials=5 "master_seed=$seed"
  same_csvs "bench-mismatched-$seed" configs/mismatched.cfg n_grid=128,256,512,1024,2048,4096 trials=1 \
    mc_samples=250 "master_seed=$seed"
done

