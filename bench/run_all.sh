#!/usr/bin/env bash
# Runs the fit, react and react_ik workloads in turn and prints each one's
# end-to-end metrics; exits non-zero as soon as one run fails a check.
# Usage, from the repository root: bench/run_all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-0}"
seconds="${2:-30}"
for workload in fit react react_ik; do
    python3 bench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
