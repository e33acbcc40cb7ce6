#!/bin/sh
# Run every workload once and print its end-to-end metrics.
#   sh perfbench/all.sh [SEED] [SECONDS]
set -e
for workload in divisibility lattice reduce; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-42}" --trace 0
done
