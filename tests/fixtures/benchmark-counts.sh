#!/bin/sh
# Prints the eight exact count metrics of the benchmark's three in-process
# workloads on seed 1, one "<workload> <metric> <value>" line each. One
# client, a closed loop and a fixed operation count make them repeat bit
# for bit, so they are compared at +-0 (DESIGN.md section 14, "Count gate").
# Run from the repository root.
#
#   gate:        sh tests/fixtures/benchmark-counts.sh | diff tests/fixtures/benchmark-counts.txt -
#   regenerate:  sh tests/fixtures/benchmark-counts.sh > tests/fixtures/benchmark-counts.txt
set -eu
counts='nvm_read_blocks_per_op|nvm_write_lines_per_op|nvm_flushes_per_op|nvm_fences_per_op|allocs_per_op|alloc_bytes_per_op|space_amp|dram_bytes_per_key'
for workload in kv-read-skew kv-read-uniform kv-write-grow; do
    # Assigned first so that a wrong reply (exit 1) stops the script.
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run "$workload" --seed 1 --seconds 1)
    printf '%s\n' "$out" | tail -n 1 \
        | grep -oE "\"($counts)\": \{\"value\": [^,}]+" \
        | sed -E "s/^\"([a-z_]+)\": \{\"value\": /$workload \1 /"
done
