#!/usr/bin/env bash
# Worker-pool lint (DESIGN.md "Execution substrate"): `crates/stdpar/src/pool.rs`
# is the only place in `crates/stdpar/src` that may put work on another OS
# thread. A `thread::scope` / `thread::spawn` anywhere else would bring back
# a per-region thread launch (58-80 us and 7 heap allocations per region
# before the pool), so it fails CI.
#
# Scope: production code only. Scanning stops at the `#[cfg(test)]` module
# marker, and comment lines are skipped (the docs may name what was replaced).
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for file in crates/stdpar/src/*.rs; do
    [[ "$file" == crates/stdpar/src/pool.rs ]] && continue
    out=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (line ~ /thread::(scope|spawn)/ || line ~ /thread::Builder/)
                printf "%s:%d: OS thread launched outside pool.rs\n", FILENAME, NR
        }
    ' "$file")
    if [[ -n "$out" ]]; then
        echo "$out" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "thread_spawn_lint: route the region through \`crate::pool::run\` instead" >&2
    exit $status
fi
echo "thread_spawn_lint: no thread::scope / thread::spawn in crates/stdpar/src outside pool.rs"
