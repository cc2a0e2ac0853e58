#!/usr/bin/env bash
# Memory-ordering audit lint (DESIGN.md "Determinism & memory-ordering
# audit"): every `Ordering::Relaxed` in the audited concurrency cores must
# carry a `// relaxed-ok:` justification — on the same line or within the
# four preceding lines. Unjustified sites fail CI, so a new relaxed access
# cannot land without an argument for why the weakest ordering is enough.
#
# Scope: production code only. Scanning stops at the `#[cfg(test)]` module
# marker — test fixtures may use relaxed atomics freely (e.g. to model the
# very store orders the DetPar adversarial schedule is designed to catch).
set -euo pipefail

cd "$(dirname "$0")/.."

AUDITED=(
    crates/octree/src/tree.rs
    crates/octree/src/multipole.rs
    crates/stdpar/src/backend.rs
    crates/stdpar/src/detpar.rs
    crates/stdpar/src/pool.rs
    crates/stdpar/src/taskgraph.rs
)

status=0
for file in "${AUDITED[@]}"; do
    if [[ ! -f "$file" ]]; then
        echo "relaxed_lint: audited file missing: $file" >&2
        status=1
        continue
    fi
    # Two justification forms:
    #   `// relaxed-ok: <why>`          — covers the same line and the next
    #                                     few (6-line window, so a wrapped
    #                                     comment paragraph still reaches);
    #   `// relaxed-ok (<scope>): <why>` — block form, covers every Relaxed
    #                                     until the end of the enclosing
    #                                     method (a `}` at indent ≤ 4).
    out=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        {
            hist[NR] = $0
            if ($0 ~ /\/\/ relaxed-ok \(/) block = 1
            if ($0 ~ /^    }/ || $0 ~ /^}/) block = 0
            if ($0 ~ /Ordering::Relaxed/) {
                ok = block
                for (i = NR; i >= NR - 6 && i > 0; i--)
                    if (hist[i] ~ /\/\/ relaxed-ok/) ok = 1
                if (!ok) printf "%s:%d: Ordering::Relaxed without a relaxed-ok justification\n", FILENAME, NR
            }
        }
    ' "$file")
    if [[ -n "$out" ]]; then
        echo "$out" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "relaxed_lint: add a \`// relaxed-ok: <why>\` comment (same line or the 6 above) or strengthen the ordering" >&2
    exit $status
fi
echo "relaxed_lint: all Ordering::Relaxed sites justified"
