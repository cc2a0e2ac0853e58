#!/usr/bin/env bash
# One-of-each lint (DESIGN.md "Blocked traversal"): CALCULATEFORCE is written
# once. Each tree crate holds exactly one stackless depth-first walk (its
# `traverse.rs`; `validate.rs`, the reference checker, is exempt), and the
# interaction-list kernels are called from one place, the shared force-tile
# body in `crates/math/src/tiles.rs`. Before that file the backward step
# existed six times and the group body four times, kept equal by tests; a
# second copy of either fails CI.
#
# The octree's walk runs over its walk-order layout (DESIGN.md "The
# octree's two layouts"): its one idiom is the skip step, and the paper's
# Fig. 3 tag loop — the backward step over child slots — survives only as
# the test reference in `validate.rs`; anywhere else in the crate it fails.
#
# So is the tree-upkeep decision (DESIGN.md "Lifecycle state machine"): the three things
# only a step that serves the tree stale does — set the MAC pad, count the
# stale step, record the reuse — each happen once in `crates/sim/src`, all
# in the one file that holds the state machine. Before
# `crates/sim/src/upkeep.rs` each happened three times, in two files.
#
# And so is the BVH rebuild (DESIGN.md "Task-graph stepping"): a tree is
# rebuilt by the same code whichever executor drives the step, so the tree
# crates and the math crate do not name `TaskGraph`. Before
# `crates/bvh/src/tasks.rs` was deleted the rebuild existed a second time as
# a task graph; this rule fails there.
#
# And the step and the tick are loops, not graphs: every dependence the
# library had was 1:1 (tile t of one phase → tile t of the next; step j of a
# session → step j+1), which a chunk body of one `for_each_chunk_worker`
# region already orders, so no product path builds a `TaskGraph`. The tokens
# `TaskGraph::` and `taskgraph::TaskGraph` do not occur under
# `crates/{sim,server,bvh,octree,math}/src`; the enum variant
# `Stepping::TaskGraph` (a name the pinned benchmark spells) is the one
# allowed spelling. This rule fails before the fused step and the batched tick
# became plain regions (`DagScratch::graph`, `SessionManager::graph`).
#
# Scope: production code only. Scanning stops at the `#[cfg(test)]` module
# marker, and comment lines are skipped (the docs may name the idiom).
set -euo pipefail

cd "$(dirname "$0")/.."

# Lines of non-test, non-comment code in the files given that match $1.
hits() {
    local pattern=$1
    shift
    for file in "$@"; do
        awk -v pat="$pattern" '
            /^#\[cfg\(test\)\]/ { exit }
            {
                line = $0
                sub(/\/\/.*/, "", line)
                if (index(line, pat)) printf "%s:%d:%s\n", FILENAME, NR, $0
            }
        ' "$file"
    done
}

status=0

# The backward step of the stackless DFS, as each node encoding spells it.
check_one_walk() {
    local crate=$1 idiom=$2 files=() out
    for file in crates/"$crate"/src/*.rs; do
        [[ "$file" == */validate.rs ]] || files+=("$file")
    done
    out=$(hits "$idiom" "${files[@]}")
    if [[ $(grep -c . <<<"$out") -ne 1 ]]; then
        echo "walk_lint: crates/$crate/src must hold exactly one stackless walk (\`$idiom\`), found:" >&2
        echo "${out:-  (none)}" >&2
        status=1
    fi
}
check_one_walk bvh 'i >>= 1'
check_one_walk octree '(e, k) = (link as usize, node.skip as usize)'
for file in crates/octree/src/*.rs; do
    [[ "$file" == */validate.rs ]] && continue
    out=$(hits 'sibling_rank(i) != tags::CHILDREN - 1' "$file")
    if [[ -n "$out" ]]; then
        echo "walk_lint: the Fig. 3 tag loop outside validate.rs (the walk runs on the layout):" >&2
        echo "$out" >&2
        status=1
    fi
done

# The list kernels are consumed by the shared tile body only.
for call in '.eval_group(' '.eval_at('; do
    out=$(hits "$call" crates/bvh/src/*.rs crates/octree/src/*.rs crates/sim/src/*.rs)
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`$call\` outside the shared force-tile body:" >&2
        echo "$out" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "walk_lint: add a \`Visitor\` on the crate's \`walk\`, or go through \`nbody_math::ForceTiles\`" >&2
    exit $status
fi

# The stale-serve idioms: once each, and in one file.
upkeep_files=
for idiom in 'mac_pad =' 'stale_steps +=' 'record!(counter TREE_REUSE_STEPS'; do
    out=$(hits "$idiom" crates/sim/src/*.rs)
    if [[ $(grep -c . <<<"$out") -ne 1 ]]; then
        echo "walk_lint: \`$idiom\` must occur exactly once in crates/sim/src, found:" >&2
        echo "${out:-  (none)}" >&2
        status=1
    fi
    upkeep_files+="${out%%:*}"$'\n'
done
if [[ $status -eq 0 && $(sort -u <<<"${upkeep_files%$'\n'}" | wc -l) -ne 1 ]]; then
    echo "walk_lint: the stale-serve idioms are spread over more than one file:" >&2
    sort -u <<<"${upkeep_files%$'\n'}" >&2
    status=1
fi
if [[ $status -ne 0 ]]; then
    echo "walk_lint: tree upkeep is decided and carried out in one place, \`Upkeep\` (crates/sim/src/upkeep.rs)" >&2
    exit $status
fi

# The tree crates do not know an executor exists.
out=$(hits 'TaskGraph' crates/bvh/src/*.rs crates/octree/src/*.rs crates/math/src/*.rs)
if [[ -n "$out" ]]; then
    echo "walk_lint: \`TaskGraph\` named in a tree crate or the math crate:" >&2
    echo "$out" >&2
    status=1
fi
if [[ $status -ne 0 ]]; then
    echo "walk_lint: a tree is rebuilt by one code path under both executors (crates/bvh/src/{sort,build}.rs, driven by crates/sim/src/upkeep.rs)" >&2
    exit $status
fi

# Nothing in the library builds a graph.
for token in 'TaskGraph::' 'taskgraph::TaskGraph'; do
    out=$(hits "$token" crates/{sim,server,bvh,octree,math}/src/*.rs)
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`$token\` in library code:" >&2
        echo "$out" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "walk_lint: a 1:1 dependence is a loop body — run the dependent tile straight after its tile inside one \`for_each_chunk_worker\` chunk (crates/sim/src/dag.rs, SessionManager::tick)" >&2
    exit $status
fi
echo "walk_lint: one stackless walk per tree crate, list kernels called from crates/math/src/tiles.rs only, one tree-upkeep state machine in crates/sim/src, one BVH rebuild with no executor named in the tree crates, no \`TaskGraph\` built under crates/{sim,server,bvh,octree,math}/src"
