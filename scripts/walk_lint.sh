#!/usr/bin/env bash
# One-of-each lint (DESIGN.md "Blocked traversal"): CALCULATEFORCE is written
# once. Each tree crate holds exactly one stackless depth-first walk (its
# `traverse.rs`; `validate.rs`, the reference checker, is exempt), and the
# interaction-list kernels are called from one place, the shared force-tile
# body in `crates/math/src/tiles.rs`. Before that file the backward step
# existed six times and the group body four times, kept equal by tests; a
# second copy of either fails CI.
#
# So is what runs on a walk: one visitor pair. The acceptance test
# (`mac_accepts(`), the per-body accumulation (`struct AccelAt`), the group
# gather (`struct Gather`) and every `impl … Visitor … for` live in
# `crates/math/src/tiles.rs`; a tree crate contributes its walk, its node
# geometry and how a leaf names a body. Before that each tree carried its
# own copy of both visitors, and the copies had drifted apart: the BVH's
# read the bodies where its last sort had left them.
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
# And so is the BVH rebuild (DESIGN.md "Why one step shape"): a tree is
# rebuilt by one code path, so the tree crates and the math crate do not name
# `TaskGraph`. Before `crates/bvh/src/tasks.rs` was deleted the rebuild
# existed a second time as a task graph; this rule fails there.
#
# And a step has one shape, the barrier step (DESIGN.md "Why one step
# shape"): every dependence the library had was 1:1 (tile t of one phase →
# tile t of the next; step j of a session → step j+1), which a barrier or a
# chunk body already orders, so no product path builds a `TaskGraph` — the
# tokens `TaskGraph::` and `taskgraph::TaskGraph` do not occur under
# `crates/{sim,server,bvh,octree,math}/src` — and no second executor for the
# step comes back: `step_dag`, `BusyTable`, `DagScratch` and `run_force_kick`
# do not occur under `crates/*/src`, and no code there reads or writes a
# `.stepping` field. `Stepping::TaskGraph` is a name the pinned benchmark
# spells; both of its values run the one barrier step, and this keeps the name
# from regaining a meaning. This rule fails before the fused step was deleted
# (`crates/sim/src/dag.rs`, `TreeSolver::step_dag`).
#
# And the force kernel is one body (DESIGN.md "SIMD force kernels"): `_mm256_`
# / `_mm512_` intrinsics only in `crates/math/src/simd.rs`, `#[target_feature`
# only on `interaction.rs`'s `unsafe fn eval_group_*` entry points and on the
# per-body packet walk's two, `tiles.rs`'s `unsafe fn packets_avx512` and
# `unsafe fn packets_avx2`, and none of the sources-across-lanes kernel's
# `hsum`, `PAD_COORD` or `tail_f64` left. The one other `#[target_feature`
# user is not a force kernel: the snapshot checksum's PCLMULQDQ fold,
# `crates/math/src/crc32.rs`. The per-body path is the packet walk (DESIGN.md
# "Per-body walk in packets"): no `accel_at_counted(` inside an
# `impl … ForceTiles` block, so one scalar walk per body does not come back
# as a second force-pass path (`accel_at_counted` stays the point query and
# the packet walk's bitwise oracle).
#
# And recovery is one ladder (DESIGN.md "Self-healing"): the guard's. A
# failed force pass reaches it through `Simulation::try_step_into`, whose one
# caller outside `integrator.rs` is `crates/sim/src/guard.rs`; the retired
# second system — `ResilientSolver`, its `RecoveryCounters` and the
# `escalate_fallback` rung the guard used to climb into it — does not come
# back. Served runs step through the same guard: outside tests,
# `HealthMonitor::new(` and `CheckpointRing::with_capacity(` occur only in
# `crates/sim/src/guard.rs`, so no other crate judges steps or keeps rollback
# points of its own. Before a session slot held a `GuardedSimulation`, the
# server ran a second, partial ladder (its own monitor, ring and restore
# loop) that let a failed force pass panic the whole tick; this rule fails
# there.
#
# And a chunk loop has one scheduling discipline (DESIGN.md "Execution
# substrate"): `Dynamic`'s self-scheduled claims, with `DetPar` as the test
# executor. The static-chunk `Threads` backend — `Backend::Threads`,
# `scoped_chunks`, `chunk_of(` and the `Backend::ALL` sweep that ran every
# test on it — does not come back anywhere under `crates/` or `tests/`, test
# code included, and `crates/stdpar/src/foreach.rs` decides the backend of a
# chunk loop in one `match` (on the setting a loop read, `run_chunks`). Before `Threads` was deleted
# five modules made that decision and every backend-swept test ran twice;
# this rule fails there.
#
# And a BVH is sorted one way (DESIGN.md "Incremental tree maintenance"): every
# rebuild, of a tree kept across steps or not, runs the one full
# `try_hilbert_sort_with`, so an incremental refresh is a rebuild. The lazy
# re-sort — its run limit `MAX_LAZY_RUNS`, its natural merge `merge_runs`, its
# scratch `pairs2` / `runs2`, its `BVH_RESORT_RUNS` histogram, the
# `sorted_is_current` flag it read — and the `Refresh` verdict and the
# `persistent` parameter of `TreeOps::rebuild` that routed a refresh to it do
# not come back anywhere under `crates/` or `tests/`, and
# `try_hilbert_resort_with`, kept as a forward to the full sort for the pinned
# benchmark, has no caller there. (`crates/stdpar/src/sort.rs` has a
# `merge_runs` of its own, the parallel merge sort's, and is exempt from that
# token.) Before the lazy re-sort was deleted it lost to the full sort it fell
# back to on every workload that ran it; this rule fails there.
#
# What a deletion leaves behind is a name that must not come back. Those bans
# are data: one line each in the denylist below (name, scope, reason), checked
# first, so a future deletion adds one line. The rules after it are the
# structural one-of-each rules.
#
# The execution setting is the calling thread's (DESIGN.md "Execution
# substrate"): `set_backend`, the process-global `static BACKEND` switch and
# the `test_lock` that fenced it in the stdpar unit tests do not come back.
#
# Scope: production code only, except for the denylist lines scoped `all` or
# to a directory and the BVH-sort rules. Scanning stops at the `#[cfg(test)]`
# module marker, and comment lines are skipped (the docs may name the idiom).
set -euo pipefail

cd "$(dirname "$0")/.."

# Lines of non-test, non-comment code in the files given that contain $1
# (with `-E` first: that match the extended regular expression $1).
hits() {
    local regex=0
    if [[ $1 == -E ]]; then
        regex=1
        shift
    fi
    local pattern=$1
    shift
    for file in "$@"; do
        awk -v pat="$pattern" -v regex="$regex" '
            /^#\[cfg\(test\)\]/ { exit }
            {
                line = $0
                sub(/\/\/.*/, "", line)
                if (regex ? line ~ pat : index(line, pat)) printf "%s:%d:%s\n", FILENAME, NR, $0
            }
        ' "$file"
    done
}

mapfile -t crate_files < <(find crates -path '*/src/*' -name '*.rs' | sort)
mapfile -t all_files < <(find crates tests -name '*.rs' | sort)

status=0

# Deleted names, one per line: `name | scope | reason`. Scope `lib` is the
# non-test code of crates/*/src; `all` is every line under crates/ and
# tests/, test code included; `all except <file>` exempts one file; `in
# <dir>` is every line of the `.rs` files under <dir>. Comments never count.
denylist='
step_dag          | lib                                  | the deleted fused step (one step shape)
BusyTable         | lib                                  | the deleted fused step (one step shape)
DagScratch        | lib                                  | the deleted fused step (one step shape)
run_force_kick    | lib                                  | the deleted fused step (one step shape)
hsum              | lib                                  | the sources-across-lanes kernel (one force kernel)
PAD_COORD         | lib                                  | the sources-across-lanes kernel (one force kernel)
tail_f64          | lib                                  | the sources-across-lanes kernel (one force kernel)
ResilientSolver   | lib                                  | the retired second recovery system (one recovery ladder)
RecoveryCounters  | lib                                  | the retired second recovery system (one recovery ladder)
escalate_fallback | lib                                  | the retired second recovery system (one recovery ladder)
Backend::Threads  | all                                  | the deleted static-chunk backend (one scheduling discipline)
scoped_chunks     | all                                  | the deleted static-chunk backend (one scheduling discipline)
chunk_of(         | all                                  | the deleted static-chunk backend (one scheduling discipline)
Backend::ALL      | all                                  | the deleted static-chunk backend (one scheduling discipline)
MAX_LAZY_RUNS     | all                                  | the deleted lazy re-sort (one BVH sort)
merge_runs        | all except crates/stdpar/src/sort.rs | the deleted lazy re-sort (one BVH sort; the parallel merge sort has its own)
pairs2            | all                                  | the deleted lazy re-sort (one BVH sort)
runs2             | all                                  | the deleted lazy re-sort (one BVH sort)
BVH_RESORT_RUNS   | all                                  | the deleted lazy re-sort (one BVH sort)
sorted_is_current | all                                  | the deleted lazy re-sort (one BVH sort)
Verdict::Refresh  | all                                  | the deleted refresh verdict (one BVH sort)
set_backend       | all                                  | the deleted process-global backend switch (the setting is the calling thread'"'"'s)
static BACKEND    | in crates/stdpar/src                 | the deleted process-global backend switch (the setting is the calling thread'"'"'s)
test_lock         | all                                  | the deleted lock that fenced the process-global switch in the stdpar unit tests
'
trim() {
    local v=$1
    v=${v#"${v%%[![:space:]]*}"}
    printf '%s' "${v%"${v##*[![:space:]]}"}"
}
while IFS='|' read -r name scope reason; do
    name=$(trim "$name")
    [[ -n $name ]] || continue
    scope=$(trim "$scope")
    files=()
    case $scope in
        lib) files=("${crate_files[@]}") ;;
        all) files=("${all_files[@]}") ;;
        "all except "*)
            for file in "${all_files[@]}"; do
                [[ $file == "${scope#all except }" ]] || files+=("$file")
            done
            ;;
        "in "*) mapfile -t files < <(find "${scope#in }" -name '*.rs' | sort) ;;
        *)
            echo "walk_lint: unknown denylist scope \`$scope\` for \`$name\`" >&2
            exit 2
            ;;
    esac
    if [[ $scope == lib ]]; then
        out=$(hits "$name" "${files[@]}")
    else
        out=$(awk -v pat="$name" '
            {
                line = $0
                sub(/\/\/.*/, "", line)
                if (index(line, pat)) printf "%s:%d:%s\n", FILENAME, FNR, $0
            }
        ' "${files[@]}")
    fi
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`$name\` ($(trim "$reason")), scope $scope:" >&2
        echo "$out" >&2
        status=1
    fi
done <<<"$denylist"
if [[ $status -ne 0 ]]; then
    echo "walk_lint: a deleted name came back (the denylist in scripts/walk_lint.sh says what replaced it)" >&2
    exit $status
fi

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

# One visitor pair, and one MAC.
for file in "${crate_files[@]}"; do
    [[ "$file" == crates/math/src/tiles.rs ]] && continue
    out=$(
        hits -E 'impl(<[^{]*>)?[[:space:]]+([A-Za-z_]+::)*Visitor(<[^{]*>)?[[:space:]]+for[[:space:]]' "$file"
        for token in 'struct AccelAt' 'struct Gather' 'mac_accepts('; do
            hits "$token" "$file"
        done
    )
    if [[ -n "$out" ]]; then
        echo "walk_lint: a force visitor or the MAC outside crates/math/src/tiles.rs:" >&2
        echo "$out" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "walk_lint: a tree crate contributes one walk, its node geometry and its leaf naming (a \`nbody_math::TreeView\`); the MAC, both visitors and the list kernels are \`nbody_math::tiles\`" >&2
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
    echo "walk_lint: a tree is rebuilt by one code path (crates/bvh/src/{sort,build}.rs, driven by crates/sim/src/upkeep.rs)" >&2
    exit $status
fi

# Nothing in the library builds a graph, and a step has one shape.
for token in 'TaskGraph::' 'taskgraph::TaskGraph'; do
    out=$(hits "$token" crates/{sim,server,bvh,octree,math}/src/*.rs)
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`$token\` in library code:" >&2
        echo "$out" >&2
        status=1
    fi
done
out=$(hits -E '\.stepping([^A-Za-z0-9_]|$)' "${crate_files[@]}")
if [[ -n "$out" ]]; then
    echo "walk_lint: \`.stepping\` read or written in crate code (both values run the one barrier step):" >&2
    echo "$out" >&2
    status=1
fi
if [[ $status -ne 0 ]]; then
    echo "walk_lint: the barrier step is the only step (crates/sim/src/integrator.rs); a 1:1 dependence is ordered by the barrier or a chunk body (SessionManager::tick), not a graph" >&2
    exit $status
fi

# One force kernel (DESIGN.md "SIMD force kernels"): the vector intrinsics
# live in the lane types of `crates/math/src/simd.rs`, the `#[target_feature]`
# instantiations are the kernel entry points of `interaction.rs`, and the
# sources-across-lanes kernel (horizontal sums, sentinel-padded tails) is
# gone. A second kernel, or intrinsics outside the lane types, fails here.
for file in "${crate_files[@]}"; do
    [[ "$file" == crates/math/src/simd.rs ]] && continue
    for token in '_mm256_' '_mm512_'; do
        out=$(hits "$token" "$file")
        if [[ -n "$out" ]]; then
            echo "walk_lint: \`$token\` intrinsic outside crates/math/src/simd.rs:" >&2
            echo "$out" >&2
            status=1
        fi
    done
done
for file in "${crate_files[@]}"; do
    out=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        pending { if ($0 !~ pending) printf "%s:%d:%s\n", FILENAME, NR, $0; pending = "" }
        /^[[:space:]]*#\[target_feature/ {
            if (FILENAME == "crates/math/src/interaction.rs") pending = "^unsafe fn eval_group_"
            else if (FILENAME == "crates/math/src/tiles.rs") pending = "^unsafe fn packets_avx(512|2)<"
            else if (FILENAME != "crates/math/src/crc32.rs") printf "%s:%d:%s\n", FILENAME, NR, $0
        }
    ' "$file")
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`#[target_feature\` other than on an interaction.rs kernel entry point (\`unsafe fn eval_group_*\`) or a tiles.rs packet walk entry point (\`unsafe fn packets_avx512\`, \`unsafe fn packets_avx2\`):" >&2
        echo "$out" >&2
        status=1
    fi
done
for file in "${crate_files[@]}"; do
    out=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        { line = $0; sub(/\/\/.*/, "", line) }
        !depth && line ~ /^impl.*[^A-Za-z_]ForceTiles[^A-Za-z_]/ { inside = 1 }
        inside {
            if (index(line, "accel_at_counted(")) printf "%s:%d:%s\n", FILENAME, NR, $0
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (depth == 0 && index(line, "}")) inside = 0
        }
    ' "$file")
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`accel_at_counted(\` in the force tiles (the per-body path is the packet walk, \`tiles::accel_packets\`):" >&2
        echo "$out" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "walk_lint: the force kernel is one body with targets across lanes (crates/math/src/interaction.rs) over the lane types of crates/math/src/simd.rs" >&2
    exit $status
fi

# One recovery ladder.
callers=()
for file in "${crate_files[@]}"; do
    [[ "$file" == crates/sim/src/integrator.rs ]] || callers+=("$file")
done
out=$(hits 'try_step_into(' "${callers[@]}")
if [[ $(grep -c . <<<"$out") -ne 1 || "${out%%:*}" != crates/sim/src/guard.rs ]]; then
    echo "walk_lint: \`try_step_into(\` must have exactly one caller outside integrator.rs, in crates/sim/src/guard.rs, found:" >&2
    echo "${out:-  (none)}" >&2
    status=1
fi
for token in 'HealthMonitor::new(' 'CheckpointRing::with_capacity('; do
    out=$(hits "$token" "${crate_files[@]}" | grep -v '^crates/sim/src/guard\.rs:' || true)
    if [[ -n "$out" ]]; then
        echo "walk_lint: \`$token\` outside crates/sim/src/guard.rs (a second watchdog or rollback ring):" >&2
        echo "$out" >&2
        status=1
    fi
done
if [[ $status -ne 0 ]]; then
    echo "walk_lint: a failed force pass is recovered by the guard's rollback ladder only (crates/sim/src/guard.rs), and solo and served runs step through that one guard" >&2
    exit $status
fi

# One scheduling discipline: no static-chunk backend, in library or test
# code, and one backend decision for chunk loops.
out=$(hits -E 'match (current_backend\(\)|setting\.backend)' crates/stdpar/src/foreach.rs)
if [[ $(grep -c . <<<"$out") -gt 1 ]]; then
    echo "walk_lint: more than one backend \`match\` in crates/stdpar/src/foreach.rs:" >&2
    echo "$out" >&2
    status=1
fi
if [[ $status -ne 0 ]]; then
    echo "walk_lint: a chunk loop runs on \`Dynamic\` (or \`DetPar\` in tests), chosen in one place, \`run_chunks\` (crates/stdpar/src/foreach.rs)" >&2
    exit $status
fi
# One BVH sort: no lazy re-sort, no refresh verdict, in library or test code.
out=$(awk '
    {
        line = $0
        sub(/\/\/.*/, "", line)
    }
    !open && match(line, /[^A-Za-z0-9_]Refresh([^A-Za-z0-9_]|$)/) {
        printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
    !open && match(line, /(fn |\.)rebuild\(/) {
        open = 1; depth = 0; start = FNR; args = ""
        line = substr(line, RSTART + RLENGTH - 1)
    }
    open {
        for (i = 1; i <= length(line); i++) {
            c = substr(line, i, 1)
            args = args c
            if (c == "(") depth++
            else if (c == ")" && --depth == 0) {
                open = 0
                if (args ~ /persistent/) printf "%s:%d:rebuild%s\n", FILENAME, start, args
                break
            }
        }
    }
' crates/sim/src/*.rs)
if [[ -n "$out" ]]; then
    echo "walk_lint: a \`Refresh\` verdict or a \`persistent\` argument of \`TreeOps::rebuild\` in crates/sim/src:" >&2
    echo "$out" >&2
    status=1
fi
out=$(awk '
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (index(line, "try_hilbert_resort_with") && !index(line, "fn try_hilbert_resort_with"))
            printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
' "${all_files[@]}")
if [[ -n "$out" ]]; then
    echo "walk_lint: a call of \`try_hilbert_resort_with\` (a forward kept for the pinned benchmark only):" >&2
    echo "$out" >&2
    status=1
fi
if [[ $status -ne 0 ]]; then
    echo "walk_lint: every BVH rebuild, persistent or not, runs the one full \`try_hilbert_sort_with\` (crates/sim/src/upkeep.rs, \`TreeOps::rebuild\`)" >&2
    exit $status
fi
echo "walk_lint: one stackless walk per tree crate, one visitor pair and one MAC and the list kernels' only callers in crates/math/src/tiles.rs, one tree-upkeep state machine in crates/sim/src, one BVH rebuild with no executor named in the tree crates, no \`TaskGraph\` built under crates/{sim,server,bvh,octree,math}/src and one step shape (no fused step, no \`.stepping\` read), one force kernel with its intrinsics in crates/math/src/simd.rs and one per-body path (the packet walk), one recovery ladder (the guard's) with the only \`try_step_into\` caller and the only watchdog and rollback ring, one scheduling discipline for chunk loops decided in one place, one BVH sort for every rebuild (no lazy re-sort, no refresh verdict), and no deleted name back (the denylist)"
