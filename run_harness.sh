#!/bin/bash
set -x
cd "$(dirname "$0")"
cargo build --release --workspace --bins -q 2>&1 | tail -3
B=target/release
$B/table1_triad --elems=16777216 --reps=10      > results/table1_triad.txt 2>&1
$B/fig5_seq_vs_par                              > results/fig5.txt 2>&1
$B/fig8_breakdown --n=100000 --steps=2          > results/fig8.txt 2>&1
$B/validation --n=50000 --steps=24              > results/validation.txt 2>&1
$B/fig6_small --n=30000 --steps=2               > results/fig6.txt 2>&1
$B/fig7_mid --n=1000000 --steps=1               > results/fig7.txt 2>&1
$B/theta_sweep --n=20000                        > results/theta_sweep.txt 2>&1
$B/tree_reuse --n=50000 --steps=16              > results/tree_reuse.txt 2>&1
echo ALL_DONE
