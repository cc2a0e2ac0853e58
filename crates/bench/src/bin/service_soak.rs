//! Multi-tenant service soak: open-loop session load against the
//! [`SessionManager`] (DESIGN.md § Multi-tenant service).
//!
//! The pool is prefilled to capacity, then every tick an open-loop
//! arrival process offers a fixed number of new sessions regardless of
//! how the service is keeping up (rejections are counted, not retried),
//! and sessions that reach their step lifetime are closed. Two arms run
//! the identical load:
//!
//! - **batched** — one parallel region over the planned sessions per tick;
//!   the worker pool is entered once per tick.
//! - **per_session** — the naive baseline: sessions step one at a time,
//!   each step opening its own parallel regions, so the pool is entered
//!   once per session per region per step.
//!
//! Reported per arrival rate and arm: completed sessions/sec, steps/sec,
//! p50/p99 per-step latency, and the Jain fairness index of per-session
//! progress rates (steps per tick alive; 1.0 = perfectly fair). The
//! `batched_vs_naive` summary in `BENCH_service.json` compares the arms
//! at the highest arrival rate.
//!
//! Usage: `service_soak [--sessions=256] [--n=1000] [--ticks=12]
//!   [--lifetime=8] [--arrivals=16,64] [--threads=4]
//!   [--quantum-us=20000] [--smoke] [--json=PATH]`
//!
//! The full-mode quantum must cover at least one N=1000 step (~15 ms on
//! this host): deficits are capped at `burst_ticks` quanta, so a quantum
//! far below the per-step cost starves every session after its first
//! (estimate-priced) step.

use nbody_bench::{arg, flag, print_banner, print_table};
use nbody_server::{
    CostModel, SchedulerConfig, SessionConfig, SessionId, SessionManager, TickMode,
};
use nbody_sim::prelude::*;
use nbody_telemetry::json::fmt_f64;
use std::time::Instant;

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static COUNTING_ALLOC: stdpar::alloc_stats::CountingAlloc = stdpar::alloc_stats::CountingAlloc;

struct ArmStats {
    mode: &'static str,
    arrival: usize,
    wall_s: f64,
    completed: u64,
    rejected: u64,
    steps: u64,
    p50_us: f64,
    p99_us: f64,
    fairness: f64,
    peak_live: usize,
    quarantines: u64,
}

/// Nearest-rank percentile of an already-sorted sample, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Jain fairness index: (Σx)² / (k·Σx²); 1.0 = every session progressed
/// at the same rate.
fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return 1.0;
    }
    s * s / (xs.len() as f64 * s2)
}

#[allow(clippy::too_many_arguments)]
fn run_arm(
    mode: TickMode,
    label: &'static str,
    capacity: usize,
    n: usize,
    arrival: usize,
    lifetime: u64,
    ticks: u64,
    quantum_ns: u64,
) -> ArmStats {
    let sched = SchedulerConfig {
        quantum_ns,
        max_steps_per_tick: 8,
        burst_ticks: 2,
        cost_model: CostModel::Measured,
        // The batched service owns its parallelism: its region is
        // sized to the hardware, not to whatever thread count tenants
        // asked for. The naive arm inherits the tenant setting — that
        // per-step over-subscription is exactly the overhead the batched
        // design removes.
        workers: match mode {
            TickMode::Batched => stdpar::backend::hardware_parallelism(),
            TickMode::PerSession => 0,
        },
    };
    let mut mgr = SessionManager::new(capacity, mode, sched);
    let cfg = SessionConfig {
        opts: SimOptions { dt: 1e-3, softening: 5e-3, ..SimOptions::default() },
        ..SessionConfig::default()
    };
    // (id, admit tick) for fairness normalisation by time alive.
    let mut roster: Vec<(SessionId, u64)> = Vec::new();
    let mut seed = 0x5EA50u64;
    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut steps = 0u64;
    let mut quarantines = 0u64;

    for _ in 0..capacity {
        match mgr.admit(galaxy_collision(n, seed), &cfg) {
            Ok(id) => roster.push((id, 0)),
            Err(_) => rejected += 1,
        }
        seed += 1;
    }
    let mut peak_live = mgr.live_sessions();

    let t0 = Instant::now();
    for t in 1..=ticks {
        let report = mgr.tick();
        steps += report.steps;
        quarantines += report.new_quarantines as u64;
        // Quarantined sessions hold a slot but earn no budget: roll them
        // back to their newest checkpoint so they rejoin the rotation.
        for &(id, _) in &roster {
            if matches!(mgr.quarantine_reason(id), Ok(Some(_))) {
                let _ = mgr.restore_quarantined(id);
            }
        }
        roster.retain(|&(id, _)| match mgr.session_steps(id) {
            Ok(done) if done >= lifetime => {
                mgr.close(id).expect("live id closes");
                completed += 1;
                false
            }
            Ok(_) => true,
            Err(_) => false,
        });
        for _ in 0..arrival {
            match mgr.admit(galaxy_collision(n, seed), &cfg) {
                Ok(id) => roster.push((id, t)),
                Err(_) => rejected += 1,
            }
            seed += 1;
        }
        peak_live = peak_live.max(mgr.live_sessions());
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let mut lats = mgr.step_latencies().to_vec();
    lats.sort_unstable();
    // Service rate of each still-live session: busy nanoseconds per tick
    // alive — the quantity deficit-round-robin equalises. Sessions
    // admitted in the last tick haven't had a fair chance yet.
    let rates: Vec<f64> = roster
        .iter()
        .filter(|&&(_, at)| ticks - at >= 2)
        .filter_map(|&(id, at)| {
            Some(mgr.session_busy_ns(id).ok()? as f64 / (ticks - at) as f64)
        })
        .collect();

    ArmStats {
        mode: label,
        arrival,
        wall_s,
        completed,
        rejected,
        steps,
        p50_us: percentile_us(&lats, 0.50),
        p99_us: percentile_us(&lats, 0.99),
        fairness: jain(&rates),
        peak_live,
        quarantines,
    }
}

fn main() {
    print_banner("Multi-tenant service soak — batched tick vs per-session stepping");
    let smoke = flag("smoke");
    let sessions: usize = arg("sessions", if smoke { 16 } else { 256 });
    let n: usize = arg("n", if smoke { 200 } else { 1_000 });
    let ticks: u64 = arg("ticks", if smoke { 6 } else { 12 });
    let lifetime: u64 = arg("lifetime", if smoke { 6 } else { 8 });
    let threads: usize = arg("threads", 4);
    let quantum_us: u64 = arg("quantum-us", if smoke { 4_000 } else { 20_000 });
    let arrivals_raw: String = arg("arrivals", if smoke { "4" } else { "16,64" }.to_string());
    let json_path: String = arg("json", String::new());
    let arrivals: Vec<usize> =
        arrivals_raw.split(',').filter_map(|s| s.trim().parse().ok()).collect();

    // The host may expose a single core; a forced multi-worker pool is
    // what makes the structural difference visible — the naive arm pays
    // scoped-thread spawns per session per step, the batched arm once
    // per tick.
    stdpar::backend::set_threads(threads);

    let mut arms: Vec<ArmStats> = Vec::new();
    for &arrival in &arrivals {
        for (mode, label) in
            [(TickMode::Batched, "batched"), (TickMode::PerSession, "per_session")]
        {
            let s =
                run_arm(mode, label, sessions, n, arrival, lifetime, ticks, quantum_us * 1_000);
            println!(
                "  {label:<12} arrival={arrival:<4} wall {:.2}s  completed {}  steps {}",
                s.wall_s, s.completed, s.steps
            );
            arms.push(s);
        }
    }

    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|a| {
            vec![
                a.mode.into(),
                format!("{}", a.arrival),
                format!("{:.2}", a.wall_s),
                format!("{:.1}", a.completed as f64 / a.wall_s),
                format!("{:.0}", a.steps as f64 / a.wall_s),
                format!("{:.0}", a.p50_us),
                format!("{:.0}", a.p99_us),
                format!("{:.4}", a.fairness),
                format!("{}", a.peak_live),
                format!("{}", a.rejected),
            ]
        })
        .collect();
    print_table(
        &[
            "mode", "arrival/tick", "wall s", "sessions/s", "steps/s", "p50 µs", "p99 µs",
            "jain", "peak live", "rejected",
        ],
        &rows,
    );

    // Compare the arms under the heaviest offered load.
    let batched = arms.iter().rfind(|a| a.mode == "batched").expect("batched arm ran");
    let naive = arms.iter().rfind(|a| a.mode == "per_session").expect("naive arm ran");
    let throughput_ratio =
        (batched.completed as f64 / batched.wall_s) / (naive.completed as f64 / naive.wall_s);
    let p99_ratio = naive.p99_us / batched.p99_us;
    println!();
    println!(
        "batched vs per-session @ arrival {}: {throughput_ratio:.2}x sessions/s, \
         {p99_ratio:.2}x lower p99 step latency, fairness {:.4} vs {:.4}",
        batched.arrival, batched.fairness, naive.fairness
    );

    if !json_path.is_empty() {
        let mut arm_docs = String::new();
        for (i, a) in arms.iter().enumerate() {
            let sep = if i + 1 < arms.len() { "," } else { "" };
            arm_docs.push_str(&format!(
                "    {{\n      \"mode\": \"{}\",\n      \"arrival_per_tick\": {},\n      \
                 \"wall_s\": {},\n      \"completed\": {},\n      \"rejected\": {},\n      \
                 \"sessions_per_s\": {},\n      \"steps\": {},\n      \"steps_per_s\": {},\n      \
                 \"p50_step_us\": {},\n      \"p99_step_us\": {},\n      \
                 \"fairness_jain\": {},\n      \"peak_live\": {},\n      \
                 \"quarantines\": {}\n    }}{sep}\n",
                a.mode,
                a.arrival,
                fmt_f64(a.wall_s),
                a.completed,
                a.rejected,
                fmt_f64(a.completed as f64 / a.wall_s),
                a.steps,
                fmt_f64(a.steps as f64 / a.wall_s),
                fmt_f64(a.p50_us),
                fmt_f64(a.p99_us),
                fmt_f64(a.fairness),
                a.peak_live,
                a.quarantines,
            ));
        }
        let doc = format!(
            "{{\n  \"bench\": \"service_soak\",\n  \"n\": {n},\n  \"sessions\": {sessions},\n  \
             \"ticks\": {ticks},\n  \"lifetime_steps\": {lifetime},\n  \"threads\": {threads},\n  \
             \"quantum_us\": {quantum_us},\n  \"arms\": [\n{arm_docs}  ],\n  \
             \"batched_vs_naive\": {{\n    \"arrival_per_tick\": {},\n    \
             \"sessions_per_s_ratio\": {},\n    \"p99_step_latency_ratio\": {},\n    \
             \"fairness_batched\": {},\n    \"fairness_naive\": {}\n  }}\n}}\n",
            batched.arrival,
            fmt_f64(throughput_ratio),
            fmt_f64(p99_ratio),
            fmt_f64(batched.fairness),
            fmt_f64(naive.fairness),
        );
        std::fs::write(&json_path, doc).expect("write json");
        println!("wrote {json_path}");
    }
}
