//! What the run ran on: the host fingerprint of every result document, the
//! process's peak RSS, and the one host ceiling that is not a library call
//! (FMA peak).

use crate::report::J;
use std::path::Path;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

fn kib_field(path: &str, key: &str) -> Option<u64> {
    proc_field(path, key)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    kib_field("/proc/self/status", "VmHWM").map_or(0.0, |kib| kib as f64 * 1024.0 / 1e6)
}

pub fn mem_total_bytes() -> u64 {
    kib_field("/proc/meminfo", "MemTotal").map_or(0, |kib| kib * 1024)
}

/// (steal, total) CPU ticks of the whole machine so far, from `/proc/stat`.
/// Steal is time the hypervisor ran someone else while a vCPU here wanted
/// to run: the one source of run-to-run noise a guest can observe.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// One cache of cpu0 as `/sys` describes it.
pub struct Cache {
    pub level: u32,
    pub kind: String,
    pub bytes: u64,
    pub shared_cpus: String,
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

pub fn caches() -> Vec<Cache> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(size)) = (
            read_trimmed(dir.join("level")),
            read_trimmed(dir.join("size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.parse(), parse_size(&size)) else {
            continue;
        };
        out.push(Cache {
            level,
            kind: read_trimmed(dir.join("type")).unwrap_or_default(),
            bytes,
            shared_cpus: read_trimmed(dir.join("shared_cpu_list")).unwrap_or_default(),
        });
    }
    out
}

/// Size of the last-level data cache (0 when `/sys` does not say).
pub fn llc_bytes() -> u64 {
    caches()
        .iter()
        .filter(|c| c.kind != "Instruction")
        .max_by_key(|c| c.level)
        .map_or(0, |c| c.bytes)
}

/// Commit the checkout is at, read from `.git` without running git
/// (`unknown` in an exported tree).
fn git_sha(repo: &Path) -> String {
    let Some(head) = read_trimmed(repo.join(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read_trimmed(repo.join(".git").join(reference))
            .or_else(|| {
                let packed = std::fs::read_to_string(repo.join(".git/packed-refs")).ok()?;
                packed.lines().find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name == reference).then(|| sha.to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Host fingerprint. `simd`, `backend`, `threads` and `features` describe
/// the library as configured and come from the caller (`layers.rs`).
pub fn fingerprint(simd: &str, backend: &str, threads: usize, features: &[&str]) -> J {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    J::obj([
        ("nproc", J::Int(nproc() as u64)),
        (
            "cpu_model",
            J::str(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())),
        ),
        (
            "caches",
            J::Arr(
                caches()
                    .into_iter()
                    .map(|c| {
                        J::obj([
                            ("level", J::Int(c.level as u64)),
                            ("type", J::Str(c.kind)),
                            ("bytes", J::Int(c.bytes)),
                            ("shared_cpu_list", J::Str(c.shared_cpus)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("mem_total_bytes", J::Int(mem_total_bytes())),
        ("simd_level", J::str(simd)),
        ("backend", J::str(backend)),
        ("threads", J::Int(threads as u64)),
        ("git_sha", J::Str(git_sha(&repo))),
        ("rustc", J::Str(rustc_version())),
        (
            "features",
            J::Arr(features.iter().map(|f| J::str(*f)).collect()),
        ),
        ("profile", J::str("release, lto=thin, codegen-units=4")),
    ])
}

/// Peak double-precision rate of one thread in GFLOP/s: twelve independent
/// 4-lane FMA chains, enough to cover the FMA latency × ports product. The
/// library's widest SIMD tier is AVX2+FMA, so that is the ceiling its
/// kernels are held against; without it the loop is plain multiply-add.
pub fn peak_gflops() -> f64 {
    const ITERS: u64 = 20_000_000;
    const CHAINS: u64 = 12;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        let sink = fma_chains(ITERS);
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        best = best.max((ITERS * CHAINS * 4 * 2) as f64 / secs / 1e9);
    }
    best
}

fn fma_chains(iters: u64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: AVX2 and FMA were detected on this CPU just above.
        return unsafe { fma_chains_avx2(iters) };
    }
    let (x, y) = (
        std::hint::black_box(0.999_999_f64),
        std::hint::black_box(1e-9_f64),
    );
    let mut acc = [[1.0f64; 4]; 12];
    for _ in 0..iters {
        for chain in &mut acc {
            for lane in chain.iter_mut() {
                *lane = *lane * x + y;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use core::arch::x86_64::*;
    let x = _mm256_set1_pd(std::hint::black_box(0.999_999));
    let y = _mm256_set1_pd(std::hint::black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); 12];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_pd(*a, x, y);
        }
    }
    let mut total = _mm256_setzero_pd();
    for a in acc {
        total = _mm256_add_pd(total, a);
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is four f64s, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), total) };
    lanes.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("4M"), Some(4 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn fma_loop_does_the_work_it_is_credited_with() {
        // 1.0 → a·x + y twice, on every lane of every chain.
        let once = 1.0 * 0.999_999 + 1e-9;
        let twice: f64 = once * 0.999_999 + 1e-9;
        let got = fma_chains(2);
        assert!((got - 48.0 * twice).abs() < 1e-9, "{got}");
    }
}
