//! Host hygiene: CPU pinning, the host fingerprint, and process-level
//! resource counters.
//!
//! On a small shared host thread placement dominates everything else
//! (a cross-CPU futex wake-up costs ~30 µs, ten times a local read
//! hit), so the whole process — load generator and system under test —
//! is pinned to one CPU before any thread exists. Pinned, nothing
//! overlaps: throughput is the reciprocal of total CPU time per
//! operation, which is the quantity the layers under test can change.

use crate::json::Json;
use std::time::Duration;

/// 1024 CPUs, the kernel's default `cpu_set_t` width.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

/// `RUSAGE_SELF`: all threads of the process, exited ones included.
const RUSAGE_SELF: i32 = 0;

/// `struct rusage` of 64-bit Linux: two `timeval`s then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

fn allowed_mask() -> Result<CpuMask, String> {
    let mut mask: CpuMask = [0; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn cpus_of(mask: &CpuMask) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Where the process runs: the CPUs it was allowed and the one it
/// pinned itself to.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs in the affinity mask the process started with (`nproc`).
    pub allowed: Vec<usize>,
    /// The single CPU every thread of the process now runs on.
    pub cpu: usize,
}

/// Pin the calling thread — and so every thread spawned after — to the
/// first CPU of its allowed set. Must run before any thread is spawned.
pub fn pin_to_first_cpu() -> Result<Pinning, String> {
    let allowed = cpus_of(&allowed_mask()?);
    let cpu = *allowed.first().ok_or("empty CPU affinity mask")?;
    let mut one: CpuMask = [0; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    if cpus_of(&allowed_mask()?) != [cpu] {
        return Err(format!("pinning to CPU {cpu} did not take effect"));
    }
    Ok(Pinning { allowed, cpu })
}

/// Process-wide resource counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Rusage {
    /// User + system CPU time of all threads.
    pub cpu: Duration,
    /// Voluntary + involuntary context switches of all threads.
    pub ctx_switches: u64,
}

/// Snapshot the process's CPU time and context switches.
pub fn rusage() -> Rusage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage`-sized buffer
    // (18 eight-byte fields on every 64-bit Linux ABI).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: [i64; 2]| Duration::new(t[0] as u64, (t[1] * 1000) as u32);
    Rusage {
        cpu: tv(raw.utime) + tv(raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

fn proc_field(path: &str, field: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        (name.trim() == field).then(|| rest.trim().to_string())
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = proc_field("/proc/self/status", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM {field:?}: {e}"))?;
    Ok(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint recorded with every result.
pub fn fingerprint(pin: &Pinning) -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let allowed: Vec<String> = pin.allowed.iter().map(usize::to_string).collect();
    Json::obj([
        ("nproc", Json::from(pin.allowed.len() as f64)),
        ("allowed_cpus", Json::from(allowed.join(","))),
        ("pinned_cpu", Json::from(pin.cpu as f64)),
        ("kernel", Json::from(read("/proc/sys/kernel/osrelease"))),
        (
            "cpu_model",
            Json::from(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
