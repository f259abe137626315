//! What the run ran on, and what the process spent.

use std::path::Path;

/// Host and build facts recorded with every result.
pub fn describe(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_revision", git_revision(Path::new("."))),
        ("seed", seed.to_string()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

extern "C" {
    // glibc; `mask` points to a `cpu_set_t` of `size` bytes.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to one CPU: the highest-numbered one it may run on. Returns that
/// CPU, or `None` when the affinity cannot be read or set.
///
/// On a host with a few shared CPUs, a run spread over several of them
/// measures how the hypervisor and the scheduler place its threads as
/// much as the program: a process that keeps two virtual CPUs busy is
/// stolen from far more often than one that keeps one busy.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of
    // glibc's `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of this process, all threads, in ms.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / clock_ticks_per_s())
}

/// A reading of the time the hypervisor gave the machine's CPUs to
/// others (`steal`) and of all CPU time, in clock ticks summed over
/// every CPU, from `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct Ticks(Option<(u64, u64)>);

impl Ticks {
    /// Reads `/proc/stat` now.
    pub fn now() -> Ticks {
        let read = || -> Option<(u64, u64)> {
            let stat = std::fs::read_to_string("/proc/stat").ok()?;
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            let ticks: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect();
            Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
        };
        Ticks(read())
    }

    /// Whether `/proc/stat` could be read.
    pub fn known(self) -> bool {
        self.0.is_some()
    }

    /// Share of the CPU time from `self` to `later` that was stolen; 0
    /// when either reading is missing or no tick passed.
    pub fn steal_until(self, later: Ticks) -> f64 {
        match (self.0, later.0) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// `sysconf(_SC_CLK_TCK)`, which Linux fixes at 100 for `/proc`
/// accounting on every architecture this runs on.
fn clock_ticks_per_s() -> f64 {
    100.0
}
