//! Process accounting read from `/proc`.

use std::sync::OnceLock;

/// Clock ticks per second of the `utime`/`stime` fields.
fn ticks_per_sec() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// utime + stime of a `stat` file, in seconds.
fn stat_cpu_s(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
    };
    Ok((field(11)? + field(12)?) / ticks_per_sec())
}

/// CPU seconds (user + system, all threads) process `pid` has used.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    stat_cpu_s(&format!("/proc/{pid}/stat"))
}

/// CPU seconds this process has used.
pub fn self_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/thread-self/stat")
}

/// A numeric field of `/proc/<pid>/status` (`Threads`, `VmHWM` in kB, …).
pub fn status_field(pid: Option<u32>, key: &str) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("{path}: no {key} field"))
}

/// CPU seconds the host has stolen from this machine's CPUs so far (the
/// `steal` column of `/proc/stat`, summed over CPUs).
pub fn host_steal_s() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map(|ticks| ticks / ticks_per_sec())
        .ok_or_else(|| "/proc/stat: no steal column".to_string())
}

/// `nproc` and the CPU model, for the run stamp.
pub fn machine() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model)
}
