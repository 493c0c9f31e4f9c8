//! Process probes and small helpers shared by the workloads.

use osoffload_runner::fnv1a64;
use std::time::Instant;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// User + system CPU time of this process so far, in ns (clock-tick
/// resolution, 100 ticks per second).
pub fn cpu_ns() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) as f64 * 1e7,
        _ => 0.0,
    }
}

/// Order-sensitive digest of a list of texts (FNV-1a over the texts,
/// each followed by a newline), as 16 hex digits.
pub fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> String {
    let mut all = Vec::new();
    for t in texts {
        all.extend_from_slice(t.as_bytes());
        all.push(b'\n');
    }
    format!("{:016x}", fnv1a64(&all))
}

/// A splitmix64 step: a well-mixed value from `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct indices below `n`, chosen from `seed`, ascending.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(k.min(n));
    let mut s = seed;
    while picked.len() < k.min(n) {
        s = mix(s);
        let i = (s % n as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_seeded_and_distinct() {
        let a = sample_indices(124, 4, 7);
        assert_eq!(a, sample_indices(124, 4, 7));
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(3, 5, 1), vec![0, 1, 2]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(cpu_ns() >= 0.0);
    }
}
