//! Small numeric helpers: quantiles, the round digest, and the
//! process's own accounting read from `/proc`.

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver judges run-to-run spread with that function, so the A/A
/// report must use the same one.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of an ascending slice of exact samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_exact(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quantile of a `dmem_sim::Histogram` bucket array (`counts[0]` holds
/// `{0, 1}`, `counts[b]` holds values in `(2^(b-1), 2^b]`), interpolated
/// linearly by rank inside the bucket the quantile falls in. The
/// program's own `quantile` reports only the bucket's upper bound, which
/// cannot tell a p50 from a p99 that share a bucket.
pub fn quantile_log2_buckets(counts: &[u64; 65], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut below = 0u64;
    for (b, &count) in counts.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1)) as f64;
            let frac = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
            return lo + lo * frac;
        }
        below += count;
    }
    (1u64 << 63) as f64
}

/// FNV-1a over 64-bit words and strings: the per-round digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    pub fn word(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Mixes a name-sorted counter snapshot.
    pub fn counters(&mut self, snapshot: &[(String, u64)]) -> &mut Self {
        for (name, value) in snapshot {
            self.str(name).word(*value);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-name difference `after - before` of two name-sorted counter
/// snapshots (counters only grow; names absent before count from zero).
pub fn counter_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    let before: std::collections::BTreeMap<&str, u64> =
        before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k.as_str()).copied().unwrap_or(0)))
        .collect()
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Involuntary context switches of the main thread so far.
pub fn involuntary_ctx_switches() -> u64 {
    status_field("nonvoluntary_ctxt_switches:").unwrap_or(0)
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has used, in nanoseconds. `/proc/self/stat` counts in clock
/// ticks; Linux fixes the tick at 100 Hz for this file, and the phases it
/// is read across last seconds, so the 10 ms grain is below 1 %.
pub fn cpu_time_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ") ".
    let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) else {
        return 0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * 10_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn exact_percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_exact(&v, 0.5), 50);
        assert_eq!(percentile_exact(&v, 0.99), 99);
        assert_eq!(percentile_exact(&v, 1.0), 100);
        assert_eq!(percentile_exact(&[9], 0.99), 9);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let mut counts = [0u64; 65];
        counts[13] = 100; // values in [4096, 8192)
        assert_eq!(quantile_log2_buckets(&counts, 0.5), 4096.0 + 2048.0);
        assert_eq!(quantile_log2_buckets(&counts, 1.0), 8192.0);
        counts[14] = 100; // [8192, 16384)
        assert_eq!(quantile_log2_buckets(&counts, 0.75), 8192.0 + 4096.0);
        assert_eq!(quantile_log2_buckets(&[0; 65], 0.5), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let a = Fnv::new().word(1).word(2).finish();
        let b = Fnv::new().word(2).word(1).finish();
        assert_ne!(a, b);
        assert_eq!(a, Fnv::new().word(1).word(2).finish());
        assert_ne!(
            Fnv::new().str("ab").str("c").finish(),
            Fnv::new().str("a").str("bc").finish()
        );
    }

    #[test]
    fn counter_delta_subtracts_by_name() {
        let before = vec![("a".to_string(), 3)];
        let after = vec![("a".to_string(), 5), ("b".to_string(), 2)];
        assert_eq!(
            counter_delta(&before, &after),
            vec![("a".to_string(), 2), ("b".to_string(), 2)]
        );
    }

    #[test]
    fn proc_readers_return_something_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        let _ = (involuntary_ctx_switches(), cpu_time_ns());
    }
}
