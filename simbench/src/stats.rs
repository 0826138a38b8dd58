//! Order statistics, the output digest and the peak-memory probe.

/// Sorted copy of `xs` (total order; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the benchmark's spreads match the ones a reader computes
/// from its printed values. One sample gives that sample three times;
/// an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let d = sorted(xs);
    let ld = d.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative when the clamp moved j: the formula then
        // extrapolates, as Python's does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Median of `xs` (the middle value of [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Largest value of `xs` (zero for an empty slice).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// 64-bit FNV-1a, chained: feeding the same bytes in the same order
/// always gives the same value, on every host and build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fixed-width lowercase hex form (the pinned-digest file format).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Parse `VmHWM` (peak resident set) from the text of
/// `/proc/self/status`, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), [0.0, 3.0, 6.0]);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), [12.5, 30.0, 70.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn median_and_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
    }

    fn of(bytes: &[u8]) -> Digest {
        let mut d = Digest::default();
        d.update(bytes);
        d
    }

    #[test]
    fn digest_is_stable() {
        // Reference values of 64-bit FNV-1a.
        assert_eq!(of(b"").hex(), "cbf29ce484222325");
        assert_eq!(of(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(of(b"foobar").hex(), "85944171f73967e8");
        // Chaining equals hashing the concatenation.
        let mut d = Digest::default();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d, of(b"foobar"));
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tsimbench\nVmPeak:\t  20000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t many kB\n"), None);
        assert!(peak_rss_mb().expect("Linux /proc") > 0.0);
    }
}
