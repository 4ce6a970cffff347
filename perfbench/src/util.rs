//! Small numeric and process helpers shared by the workloads.

/// Median of `v` (mean of the middle pair for even lengths); `0.0` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of a sorted slice, using the
/// simulator's own `(len - 1) * p / 100` index; zero when empty.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent
/// of a cost `y` measured at sizes `x`. `1.0` means linear growth.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// FNV-1a step over one 64-bit word.
pub fn fnv_mix(fp: &mut u64, v: u64) {
    *fp ^= v;
    *fp = fp.wrapping_mul(0x100_0000_01b3);
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Derives an independent stream seed from the run seed and a tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut fp = FNV_BASIS;
    fnv_mix(&mut fp, seed);
    fnv_mix(&mut fp, tag);
    fp
}

/// The process's resident-set high-water mark in MiB, from
/// `/proc/self/status` (`VmHWM`); `None` where that file is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
