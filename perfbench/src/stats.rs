//! Order statistics and host probes.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place). `values` must not be empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (sorted in place). `values` must not be empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's revision, read from `.git` without running git:
/// `unknown` outside a git work tree.
pub fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
    }
}
