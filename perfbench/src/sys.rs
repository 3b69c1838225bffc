//! Process facts the benchmark reports: resident memory and the source
//! revision.

use std::path::Path;

/// A `kB` field of `/proc/self/status` (Linux), in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| {
            line.strip_prefix(field)?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kib as f64 / 1024.0
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// The commit the working directory was checked out at, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
