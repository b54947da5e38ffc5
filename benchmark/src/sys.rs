//! What the operating system reports about this process: CPU time of all
//! its threads, its peak resident set, and a scratch directory inside the
//! checkout for everything a run writes.

use std::path::{Path, PathBuf};

/// Nanoseconds of CPU every thread of this process has run for, summed
/// from `/proc/self/task/*/schedstat` (first field). A thread that has
/// exited is no longer listed, so the sum is only monotonic over an
/// interval in which no thread ends — true of every commit-phase slice
/// (the replicas' parked pool workers live as long as the replicas).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Number of threads of this process right now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Where runs write: `<build dir>/benchmark`, the build dir being
/// `$CARGO_TARGET_DIR` when set, else `target` — relative to the working
/// directory, so inside the checkout, and ignored by git either way.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    base.unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark")
}

/// A directory under [`out_dir`] owned by this process and removed
/// (recursively) on drop: replica data dirs of the durable workload.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<out_dir>/<label>-<pid>` empty.
    pub fn new(label: &str) -> std::io::Result<Self> {
        let path = out_dir().join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// An empty subdirectory named `name` (an existing one is emptied).
    pub fn fresh_subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copy the regular files and subdirectories of `from` into a new `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
