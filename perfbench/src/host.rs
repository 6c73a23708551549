//! The host and build stamp printed with every result.

use std::path::Path;
use std::process::Command;

/// Host and build identity: core count, source revision, compiler and
/// build profile.
pub struct Stamp {
    nproc: usize,
    git_rev: String,
    source_digest: String,
    rustc: &'static str,
    profile: &'static str,
}

impl Stamp {
    pub fn collect(root: &Path) -> Stamp {
        Stamp {
            nproc: nproc(),
            git_rev: git_rev(root),
            source_digest: source_digest(root),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "nproc={} git_rev={} source_digest={} rustc=\"{}\" profile={}",
            self.nproc, self.git_rev, self.source_digest, self.rustc, self.profile
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"}}",
            self.nproc, self.git_rev, self.source_digest, self.rustc, self.profile
        )
    }
}

/// Cores available to this process; the benchmark never starts more
/// worker threads than this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, or `none` outside a git work tree (the
/// source digest identifies the code either way).
fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the program's sources (paths and contents, in sorted
/// order): the workspace manifest and lock file, `src/`, `crates/` and
/// `scenarios/`.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "scenarios"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in files {
        eat(path.to_string_lossy().as_bytes());
        eat(&std::fs::read(&path).unwrap_or_default());
    }
    format!("{hash:016x}")
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        }
    }
}

/// Peak resident set size of this process (MB), from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
