//! Where and on what a result was measured. Every result file carries
//! one, so a number can never be read without its machine and build.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Does the workspace resolve `dep` to the in-tree stand-in under
/// `shims/` or to the registry? The stand-ins are `Mutex<VecDeque>`
/// queues, so every actor-runtime number depends on the answer.
fn dependency_source(workspace_manifest: &str, dep: &str) -> &'static str {
    let line = workspace_manifest.lines().find(|l| {
        l.trim_start().starts_with(&format!("{dep} "))
            || l.trim_start().starts_with(&format!("{dep}="))
    });
    match line {
        Some(l) if l.contains("shims/") => "shims",
        Some(_) => "registry",
        None => "absent",
    }
}

/// The fingerprint of this machine, toolchain and checkout.
pub fn fingerprint(seed: u64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        .unwrap_or_default();
    let deps = [
        "crossbeam-channel",
        "crossbeam-deque",
        "crossbeam-queue",
        "crossbeam-utils",
        "parking_lot",
    ]
    .iter()
    .fold(Json::obj(), |obj, dep| {
        obj.set(dep, dependency_source(&manifest, dep))
    });
    Json::obj()
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )
        .set("cpu_model", cpu_model)
        .set("kernel", kernel)
        .set("rustc", command_line("rustc", &["-V"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("seed", seed)
        .set("dependency_sources", deps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tells_shims_from_registry() {
        let manifest =
            "crossbeam-deque = { path = \"shims/crossbeam-deque\" }\nparking_lot = \"0.12\"\n";
        assert_eq!(dependency_source(manifest, "crossbeam-deque"), "shims");
        assert_eq!(dependency_source(manifest, "parking_lot"), "registry");
        assert_eq!(dependency_source(manifest, "crossbeam-queue"), "absent");
        let f = fingerprint(9);
        assert_eq!(f.get("seed").and_then(Json::as_f64), Some(9.0));
        assert!(f.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
