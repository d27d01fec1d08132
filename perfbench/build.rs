//! Records the compiler version and the source commit, so every result
//! carries its provenance.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit());
}

/// The commit `.git/HEAD` names, or `unknown` outside a git checkout.
/// Read from the files directly: a source export has no `.git`, and
/// asking `git` there would walk up into unrelated parent directories.
fn git_commit() -> String {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".to_string();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if let Ok(hash) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
