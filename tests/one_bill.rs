//! One module knows the cost model. A charge label — the name an operator
//! bills the ledger under — may be spelled in `engine/bill.rs` and in the
//! kernel or core function that owns its formula, nowhere else in product
//! code; `bill.rs` names each of its labels once; and the scheduler names
//! no hardware-spec method and no count type: its estimates are the bill
//! over the engine's own prediction, not a second copy.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literals of `source`'s non-test, non-comment code that look
/// like a charge label: `<operator family>.<what>`.
fn charge_labels(source: &str) -> Vec<String> {
    const FAMILIES: [&str; 6] = [
        "select.",
        "group.",
        "aggregate.",
        "project.",
        "join.",
        "classic.",
    ];
    let code = source.split("#[cfg(test)]").next().unwrap();
    let lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
    let mut labels = Vec::new();
    for line in lines {
        for literal in line.split('"').skip(1).step_by(2) {
            let label = |c: char| c.is_ascii_lowercase() || c == '.' || c == '-';
            if FAMILIES.iter().any(|f| literal.starts_with(f)) && literal.chars().all(label) {
                labels.push(literal.to_string());
            }
        }
    }
    labels
}

#[test]
fn charge_labels_live_in_the_bill_and_with_their_formulas_owner() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Product code that may not name a label: everything but the formulas'
    // owners (kernels, core operators), the ledger's own docs and the
    // figure/benchmark harnesses, which bill their own baselines.
    let mut files = Vec::new();
    for dir in [
        "src",
        "crates/engine/src",
        "crates/sched/src",
        "crates/net/src",
        "crates/sql/src",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let bill = root.join("crates/engine/src/bill.rs");
    assert!(files.contains(&bill));
    for file in files.iter().filter(|f| **f != bill) {
        let labels = charge_labels(&fs::read_to_string(file).unwrap());
        assert!(labels.is_empty(), "{} names {labels:?}", file.display());
    }
    let mut named = charge_labels(&fs::read_to_string(&bill).unwrap());
    assert!(
        named.len() > 15,
        "the guard lost sight of the bill: {named:?}"
    );
    named.sort();
    let twice: Vec<_> = named.windows(2).filter(|w| w[0] == w[1]).collect();
    assert!(twice.is_empty(), "bill.rs names a label twice: {twice:?}");
}

/// The scheduler names no hardware-spec method and builds no step or
/// refinement count: the counts a plan's statistics predict are
/// `engine/bill.rs`'s (`Shape::predict`), and so is their price.
#[test]
fn the_scheduler_prices_nothing_itself() {
    const BILLS_OWN: [&str; 8] = [
        "scan_seconds",
        "stream_seconds",
        "scattered_seconds",
        "transfer_seconds",
        "compute_seconds",
        "kernel_launch_overhead",
        "StepCounts",
        "RefineCounts",
    ];
    let mut files = Vec::new();
    rust_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sched/src"),
        &mut files,
    );
    assert!(files.len() > 8);
    for file in files {
        let source = fs::read_to_string(&file).unwrap();
        let named: Vec<_> = BILLS_OWN.iter().filter(|p| source.contains(**p)).collect();
        assert!(named.is_empty(), "{} names {named:?}", file.display());
    }
}
