//! The one way a bench target reports: rows, a manifest stamp, a JSON file
//! and a baseline check — no environment variable, no flag.
//!
//! A bench records two kinds of row.  An **exact** row is a count the code
//! determines (deep clones, dropped frames, refused accepts, delivered
//! events): it must equal the committed baseline or the run fails.  A
//! **measured** row is wall-clock (or otherwise machine-dependent): it is
//! printed beside the baseline with its ratio and never asserted — the
//! performance gate is `e21_end_to_end`, which the pipeline runs on every
//! change.
//!
//! [`Report::finish`] always writes `target/bench/<target>.json` under the
//! repository root, stamped with commit, rustc, core count and date, and
//! always compares against the committed `BENCH_<id>.json` at the root when
//! there is one (`<id>` is the target name up to its first `_`:
//! `e14_gateway_fanout` → `BENCH_e14.json`).  `scripts/bench-all.sh
//! --record` copies the written files over those baselines.

use std::path::PathBuf;
use std::process::Command;

use jamm_core::json::{json, Json, Map};

/// The rows one bench target produced.
#[derive(Debug)]
pub struct Report {
    target: &'static str,
    exact: Map,
    measured: Map,
}

impl Report {
    /// Start the report of bench target `target` — pass
    /// `env!("CARGO_CRATE_NAME")`.
    pub fn new(target: &'static str) -> Report {
        Report {
            target,
            exact: Map::new(),
            measured: Map::new(),
        }
    }

    /// Record a deterministic count; it must equal the baseline's.
    pub fn exact(&mut self, name: impl Into<String>, value: u64) {
        self.exact.insert(name.into(), Json::from(value));
    }

    /// Record a machine-dependent reading, kept to three decimals.
    pub fn measured(&mut self, name: impl Into<String>, value: f64) {
        let rounded = (value * 1e3).round() / 1e3;
        self.measured.insert(name.into(), Json::from(rounded));
    }

    /// Write the JSON file, print every row against the committed baseline
    /// and exit non-zero if an exact row differs from it.
    pub fn finish(self) {
        let out = repo_root().join("target/bench");
        let path = out.join(format!("{}.json", self.target));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, self.to_json().to_pretty() + "\n"))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote target/bench/{}.json", self.target);

        let file = baseline_file(self.target);
        let Ok(text) = std::fs::read_to_string(repo_root().join(&file)) else {
            println!("no committed baseline for {}\n", self.target);
            return;
        };
        let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("{file} is not JSON: {e:?}"));
        println!("\n{:<46} {:>14} {file:>14}\n", self.target, "this run");
        let mismatches = self.compare(&baseline);
        println!();
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!("deterministic row differs from the baseline: {m}");
            }
            std::process::exit(1);
        }
    }

    fn to_json(&self) -> Json {
        json!({
            "target": self.target,
            "manifest": manifest(),
            "exact": self.exact.clone(),
            "measured": self.measured.clone(),
        })
    }

    /// Print each row beside its baseline value (`null` where the baseline
    /// has none); return one line per exact row that differs from the
    /// baseline or that only one side has.
    fn compare(&self, baseline: &Json) -> Vec<String> {
        let row = |name: &str, ours: &Json, theirs: &Json, note: &str| {
            let (ours, theirs) = (ours.to_string(), theirs.to_string());
            println!("  {name:<44} {ours:>14} {theirs:>14}   {note}");
        };
        let mut mismatches = Vec::new();
        for (name, ours) in self.exact.iter() {
            let theirs = &baseline["exact"][name.as_str()];
            let same = ours.as_u64() == theirs.as_u64();
            row(name, ours, theirs, if same { "ok" } else { "MISMATCH" });
            if !same {
                mismatches.push(format!("{name}: {ours} vs baseline {theirs}"));
            }
        }
        let recorded = baseline["exact"].as_object();
        for name in recorded.into_iter().flat_map(Map::keys) {
            if !self.exact.contains_key(name) {
                mismatches.push(format!("{name}: in the baseline, not produced"));
            }
        }
        for (name, ours) in self.measured.iter() {
            let theirs = &baseline["measured"][name.as_str()];
            let ratio = match (ours.as_f64(), theirs.as_f64()) {
                (Some(o), Some(t)) if t != 0.0 => format!("{:.2}x", o / t),
                _ => String::new(),
            };
            row(name, ours, theirs, &ratio);
        }
        mismatches
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `BENCH_<id>.json` (at the repository root), `<id>` being the target
/// name up to its first `_`.
fn baseline_file(target: &str) -> String {
    let id = target.split('_').next().unwrap_or(target);
    format!("BENCH_{id}.json")
}

/// Where and when the run was made: commit (with `-dirty` when the tree has
/// uncommitted changes), rustc, cores and the day — the same four for every
/// bench of one `scripts/bench-all.sh` run.
fn manifest() -> Json {
    json!({
        "commit": command_line("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        "rustc": command_line("rustc", &["-V"]),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "date": &jamm_ulm::Timestamp::now().to_ulm_date()[..8],
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("e99_sample");
        r.exact("deep_clones", 0);
        r.measured("publish_kev_per_s", 1234.5678);
        r
    }

    #[test]
    fn a_report_equals_its_own_json_and_carries_the_stamp() {
        let doc = sample().to_json();
        assert!(sample().compare(&doc).is_empty());
        assert_eq!(doc["measured"]["publish_kev_per_s"], 1234.568);
        for key in ["commit", "rustc", "nproc", "date"] {
            assert!(!doc["manifest"][key].is_null(), "{key}");
        }
    }

    #[test]
    fn only_exact_rows_can_fail_the_run() {
        let slow = json!({
            "exact": json!({"deep_clones": 0u64}),
            "measured": json!({"publish_kev_per_s": 9e9}),
        });
        assert!(
            sample().compare(&slow).is_empty(),
            "measured rows never fail"
        );
        let differs = json!({"exact": json!({"deep_clones": 3u64})});
        assert_eq!(sample().compare(&differs).len(), 1);
        let extra = json!({"exact": json!({"deep_clones": 0u64, "dropped_frames": 0u64})});
        assert_eq!(
            sample().compare(&extra).len(),
            1,
            "a vanished row is a difference"
        );
        assert_eq!(sample().compare(&json!({})).len(), 1, "so is a new one");
    }

    #[test]
    fn the_baseline_is_named_by_the_experiment_id() {
        assert_eq!(baseline_file("e14_gateway_fanout"), "BENCH_e14.json");
        assert_eq!(baseline_file("fig2_nlv_primitives"), "BENCH_fig2.json");
    }
}
