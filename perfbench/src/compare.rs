//! `--compare`: medians of two result sets, metric by metric, against
//! the bounds in `BENCHMARK.json`. Results from different host
//! fingerprints are reported as a host mismatch, never as a regression
//! or a gain.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use kokkos_profiling::{parse_json, render_json, Json};

use crate::stats::median;

struct Set {
    hosts: Vec<String>,
    /// (workload, metric) → values of untraced runs.
    values: BTreeMap<(String, String), Vec<f64>>,
}

fn load(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set {
        hosts: Vec::new(),
        values: BTreeMap::new(),
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = parse_json(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let host = rec.get("host").map(render_json).unwrap_or_default();
        if !set.hosts.contains(&host) {
            set.hosts.push(host);
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if let Some(Json::Obj(metrics)) = rec.get("metrics") {
            for (k, v) in metrics {
                if let Some(x) = v.as_num() {
                    set.values
                        .entry((workload.clone(), k.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(set)
}

/// `(bound, lower_is_better)` per end-to-end metric.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: {e}"))
        .and_then(|t| parse_json(&t))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(bound), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_num),
            m.get("better").and_then(Json::as_str),
        ) {
            out.insert(name.to_string(), (bound, better == "lower"));
        }
    }
    Ok(out)
}

pub fn run(old: &Path, new: &Path) -> ExitCode {
    let (a, b, bounds) = match (load(old), load(new), bounds()) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("perfbench --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut hosts = a.hosts.clone();
    hosts.extend(b.hosts.iter().cloned());
    hosts.sort();
    hosts.dedup();
    if hosts.len() != 1 {
        println!(
            "host mismatch: the result sets come from {} host fingerprints:",
            hosts.len()
        );
        for h in &hosts {
            println!("  {h}");
        }
        println!("no regression or gain is reported across hosts");
        return ExitCode::SUCCESS;
    }
    let mut regressions = 0;
    for ((workload, metric), va) in &a.values {
        let Some(&(bound, lower)) = bounds.get(metric) else {
            continue;
        };
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let worse = if lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
        let verdict = if worse > bound {
            regressions += 1;
            "WORSE beyond bound"
        } else if -worse > bound {
            "better beyond bound (a gain needs the paired protocol)"
        } else {
            "within bound"
        };
        println!(
            "{workload:<16} {metric:<28} old {ma:>12.4} (n={}) new {mb:>12.4} (n={}) {:+.1}% {verdict}",
            va.len(),
            vb.len(),
            100.0 * (mb / ma - 1.0)
        );
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
