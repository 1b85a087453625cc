//! Everything that is not measuring: the facts line of one run, the
//! all-workloads mode that collects runs into one result file, and the
//! comparison of two result files against the bounds.

use crate::catalogue::{self, Kind, END_TO_END, WORKLOADS};
use crate::stats::{judge, worsening, Summary, Verdict};
use crate::workloads::{self, Instance, Phase, SetupFacts};
use crate::Args;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use xbfs_telemetry::JsonValue;

/// Line prefix under which a run prints what its numbers depend on.
const FACTS_PREFIX: &str = "facts: ";

/// Filesystem type holding `path`, from the longest matching mount point.
fn filesystem_of(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then_some((at.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

/// Print the generator-side facts of an untraced run as one JSON line,
/// so that a number can be reproduced from the result file alone.
pub fn print_facts(inst: &Instance, args: &Args, phase: &Phase, setups: &[SetupFacts]) {
    let w = inst.workload;
    let (outstanding, threads, journal_fs) = match w.kind {
        Kind::ServeBatch => (
            workloads::BATCH_OUTSTANDING,
            "1 client + 1 accept + 1 connection + 1 worker",
            filesystem_of(&workloads::out_dir()),
        ),
        Kind::ServeLone => (
            1,
            "1 client + 1 accept + 1 connection + 1 worker",
            "none".into(),
        ),
        _ => (1, "1", "none".into()),
    };
    let list = |f: fn(&SetupFacts) -> f64| {
        let items: Vec<String> = setups.iter().map(|s| format!("{:.4}", f(s))).collect();
        items.join(",")
    };
    println!(
        "{FACTS_PREFIX}{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"loop\":\"closed\",\
         \"scale\":{},\"vertices\":{},\"edges\":{},\"sources\":{},\"outstanding\":{outstanding},\
         \"connections\":{},\"threads\":\"{threads}\",\"journal_fs\":\"{journal_fs}\",\
         \"window_s\":{:.3},\"samples\":{},\"yardstick_samples\":{},\"yardstick_ms\":{:.4},\
         \"setup_runs_wall_s\":[{}],\"setup_runs_yardstick_ms\":[{}]}}",
        w.name,
        args.seed,
        args.seconds,
        w.scale,
        inst.graph.num_vertices(),
        inst.graph.num_edges(),
        inst.sources.len(),
        u8::from(!w.kind.is_direct()),
        phase.wall_s,
        phase.answered,
        phase.yardstick_s.len(),
        crate::stats::median(&phase.yardstick_s) * 1e3,
        list(|s| s.setup_wall_s),
        list(|s| s.setup_yardstick_s * 1e3)
    );
}

/// First line of a command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What one child run printed.
struct ChildRun {
    seed: u64,
    /// The contract's last line, verbatim.
    result: String,
    /// The facts line's JSON, verbatim (untraced runs).
    facts: Option<String>,
    correct: bool,
}

/// Measure one workload in a child process of this same executable.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text
        .lines()
        .last()
        .filter(|l| l.starts_with("{\"correct\":"))
        .ok_or_else(|| format!("{workload} (seed {seed}) printed no result: {}", out.status))?;
    Ok(ChildRun {
        seed,
        result: result.to_string(),
        facts: text
            .lines()
            .find_map(|l| l.strip_prefix(FACTS_PREFIX))
            .map(str::to_string),
        correct: result.starts_with("{\"correct\":true"),
    })
}

/// `name -> value` of a result line's metrics.
fn metric_values(result: &JsonValue) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(|m| m.as_obj())
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Run every workload `--runs` times (seeds `seed`, `seed+1`, …), each
/// in its own process, plus one traced run each under `--trace`; print
/// every metric and write the result file.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut doc = format!(
        "{{\"format\":\"xbfs-perf-v1\",\"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc},\
         \"seed\":{},\"run_seconds\":{},\"runs\":{},\"workloads\":[",
        tool_line("git", &["rev-parse", "HEAD"]),
        tool_line("rustc", &["--version"]),
        args.seed,
        args.seconds,
        args.runs
    );
    let mut all_correct = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        println!("== {} — {}", w.name, w.why);
        let mut runs = Vec::new();
        for k in 0..args.runs {
            let run = child(w.name, args.seed + k as u64, args.seconds, false)?;
            println!("   run {} (seed {}): {}", k + 1, run.seed, run.result);
            all_correct &= run.correct;
            runs.push(run);
        }
        let parsed: Vec<JsonValue> = runs
            .iter()
            .map(|r| JsonValue::parse(&r.result).map_err(|e| format!("bad result line: {e}")))
            .collect::<Result<_, _>>()?;

        let _ = write!(
            doc,
            "{}\n{{\"name\":\"{}\",\"runs\":[",
            if wi > 0 { "," } else { "" },
            w.name
        );
        for (i, r) in runs.iter().enumerate() {
            let _ = write!(
                doc,
                "{}\n{{\"seed\":{},\"facts\":{},\"result\":{}}}",
                if i > 0 { "," } else { "" },
                r.seed,
                r.facts.as_deref().unwrap_or("null"),
                r.result
            );
        }
        doc.push_str("],\"summary\":{");
        for (mi, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = parsed
                .iter()
                .flat_map(metric_values)
                .filter(|(name, _)| name == m.name)
                .map(|(_, v)| v)
                .collect();
            let s = Summary::of(&values);
            println!(
                "   {:<22} median {:>12.4} {:<6} q1 {:>12.4} q3 {:>12.4} spread {:>5.1} % (bound {:.0} %)",
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                100.0 * m.bound
            );
            let _ = write!(
                doc,
                "{}\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\
                 \"q1\":{},\"q3\":{},\"min\":{},\"max\":{}}}",
                if mi > 0 { "," } else { "" },
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max
            );
        }
        doc.push('}');
        if args.trace {
            let traced = child(w.name, args.seed, args.seconds, true)?;
            all_correct &= traced.correct;
            let v = JsonValue::parse(&traced.result).map_err(|e| format!("bad result: {e}"))?;
            for (name, value) in metric_values(&v) {
                println!("   {name:<40} {value:>16.6}");
            }
            let _ = write!(doc, ",\"traced\":{}", traced.result);
        }
        doc.push('}');
    }
    doc.push_str("\n]}\n");

    let path = match &args.out {
        Some(p) => Path::new(p).to_path_buf(),
        None => workloads::out_dir().join("result.json"),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(all_correct)
}

/// `metric -> one value per run`, in the order the file lists them.
type MetricRuns = Vec<(String, Vec<f64>)>;

/// `workload -> metric -> one value per run` of a result file.
fn load(path: &str) -> Result<Vec<(String, MetricRuns)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(|w| w.as_arr())
        .ok_or_else(|| format!("{path}: not an xbfs-perf-v1 result file"))?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w.get("name").and_then(|n| n.as_str()).unwrap_or_default();
        let runs = w.get("runs").and_then(|r| r.as_arr()).unwrap_or_default();
        let mut metrics = MetricRuns::new();
        for run in runs.iter().filter_map(|r| r.get("result")) {
            for (metric, value) in metric_values(run) {
                match metrics.iter_mut().find(|(m, _)| *m == metric) {
                    Some((_, values)) => values.push(value),
                    None => metrics.push((metric, vec![value])),
                }
            }
        }
        out.push((name.to_string(), metrics));
    }
    Ok(out)
}

/// Judge result file B against result file A: one row per workload and
/// end-to-end metric. `Ok(false)` when any row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut any_worse = false;
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for (metric, a_values) in a_metrics {
            let (Some(m), Some((_, b_values))) = (
                catalogue::end_to_end(metric),
                b_metrics.iter().find(|(name, _)| name == metric),
            ) else {
                continue;
            };
            let verdict = judge(a_values, b_values, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (sa, sb) = (Summary::of(a_values), Summary::of(b_values));
            println!(
                "{workload:<20} {metric:<20} {:>12.4} {:>12.4} {:>+8.1} % {:>5.0} %  {}",
                sa.median,
                sb.median,
                // Positive = B is worse, whichever way the metric improves.
                100.0 * worsening(sa.median, sb.median, m.better),
                100.0 * m.bound,
                verdict.as_str()
            );
        }
    }
    Ok(!any_worse)
}
