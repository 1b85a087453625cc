//! Command-level tests: every subcommand through [`dispatch`].

use super::*;
use xbfs_telemetry::JsonValue;

fn run(parts: &[&str]) -> Result<String, CliError> {
    dispatch(&Args::parse(parts.iter().map(|s| s.to_string()), is_flag).map_err(CliError::usage)?)
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("xbfs-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_info_bfs_round_trip() {
    let path = tmp("g1.bin");
    let msg = run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
    assert!(msg.contains("|V| = 1024"), "{msg}");
    let info = run(&["info", &path]).unwrap();
    assert!(info.contains("avg degree"));
    let bfs = run(&["bfs", &path, "--validate"]).unwrap();
    assert!(bfs.contains("GTEPS"));
    assert!(bfs.contains("VALID"), "{bfs}");
}

#[test]
fn forced_strategy_and_csv() {
    let path = tmp("g2.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let csv = tmp("g2.csv");
    let trace = format!("csv:{csv}");
    let out = run(&["bfs", &path, "--forced", "bottom-up", "--trace", &trace]).unwrap();
    assert!(out.contains("bottom-up"));
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(body.contains("bu_expand"), "{body}");
}

#[test]
fn convert_between_formats() {
    let bin = tmp("g3.bin");
    run(&["generate", "--out", &bin, "--kind", "db", "--shift", "6"]).unwrap();
    let txt = tmp("g3.txt");
    let msg = run(&["convert", &bin, &txt]).unwrap();
    assert!(msg.contains("converted"));
    let back = tmp("g3b.bin");
    run(&["convert", &txt, &back]).unwrap();
    let a = load_graph(&bin).unwrap();
    let b = load_graph(&back).unwrap();
    // Conversion through a symmetrized edge list preserves edges.
    assert_eq!(a.num_edges(), b.num_edges());
}

#[test]
fn compare_lists_every_baseline() {
    let path = tmp("g4.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let cmp = run(&["compare", &path]).unwrap();
    assert!(
        cmp.contains("gunrock-like") && cmp.contains("beamer-like"),
        "{cmp}"
    );
}

/// `--arch` must move every row of the table, not only XBFS's: each
/// baseline runs on a fresh device of the requested profile.
#[test]
fn compare_builds_every_engine_on_the_requested_arch() {
    let path = tmp("g4_arch.bin");
    run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
    let mi250x = run(&["compare", &path]).unwrap();
    let p6000 = run(&["compare", &path, "--arch", "p6000"]).unwrap();
    assert_eq!(mi250x.lines().count(), 8, "{mi250x}");
    for (a, b) in mi250x.lines().zip(p6000.lines()).skip(1) {
        assert_ne!(a, b, "this engine ignored --arch");
    }
}

/// A flag before the file must not eat the file, and a flag does not
/// take `=value` (`--verify=false` used to certify anyway).
#[test]
fn flags_never_consume_the_next_word() {
    let path = tmp("g4_flags.bin");
    run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
    let out = run(&["bfs", "--validate", &path]).unwrap();
    assert!(out.contains("BFS tree: VALID"), "{out}");
    let err = run(&["bfs", &path, "--verify=false"]).unwrap_err();
    assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
}

/// The two records the CLI writes itself stay JSON on their worst
/// input: a non-finite `--alpha`, and a path no `{:?}` escapes right.
#[test]
fn json_records_survive_hostile_values() {
    let path = tmp("g4 \"quoted\" \u{7f}.bin");
    run(&["generate", "--out", &path, "--scale", "8"]).unwrap();
    let json = tmp("g4_hostile.json");
    run(&["cluster", &path, "--alpha", "inf", "--json", &json]).unwrap();
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        doc.get("config").and_then(|c| c.get("alpha")),
        Some(&JsonValue::Null)
    );
    run(&["sweep", &path, "--sources", "2", "--json", &json]).unwrap();
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let written = doc.get("graph").and_then(|g| g.get("path"));
    assert_eq!(written.and_then(JsonValue::as_str), Some(path.as_str()));
}

#[test]
fn sweep_reports_throughput_and_writes_json() {
    let path = tmp("g10.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let json = tmp("g10_sweep.json");
    let out = run(&[
        "sweep",
        &path,
        "--sources",
        "8",
        "--threads",
        "2",
        "--json",
        &json,
    ])
    .unwrap();
    assert!(out.contains("runs/sec"), "{out}");
    assert!(out.contains("GTEPS aggregate"), "{out}");
    assert!(out.contains("bit-identical"), "{out}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("xbfs-sweep-v1")
    );
    assert_eq!(doc.get("sources").and_then(JsonValue::as_f64), Some(8.0));
    assert!(doc.get("speedup").and_then(JsonValue::as_f64).unwrap() > 0.0);
    assert!(
        doc.get("pooled")
            .and_then(|p| p.get("runs_per_sec"))
            .and_then(JsonValue::as_f64)
            .unwrap()
            > 0.0
    );
    // Unknown options stay usage errors; a sweep has no trace to write.
    for bad in [&["--frobnicate"][..], &["--trace", "json:-"]] {
        let mut cmd = vec!["sweep", &path];
        cmd.extend(bad);
        assert_eq!(run(&cmd).unwrap_err().code, exit_code::USAGE, "{bad:?}");
    }
}

/// What the sweep computes is pinned, not only that its passes agree:
/// these strings were printed by the build before `sweep_pass` existed
/// (three hand-written loops) and are not re-recorded. Digests are
/// functions of levels and modeled time, so they are deterministic.
#[test]
fn sweep_outputs_match_parent_golden() {
    let path = tmp("g25.bin");
    run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
    let json = tmp("g25_sweep.json");
    let sweep = |extra: &[&str]| {
        let mut cmd = vec!["sweep", &path, "--sources", "16", "--json", &json];
        cmd.extend(extra);
        run(&cmd).unwrap();
        std::fs::read_to_string(&json).unwrap()
    };
    let clean = sweep(&["--verify", "--multi-source"]);
    assert!(
        clean.contains(
            r#""health":{"certified":16,"sdc_detected":0,"quarantined":0,"reexecuted":0,"corrected":0,"aborted":0,"deadline_exceeded":0,"pool_pressure_events":0,"engine_rebuilds":0}"#
        ),
        "{clean}"
    );
    assert!(clean.contains(r#""batches":1,"width":64,"#), "{clean}");
    assert!(
        clean.contains(r#""checksum":"0xc91dbd4f2ee175f9"},"checksum":"0x2a3fcd641022aebe"}"#),
        "{clean}"
    );
    let healed = sweep(&["--inject-bitflips", "status,seed=7"]);
    assert!(
        healed.contains(
            r#""health":{"certified":16,"sdc_detected":16,"quarantined":16,"reexecuted":16,"corrected":16,"aborted":0,"deadline_exceeded":0,"pool_pressure_events":0,"engine_rebuilds":16},"checksum":"0x2a3fcd641022aebe"}"#
        ),
        "{healed}"
    );
}

#[test]
fn bfs_verify_certifies_clean_runs() {
    let path = tmp("g20.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let out = run(&["bfs", &path, "--verify"]).unwrap();
    assert!(out.contains("certified:"), "{out}");
    assert!(out.contains("levels checksum"), "{out}");
    // An unparsable bit-flip spec is the user's fault, not corruption.
    let err = run(&["bfs", &path, "--verify", "--inject-bitflips", "bogus"]).unwrap_err();
    assert_eq!(err.code, exit_code::INVALID_INPUT, "{err}");
}

#[test]
fn bfs_verify_detects_injected_bitflips() {
    let path = tmp("g21.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    for spec in ["status,seed=7", "parents,seed=3", "csr,seed=9"] {
        let err = run(&["bfs", &path, "--verify", "--inject-bitflips", spec]).unwrap_err();
        assert_eq!(err.code, exit_code::INTEGRITY, "{spec}: {err}");
        assert!(err.message.starts_with("IntegrityError:"), "{spec}: {err}");
    }
}

#[test]
fn sweep_supervisor_self_heals_under_injection() {
    let path = tmp("g22.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let json = tmp("g22_sweep.json");
    let out = run(&[
        "sweep",
        &path,
        "--sources",
        "6",
        "--threads",
        "2",
        "--inject-bitflips",
        "status,seed=5",
        "--json",
        &json,
    ])
    .unwrap();
    // Every injected run is detected, quarantined, re-executed, and
    // corrected; the corrected results stay bit-identical to the
    // clean rebuilt reference.
    assert!(out.contains("bit-identical"), "{out}");
    assert!(out.contains("6/6 certified"), "{out}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let health = doc.get("health").expect("health section");
    let get = |k: &str| health.get(k).and_then(JsonValue::as_f64).unwrap();
    assert_eq!(get("sdc_detected"), 6.0);
    assert_eq!(get("quarantined"), 6.0);
    assert_eq!(get("reexecuted"), 6.0);
    assert_eq!(get("corrected"), 6.0);
    assert_eq!(get("aborted"), 0.0);
    assert!(get("engine_rebuilds") >= 6.0);
    assert_eq!(doc.get("verified").and_then(JsonValue::as_bool), Some(true));
}

#[test]
fn sweep_retries_exhausted_aborts_with_integrity_exit() {
    let path = tmp("g23.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let err = run(&[
        "sweep",
        &path,
        "--sources",
        "4",
        "--threads",
        "1",
        "--inject-bitflips",
        "csr,seed=11",
        "--retries",
        "0",
    ])
    .unwrap_err();
    assert_eq!(err.code, exit_code::INTEGRITY, "{err}");
    assert!(err.message.starts_with("IntegrityError:"), "{err}");
    assert!(err.message.contains("failed certification"), "{err}");
}

#[test]
fn sweep_pool_cap_reports_pressure_and_stays_bit_identical() {
    let path = tmp("g24.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let json = tmp("g24_sweep.json");
    let out = run(&[
        "sweep",
        &path,
        "--sources",
        "8",
        "--threads",
        "2",
        "--max-pool-bytes",
        "2048",
        "--json",
        &json,
    ])
    .unwrap();
    // The byte cap degrades pooling to fresh allocation, never
    // correctness: results remain bit-identical, pressure is counted.
    assert!(out.contains("bit-identical"), "{out}");
    assert!(out.contains("pool pressure"), "{out}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let pressure = doc
        .get("health")
        .and_then(|h| h.get("pool_pressure_events"))
        .and_then(JsonValue::as_f64)
        .unwrap();
    assert!(pressure > 0.0, "cap of 2 KB must trim state parks");
    // A bad cap value is a usage error.
    assert_eq!(
        run(&["sweep", &path, "--max-pool-bytes", "lots"])
            .unwrap_err()
            .code,
        exit_code::USAGE
    );
}

#[test]
fn generate_rejects_an_rmat_scale_out_of_range() {
    let path = tmp("bad-scale.bin");
    for scale in ["0", "32", "40"] {
        let err = run(&["generate", "--out", &path, "--scale", scale]).unwrap_err();
        assert_eq!(err.code, exit_code::USAGE, "{}", err.message);
    }
}

#[test]
fn generate_with_a_shift_past_the_id_width_keeps_the_floor() {
    let path = tmp("wide-shift.bin");
    let msg = run(&["generate", "--out", &path, "--kind", "db", "--shift", "70"]).unwrap();
    assert!(msg.contains("|V| = 256"), "{msg}");
}

#[test]
fn errors_are_reported_with_distinct_exit_codes() {
    assert_eq!(run(&["nope"]).unwrap_err().code, exit_code::USAGE);
    assert_eq!(run(&["bfs"]).unwrap_err().code, exit_code::USAGE);
    assert_eq!(
        run(&["bfs", "/does/not/exist.bin"]).unwrap_err().code,
        exit_code::IO
    );
    assert_eq!(run(&["generate"]).unwrap_err().code, exit_code::USAGE);
    let typo = run(&["cluster", "g.bin", "--frobnicate"]).unwrap_err();
    assert_eq!(typo.code, exit_code::USAGE);
    assert!(typo.message.contains("--frobnicate"), "{}", typo.message);
    // Removed front doors stay removed: `sweep --multi-source` is the
    // batched one, `repro alpha` the α sweep.
    for gone in [
        &["msbfs", "g.bin"][..],
        &["analyze", "g.bin"],
        &["bfs", "g.bin", "--auto-alpha"],
    ] {
        assert_eq!(run(gone).unwrap_err().code, exit_code::USAGE, "{gone:?}");
    }
    let help = run(&["help"]).unwrap();
    assert!(help.contains("USAGE"));
    assert!(help.contains("cluster"));
}

#[test]
fn cluster_runs_fault_free_and_validates() {
    let path = tmp("g5.bin");
    run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
    let out = run(&["cluster", &path, "--gcds", "4", "--validate"]).unwrap();
    assert!(out.contains("VALID"), "{out}");
    assert!(out.contains("GTEPS per GCD"), "{out}");
    assert!(out.contains("(no faults)"), "{out}");
}

#[test]
fn cluster_crash_demo_recovers_and_exports() {
    let path = tmp("g6.bin");
    run(&["generate", "--out", &path, "--scale", "11"]).unwrap();
    let json = tmp("g6.json");
    let out = run(&[
        "cluster",
        &path,
        "--gcds",
        "4",
        "--source",
        "1",
        "--inject-faults",
        "crash@2:rank1",
        "--checkpoint-every",
        "1",
        "--recovery",
        "spare",
        "--validate",
        "--json",
        &json,
    ])
    .unwrap();
    assert!(out.contains("recovery: rank 1 died at level 2"), "{out}");
    assert!(out.contains("VALID"), "{out}");
    let record = std::fs::read_to_string(&json).unwrap();
    assert!(record.contains("crash@2:rank1"), "{record}");
    assert!(
        record.contains(r#""level_stats":[{"level":0,"attempt":0,"#),
        "{record}"
    );
}

#[test]
fn run_alias_and_trace_exports_every_format() {
    let path = tmp("g8.bin");
    run(&["generate", "--out", &path, "--scale", "10"]).unwrap();

    // `run` is an alias of `bfs`.
    let plain = run(&["run", &path, "--source", "0"]).unwrap();
    assert!(plain.contains("GTEPS"), "{plain}");

    // chrome trace to a file, then summarize it.
    let chrome = tmp("g8_trace.json");
    let out = run(&[
        "run",
        &path,
        "--source",
        "0",
        "--trace",
        &format!("chrome:{chrome}"),
    ])
    .unwrap();
    assert!(out.contains("chrome trace written"), "{out}");
    let body = std::fs::read_to_string(&chrome).unwrap();
    let doc = JsonValue::parse(&body).expect("chrome trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let n_levels = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("level"))
        .count();
    // Every BFS level appears as a span: compare against the run report.
    let depth = plain
        .lines()
        .filter(|l| l.trim_start().starts_with('L'))
        .count();
    assert_eq!(n_levels, depth, "one level span per BFS level");
    let summary = run(&["trace", "summarize", &chrome]).unwrap();
    assert!(summary.contains("Trace Event Format"), "{summary}");
    assert!(summary.contains("level"), "{summary}");

    // json:- replaces the report with pure machine-readable JSON.
    let json = run(&["run", &path, "--source", "0", "--trace", "json:-"]).unwrap();
    let doc = JsonValue::parse(&json).expect("stdout must be pure JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("xbfs-trace-v1")
    );
    assert_eq!(
        doc.get("levels").and_then(JsonValue::as_arr).unwrap().len(),
        depth
    );
    // Summarize the v1 schema from a file, too.
    let v1 = tmp("g8_v1.json");
    std::fs::write(&v1, &json).unwrap();
    let summary = run(&["trace", "summarize", &v1]).unwrap();
    assert!(summary.contains("xbfs-trace-v1"), "{summary}");
    assert!(summary.contains("engine: xbfs"), "{summary}");

    // table and rocprof CSV render too.
    let table = run(&["run", &path, "--source", "0", "--trace", "table:-"]).unwrap();
    assert!(
        table.contains("level") && table.contains("total"),
        "{table}"
    );
    let csv = run(&["run", &path, "--source", "0", "--trace", "csv:-"]).unwrap();
    assert!(csv.starts_with("phase,kernel,runtime_ms"), "{csv}");

    // Bad specs are usage errors.
    assert_eq!(
        run(&["run", &path, "--trace", "bogus:x"]).unwrap_err().code,
        exit_code::USAGE
    );
    assert_eq!(
        run(&["run", &path, "--trace", "json"]).unwrap_err().code,
        exit_code::USAGE
    );
}

#[test]
fn cluster_trace_covers_levels_and_recovery_with_warning() {
    let path = tmp("g9.bin");
    run(&["generate", "--out", &path, "--scale", "10"]).unwrap();
    let out = run(&[
        "cluster",
        &path,
        "--gcds",
        "4",
        "--source",
        "1",
        "--inject-faults",
        "crash@1:rank1",
        "--trace",
        "json:-",
    ])
    .unwrap();
    // `json:-` output is the pure trace; the crash warning goes to stderr only.
    let doc = JsonValue::parse(&out).expect("stdout must be pure JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("xbfs-trace-v1")
    );
    let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap();
    let named = |n: &str| {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some(n))
            .count()
    };
    assert!(named("level") > 0);
    assert!(named("collective") > 0);
    assert_eq!(named("recovery"), 1, "crash must produce a recovery span");
    assert!(
        named("checkpoint") > 0,
        "fault mode defaults to checkpointing"
    );
    let events = doc.get("events").and_then(JsonValue::as_arr).unwrap();
    let evt = |n: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(JsonValue::as_str) == Some(n))
    };
    assert!(evt("fault.crash") && evt("recovery.restore"), "{out}");

    // With a file path, the warning lands in the report.
    let trace_path = tmp("g9_trace.json");
    let report = run(&[
        "cluster",
        &path,
        "--gcds",
        "4",
        "--source",
        "1",
        "--inject-faults",
        "crash@1:rank1",
        "--trace",
        &format!("json:{trace_path}"),
    ])
    .unwrap();
    assert!(
        report.contains("warning: tracing a run with planned GCD crashes"),
        "{report}"
    );
    assert!(report.contains("json trace written"), "{report}");
    let summary = run(&["trace", "summarize", &trace_path]).unwrap();
    assert!(summary.contains("1 recoveries"), "{summary}");
}

#[test]
fn trace_summarize_rejects_garbage() {
    assert_eq!(
        run(&["trace", "summarize", "/does/not/exist.json"])
            .unwrap_err()
            .code,
        exit_code::IO
    );
    let bad = tmp("bad_trace.json");
    std::fs::write(&bad, "not json").unwrap();
    assert_eq!(
        run(&["trace", "summarize", &bad]).unwrap_err().code,
        exit_code::INVALID_INPUT
    );
    std::fs::write(&bad, "{\"someting\":\"else\"}").unwrap();
    assert_eq!(
        run(&["trace", "summarize", &bad]).unwrap_err().code,
        exit_code::INVALID_INPUT
    );
    assert_eq!(run(&["trace"]).unwrap_err().code, exit_code::USAGE);
    assert_eq!(
        run(&["trace", "frobnicate"]).unwrap_err().code,
        exit_code::USAGE
    );
}

#[test]
fn cluster_fault_errors_map_to_exit_codes() {
    let path = tmp("g7.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    // Malformed spec -> invalid input.
    let e = run(&["cluster", &path, "--inject-faults", "crash@x"]).unwrap_err();
    assert_eq!(e.code, exit_code::INVALID_INPUT);
    // More drops than the retry budget -> unrecovered fault.
    let e = run(&[
        "cluster",
        &path,
        "--gcds",
        "2",
        "--inject-faults",
        "drop@0:0-1x9",
    ])
    .unwrap_err();
    assert_eq!(e.code, exit_code::UNRECOVERED_FAULT, "{}", e.message);
    // Random plans parse and run (crash recovery on by default).
    let out = run(&[
        "cluster",
        &path,
        "--gcds",
        "2",
        "--inject-faults",
        "random:7",
        "--validate",
    ])
    .unwrap();
    assert!(out.contains("VALID"), "{out}");
}

#[test]
fn bfs_deadline_maps_to_timeout_exit_code() {
    let path = tmp("deadline.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    // A sub-microsecond modeled budget cannot cover any level.
    let e = run(&["bfs", &path, "--deadline-ms", "0.000001"]).unwrap_err();
    assert_eq!(e.code, exit_code::TIMEOUT, "{}", e.message);
    assert!(e.message.contains("deadline"), "{}", e.message);
    // A generous budget changes nothing about a normal run.
    let out = run(&["bfs", &path, "--deadline-ms", "100000"]).unwrap();
    assert!(out.contains("GTEPS"), "{out}");
    // The combination with --verify still certifies.
    let out = run(&["bfs", &path, "--deadline-ms", "100000", "--verify"]).unwrap();
    assert!(out.contains("certified:"), "{out}");
}

#[test]
fn exporters_never_abort_a_finished_run() {
    let path = tmp("softfail.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    // Unwritable side-file paths demote to warnings: the run's own
    // report still lands and the exit code stays 0.
    let out = run(&["bfs", &path, "--trace", "json:/nonexistent-dir/t.json"]).unwrap();
    assert!(out.contains("GTEPS"), "{out}");
    assert!(out.contains("trace NOT written"), "{out}");
    let json = "/nonexistent-dir/r.json";
    let out = run(&["cluster", &path, "--gcds", "2", "--json", json]).unwrap();
    assert!(out.contains("GTEPS per GCD"), "{out}");
    assert!(out.contains("run record NOT written"), "{out}");
}

/// A free loopback address: bind, read the port, release it, and hand it
/// to the server (the dispatch API has no way to report an OS-assigned
/// port back).
fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", l.local_addr().unwrap().port())
}

fn wait_listening(addr: &str) {
    for _ in 0..200 {
        if std::net::TcpStream::connect(addr).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn serve_and_loadgen_round_trip() {
    let path = tmp("serve.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let json = tmp("loadgen.json");
    let (addr, maddr) = (free_addr(), free_addr());
    let srv = std::thread::spawn({
        let (path, addr, maddr) = (path.clone(), addr.clone(), maddr.clone());
        move || {
            run(&[
                "serve",
                &path,
                "--addr",
                &addr,
                "--workers",
                "2",
                "--queue-cap",
                "64",
                "--metrics-addr",
                &maddr,
            ])
        }
    });
    // Wait until the listener is up before generating load.
    wait_listening(&addr);
    // The metrics plane is up alongside the serve listener: one
    // Prometheus scrape and one rendered `top` frame.
    {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(&maddr).unwrap();
        write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut prom = String::new();
        s.read_to_string(&mut prom).unwrap();
        assert!(prom.contains("xbfs_serve_queue_depth"), "{prom}");
    }
    let top_out = run(&["top", &addr, "--frames", "1", "--interval-ms", "10"]).unwrap();
    assert!(top_out.contains("top: rendered 1 frame(s)"), "{top_out}");
    let out = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--requests",
        "24",
        "--rps",
        "400",
        "--connections",
        "3",
        "--sources",
        "8",
        "--max-shed-pct",
        "0",
        "--shutdown",
        "--json",
        &json,
    ])
    .unwrap();
    assert!(out.contains("lost 0"), "{out}");
    assert!(out.contains("digests consistent per source: true"), "{out}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        doc.get("format").and_then(|f| f.as_str()),
        Some("xbfs-loadgen-v1")
    );
    assert_eq!(doc.get("ok").and_then(JsonValue::as_f64), Some(24.0));
    // --shutdown drained the server; its report must be clean.
    let srv_out = srv.join().unwrap().unwrap();
    assert!(srv_out.contains("drain: clean"), "{srv_out}");
}

/// An unclean drain is exit 1 even when `--trace FMT:-` owns stdout: a
/// client that floods and never reads loses its replies, and the trace
/// must not turn that into a success.
#[test]
fn serve_unclean_drain_fails_under_a_stdout_trace() {
    use std::io::{Read as _, Write as _};
    let path = tmp("serve_unclean.bin");
    run(&["generate", "--out", &path, "--scale", "9"]).unwrap();
    let addr = free_addr();
    let cmd = format!("serve {path} --addr {addr} --workers 1 --idle-timeout-ms 300");
    let cmd = cmd + " --trace json:-";
    let srv = std::thread::spawn(move || run(&cmd.split(' ').collect::<Vec<_>>()));
    wait_listening(&addr);
    // Flood fresh ids until our own write blocks: the server stopped
    // reading because its replies have nowhere to go.
    let stuck = std::net::TcpStream::connect(&addr).unwrap();
    let timeout = Some(std::time::Duration::from_millis(500));
    stuck.set_write_timeout(timeout).unwrap();
    let line = |id| format!("{{\"op\":\"bfs\",\"id\":{id},\"source\":1}}\n");
    let wedged = (0..20_000u64).any(|i| {
        let chunk: String = (i * 64..(i + 1) * 64).map(line).collect();
        (&stuck).write_all(chunk.as_bytes()).is_err()
    });
    assert!(wedged, "flooding connection never wedged");
    let mut ctl = std::net::TcpStream::connect(&addr).unwrap();
    ctl.write_all(b"{\"op\":\"shutdown\",\"id\":1}\n").unwrap();
    ctl.read_exact(&mut [0u8; 1]).unwrap();
    let err = srv.join().unwrap().unwrap_err();
    drop(stuck);
    let msg = &err.message;
    assert_eq!(err.code, exit_code::GENERIC, "{msg}");
    assert!(msg.contains("drain was not clean"), "{msg}");
}

/// A command that must pick a source refuses an edge list holding only a
/// self-loop (one vertex, no edges) with exit 4, where it used to panic;
/// one that takes `--source` (`sourced`) still runs from it.
fn refuses_a_graph_with_no_edges(command: &str, sourced: bool) {
    let path = tmp(&format!("no_edges_{command}.txt"));
    std::fs::write(&path, "0 0\n").unwrap();
    let err = run(&[command, &path]).expect_err(command);
    let want = (exit_code::INVALID_INPUT, "graph has no edges");
    assert_eq!((err.code, err.message.as_str()), want, "{command}");
    if sourced {
        run(&[command, &path, "--source", "0"]).unwrap();
    }
}

/// One test per command, each named `COMMAND_refuses_a_graph_with_no_edges`.
macro_rules! no_edge_tests {
    ($($name:ident: $command:literal, $sourced:literal;)*) => {$(
        #[test]
        fn $name() {
            refuses_a_graph_with_no_edges($command, $sourced);
        }
    )*};
}

no_edge_tests! {
    bfs_refuses_a_graph_with_no_edges: "bfs", true;
    cluster_refuses_a_graph_with_no_edges: "cluster", true;
    compare_refuses_a_graph_with_no_edges: "compare", true;
    sweep_refuses_a_graph_with_no_edges: "sweep", false;
}
