//! End-to-end tests of the `geopattern` binary: the documented exit-code
//! contract (0 ok — also when the reader closes stdout early, 1 usage/I-O,
//! 2 invalid configuration, 3 unusable data, 4 timeout, 5 worker panic,
//! 7 memory budget exceeded), the `--metrics json` surface and the pinned
//! `mine` output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geopattern"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn geopattern")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small generated city written to a temp file, for mine runs.
fn city_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("geopattern-cli-test-{name}.gpd"));
    let generated = run(&["generate-city", "--grid", "4", "--seed", "9"]);
    assert!(generated.status.success());
    std::fs::write(&path, &generated.stdout).expect("write dataset");
    path
}

#[test]
fn exit_0_on_success_and_help() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(stdout(&help).contains("EXIT CODES"));

    let path = city_file("ok");
    let out = run(&["mine", path.to_str().unwrap(), "--minsup", "0.3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("frequent itemsets"));
}

#[test]
fn exit_1_on_usage_and_io_errors() {
    let unknown = run(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(1));
    assert!(stderr(&unknown).contains("unknown command"));

    let missing = run(&["mine", "/nonexistent/dataset.gpd"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(stderr(&missing).contains("reading"));

    let bad_metrics = run(&["mine", "x.gpd", "--metrics", "xml"]);
    assert_eq!(bad_metrics.status.code(), Some(1));
    assert!(stderr(&bad_metrics).contains("supported: json"));
}

#[test]
fn exit_2_on_invalid_configuration() {
    let path = city_file("conf");
    let out = run(&["mine", path.to_str().unwrap(), "--minconf", "1.5"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("min_confidence"));

    let out = run(&["mine", path.to_str().unwrap(), "--minsup", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("support"));
}

#[test]
fn exit_3_on_unusable_data() {
    let path = std::env::temp_dir().join("geopattern-cli-test-empty.gpd");
    // Valid format, but the reference layer has no features.
    std::fs::write(&path, "layer district reference\n").expect("write dataset");
    let out = run(&["mine", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("reference layer"));
}

#[test]
fn exit_4_on_timeout_with_partial_metrics() {
    let path = city_file("timeout");
    // A zero deadline is already expired when the pipeline first checks
    // the token, so the run fails deterministically.
    let out = run(&[
        "mine",
        path.to_str().unwrap(),
        "--timeout",
        "0",
        "--metrics",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("deadline exceeded"));
    // The partial metrics report still comes out on stdout.
    let text = stdout(&out);
    let json = text
        .lines()
        .find_map(|l| l.strip_prefix("metrics: "))
        .expect("partial metrics line present");
    assert!(json.contains("\"spans\""), "partial report: {json}");
}

#[test]
fn auto_counting_records_its_choice_in_metrics_json() {
    // Counting is not a flag: every Apriori run resolves the `auto`
    // policy, and the city goes to the bitmap engine.
    let path = city_file("auto-choice");
    let out = run(&["mine", path.to_str().unwrap(), "--minsup", "0.3", "--metrics", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("\"mining/auto_choice/bitmap\":1"),
        "metrics lack the auto decision: {text}"
    );
    assert!(text.contains("\"mining/auto_stats_transactions\""), "stats family missing: {text}");
}

/// Runs `first`, then `--resume` with `second` over the same journal, and
/// returns the resumed run.
fn resume_after(name: &str, first: &[&str], second: &[&str]) -> Output {
    let path = city_file(name);
    let journal = std::env::temp_dir().join(format!("geopattern-cli-test-{name}.journal"));
    let _ = std::fs::remove_file(&journal);
    let (path, journal) = (path.to_str().unwrap(), journal.to_str().unwrap());
    let mut args = vec!["mine", path, "--minsup", "0.1", "--journal", journal];
    args.extend_from_slice(first);
    let out = run(&args);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let mut args = vec!["mine", path, "--minsup", "0.1", "--journal", journal, "--resume"];
    args.extend_from_slice(second);
    run(&args)
}

#[test]
fn resume_without_the_journaled_deps_is_a_fingerprint_mismatch() {
    let out = resume_after("fp-dep", &["--dep", "street", "illuminationPoint"], &[]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(stderr(&out).contains("journal"), "stderr: {}", stderr(&out));
}

#[test]
fn resume_after_the_dataset_changed_is_a_fingerprint_mismatch() {
    // The fingerprint covers the dataset's bytes, not its path: a
    // regenerated file must not resume the old file's journal, and the
    // same bytes at another path must.
    let dir = std::env::temp_dir();
    let data = dir.join("geopattern-cli-test-content.gpd");
    let copy = dir.join("geopattern-cli-test-content-copy.gpd");
    let journal = dir.join("geopattern-cli-test-content.journal");
    let _ = std::fs::remove_file(&journal);
    let (data, copy_path, journal) =
        (data.to_str().unwrap(), copy.to_str().unwrap(), journal.to_str().unwrap());
    let generate = |seed: &str| {
        let out = run(&["generate-city", "--grid", "4", "--seed", seed, "--out", data]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    };
    generate("9");
    let first = run(&["mine", data, "--itemsets", "--journal", journal]);
    assert_eq!(first.status.code(), Some(0), "stderr: {}", stderr(&first));
    std::fs::copy(data, copy_path).expect("copy dataset");

    generate("10");
    let changed = run(&["mine", data, "--itemsets", "--journal", journal, "--resume"]);
    assert_eq!(changed.status.code(), Some(2), "stdout: {}", stdout(&changed));
    assert!(stderr(&changed).contains("fingerprint"), "stderr: {}", stderr(&changed));

    let moved = run(&[
        "mine", copy_path, "--itemsets", "--journal", journal, "--resume", "--metrics", "json",
    ]);
    assert_eq!(moved.status.code(), Some(0), "stderr: {}", stderr(&moved));
    assert!(stdout(&moved).contains("\"robust/resume_tiles_skipped\":1"), "{}", stdout(&moved));
    assert_eq!(summary_line(&moved), summary_line(&first));
}

#[test]
fn closed_stdout_pipe_ends_mine_quietly_with_0() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let path = std::env::temp_dir().join("geopattern-cli-test-pipe.gpd");
    let path = path.to_str().unwrap();
    let generated = run(&["generate-city", "--grid", "8", "--seed", "9", "--out", path]);
    assert_eq!(generated.status.code(), Some(0), "stderr: {}", stderr(&generated));
    // About 99 KB of itemsets and rules: more than a 64 KiB pipe buffer
    // holds, so the writer meets the closed pipe.
    let mut child = bin()
        .args(["mine", path, "--itemsets", "--rules"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn geopattern");
    let mut first = String::new();
    // Dropping the reader closes the pipe after one line.
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).expect("one line");
    let out = child.wait_with_output().expect("wait for geopattern");
    assert!(first.starts_with("Apriori-KC+"), "first line: {first}");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stderr(&out).contains("panicked"), "stderr: {}", stderr(&out));
}

/// The first line of a run's stdout: the report summary.
fn summary_line(out: &Output) -> String {
    stdout(out).lines().next().unwrap_or_default().to_string()
}

#[test]
fn exit_7_on_exceeded_budget_and_a_larger_budget_resumes() {
    let path = city_file("budget");
    let journal = std::env::temp_dir().join("geopattern-cli-test-budget.journal");
    let (path, journal) = (path.to_str().unwrap(), journal.to_str().unwrap());
    let base = ["mine", path, "--minsup", "0.1", "--algorithm", "fpgrowth"];
    let fresh = run(&base);
    assert_eq!(fresh.status.code(), Some(0), "stderr: {}", stderr(&fresh));

    // The smallest power-of-two budget that fails only after at least one
    // top-level branch was journaled: the unbudgeted rerun then resumes.
    // The fingerprint leaves the budget out, so the rerun may drop it.
    for shift in 0..40 {
        let _ = std::fs::remove_file(journal);
        let budget = (1u64 << shift).to_string();
        let mut args = base.to_vec();
        args.extend(["--memory-budget", budget.as_str(), "--journal", journal]);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(7), "budget {budget}: {}", stderr(&out));
        assert!(stderr(&out).contains("memory budget exceeded"), "stderr: {}", stderr(&out));
        assert!(!stdout(&out).contains("frequent itemsets"), "no report on exit 7");

        let mut args = base.to_vec();
        args.extend(["--journal", journal, "--resume", "--metrics", "json"]);
        let resumed = run(&args);
        assert_eq!(resumed.status.code(), Some(0), "stderr: {}", stderr(&resumed));
        assert_eq!(summary_line(&resumed), summary_line(&fresh));
        let metrics = stdout(&resumed);
        if metrics.contains("\"robust/resume_branches_skipped\":0") {
            continue;
        }
        assert!(metrics.contains("\"robust/resume_branches_skipped\":"), "{metrics}");
        return;
    }
    panic!("no budget failed after journaling a branch");
}

#[test]
fn exit_4_on_negative_or_bad_timeout_is_usage_error() {
    let out = run(&["mine", "x.gpd", "--timeout", "-1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--timeout"));
}

#[test]
fn exit_5_on_injected_worker_panic() {
    let path = city_file("panic");
    // `mining/apriori.count` fires inside a pool worker's closure; the
    // pool isolates the panic, drains, and the process exits with 5 —
    // never an abort and never a hang.
    let out = bin()
        .args(["mine", path.to_str().unwrap(), "--algorithm", "apriori", "--metrics", "json"])
        .env("GEOPATTERN_FAILPOINTS", "mining/apriori.count=panic@1:42")
        .output()
        .expect("spawn geopattern");
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("worker panicked"), "stderr: {err}");
    assert!(err.contains("mining/apriori.count"), "stderr: {err}");
    // Partial metrics survive the panic too.
    assert!(stdout(&out).contains("metrics: "), "stdout: {}", stdout(&out));
}

#[test]
fn bad_failpoint_spec_is_usage_error() {
    let out = bin()
        .args(["--help"])
        .env("GEOPATTERN_FAILPOINTS", "nonsense spec !!!")
        .output()
        .expect("spawn geopattern");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("GEOPATTERN_FAILPOINTS"));
}

#[test]
fn absurd_thread_count_is_rejected() {
    let out = run(&["mine", "x.gpd", "--threads", "5000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("absurd"));
}

#[test]
fn removed_algorithm_names_exit_1() {
    let path = city_file("removed");
    for name in [
        "eclat",
        "eclat-kc+",
        "tid",
        "tid-kc+",
        "apriori-tid",
        "apriori-tid-kc+",
        "aprioritid",
        "aprioritid-kc+",
    ] {
        let out = run(&["mine", path.to_str().unwrap(), "--algorithm", name]);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr(&out));
        assert!(stderr(&out).contains("unknown algorithm"), "{name}: {}", stderr(&out));
    }
}

#[test]
fn tiled_mining_matches_flat_output() {
    let path = city_file("tiled");
    let flat = run(&["mine", path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(flat.status.code(), Some(0), "stderr: {}", stderr(&flat));
    for tiles in ["1", "3", "8"] {
        let tiled = run(&[
            "mine",
            path.to_str().unwrap(),
            "--minsup",
            "0.3",
            "--itemsets",
            "--tile-size",
            tiles,
        ]);
        assert_eq!(tiled.status.code(), Some(0), "tiles={tiles}: {}", stderr(&tiled));
        assert_eq!(stdout(&tiled), stdout(&flat), "tile-size {tiles} diverged from the default");
    }
}

#[test]
fn mine_output_matches_its_golden() {
    // Pinned output of `mine --itemsets --rules` on `generate-city --grid 4
    // --seed 9`; never regenerated to make this test pass.
    let golden = include_str!("golden/mine_city_grid4_seed9.txt");
    let path = city_file("golden");
    let path = path.to_str().unwrap();
    for extra in [&["--threads", "1"][..], &["--threads", "4", "--tile-size", "3"]] {
        let mut args = vec!["mine", path, "--itemsets", "--rules"];
        args.extend_from_slice(extra);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{extra:?}: {}", stderr(&out));
        assert!(stdout(&out) == golden, "{extra:?}: output differs from the golden");
    }
}

#[test]
fn bad_tile_size_is_usage_error() {
    // Past TileGrid::MAX_TILES_PER_AXIS (4096) a tile count is rejected up
    // front, like an absurd --threads, instead of aborting the run.
    for size in ["many", "100000", "5000000000"] {
        let out = run(&["mine", "x.gpd", "--tile-size", size]);
        assert_eq!(out.status.code(), Some(1), "{size}");
        assert!(stderr(&out).contains("--tile-size"), "{size}");
    }
}

#[test]
fn binary_dataset_round_trips_through_the_cli() {
    // generate-city --format gpb writes a binary dataset; mine tells it
    // from text by its first bytes, and the report equals the text-format
    // run's.
    let gpb_path = std::env::temp_dir().join("geopattern-cli-test-binary.gpb");
    let out = run(&[
        "generate-city",
        "--grid",
        "4",
        "--seed",
        "9",
        "--format",
        "gpb",
        "--out",
        gpb_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let bytes = std::fs::read(&gpb_path).expect("gpb written");
    assert!(bytes.starts_with(b"GPB1"), "missing magic");

    let text_path = city_file("binary-ref");
    let from_text = run(&["mine", text_path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(from_text.status.code(), Some(0));

    let sniffed = run(&["mine", gpb_path.to_str().unwrap(), "--minsup", "0.3", "--itemsets"]);
    assert_eq!(sniffed.status.code(), Some(0), "stderr: {}", stderr(&sniffed));
    assert_eq!(stdout(&sniffed), stdout(&from_text), "binary run diverged from text run");
}

#[test]
fn gpb_with_a_wrong_stored_envelope_is_exit_1() {
    // A district with a school inside it; then the school's stored
    // envelope is rewritten to a box far from its point.
    let dataset = geopattern::SpatialDataset::from_text(
        "layer district reference\n\
         D1|POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))|\n\
         layer school\n\
         s1|POINT (5 5)|\n",
    )
    .expect("dataset parses");
    let intact = geopattern::to_gpb(&dataset);
    let rect = |v: f64| -> Vec<u8> { [v; 4].iter().flat_map(|x| x.to_le_bytes()).collect() };
    let (school, far) = (rect(5.0), rect(50.0));
    let at = intact.windows(32).position(|w| w == school.as_slice()).expect("school envelope");
    let mut corrupt = intact.clone();
    corrupt[at..at + 32].copy_from_slice(&far);

    let path = std::env::temp_dir().join("geopattern-cli-test-envelope.gpb");
    std::fs::write(&path, &intact).expect("write dataset");
    let out = run(&["mine", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("1 transactions, 1 items"), "{report}");
    assert!(report.contains("1 exact pairs, 0 pruned by index"), "{report}");

    // Trusting the stored envelope would prune the pair and mine 0 items.
    std::fs::write(&path, &corrupt).expect("write dataset");
    let out = run(&["mine", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains(&format!("stored envelope at byte {at} does not match")),
        "{}",
        stderr(&out)
    );
}

#[test]
fn bad_format_is_usage_error() {
    // generate-city writes wkt or gpb; anything else, `auto` included,
    // is an unknown format.
    for format in ["parquet", "auto"] {
        let out = run(&["generate-city", "--grid", "2", "--format", format]);
        assert_eq!(out.status.code(), Some(1), "{format}");
        assert!(stderr(&out).contains("unknown --format"), "{format}: {}", stderr(&out));
    }
    // mine has no --format: the file's first bytes decide, and the old
    // flag is an unexpected argument.
    let out = run(&["mine", "x.gpd", "--format", "gpb"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unexpected arguments"), "{}", stderr(&out));
}

#[test]
fn predicates_sharing_a_label_mine_as_distinct_items() {
    // The reference attribute `contains_x=y` and `contains` against the
    // relevant layer `x=y` both render as `contains_x=y`, yet are two
    // items.
    let path = std::env::temp_dir().join("geopattern-cli-test-same-label.gpd");
    std::fs::write(
        &path,
        "layer district reference\n\
         D1|POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))|contains_x=y\n\
         D2|POLYGON ((20 0, 30 0, 30 10, 20 10, 20 0))|contains_x=y\n\
         layer x=y\n\
         p1|POLYGON ((2 2, 4 2, 4 4, 2 4, 2 2))|\n\
         p2|POLYGON ((22 2, 24 2, 24 4, 22 4, 22 2))|\n",
    )
    .expect("write dataset");
    let out = run(&["mine", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("2 transactions, 2 items"), "{}", stdout(&out));
}

#[test]
fn metrics_json_prints_spans_and_counters() {
    let path = city_file("metrics");
    let out = run(&["mine", path.to_str().unwrap(), "--metrics", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let json = text
        .lines()
        .find_map(|l| l.strip_prefix("metrics: "))
        .expect("metrics line present");
    for key in ["\"spans\"", "\"counters\"", "\"load\"", "\"mine\"", "\"extract\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // Without the flag, no metrics line is printed.
    let plain = run(&["mine", path.to_str().unwrap()]);
    assert!(!stdout(&plain).contains("metrics:"));
}

#[test]
fn gain_is_exact_up_to_128_items_and_refuses_more() {
    // 2^126 − 127: the largest itemset holds 126 relations of one type,
    // so every subset of two or more items is removed.
    let out = run(&["gain", "--t", "126"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).ends_with("minimal gain 85070591730234615865843651857942052737\n"));
    // m = 200, and m overflowing u64: exit 1, nothing on stdout.
    for t in [&["--t", "100", "--n", "100"][..], &["--t", "18446744073709551615,1"]] {
        let out = run(&[&["gain"][..], t].concat());
        assert_eq!(out.status.code(), Some(1), "{t:?}");
        assert_eq!(stdout(&out), "", "{t:?}");
        assert!(stderr(&out).contains("at most 128"), "{t:?}: {}", stderr(&out));
    }
}
