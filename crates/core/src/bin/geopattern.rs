//! The `geopattern` command-line interface.
//!
//! ```text
//! geopattern mine <dataset.gpd|.gpb> [--minsup 0.3] [--minconf 0.7]
//!                 [--algorithm apriori|kc|kc+|fpgrowth|fpgrowth-kc+]
//!                 [--dep TYPE_A TYPE_B]... [--threads N|auto] [--itemsets] [--rules]
//!                 [--metrics json] [--timeout SECS] [--memory-budget BYTES]
//!                 [--tile-size N] [--journal FILE] [--resume] [--max-retries N]
//! geopattern generate-city [--grid 6] [--seed 1] [--out city.gpd] [--format wkt|gpb]
//! geopattern relate <WKT_A> <WKT_B>
//! geopattern gain --t 2,2,2 --n 2        (m = Σ t + n ≤ 128)
//! ```
//!
//! Dataset files use the text format of `geopattern_sdb::dataset` (see
//! `generate-city --out` for a sample) or the compact binary `.gpb`
//! format (`generate-city --format gpb`); `mine` reads a file as `.gpb`
//! exactly when it starts with the `GPB1` magic, which no valid text
//! dataset does (its first non-blank line is a `#` comment or a `layer`
//! header). `--tile-size N` shards predicate extraction
//! over an `N × N` spatial tile grid (at most 4096 per axis), run one tile
//! after another; the default is one tile, and the mined patterns are
//! bit-identical at every tile size.
//!
//! `--journal FILE` makes the run crash-safe: extraction tiles (one tile
//! without `--tile-size`) and mining levels append durable records as
//! they complete, and `--resume` reopens
//! the journal so a rerun skips everything already journaled — the
//! resumed output is bit-identical to an uninterrupted run. The journal
//! is fingerprinted over the output-affecting configuration (algorithm,
//! thresholds, tile size, an FNV-1a hash of the dataset's bytes and the
//! `--dep` pairs); `--resume` against a journal from a different
//! configuration or dataset content is a configuration error (exit code
//! 2), while the same bytes at another path resume. `--memory-budget` is
//! not part of the fingerprint: a budget never changes the output, so a
//! rerun with a larger budget resumes. `--max-retries N` retries a run
//! whose worker panicked, with capped exponential backoff; each retry
//! resumes from the journal the failed attempt left behind.
//!
//! The Apriori variants count support with the `auto` policy: the
//! vertical bitmap engine, or hash-subset when `--memory-budget` cannot
//! hold the bitmap engine's TID lists. `--metrics json` reports the pick
//! as `mining/auto_choice/<name>`, and the bitmap engine's pass-2 method
//! as `mining/pass2/joins` or `mining/pass2/scan`. The Apriori variants
//! only track the budget; FP-Growth fails with exit code 7 when a
//! conditional tree does not fit it.
//!
//! Exit codes: `0` success, `1` usage or I/O error, `2` invalid mining
//! configuration, `3` unusable data (e.g. empty reference layer), `4` run
//! cancelled or `--timeout` exceeded, `5` worker panic (isolated by the
//! pool; the process still exits cleanly), `6` retry budget exhausted,
//! `7` memory budget exceeded (no report is printed). Command output goes
//! through one locked stdout handle: when the reader closes the pipe
//! early (`geopattern mine … | head`), the command stops quietly with
//! `0`, because the reader chose to stop reading; any other stdout write
//! error is `1`.
//!
//! `GEOPATTERN_FAILPOINTS` (e.g. `mining/apriori.count=panic@1:42`)
//! activates deterministic fault-injection points for testing — see
//! `geopattern_testkit::failpoint`.

use geopattern::{
    atomic_write, fnv1a64, from_gpb, to_gpb, Algorithm, CancelToken, ExtractionConfig, JobRunner,
    Journal, KnowledgeBase, MemoryBudget, MinSupport, MiningPipeline, Recorder, SpatialDataset,
    Threads, TileGrid, Tiling,
};
use geopattern_datagen::{generate_city, CityConfig};
use geopattern_geom::from_wkt;
use geopattern_mining::minimal_gain;
use geopattern_qsr::{classify, topological_relation};
use std::io::{self, Write};
use std::process::ExitCode;

/// A CLI failure: message plus the process exit code to report.
struct CmdError {
    code: u8,
    msg: String,
}

impl From<String> for CmdError {
    fn from(msg: String) -> CmdError {
        CmdError { code: 1, msg }
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> CmdError {
        CmdError { code: 1, msg: msg.to_string() }
    }
}

impl From<geopattern::Error> for CmdError {
    fn from(e: geopattern::Error) -> CmdError {
        CmdError { code: e.exit_code() as u8, msg: e.to_string() }
    }
}

/// A failed stdout write. A closed pipe means the reader chose to stop
/// reading, so it ends the command with code 0, which `main` reports
/// quietly.
impl From<io::Error> for CmdError {
    fn from(e: io::Error) -> CmdError {
        let code = if e.kind() == io::ErrorKind::BrokenPipe { 0 } else { 1 };
        CmdError { code, msg: format!("writing stdout: {e}") }
    }
}

fn main() -> ExitCode {
    // Arm deterministic fault-injection points from the environment (a
    // no-op unless GEOPATTERN_FAILPOINTS is set — used by the test suite
    // to exercise the failure paths of a real process).
    if let Err(e) = geopattern_testkit::failpoint::activate_from_env() {
        eprintln!("error: GEOPATTERN_FAILPOINTS: {e}");
        return ExitCode::from(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut io::stdout().lock();
    let result = match args.first().map(String::as_str) {
        Some("mine") => cmd_mine(&args[1..], out),
        Some("generate-city") => cmd_generate_city(&args[1..], out),
        Some("relate") => cmd_relate(&args[1..], out),
        Some("gain") => cmd_gain(&args[1..], out),
        Some("--help") | Some("-h") | None => print_usage(out),
        Some(other) => Err(format!("unknown command {other:?}; try --help").into()),
    };
    match result {
        Ok(()) | Err(CmdError { code: 0, .. }) => ExitCode::SUCCESS,
        Err(CmdError { code, msg }) => {
            eprintln!("error: {msg}");
            ExitCode::from(code)
        }
    }
}

fn print_usage(out: &mut impl Write) -> Result<(), CmdError> {
    writeln!(
        out,
        "geopattern — frequent geographic pattern mining with QSR filters\n\n\
         USAGE:\n  \
         geopattern mine <dataset.gpd|.gpb> [--minsup F] [--minconf F] [--algorithm A]\n                  \
         [--dep TYPE_A TYPE_B]... [--threads N|auto] [--itemsets] [--rules]\n                  \
         [--metrics json] [--timeout SECS] [--memory-budget BYTES]\n                  \
         [--tile-size N] [--journal FILE] [--resume] [--max-retries N]\n  \
         geopattern generate-city [--grid N] [--seed S] [--out FILE] [--format wkt|gpb]\n  \
         geopattern relate <WKT_A> <WKT_B>\n  \
         geopattern gain --t T1,T2,... --n N   (m = T1 + T2 + ... + N, at most 128)\n\n\
         ALGORITHMS: apriori, kc, kc+ (default), fpgrowth, fpgrowth-kc+\n\
         COUNTING (Apriori variants): the vertical bitmap engine, or hash-subset when\n            \
         --memory-budget cannot hold its TID lists; both produce identical itemsets,\n            \
         and --metrics json reports the pick (mining/auto_choice) and the bitmap\n            \
         engine's pass-2 method (mining/pass2/joins or mining/pass2/scan)\n\n\
         mine reads a dataset as gpb binary when it starts with the GPB1 magic, else as\n\
         wkt text; generate-city --format picks which one it writes.\n\
         --tile-size N (at most 4096) shards extraction over an N x N spatial tile grid,\n\
         one tile at a time — output is bit-identical to the default single tile.\n\
         --metrics json dumps span timings / counters / histograms for the run as JSON\n\
         on stdout after the report (a partial report on interrupted runs).\n\
         --timeout SECS cancels the run at a deadline (exit code 4).\n\
         --memory-budget BYTES (suffixes k/m/g) bounds the mining intermediates: the\n\
         Apriori variants only track it (same output under any budget); FP-Growth fails\n\
         with exit code 7 when a conditional tree does not fit. A rerun with a larger\n\
         budget resumes from the journal.\n\
         --journal FILE makes the run crash-safe (durable per-tile / per-level records;\n\
         extraction is one tile unless --tile-size says otherwise);\n\
         --resume reopens the journal and skips everything already journaled, with\n\
         bit-identical output. --max-retries N retries worker panics with capped\n\
         exponential backoff; each retry resumes from the shared journal.\n\n\
         EXIT CODES: 0 ok, 1 usage or I/O error, 2 invalid configuration, 3 unusable data,\n             \
         4 cancelled or timed out, 5 worker panic, 6 retry budget exhausted,\n             \
         7 memory budget exceeded; a closed stdout pipe ends a command quietly with 0"
    )?;
    Ok(())
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "apriori" => Algorithm::Apriori,
        "kc" | "apriori-kc" => Algorithm::AprioriKc,
        "kc+" | "apriori-kc+" => Algorithm::AprioriKcPlus,
        "fpgrowth" | "fp-growth" => Algorithm::FpGrowth,
        "fpgrowth-kc+" | "fp-growth-kc+" => Algorithm::FpGrowthKcPlus,
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// On-disk dataset encodings `generate-city` writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DatasetFormat {
    /// The line-oriented WKT text format (`.gpd`).
    Wkt,
    /// The compact binary format (`.gpb`).
    Gpb,
}

impl DatasetFormat {
    fn parse(s: &str) -> Result<DatasetFormat, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "wkt" | "text" | "gpd" => DatasetFormat::Wkt,
            "gpb" | "binary" => DatasetFormat::Gpb,
            other => return Err(format!("unknown --format {other:?} (supported: wkt, gpb)")),
        })
    }
}

/// Loads a dataset from raw file contents: `.gpb` when they start with
/// the `GPB1` magic, text otherwise.
fn load_dataset(path: &str, bytes: &[u8]) -> Result<SpatialDataset, CmdError> {
    if bytes.starts_with(b"GPB1") {
        from_gpb(bytes).map_err(|e| format!("parsing {path}: {e}").into())
    } else {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("reading {path}: not UTF-8: {e}"))?;
        SpatialDataset::from_text(text).map_err(|e| format!("parsing {path}: {e}").into())
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `512m`.
fn parse_bytes(s: &str) -> Result<usize, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, multiplier) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 1usize << 10),
        Some(b'm') => (&lower[..lower.len() - 1], 1usize << 20),
        Some(b'g') => (&lower[..lower.len() - 1], 1usize << 30),
        _ => (lower.as_str(), 1),
    };
    let n: usize = digits.parse().map_err(|_| format!("bad byte count {s:?}"))?;
    n.checked_mul(multiplier).ok_or_else(|| format!("byte count {s:?} overflows"))
}

/// Pulls `--flag value` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of an argument list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn cmd_mine(args: &[String], out: &mut impl Write) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let minsup: f64 = take_flag(&mut args, "--minsup")?
        .map(|v| v.parse().map_err(|_| format!("bad --minsup {v:?}")))
        .transpose()?
        .unwrap_or(0.3);
    let minconf: f64 = take_flag(&mut args, "--minconf")?
        .map(|v| v.parse().map_err(|_| format!("bad --minconf {v:?}")))
        .transpose()?
        .unwrap_or(0.7);
    let algorithm = take_flag(&mut args, "--algorithm")?
        .map(|v| parse_algorithm(&v))
        .transpose()?
        .unwrap_or(Algorithm::AprioriKcPlus);
    let threads = take_flag(&mut args, "--threads")?
        .map(|v| Threads::parse(&v))
        .transpose()?
        .unwrap_or(Threads::Auto);
    let show_itemsets = take_switch(&mut args, "--itemsets");
    let show_rules = take_switch(&mut args, "--rules");
    // Kept as a Duration (not a pre-built token): a retrying run needs a
    // FRESH CancelToken per attempt — a token tripped by a panicking
    // attempt would poison every retry.
    let timeout = match take_flag(&mut args, "--timeout")? {
        Some(v) => {
            let secs: f64 = v.parse().map_err(|_| format!("bad --timeout {v:?}"))?;
            Some(
                std::time::Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("bad --timeout {v:?} (want non-negative seconds)"))?,
            )
        }
        None => None,
    };
    let max_retries: u32 = take_flag(&mut args, "--max-retries")?
        .map(|v| v.parse().map_err(|_| format!("bad --max-retries {v:?}")))
        .transpose()?
        .unwrap_or(0);
    let journal_path = take_flag(&mut args, "--journal")?;
    let resume = take_switch(&mut args, "--resume");
    if resume && journal_path.is_none() {
        return Err("--resume needs --journal FILE".into());
    }
    let budget = match take_flag(&mut args, "--memory-budget")? {
        Some(v) => MemoryBudget::bytes(parse_bytes(&v)?),
        None => MemoryBudget::unlimited(),
    };
    let tile_size: usize = take_flag(&mut args, "--tile-size")?
        .map(|v| match v.parse() {
            Ok(n) if n > TileGrid::MAX_TILES_PER_AXIS => Err(format!(
                "--tile-size {n} is absurd (maximum {} tiles per axis)",
                TileGrid::MAX_TILES_PER_AXIS
            )),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("bad --tile-size {v:?}")),
        })
        .transpose()?
        .unwrap_or(0);
    let metrics_format = take_flag(&mut args, "--metrics")?;
    let recorder = match metrics_format.as_deref() {
        Some("json") => Recorder::new(),
        Some(other) => {
            return Err(format!("unknown --metrics format {other:?} (supported: json)").into())
        }
        None => Recorder::disabled(),
    };

    let mut knowledge = KnowledgeBase::new();
    let mut deps: Vec<(String, String)> = Vec::new();
    while let Some(pos) = args.iter().position(|a| a == "--dep") {
        if pos + 2 >= args.len() {
            return Err("--dep needs two feature-type names".into());
        }
        let b = args.remove(pos + 2);
        let a = args.remove(pos + 1);
        args.remove(pos);
        knowledge.add_type_dependency(a.clone(), b.clone());
        deps.push((a, b));
    }

    let path = match args.as_slice() {
        [p] => p.clone(),
        [] => return Err("mine needs a dataset file".into()),
        extra => return Err(format!("unexpected arguments: {extra:?}").into()),
    };
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Parsing builds the per-layer R-trees, so the "load" span covers both.
    let load_span = recorder.span("load");
    let dataset = load_dataset(&path, &bytes)?;
    drop(load_span);

    // The journal fingerprint covers every output-affecting knob, so a
    // stale journal from a different configuration or dataset is rejected
    // up front instead of silently seeding the wrong resume state. The
    // dataset enters by content, not path: a regenerated file must not
    // resume, and a copied one may. `--dep` pairs go in the order given
    // (their debug form quotes each name). The budget is left out: it
    // either leaves the output unchanged or fails the run, so a rerun with
    // a larger budget may resume.
    let journal = match &journal_path {
        Some(jp) => {
            let fingerprint = fnv1a64(
                format!(
                    "{}|{minsup}|{minconf}|{tile_size}|{:016x}|{deps:?}",
                    algorithm.name(),
                    fnv1a64(&bytes)
                )
                .as_bytes(),
            );
            // --resume opens strictly so a fingerprint mismatch (the
            // configuration changed under the journal) fails loudly
            // instead of silently starting over; a missing file just
            // means nothing has been journaled yet.
            let opened = if resume && std::path::Path::new(jp).exists() {
                Journal::open(jp, fingerprint)
            } else {
                Journal::create(jp, fingerprint)
            };
            Some(opened.map_err(|e| {
                let code = if e.kind() == std::io::ErrorKind::InvalidData { 2 } else { 1 };
                CmdError { code, msg: format!("journal {jp}: {e}") }
            })?)
        }
        None => None,
    };

    let tiling = Tiling::Grid { tiles_per_axis: tile_size };
    let runner = JobRunner::new(max_retries).with_recorder(recorder.clone());
    let outcome = runner.run(|_attempt| {
        let cancel = match timeout {
            Some(t) => CancelToken::with_timeout(t),
            None => CancelToken::none(),
        };
        let mut pipeline = MiningPipeline::new()
            .algorithm(algorithm)
            .min_support(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .knowledge(knowledge.clone())
            .extraction(ExtractionConfig::default().with_tiling(tiling))
            .threads(threads)
            .recorder(recorder.clone())
            .cancel_token(cancel)
            .memory_budget(budget.clone());
        if let Some(j) = &journal {
            pipeline = pipeline.journal(j.clone());
        }
        pipeline.run(&dataset)
    });
    if let Some(j) = &journal {
        recorder.counter("robust/journal_bytes", j.bytes());
    }
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            // An interrupted run still reports what it measured: the
            // recorder shares state with the pipeline's clone, so the
            // partial spans/counters survive the failure. The run's error
            // outranks a failed write of them.
            if metrics_format.is_some() {
                let _ = writeln!(out, "metrics: {}", recorder.snapshot().to_json());
            }
            return Err(e.into());
        }
    };

    writeln!(out, "{}", report.summary())?;
    if let Some(stats) = &report.extraction_stats {
        writeln!(
            out,
            "extraction: {} exact pairs, {} pruned by index",
            stats.candidate_pairs, stats.pruned_pairs
        )?;
    }
    if show_itemsets {
        writeln!(out, "\nfrequent itemsets (size >= 2):")?;
        for s in report.frequent_itemsets(2) {
            writeln!(out, "  {s}")?;
        }
    }
    if show_rules {
        writeln!(out, "\nrules (confidence >= {minconf}):")?;
        for r in report.rendered_rules() {
            writeln!(out, "  {r}")?;
        }
    }
    if metrics_format.is_some() {
        // The live snapshot, not the report's: it includes counters
        // recorded after the run finished (e.g. robust/journal_bytes).
        writeln!(out, "\nmetrics: {}", recorder.snapshot().to_json())?;
    }
    Ok(())
}

fn cmd_generate_city(args: &[String], out: &mut impl Write) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let grid: usize = take_flag(&mut args, "--grid")?
        .map(|v| v.parse().map_err(|_| format!("bad --grid {v:?}")))
        .transpose()?
        .unwrap_or(6);
    let seed: u64 = take_flag(&mut args, "--seed")?
        .map(|v| v.parse().map_err(|_| format!("bad --seed {v:?}")))
        .transpose()?
        .unwrap_or(1);
    let out_path = take_flag(&mut args, "--out")?;
    let format = take_flag(&mut args, "--format")?
        .map(|v| DatasetFormat::parse(&v))
        .transpose()?
        .unwrap_or(DatasetFormat::Wkt);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}").into());
    }

    let city = generate_city(&CityConfig { grid, seed, ..Default::default() });
    let bytes = match format {
        DatasetFormat::Gpb => to_gpb(&city),
        DatasetFormat::Wkt => city.to_text().into_bytes(),
    };
    match out_path {
        Some(path) => {
            // Atomic temp-file + rename commit: a crash mid-write leaves
            // either the old file or the new one, never a torn dataset.
            atomic_write(&path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
            writeln!(
                out,
                "wrote {path}: {} districts, {} relevant layers ({} bytes)",
                city.reference.len(),
                city.relevant.len(),
                bytes.len()
            )?;
        }
        None => out.write_all(&bytes)?,
    }
    Ok(())
}

fn cmd_relate(args: &[String], out: &mut impl Write) -> Result<(), CmdError> {
    let [a, b] = args else {
        return Err("relate needs exactly two WKT arguments".into());
    };
    let ga = from_wkt(a).map_err(|e| format!("first geometry: {e}"))?;
    let gb = from_wkt(b).map_err(|e| format!("second geometry: {e}"))?;
    let m = geopattern_geom::relate(&ga, &gb);
    writeln!(out, "DE-9IM: {m}")?;
    writeln!(out, "relation: {}", topological_relation(&ga, &gb))?;
    writeln!(
        out,
        "converse: {}",
        classify(&m.transposed(), gb.dimension(), ga.dimension())
    )?;
    Ok(())
}

fn cmd_gain(args: &[String], out: &mut impl Write) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let t: Vec<u64> = take_flag(&mut args, "--t")?
        .ok_or("gain needs --t (comma-separated relation counts)")?
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad t value {v:?}")))
        .collect::<Result<_, _>>()?;
    let n: u64 = take_flag(&mut args, "--n")?
        .map(|v| v.parse().map_err(|_| format!("bad --n {v:?}")))
        .transpose()?
        .unwrap_or(0);
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}").into());
    }
    // Gains are u128 counts, exact for itemsets of up to 128 items.
    let m = t
        .iter()
        .try_fold(n, |sum, &tk| sum.checked_add(tk))
        .filter(|&m| m <= 128)
        .ok_or("gain needs m = sum of --t plus --n to be at most 128")?;
    writeln!(
        out,
        "largest itemset m={m}, t={t:?}, n={n} → minimal gain {}",
        minimal_gain(&t, n)
    )?;
    Ok(())
}
