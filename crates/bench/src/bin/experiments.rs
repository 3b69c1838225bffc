//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p geopattern-bench --bin experiments -- [--all|--table1|--table2|
//!     --table3|--fig3|--fig4|--fig5|--fig6|--fig7|--formula|--city]
//! cargo run --release -p geopattern-bench --bin experiments -- scaling [--grid N]
//! cargo run --release -p geopattern-bench --bin experiments -- kernel [--max V] [--check]
//! cargo run --release -p geopattern-bench --bin experiments -- counting [--check]
//! cargo run --release -p geopattern-bench --bin experiments -- tiling [--grid N] [--tiles T] [--check]
//! ```
//!
//! Counts (Tables 1–3, Figures 3, 4, 6, the formula cross-checks) are
//! exact and deterministic; the timing figures (5 and 7) print wall-clock
//! medians. The `scaling` subcommand benchmarks the parallel runtime:
//! serial vs N-thread wall-clock for predicate extraction and support
//! counting on a large generated city, with outputs verified identical.
//! The `kernel` subcommand benchmarks the segment-indexed geometry kernel
//! against the brute-force one on layers of growing vertex count, plus
//! quant → exact point location against the exact segment index alone,
//! and re-runs a small extraction across thread counts to prove the
//! outputs bit-identical; with `--check` it exits non-zero unless
//! quant → exact point location beats the exact index by ≥ 2x on the
//! largest layer in the run and lattice fallbacks stay under 5%. The
//! `counting` subcommand races the support-counting strategies
//! (hash-subset, bitmap and the default auto) on two workloads — the
//! dense seed-42 one and a seeded sparse-basket one, one per side of the
//! bitmap engine's pass-2 rule — after verifying every output identical
//! to hash-subset; with `--check` it exits non-zero unless bitmap beats
//! hash-subset on both, the pass-2 pick is joins on the dense workload
//! and the row scan on the sparse one, and on the dense workload auto is
//! ≥ 3x hash-subset and within 1.15x of the best fixed strategy.
//! The `tiling` subcommand measures the out-of-core pair on
//! a metropolis-scale city (~1M features): WKT parse vs `.gpb` binary
//! load (full materialisation and one-tile windowed fetch), and the
//! one-tile default vs tiled extraction (verified bit-identical); with
//! `--check` it enforces a ≥ 5x binary tile fetch over the full WKT parse
//! and ≤ 10% tiled regression. All four are excluded from `--all` because of their size.
//!
//! The measured experiments additionally dump machine-readable
//! `BENCH_fig5.json`, `BENCH_fig7.json`, `BENCH_scaling.json`,
//! `BENCH_counting.json`, `BENCH_kernel.json` and `BENCH_tiling.json`
//! files to the working directory, so perf trajectories accumulate across
//! runs.

use geopattern::obs::json::{json_f64, JsonBuf};
use geopattern::{Algorithm, MiningPipeline, MinSupport, PairFilter, Threads};
use geopattern_datagen::{experiments, generate_city, sparse_baskets, table1, CityConfig};
use geopattern_mining::{
    itemset_count_lower_bound, mine, minimal_gain, table3, AprioriConfig, CountingStrategy,
    TransactionSet,
};
use geopattern_qsr::DistanceScheme;
use geopattern_sdb::{extract_predicates, ExtractionConfig};
use std::time::Instant;

/// Writes a benchmark document to `BENCH_<name>.json` in the working
/// directory (best-effort: a read-only directory only loses the artifact).
/// The write is atomic (temp file + rename), so a crash mid-run never
/// leaves a torn JSON document behind.
fn write_bench(name: &str, json: &str) {
    let path = format!("BENCH_{name}.json");
    match geopattern_par::atomic_write(&path, json.as_bytes()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "scaling" || a == "--scaling") {
        let grid: usize = args
            .iter()
            .position(|a| a == "--grid")
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(24);
        print_scaling(grid);
        return;
    }
    if args.iter().any(|a| a == "tiling" || a == "--tiling") {
        let grid: usize = args
            .iter()
            .position(|a| a == "--grid")
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| geopattern_datagen::CityConfig::metropolis().grid);
        let tiles: usize = args
            .iter()
            .position(|a| a == "--tiles")
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        let check = args.iter().any(|a| a == "--check");
        print_tiling(grid, tiles, check);
        return;
    }
    if args.iter().any(|a| a == "counting") {
        let check = args.iter().any(|a| a == "--check");
        print_counting(check);
        return;
    }
    if args.iter().any(|a| a == "kernel" || a == "--kernel") {
        let max: usize = args
            .iter()
            .position(|a| a == "--max")
            .and_then(|p| args.get(p + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(1024);
        let check = args.iter().any(|a| a == "--check");
        print_kernel(max, check);
        return;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    if want("--table1") {
        print_table1();
    }
    if want("--table2") {
        print_table2();
    }
    if want("--table3") {
        print_table3();
    }
    if want("--fig3") {
        print_fig3();
    }
    if want("--fig4") || want("--fig5") {
        print_fig4_fig5();
    }
    if want("--fig6") || want("--fig7") {
        print_fig6_fig7();
    }
    if want("--formula") {
        print_formula_crosschecks();
    }
    if want("--city") {
        print_city_pipeline();
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn print_table1() {
    header("Table 1 — partial dataset of the city of Porto Alegre");
    let rows = table1::rows();
    for (district, row) in table1::DISTRICTS.iter().zip(&rows) {
        println!("{district:<12} {}", row.join(", "));
    }
}

fn run(alg: Algorithm, sup: f64, data: TransactionSet) -> geopattern::PatternReport {
    MiningPipeline::new()
        .algorithm(alg)
        .min_support(MinSupport::Fraction(sup))
        .run_transactions(data)
        .expect("valid mining configuration")
}

fn print_table2() {
    header("Table 2 — frequent itemsets of Table 1 at minsup 50%");
    let plain = run(Algorithm::Apriori, 0.5, table1::transactions());
    let same = PairFilter::same_feature_type(&plain.transactions.catalog);
    for (k, level) in plain.result.levels.iter().enumerate().skip(1) {
        println!("-- size {} ({} itemsets)", k + 1, level.len());
        for f in level {
            let marker = if same.blocks_set(&f.items) { "  [same-feature-type]" } else { "" };
            println!(
                "   {} (support {}){marker}",
                plain.transactions.catalog.render_itemset(&f.items),
                f.support
            );
        }
    }
    let total = plain.result.num_frequent_min2();
    let flagged = plain
        .result
        .with_min_size(2)
        .filter(|f| same.blocks_set(&f.items))
        .count();
    let kcp = run(Algorithm::AprioriKcPlus, 0.5, table1::transactions());
    println!("\nmeasured: {total} itemsets of size >= 2, {flagged} contain a same-feature-type pair");
    println!("Apriori-KC+ keeps {} (= {total} - {flagged})", kcp.result.num_frequent_min2());
    println!("paper claims 60 / 31 — its printed Table 1 is inconsistent with that (see EXPERIMENTS.md)");
    println!(
        "lower bound Σ C(m,i), m = {}: {}",
        plain.result.max_size(),
        itemset_count_lower_bound(plain.result.max_size() as u64)
    );
}

fn print_table3() {
    header("Table 3 — minimal gain, u = 1 feature type, t1 = 1..8, n = 1..10");
    let t3 = table3(8, 10);
    println!("{:>4} {}", "n\\t1", (1..=8).map(|t| format!("{t:>8}")).collect::<String>());
    for (i, row) in t3.iter().enumerate() {
        print!("{:>4} ", i + 1);
        for v in row {
            print!("{v:>8}");
        }
        println!();
    }
}

fn print_fig3() {
    header("Figure 3 — minimal gain surface (same data as Table 3, series per n)");
    let t3 = table3(8, 10);
    for (i, row) in t3.iter().enumerate() {
        let series: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("n={:<2} : {}", i + 1, series.join(" "));
    }
}

fn reduction(base: usize, v: usize) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (1.0 - v as f64 / base as f64)
    }
}

/// Median of repeated wall-clock timings, in microseconds.
fn time_us<F: FnMut()>(f: F) -> u128 {
    time_us_n(7, f)
}

/// Median of `reps` wall-clock timings, in microseconds.
fn time_us_n<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    let mut samples = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_micros());
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn print_fig4_fig5() {
    header("Figures 4 & 5 — Experiment 1: Apriori vs Apriori-KC vs Apriori-KC+");
    let e = experiments::experiment1(32);
    println!(
        "dataset: {} rows, {} predicates ({} same-type pairs, {} dependency pairs)",
        e.data.len(),
        e.data.catalog.len(),
        e.same_type.len(),
        e.dependencies.len()
    );
    println!(
        "\n{:>7} {:>10} {:>12} {:>12} {:>9} {:>9} | {:>10} {:>10} {:>10}",
        "minsup",
        "Apriori",
        "Apriori-KC",
        "AprioriKC+",
        "KC red%",
        "KC+ red%",
        "t(Apr) µs",
        "t(KC) µs",
        "t(KC+) µs"
    );
    let mut rows = Vec::new();
    for sup in [0.05, 0.10, 0.15] {
        let pipeline = |alg: Algorithm| {
            MiningPipeline::new().algorithm(alg).min_support(MinSupport::Fraction(sup))
        };
        let plain = pipeline(Algorithm::Apriori)
            .run_filtered(e.data.clone(), PairFilter::none(), PairFilter::none())
            .expect("valid mining configuration");
        let kc = pipeline(Algorithm::AprioriKc)
            .run_filtered(e.data.clone(), e.dependencies.clone(), PairFilter::none())
            .expect("valid mining configuration");
        let kcp = pipeline(Algorithm::AprioriKcPlus)
            .run_filtered(e.data.clone(), e.dependencies.clone(), e.same_type.clone())
            .expect("valid mining configuration");
        let (a, k, p) = (
            plain.result.num_frequent_min2(),
            kc.result.num_frequent_min2(),
            kcp.result.num_frequent_min2(),
        );
        let ta = time_us(|| {
            let _ = pipeline(Algorithm::Apriori).run_filtered(
                e.data.clone(),
                PairFilter::none(),
                PairFilter::none(),
            );
        });
        let tk = time_us(|| {
            let _ = pipeline(Algorithm::AprioriKc).run_filtered(
                e.data.clone(),
                e.dependencies.clone(),
                PairFilter::none(),
            );
        });
        let tp = time_us(|| {
            let _ = pipeline(Algorithm::AprioriKcPlus).run_filtered(
                e.data.clone(),
                e.dependencies.clone(),
                e.same_type.clone(),
            );
        });
        println!(
            "{:>6.0}% {a:>10} {k:>12} {p:>12} {:>8.1}% {:>8.1}% | {ta:>10} {tk:>10} {tp:>10}",
            sup * 100.0,
            reduction(a, k),
            reduction(a, p)
        );
        rows.push(format!(
            "{{\"minsup\":{},\"apriori\":{a},\"apriori_kc\":{k},\"apriori_kcp\":{p},\
             \"kc_reduction_pct\":{},\"kcp_reduction_pct\":{},\
             \"t_apriori_us\":{ta},\"t_kc_us\":{tk},\"t_kcp_us\":{tp}}}",
            json_f64(sup),
            json_f64(reduction(a, k)),
            json_f64(reduction(a, p)),
        ));
    }
    println!("\npaper shape: KC ≈ −28% vs Apriori; KC+ > −60% vs Apriori and ≈ −50% vs KC;");
    println!("             KC+ wall-clock ≤ KC ≤ Apriori (Figure 5)");

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"fig4_fig5\",");
    doc.key("rows");
    doc.raw(&e.data.len().to_string());
    doc.raw(",");
    doc.key("items");
    doc.raw(&e.data.catalog.len().to_string());
    doc.raw(",");
    doc.key("series");
    doc.raw(&format!("[{}]}}", rows.join(",")));
    write_bench("fig5", &doc.into_string());
}

fn print_fig6_fig7() {
    header("Figures 6 & 7 — Experiment 2: Apriori vs Apriori-KC+");
    let e = experiments::experiment2(32);
    println!(
        "dataset: {} rows, {} predicates ({} same-type pairs, no dependencies)",
        e.data.len(),
        e.data.catalog.len(),
        e.same_type.len()
    );
    println!(
        "\n{:>7} {:>10} {:>12} {:>9} | {:>10} {:>10}",
        "minsup", "Apriori", "AprioriKC+", "red%", "t(Apr) µs", "t(KC+) µs"
    );
    let mut rows = Vec::new();
    for pct in [5, 8, 11, 14, 17] {
        let sup = pct as f64 / 100.0;
        let pipeline = |alg: Algorithm| {
            MiningPipeline::new().algorithm(alg).min_support(MinSupport::Fraction(sup))
        };
        let plain = pipeline(Algorithm::Apriori)
            .run_filtered(e.data.clone(), PairFilter::none(), PairFilter::none())
            .expect("valid mining configuration");
        let kcp = pipeline(Algorithm::AprioriKcPlus)
            .run_filtered(e.data.clone(), PairFilter::none(), e.same_type.clone())
            .expect("valid mining configuration");
        let (a, p) = (plain.result.num_frequent_min2(), kcp.result.num_frequent_min2());
        let ta = time_us(|| {
            let _ = pipeline(Algorithm::Apriori).run_filtered(
                e.data.clone(),
                PairFilter::none(),
                PairFilter::none(),
            );
        });
        let tp = time_us(|| {
            let _ = pipeline(Algorithm::AprioriKcPlus).run_filtered(
                e.data.clone(),
                PairFilter::none(),
                e.same_type.clone(),
            );
        });
        println!("{pct:>6}% {a:>10} {p:>12} {:>8.1}% | {ta:>10} {tp:>10}", reduction(a, p));
        rows.push(format!(
            "{{\"minsup\":{},\"apriori\":{a},\"apriori_kcp\":{p},\"kcp_reduction_pct\":{},\
             \"t_apriori_us\":{ta},\"t_kcp_us\":{tp}}}",
            json_f64(sup),
            json_f64(reduction(a, p)),
        ));
    }
    println!("\npaper shape: KC+ > −55% at every minsup; KC+ wall-clock ≤ Apriori (Figure 7)");

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"fig6_fig7\",");
    doc.key("rows");
    doc.raw(&e.data.len().to_string());
    doc.raw(",");
    doc.key("items");
    doc.raw(&e.data.catalog.len().to_string());
    doc.raw(",");
    doc.key("series");
    doc.raw(&format!("[{}]}}", rows.join(",")));
    write_bench("fig7", &doc.into_string());
}

fn print_formula_crosschecks() {
    header("§4.2 formula cross-checks (Formula 1 vs mined gain on Experiment 2)");
    let e = experiments::experiment2(32);

    for (sup, expect_m) in [(0.05, 8usize), (0.17, 7usize)] {
        let plain = MiningPipeline::new()
            .algorithm(Algorithm::Apriori)
            .min_support(MinSupport::Fraction(sup))
            .run_filtered(e.data.clone(), PairFilter::none(), PairFilter::none())
            .expect("valid mining configuration");
        let kcp = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(sup))
            .run_filtered(e.data.clone(), PairFilter::none(), e.same_type.clone())
            .expect("valid mining configuration");
        let real_gain = plain.result.num_frequent_min2() - kcp.result.num_frequent_min2();

        // Shape of the largest frequent itemset: t_k = relations per
        // feature type appearing more than once, n = the rest.
        let largest = plain
            .result
            .with_min_size(2)
            .max_by_key(|f| f.items.len())
            .expect("frequent itemsets exist");
        let m = largest.items.len();
        let mut per_type: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
        let mut n = 0u64;
        for &i in &largest.items {
            match plain.transactions.catalog.feature_type(i) {
                Some(ft) => *per_type.entry(ft).or_insert(0) += 1,
                None => n += 1,
            }
        }
        let mut t: Vec<u64> = per_type.values().copied().filter(|&c| c >= 2).collect();
        n += per_type.values().filter(|&&c| c == 1).count() as u64;
        t.sort_unstable();
        let predicted = minimal_gain(&t, n);

        println!(
            "minsup {:>3.0}%: largest itemset m={m} (expected {expect_m}), shape t={t:?} n={n}",
            sup * 100.0
        );
        println!("             Formula 1 minimal gain = {predicted}, real gain = {real_gain}");
        println!(
            "             lower bound holds: {}",
            if (real_gain as u128) >= predicted { "yes" } else { "NO — BUG" }
        );
    }
    println!("\npaper's own checks: m=8,u=3,t=(2,2,2),n=2 → 148 (real 281); m=7,n=1 → 74 (= real)");
    println!(
        "our closed form:    {} and {}",
        minimal_gain(&[2, 2, 2], 2),
        minimal_gain(&[2, 2, 2], 1)
    );
}

/// One transactional workload raced by the `scaling` and `counting`
/// subcommands.
struct CountingWorkload {
    name: &'static str,
    seed: u64,
    minsup: f64,
    data: TransactionSet,
}

/// The two counting workloads shared by the `scaling` and `counting`
/// subcommands, one per side of the bitmap engine's pass-2 rule:
///
/// * `dense` — the canonical seed-42 workload: 60k synthetic rows over
///   17 items with controlled lattice depth, minsup 15%. Few items in
///   long rows, so pass 2 counts by pair joins. (Tiling an extracted city
///   table does not work here: its rows are near-duplicates, so at any
///   usable support whole rows become frequent itemsets and candidate
///   enumeration explodes combinatorially.)
/// * `sparse` — seeded baskets: 50k rows of 8 Zipf-weighted items out of
///   500, minsup 0.2%. Many items in short rows, so pass 2 scans the rows.
fn counting_workloads() -> Vec<CountingWorkload> {
    let dense = experiments::ExperimentSpec {
        relations_per_type: vec![3, 3, 2, 2, 2, 1],
        nonspatial_values: 4,
        dependencies: Vec::new(),
        rows: 60_000,
        seed: 42,
        type_presence: 0.33,
        rel_given_present: 0.90,
        rel_noise: 0.04,
        dependency_strength: 0.0,
        core_patterns: vec![(vec![0, 1, 2, 6, 13], 0.20), (vec![3, 4, 5, 10, 14], 0.13)],
    }
    .generate()
    .data;
    vec![
        CountingWorkload { name: "dense", seed: 42, minsup: 0.15, data: dense },
        CountingWorkload {
            name: "sparse",
            seed: 7,
            minsup: 0.002,
            data: sparse_baskets(50_000, 500, 8, 7).data,
        },
    ]
}

type StrategyRunner<'a> = Box<dyn Fn(Threads) -> geopattern_mining::MiningResult + 'a>;

/// Every support-counting backend as a labelled closure over the thread
/// policy, so `scaling` and `counting` race the same set.
fn strategy_runners<'a>(
    data: &'a TransactionSet,
    minsup: MinSupport,
) -> Vec<(&'static str, StrategyRunner<'a>)> {
    let apriori = move |strategy: CountingStrategy| {
        move |t: Threads| {
            mine(data, &AprioriConfig::apriori(minsup).with_counting(strategy).with_threads(t))
        }
    };
    vec![
        ("hash-subset", Box::new(apriori(CountingStrategy::HashSubset)) as StrategyRunner<'a>),
        ("bitmap", Box::new(apriori(CountingStrategy::VerticalBitmap))),
        ("auto", Box::new(apriori(CountingStrategy::Auto))),
    ]
}

/// The bitmap engine's pass-2 pick on `data`, read from one instrumented
/// run's `mining/pass2/<method>` counter (`"none"` when no pass 2 ran).
fn pass2_pick(data: &TransactionSet, minsup: MinSupport) -> String {
    let recorder = geopattern::Recorder::new();
    mine(
        data,
        &AprioriConfig::apriori(minsup)
            .with_counting(CountingStrategy::VerticalBitmap)
            .with_recorder(recorder.clone()),
    );
    let metrics = recorder.snapshot();
    let pick = metrics.counters_with_prefix("mining/pass2/").next();
    pick.map_or("none", |(name, _)| &name["mining/pass2/".len()..]).to_string()
}

/// Timings of one workload's race: `(label, median µs)` per strategy.
struct Race {
    times: Vec<(&'static str, u128)>,
    pass2: String,
}

impl Race {
    fn us(&self, label: &str) -> u128 {
        self.times.iter().find(|(k, _)| *k == label).map(|&(_, v)| v).expect("strategy was timed")
    }
}

/// `counting`: races every support-counting strategy serially on both
/// counting workloads (the ones `scaling` uses), after verifying that
/// each produces the frequent itemsets and supports of hash-subset.
/// Emits `BENCH_counting.json` with each workload's medians and pass-2
/// pick; with `check` the process exits non-zero unless (1) bitmap beats
/// hash-subset on both workloads, (2) the pick is joins on the dense
/// workload and the scan on the sparse one, and, on the dense workload,
/// (3) auto is at least 3x hash-subset and (4) auto lands within 1.15x
/// of the best *fixed* counting strategy.
fn print_counting(check: bool) {
    header("Counting strategies — dense and sparse workloads, hash-subset / bitmap / auto");
    let mut races: Vec<(&'static str, Race)> = Vec::new();
    let mut docs: Vec<String> = Vec::new();
    for w in counting_workloads() {
        let minsup = MinSupport::Fraction(w.minsup);
        println!(
            "\n{} workload: {} transactions ({} items), minsup {}%, seed {}",
            w.name,
            w.data.len(),
            w.data.catalog.len(),
            w.minsup * 100.0,
            w.seed
        );
        let mut reference: Option<Vec<(Vec<geopattern_mining::ItemId>, u64)>> = None;
        let mut rows = Vec::new();
        let mut times: Vec<(&'static str, u128)> = Vec::new();
        let mut hash_us = 0u128;
        println!("{:>12} {:>12} {:>16}", "strategy", "median µs", "vs hash-subset");
        for (label, runner) in strategy_runners(&w.data, minsup) {
            let mut result = None;
            // Median of seven: the dense workload mines in a few ms, where
            // one outlier among three runs decided the 1.15x gate.
            let us = time_us_n(7, || result = Some(runner(Threads::Serial)));
            let sets: Vec<_> = result
                .expect("timed at least once")
                .all()
                .map(|f| (f.items.clone(), f.support))
                .collect();
            match &reference {
                None => reference = Some(sets),
                Some(r) => assert_eq!(&sets, r, "{label} output differs from hash-subset"),
            }
            if label == "hash-subset" {
                hash_us = us;
            }
            times.push((label, us));
            let speedup = hash_us as f64 / us.max(1) as f64;
            println!("{label:>12} {us:>12} {speedup:>15.2}x");
            rows.push(format!(
                "{{\"strategy\":{},\"median_us\":{us},\"speedup_vs_hash\":{}}}",
                geopattern::obs::json::json_string(label),
                json_f64(speedup)
            ));
        }
        let frequent = reference.as_ref().map(Vec::len).unwrap_or(0);
        let pass2 = pass2_pick(&w.data, minsup);
        println!(
            "all strategies produced identical output ({frequent} frequent itemsets); \
             bitmap pass 2: {pass2}"
        );

        let mut doc = JsonBuf::new();
        doc.raw("{");
        doc.key("workload");
        doc.raw(&format!("{},", geopattern::obs::json::json_string(w.name)));
        doc.key("rows");
        doc.raw(&format!("{},", w.data.len()));
        doc.key("items");
        doc.raw(&format!("{},", w.data.catalog.len()));
        doc.key("seed");
        doc.raw(&format!("{},", w.seed));
        doc.key("minsup");
        doc.raw(&format!("{},", json_f64(w.minsup)));
        doc.key("frequent_itemsets");
        doc.raw(&format!("{frequent},"));
        doc.key("pass2");
        doc.raw(&format!("{},", geopattern::obs::json::json_string(&pass2)));
        doc.key("series");
        doc.raw(&format!("[{}]}}", rows.join(",")));
        docs.push(doc.into_string());
        races.push((w.name, Race { times, pass2 }));
    }

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"counting\",");
    doc.key("workloads");
    doc.raw(&format!("[{}]}}", docs.join(",")));
    write_bench("counting", &doc.into_string());

    if check {
        let mut failed = false;
        for (name, race) in &races {
            let (hash_us, bitmap_us) = (race.us("hash-subset"), race.us("bitmap"));
            if bitmap_us >= hash_us {
                eprintln!(
                    "FAIL: {name}: bitmap ({bitmap_us} µs) is not faster than hash-subset \
                     ({hash_us} µs)"
                );
                failed = true;
            }
            let want = if *name == "dense" { "joins" } else { "scan" };
            if race.pass2 != want {
                eprintln!("FAIL: {name}: bitmap pass 2 picked {}, expected {want}", race.pass2);
                failed = true;
            }
        }
        let dense = &races.iter().find(|(n, _)| *n == "dense").expect("dense workload").1;
        let (hash_us, auto_us) = (dense.us("hash-subset"), dense.us("auto"));
        // "Best fixed" for the auto gate: the fastest fixed counting
        // strategy; auto is the thing under test.
        let (best_label, best_us) = dense
            .times
            .iter()
            .filter(|(l, _)| *l != "auto")
            .min_by_key(|&&(_, us)| us)
            .copied()
            .expect("at least one fixed strategy");
        if auto_us.saturating_mul(3) > hash_us {
            eprintln!(
                "FAIL: dense: auto ({auto_us} µs) is under 3x hash-subset ({hash_us} µs, {:.2}x)",
                hash_us as f64 / auto_us.max(1) as f64
            );
            failed = true;
        }
        // auto ≤ 1.15 × best fixed, in integer µs to keep the gate exact.
        if auto_us.saturating_mul(100) > best_us.saturating_mul(115) {
            eprintln!(
                "FAIL: dense: auto ({auto_us} µs) is more than 1.15x the best fixed strategy \
                 ({best_label}, {best_us} µs)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: bitmap faster than hash-subset on both workloads; pass 2 by joins \
             (dense) and by the scan (sparse); dense auto {:.2}x over hash-subset and \
             ({auto_us} µs) within 1.15x of best fixed ({best_label}, {best_us} µs)",
            hash_us as f64 / auto_us.max(1) as f64
        );
    }
}

/// `scaling`: serial vs N-thread wall-clock for the two hot paths —
/// predicate extraction over reference features of a generated city, and
/// Apriori support counting over both counting workloads — verifying
/// that every parallel run produces byte-identical output.
///
/// On a single-core host the pool clamps every worker count to one, so a
/// "parallel" run executes the exact serial code path. Rather than emit a
/// flat "speedup curve" of four identical serial rows per stage, a fully
/// clamped host collapses each stage to one annotated serial row and the
/// JSON carries a top-level `"all_clamped": true` flag; on multi-core
/// hosts only the widths beyond the host count reuse the serial baseline
/// (marked `clamped_to_serial`).
fn print_scaling(grid: usize) {
    header("Thread scaling — extraction & counting on the in-tree pool");
    let ds = generate_city(&CityConfig { grid, ..Default::default() });
    let relevant_count: usize = ds.relevant.iter().map(|l| l.len()).sum();
    println!(
        "city: grid {grid} → {} reference features, {} relevant features in {} layers",
        ds.reference.len(),
        relevant_count,
        ds.relevant.len()
    );
    let host = geopattern_par::host_parallelism();
    let all_clamped = host == 1;
    let threads: &[usize] = if all_clamped { &[1] } else { &[1, 2, 4, 8] };
    if all_clamped {
        println!(
            "host parallelism: 1 — every parallel width would clamp to the serial code \
             path, so each stage is measured once (all_clamped)"
        );
    } else {
        println!("host parallelism: {host} (requests beyond it are clamped)");
    }

    // Extraction: topological + a bounded distance scheme, so both the
    // envelope prefilter and the buffered window query are exercised.
    let cell = CityConfig::default().cell;
    let config = ExtractionConfig::topological_only().with_distance(
        DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
            .expect("bounded scheme"),
    );
    let refs = ds.relevant_refs();
    let (serial_table, serial_stats) =
        extract_predicates(&ds.reference, &refs, &config.clone().with_threads(Threads::Serial))
            .expect("uncontrolled extraction");
    println!(
        "\nextraction workload: {} rows, {} predicates, {} exact pairs, {} pruned",
        serial_table.num_rows(),
        serial_table.predicates().len(),
        serial_stats.candidate_pairs,
        serial_stats.pruned_pairs
    );
    println!("{:>28} {:>12} {:>9}", "stage", "median µs", "speedup");
    let mut bench_stages: Vec<String> = Vec::new();
    let mut extract_us = Vec::new();
    for &n in threads {
        let clamped = n > 1 && host == 1;
        let us = if clamped {
            extract_us[0]
        } else {
            let t = if n == 1 { Threads::Serial } else { Threads::Fixed(n) };
            let cfg = config.clone().with_threads(t);
            let mut out = None;
            let us = time_us_n(3, || {
                out = Some(extract_predicates(&ds.reference, &refs, &cfg).expect("uncontrolled"))
            });
            let (table, stats) = out.expect("timed at least once");
            assert_eq!(
                table.predicates(),
                serial_table.predicates(),
                "{n}-thread predicates differ"
            );
            assert_eq!(table.rows(), serial_table.rows(), "{n}-thread rows differ");
            assert_eq!(stats, serial_stats, "{n}-thread stats differ");
            us
        };
        if extract_us.is_empty() {
            extract_us.push(us);
        }
        let speedup = if clamped { 1.0 } else { extract_us[0] as f64 / us as f64 };
        let note = if clamped {
            "  (= serial: host clamp)"
        } else if all_clamped {
            "  (serial only: single-core host)"
        } else {
            ""
        };
        println!("{:>28} {:>12} {:>8.2}x{note}", format!("extract ({n} thr)"), us, speedup);
        bench_stages.push(format!(
            "{{\"stage\":\"extract\",\"threads\":{n},\"median_us\":{us},\"speedup\":{},\
             \"clamped_to_serial\":{clamped}{}}}",
            json_f64(speedup),
            if all_clamped { ",\"serial_only\":true" } else { "" }
        ));
    }

    // Counting: both synthetic transactional workloads, one per side of
    // the bitmap engine's pass-2 rule.
    for w in counting_workloads() {
        println!(
            "\n{} counting workload: {} transactions ({} items), minsup {}%",
            w.name,
            w.data.len(),
            w.data.catalog.len(),
            w.minsup * 100.0
        );
        for (label, runner) in strategy_runners(&w.data, MinSupport::Fraction(w.minsup)) {
            let label = format!("{}/{label}", w.name);
            let mut serial_sets: Option<Vec<_>> = None;
            let mut base_us = 0u128;
            for &n in threads {
                let clamped = n > 1 && host == 1;
                let us = if clamped {
                    base_us
                } else {
                    let t = if n == 1 { Threads::Serial } else { Threads::Fixed(n) };
                    let mut result = None;
                    let us = time_us_n(3, || result = Some(runner(t)));
                    let sets: Vec<_> = result
                        .expect("timed at least once")
                        .all()
                        .map(|f| (f.items.clone(), f.support))
                        .collect();
                    match &serial_sets {
                        None => serial_sets = Some(sets),
                        Some(s) => assert_eq!(&sets, s, "{label} differs at {n} threads"),
                    }
                    us
                };
                if n == 1 {
                    base_us = us;
                }
                let speedup = if clamped { 1.0 } else { base_us as f64 / us as f64 };
                let note = if clamped {
                    "  (= serial: host clamp)"
                } else if all_clamped {
                    "  (serial only: single-core host)"
                } else {
                    ""
                };
                let stage = format!("{label} ({n} thr)");
                println!("{stage:>28} {us:>12} {speedup:>8.2}x{note}");
                bench_stages.push(format!(
                    "{{\"stage\":{},\"threads\":{n},\"median_us\":{us},\"speedup\":{},\
                     \"clamped_to_serial\":{clamped}{}}}",
                    geopattern::obs::json::json_string(&label),
                    json_f64(speedup),
                    if all_clamped { ",\"serial_only\":true" } else { "" }
                ));
            }
        }
    }
    println!("\nall measured parallel outputs verified identical to serial");

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"scaling\",");
    doc.key("grid");
    doc.raw(&grid.to_string());
    doc.raw(",");
    doc.key("reference_features");
    doc.raw(&ds.reference.len().to_string());
    doc.raw(",");
    doc.key("host_parallelism");
    doc.raw(&host.to_string());
    doc.raw(",");
    doc.key("all_clamped");
    doc.raw(if all_clamped { "true," } else { "false," });
    doc.key("measurements");
    doc.raw(&format!("[{}]}}", bench_stages.join(",")));
    write_bench("scaling", &doc.into_string());
}

/// `tiling`: the out-of-core pair — binary dataset loading and tiled
/// extraction — on a metropolis-scale generated city (420 × 420 districts
/// ≈ one million features by default; `--grid N` shrinks it for smoke
/// runs).
///
/// Measures (1) WKT parse vs `.gpb` binary load of the same dataset —
/// both as full materialisation (construction-bound: both formats build
/// the same million `Feature`s and R-trees) and as the out-of-core
/// one-tile windowed fetch the tiled extractor is designed around — and
/// (2) the one-tile default ("flat" in the artifact's field names) vs
/// tiled (`--tiles N` per axis) predicate extraction, with the tiled
/// table verified bit-identical to the default one. With `--check`
/// it exits non-zero unless the city reached one million features, the
/// binary one-tile fetch beats the full WKT parse (the minimum a text
/// dataset needs before any tile can start) by ≥ 5x, and tiled
/// extraction is within 10% of the default's throughput.
fn print_tiling(grid: usize, tiles: usize, check: bool) {
    use geopattern_sdb::{from_gpb, to_gpb, SpatialDataset, Tiling};

    header("Tiling — binary dataset loading & tiled extraction at metropolis scale");
    let config = geopattern_datagen::CityConfig {
        grid,
        ..geopattern_datagen::CityConfig::metropolis()
    };
    let ds = generate_city(&config);
    let features = ds.reference.len() + ds.relevant.iter().map(|l| l.len()).sum::<usize>();
    println!(
        "city: grid {grid} → {} reference + {} relevant = {features} features",
        ds.reference.len(),
        features - ds.reference.len(),
    );

    // Dataset loading: WKT text parse vs binary decode of the same data.
    // Full materialisation of both formats builds the same one million
    // `Feature`s and R-trees, so that comparison is construction-bound;
    // it is reported for context. The *out-of-core* access cost — what
    // the binary format exists for — is gated below: a text dataset must
    // be parsed whole before any tile can start, while the binary reader
    // opens the directory and streams one tile's working set through
    // `read_layer_window` without materialising anything else.
    let text = ds.to_text();
    let bytes = to_gpb(&ds);
    let mut parsed = None;
    let wkt_parse_us =
        time_us_n(3, || parsed = Some(SpatialDataset::from_text(&text).expect("own output")));
    let mut loaded = None;
    let gpb_load_us = time_us_n(3, || loaded = Some(from_gpb(&bytes).expect("own output")));
    assert_eq!(
        loaded.expect("timed at least once").to_text(),
        parsed.expect("timed at least once").to_text(),
        "binary and text loads disagree"
    );
    let gpb_speedup = wkt_parse_us as f64 / gpb_load_us.max(1) as f64;
    println!(
        "\nload (full materialisation): {} WKT bytes parse {wkt_parse_us} µs | {} gpb bytes \
         load {gpb_load_us} µs | {gpb_speedup:.2}x",
        text.len(),
        bytes.len(),
    );

    // Out-of-core tile fetch: open the reader and stream the working set
    // of one central tile of the extraction grid — reference rows plus
    // every relevant layer windowed by the tile buffered with the largest
    // bounded distance band (the tiled extractor's reach rule).
    let cell = config.cell;
    let buffer = 1.5 * cell;
    let env = ds.reference.envelope();
    let (w, h) =
        ((env.max.x - env.min.x) / tiles as f64, (env.max.y - env.min.y) / tiles as f64);
    let mid = tiles as f64 / 2.0;
    let tile_rect = geopattern_geom::Rect {
        min: geopattern_geom::coord(env.min.x + (mid - 0.5) * w, env.min.y + (mid - 0.5) * h),
        max: geopattern_geom::coord(env.min.x + (mid + 0.5) * w, env.min.y + (mid + 0.5) * h),
    };
    let reach = tile_rect.buffered(buffer);
    let mut tile_features = 0usize;
    let gpb_tile_us = time_us_n(3, || {
        let reader = geopattern_sdb::GpbReader::open(&bytes).expect("own output");
        tile_features = (0..reader.num_layers())
            .map(|i| {
                let window = if reader.is_reference(i) { &tile_rect } else { &reach };
                reader.read_layer_window(i, window).expect("own output").len()
            })
            .sum();
    });
    assert!(tile_features > 0, "central tile fetched no features");
    let gpb_tile_speedup = wkt_parse_us as f64 / gpb_tile_us.max(1) as f64;
    println!(
        "load (one-tile working set, {tile_features} features): gpb open+window {gpb_tile_us} µs \
         vs full WKT parse | {gpb_tile_speedup:.2}x",
    );

    // Extraction: the one-tile default ("flat") vs tiled, same predicate
    // selection as `scaling`.
    let extraction = ExtractionConfig::topological_only()
        .with_distance(
            DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
                .expect("bounded scheme"),
        )
        .with_threads(Threads::Auto);
    let refs = ds.relevant_refs();
    let mut flat = None;
    let flat_us = time_us_n(3, || {
        flat = Some(extract_predicates(&ds.reference, &refs, &extraction).expect("uncontrolled"))
    });
    let tiled_config = extraction.clone().with_tiling(Tiling::Grid { tiles_per_axis: tiles });
    let mut tiled = None;
    let tiled_us = time_us_n(3, || {
        tiled =
            Some(extract_predicates(&ds.reference, &refs, &tiled_config).expect("uncontrolled"))
    });
    let (flat_table, flat_stats) = flat.expect("timed at least once");
    let (tiled_table, tiled_stats) = tiled.expect("timed at least once");
    assert_eq!(tiled_table.predicates(), flat_table.predicates(), "tiled predicates differ");
    assert_eq!(tiled_table.rows(), flat_table.rows(), "tiled rows differ");
    assert_eq!(tiled_stats, flat_stats, "tiled stats differ");
    let tiled_over_flat = tiled_us as f64 / flat_us.max(1) as f64;
    println!(
        "extract: one tile {flat_us} µs | {tiles}x{tiles} tiles {tiled_us} µs | ratio {:.2} \
         ({} rows, {} predicates, outputs bit-identical)",
        tiled_over_flat,
        flat_table.num_rows(),
        flat_table.predicates().len(),
    );

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"tiling\",");
    doc.key("grid");
    doc.raw(&grid.to_string());
    doc.raw(",");
    doc.key("features");
    doc.raw(&features.to_string());
    doc.raw(",");
    doc.key("wkt_bytes");
    doc.raw(&text.len().to_string());
    doc.raw(",");
    doc.key("gpb_bytes");
    doc.raw(&bytes.len().to_string());
    doc.raw(",");
    doc.key("wkt_parse_us");
    doc.raw(&wkt_parse_us.to_string());
    doc.raw(",");
    doc.key("gpb_load_us");
    doc.raw(&gpb_load_us.to_string());
    doc.raw(",");
    doc.key("gpb_speedup");
    doc.raw(&json_f64(gpb_speedup));
    doc.raw(",");
    doc.key("gpb_tile_us");
    doc.raw(&gpb_tile_us.to_string());
    doc.raw(",");
    doc.key("gpb_tile_features");
    doc.raw(&tile_features.to_string());
    doc.raw(",");
    doc.key("gpb_tile_speedup");
    doc.raw(&json_f64(gpb_tile_speedup));
    doc.raw(",");
    doc.key("tiles_per_axis");
    doc.raw(&tiles.to_string());
    doc.raw(",");
    doc.key("flat_extract_us");
    doc.raw(&flat_us.to_string());
    doc.raw(",");
    doc.key("tiled_extract_us");
    doc.raw(&tiled_us.to_string());
    doc.raw(",");
    doc.key("tiled_over_flat");
    doc.raw(&json_f64(tiled_over_flat));
    doc.raw("}");
    write_bench("tiling", &doc.into_string());

    if check {
        let mut failed = false;
        if features < 1_000_000 {
            eprintln!("\nCHECK FAILED: {features} features (need ≥ 1,000,000 — run without --grid)");
            failed = true;
        }
        if gpb_tile_speedup < 5.0 {
            eprintln!(
                "\nCHECK FAILED: binary tile fetch only {gpb_tile_speedup:.2}x over the full \
                 WKT parse a text dataset needs before any tile can start (need ≥ 5x)"
            );
            failed = true;
        }
        if tiled_over_flat > 1.10 {
            eprintln!(
                "\nCHECK FAILED: tiled extraction {tiled_over_flat:.2}x of the one-tile \
                 default (must not regress > 10%)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\ncheck passed: {features} features, binary tile fetch {gpb_tile_speedup:.2}x ≥ 5x \
             over the WKT parse, tiled/default {tiled_over_flat:.2} ≤ 1.10"
        );
    }
}

/// One vertex-size row of the point-location comparison: the exact
/// index alone vs quant → exact.
struct LocateRow {
    vertices: usize,
    probes: usize,
    exact_us: u128,
    quant_us: u128,
    speedup: f64,
    quant_resolved: u64,
    quant_fallbacks: u64,
}

/// `kernel`: segment-indexed prepared geometries vs the brute-force
/// kernel, on seeded datagen layers of growing vertex count. Three hot
/// paths are measured on identical workloads, with outputs verified
/// bit-identical first:
///
/// * **relate** — full DE-9IM matrices over every envelope-intersecting
///   cross pair (the extraction workload for topological predicates);
/// * **bounded distance** — `PreparedGeometry::distance_within` against
///   `geometry_distance` + threshold over a fixed pair sample (the
///   extraction workload for a bounded distance scheme), where the
///   branch-and-bound index can discard most pairs from envelopes alone;
/// * **point location** — quant → exact (`PreparedRing::locate`, the
///   prepared path) against the exact `RingIndex::locate` alone, on
///   dense probe grids over each polygon's envelope (the containment
///   sweeps inside every areal relate and distance call).
///
/// A lattice workload measures how often the quantized grid falls back
/// to the exact index, and a final stage re-runs a small extraction at
/// 1, 2 and 8 threads and asserts the predicate tables, rows and stats
/// identical. With `check`, the run exits non-zero unless quant → exact
/// beats the exact index alone by ≥ 2x on the largest layer and lattice
/// fallbacks stay under 5% of probes.
fn print_kernel(max_vertices: usize, check: bool) {
    use geopattern_geom::{
        geometry_distance, relate, take_kernel_counters, Geometry, PreparedGeometry, PreparedRing,
    };

    header("Geometry kernel — segment-indexed vs brute-force");
    let sizes: Vec<usize> =
        [16usize, 64, 256, 1024].into_iter().filter(|&v| v <= max_vertices.max(16)).collect();
    const COUNT: usize = 24; // polygons per layer
    const EXTENT: f64 = 40.0;
    const BOUND: f64 = 6.0; // qualitative-distance cutoff (largest bounded band)
    const DIST_PAIRS: usize = 128; // fixed sample so sizes are comparable
    println!(
        "two layers of {COUNT} star polygons over a {EXTENT}×{EXTENT} extent; distance bound {BOUND}"
    );
    println!(
        "\n{:>9} {:>7} {:>12} {:>12} {:>8} | {:>7} {:>12} {:>12} {:>8} {:>9}",
        "vertices",
        "pairs",
        "brute µs",
        "indexed µs",
        "speedup",
        "pairs",
        "brute µs",
        "indexed µs",
        "speedup",
        "early-out"
    );

    let mut rows = Vec::new();
    let mut locate_rows: Vec<LocateRow> = Vec::new();
    for &vertices in &sizes {
        let mut rng = geopattern_testkit::Rng::seed_from_u64(42 + vertices as u64);
        let la = geopattern_datagen::random_layer(&mut rng, "a", COUNT, vertices, EXTENT);
        let lb = geopattern_datagen::random_layer(&mut rng, "b", COUNT, vertices, EXTENT);
        let ga: Vec<&Geometry> = la.features().iter().map(|f| &f.geometry).collect();
        let gb: Vec<&Geometry> = lb.features().iter().map(|f| &f.geometry).collect();
        let pa: Vec<PreparedGeometry> =
            ga.iter().map(|g| PreparedGeometry::new((*g).clone())).collect();
        let pb: Vec<PreparedGeometry> =
            gb.iter().map(|g| PreparedGeometry::new((*g).clone())).collect();

        // Relate workload: every envelope-intersecting cross pair, so both
        // kernels do real matrix work (disjoint-envelope pairs are a
        // constant-time fast path in each).
        let relate_pairs: Vec<(usize, usize)> = (0..COUNT)
            .flat_map(|i| (0..COUNT).map(move |j| (i, j)))
            .filter(|&(i, j)| ga[i].envelope().intersects(&gb[j].envelope()))
            .collect();
        // Distance workload: a fixed-size deterministic sample of all cross
        // pairs; most are far apart, which is exactly where bounded search
        // should pay.
        let stride = (COUNT * COUNT / DIST_PAIRS).max(1);
        let dist_pairs: Vec<(usize, usize)> =
            (0..COUNT * COUNT).step_by(stride).map(|k| (k / COUNT, k % COUNT)).collect();

        // Correctness first: both paths must agree exactly on this workload.
        for &(i, j) in &relate_pairs {
            assert_eq!(pa[i].relate_to(&pb[j]), relate(ga[i], gb[j]), "relate diverged");
        }
        for &(i, j) in &dist_pairs {
            let d = geometry_distance(ga[i], gb[j]);
            let within = pa[i].distance_within(&pb[j], BOUND);
            assert_eq!(within.map(f64::to_bits), (d <= BOUND).then(|| d.to_bits()));
        }

        let reps = if vertices >= 512 { 1 } else { 3 };
        let relate_brute_us = time_us_n(reps, || {
            for &(i, j) in &relate_pairs {
                std::hint::black_box(relate(ga[i], gb[j]));
            }
        });
        let relate_indexed_us = time_us_n(reps, || {
            for &(i, j) in &relate_pairs {
                std::hint::black_box(pa[i].relate_to(&pb[j]));
            }
        });
        let dist_brute_us = time_us_n(reps, || {
            for &(i, j) in &dist_pairs {
                std::hint::black_box(geometry_distance(ga[i], gb[j]) <= BOUND);
            }
        });
        let _ = take_kernel_counters();
        let dist_indexed_us = time_us_n(reps, || {
            for &(i, j) in &dist_pairs {
                std::hint::black_box(pa[i].distance_within(&pb[j], BOUND));
            }
        });
        let counters = take_kernel_counters();

        // Point-location workload: quant → exact vs the exact index
        // alone, on a dense probe grid over each polygon's envelope
        // (every probe does real parity work). Identity first, then
        // throughput.
        const PROBE_GRID: usize = 16;
        let rings: Vec<PreparedRing> = ga
            .iter()
            .filter_map(|g| match g {
                Geometry::Polygon(p) => Some(PreparedRing::build(p.exterior())),
                _ => None,
            })
            .collect();
        let probes: Vec<(usize, geopattern_geom::Coord)> = rings
            .iter()
            .enumerate()
            .flat_map(|(i, ring)| {
                let env = ring.index().envelope();
                let (w, h) = (env.max.x - env.min.x, env.max.y - env.min.y);
                (0..PROBE_GRID * PROBE_GRID).map(move |k| {
                    let (gx, gy) = (k % PROBE_GRID, k / PROBE_GRID);
                    let fx = (gx as f64 + 0.5) / PROBE_GRID as f64;
                    let fy = (gy as f64 + 0.5) / PROBE_GRID as f64;
                    (i, geopattern_geom::coord(env.min.x + fx * w, env.min.y + fy * h))
                })
            })
            .collect();
        for &(i, p) in &probes {
            assert_eq!(rings[i].locate(p), rings[i].index().locate(p), "locate diverged at {p:?}");
        }
        let locate_exact_us = time_us_n(reps, || {
            for &(i, p) in &probes {
                std::hint::black_box(rings[i].index().locate(p));
            }
        });
        let _ = take_kernel_counters();
        let locate_quant_us = time_us_n(reps, || {
            for &(i, p) in &probes {
                std::hint::black_box(rings[i].locate(p));
            }
        });
        let quant_counters = take_kernel_counters();
        let locate_speedup = locate_exact_us as f64 / locate_quant_us.max(1) as f64;
        locate_rows.push(LocateRow {
            vertices,
            probes: probes.len(),
            exact_us: locate_exact_us,
            quant_us: locate_quant_us,
            speedup: locate_speedup,
            quant_resolved: quant_counters.quant_cells_resolved,
            quant_fallbacks: quant_counters.quant_fallback_exact,
        });

        let relate_speedup = relate_brute_us as f64 / relate_indexed_us.max(1) as f64;
        let dist_speedup = dist_brute_us as f64 / dist_indexed_us.max(1) as f64;
        println!(
            "{vertices:>9} {:>7} {relate_brute_us:>12} {relate_indexed_us:>12} {relate_speedup:>7.2}x \
             | {:>7} {dist_brute_us:>12} {dist_indexed_us:>12} {dist_speedup:>7.2}x {:>9}",
            relate_pairs.len(),
            dist_pairs.len(),
            counters.distance_early_exit,
        );
        rows.push(format!(
            "{{\"vertices\":{vertices},\"relate_pairs\":{},\"relate_brute_us\":{relate_brute_us},\
             \"relate_indexed_us\":{relate_indexed_us},\"relate_speedup\":{},\
             \"distance_pairs\":{},\"distance_brute_us\":{dist_brute_us},\
             \"distance_indexed_us\":{dist_indexed_us},\"distance_speedup\":{},\
             \"distance_early_exit\":{},\"segtree_nodes_visited\":{},\"pairs_exact\":{},\
             \"locate_probes\":{},\
             \"locate_exact_us\":{locate_exact_us},\"locate_quant_us\":{locate_quant_us},\
             \"locate_speedup\":{},\"quant_lanes_tested\":{},\"quant_cells_resolved\":{},\
             \"quant_fallback_exact\":{}}}",
            relate_pairs.len(),
            json_f64(relate_speedup),
            dist_pairs.len(),
            json_f64(dist_speedup),
            counters.distance_early_exit,
            counters.segtree_nodes_visited,
            counters.pairs_exact,
            probes.len(),
            json_f64(locate_speedup),
            quant_counters.quant_lanes_tested,
            quant_counters.quant_cells_resolved,
            quant_counters.quant_fallback_exact,
        ));
    }
    println!("\nall indexed outputs verified bit-identical to brute-force");

    println!(
        "\npoint location — quant → exact vs the exact index alone (identity verified per probe)"
    );
    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "vertices", "probes", "exact µs", "quant µs", "speedup", "resolved", "fallbacks"
    );
    for row in &locate_rows {
        println!(
            "{:>9} {:>8} {:>12} {:>12} {:>7.2}x {:>10} {:>10}",
            row.vertices,
            row.probes,
            row.exact_us,
            row.quant_us,
            row.speedup,
            row.quant_resolved,
            row.quant_fallbacks,
        );
    }

    // Lattice fallback workload: integer-vertex polygons probed at cell
    // centres. Cell centres land far from every snapped edge (certain),
    // so this measures how rarely the grid has to fall back when the
    // data is grid-friendly.
    let mut rng = geopattern_testkit::Rng::seed_from_u64(7);
    let lattice: Vec<PreparedRing> = (0..12)
        .map(|_| PreparedRing::build(geopattern_datagen::lattice_polygon(&mut rng, 12).exterior()))
        .collect();
    let _ = take_kernel_counters();
    let mut lattice_probes = 0usize;
    for ring in &lattice {
        let env = ring.index().envelope();
        let (w, h) = (env.max.x - env.min.x, env.max.y - env.min.y);
        const G: usize = 16;
        for k in 0..G * G {
            let (gx, gy) = (k % G, k / G);
            let p = geopattern_geom::coord(
                env.min.x + (gx as f64 + 0.5) / G as f64 * w,
                env.min.y + (gy as f64 + 0.5) / G as f64 * h,
            );
            assert_eq!(ring.locate(p), ring.index().locate(p), "lattice locate diverged at {p:?}");
            lattice_probes += 1;
        }
    }
    let lattice_counters = take_kernel_counters();
    let lattice_fallback_frac =
        lattice_counters.quant_fallback_exact as f64 / lattice_probes.max(1) as f64;
    println!(
        "\nlattice workload: {lattice_probes} probes, {} resolved on the grid, \
         {} exact fallbacks ({:.2}% of probes)",
        lattice_counters.quant_cells_resolved,
        lattice_counters.quant_fallback_exact,
        100.0 * lattice_fallback_frac,
    );

    // End-to-end bit-identity: a real extraction (topological + bounded
    // distance) must emit the same predicate table, rows and stats at
    // every thread count.
    let ds = generate_city(&CityConfig { grid: 8, ..Default::default() });
    let cell = CityConfig::default().cell;
    let config = ExtractionConfig::topological_only().with_distance(
        DistanceScheme::new(vec![("veryCloseTo", 0.6 * cell), ("closeTo", 1.5 * cell)])
            .expect("bounded scheme"),
    );
    let refs = ds.relevant_refs();
    let mut baseline = None;
    for n in [1usize, 2, 8] {
        let t = if n == 1 { Threads::Serial } else { Threads::Fixed(n) };
        let (table, stats) = extract_predicates(&ds.reference, &refs, &config.clone().with_threads(t))
            .expect("uncontrolled extraction");
        match &baseline {
            None => baseline = Some((table, stats)),
            Some((bt, bs)) => {
                assert_eq!(table.predicates(), bt.predicates(), "{n} threads: predicates differ");
                assert_eq!(table.rows(), bt.rows(), "{n} threads: rows differ");
                assert_eq!(&stats, bs, "{n} threads: stats differ");
            }
        }
    }
    let (bt, _) = baseline.expect("three extraction runs");
    println!(
        "\nextraction bit-identity: {} rows × {} predicates identical at 1/2/8 threads",
        bt.num_rows(),
        bt.predicates().len()
    );

    let mut doc = JsonBuf::new();
    doc.raw("{");
    doc.key("experiment");
    doc.raw("\"kernel\",");
    doc.key("polygons_per_layer");
    doc.raw(&COUNT.to_string());
    doc.raw(",");
    doc.key("distance_bound");
    doc.raw(&json_f64(BOUND));
    doc.raw(",");
    doc.key("lattice_probes");
    doc.raw(&lattice_probes.to_string());
    doc.raw(",");
    doc.key("lattice_quant_fallback");
    doc.raw(&lattice_counters.quant_fallback_exact.to_string());
    doc.raw(",");
    doc.key("series");
    doc.raw(&format!("[{}]}}", rows.join(",")));
    write_bench("kernel", &doc.into_string());

    if check {
        let row = locate_rows.last().expect("at least one layer measured");
        let (vertices, speedup) = (row.vertices, row.speedup);
        if speedup < 2.0 {
            eprintln!(
                "\nCHECK FAILED: quant → exact point location {speedup:.2}x on the \
                 {vertices}-vertex layer (need ≥ 2x over the exact index alone)"
            );
            std::process::exit(1);
        }
        if lattice_fallback_frac >= 0.05 {
            eprintln!(
                "\nCHECK FAILED: quant_fallback_exact is {:.2}% of lattice probes \
                 (need < 5%)",
                100.0 * lattice_fallback_frac
            );
            std::process::exit(1);
        }
        println!(
            "\ncheck passed: quant → exact locate {speedup:.2}x ≥ 2x over the exact index on \
             the {vertices}-vertex layer; lattice fallbacks {:.2}% < 5%; extraction \
             bit-identical at 1/2/8 threads",
            100.0 * lattice_fallback_frac
        );
    }
}

fn print_city_pipeline() {
    header("Full geometric pipeline on the synthetic city (not a paper figure)");
    let ds = generate_city(&CityConfig::default());
    let report = MiningPipeline::new()
        .algorithm(Algorithm::AprioriKcPlus)
        .min_support(MinSupport::Fraction(0.3))
        .knowledge(geopattern_datagen::default_knowledge())
        .run(&ds)
        .expect("valid mining configuration");
    println!("{}", report.summary());
    for rule in report.rendered_rules().iter().take(12) {
        println!("  {rule}");
    }
}
