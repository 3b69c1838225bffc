//! Mining golden: every Apriori counting backend and FP-Growth-KC+,
//! fresh and resumed from a journal, rendered into one file committed
//! under `tests/golden/` and compared byte for byte.
//!
//! The identity suites compare backends, thread counts and resume points
//! with each other, so a change that moved them all together would still
//! pass there. This file pins what each backend observably does on its
//! own. It is never regenerated to make a test pass.
//!
//! The runs, each plain Apriori and Apriori-KC+:
//!
//! * `hash-subset`, on both workloads below;
//! * `bitmap` with pass 2 by pair joins: Experiment 1 (seed 32) at
//!   minsup 0.10;
//! * `bitmap` with pass 2 by the row scan: sparse baskets
//!   (`sparse_baskets(2_000, 200, 6, 5)`) at minsup 0.01;
//! * `auto` on Experiment 1.
//!
//! Each runs three times: without a journal, with a fresh journal, and
//! resumed from that journal cut after L₂. FP-Growth-KC+ runs on both
//! workloads without a journal, with a fresh journal, and resumed from
//! its first two journaled branches.
//!
//! Every run is serial and carries an idle enabled [`CancelToken`] (so
//! `robust/cancel_checks` pins the checkpoint sequence), a limited
//! [`MemoryBudget`] (so `robust/budget_bytes_peak` pins the
//! reservations), and a recorder. The mining fail-point sites are armed
//! with probability 0, so they count hits and never fire. A run renders
//! a digest of its itemsets, its `MiningStats` without the duration,
//! every span path with its activation count (no times), every counter
//! and histogram, each site's hits, and the shard, length and FNV-1a
//! digest of every journal record it leaves behind.

use geopattern::{Metrics, Recorder};
use geopattern_datagen::experiments::{experiment1, sparse_baskets, Experiment};
use geopattern_mining::{
    try_mine, try_mine_fp, AprioriConfig, CountingStrategy, FpGrowthConfig, MinSupport,
    MiningResult,
};
use geopattern_par::{fnv1a64, CancelToken, Journal, MemoryBudget};
use geopattern_testkit::failpoint::{self, FailAction};
use std::fmt::Write;
use std::path::{Path, PathBuf};

const APRIORI_LEVEL: &str = "apriori/level";
const FP_BRANCH: &str = "fpgrowth/branch";
const SITES: [&str; 3] = ["mining/apriori.pass", "mining/apriori.count", "mining/fpgrowth.grow"];
const BUDGET_BYTES: usize = 1 << 30;

/// A scratch directory for the run's journals, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("gp-mining-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// A new, empty journal named `name`.
    fn journal(&self, name: &str) -> Journal {
        Journal::create(self.0.join(name), 1).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first `keep` records of `kind` in `full`, copied into a new
/// journal at `path`: a run that crashed after `keep` completed units.
fn cut(full: &Journal, path: &Path, kind: &str, keep: usize) -> Journal {
    let j = Journal::create(path, 1).unwrap();
    for (shard, payload) in full.records(kind).into_iter().take(keep) {
        j.append(kind, shard, &payload).unwrap();
    }
    j
}

/// The controls every run carries: a recorder, an idle enabled token and
/// a limited budget. Re-arms the fail-point sites, which resets their
/// hit counts.
fn controls() -> (Recorder, CancelToken, MemoryBudget) {
    failpoint::deactivate_all();
    for site in SITES {
        failpoint::activate(site, FailAction::Cancel, 0.0, 1);
    }
    (Recorder::new(), CancelToken::new(), MemoryBudget::bytes(BUDGET_BYTES))
}

fn render_result(out: &mut String, r: &MiningResult) {
    let mut bytes = Vec::new();
    for level in &r.levels {
        bytes.extend((level.len() as u64).to_le_bytes());
        for f in level {
            bytes.extend(f.support.to_le_bytes());
            bytes.extend((f.items.len() as u32).to_le_bytes());
            for &i in &f.items {
                bytes.extend(i.to_le_bytes());
            }
        }
    }
    let per_level: Vec<usize> = r.levels.iter().map(Vec::len).collect();
    writeln!(out, "itemsets {per_level:?} digest {:016x}", fnv1a64(&bytes)).unwrap();
    let s = &r.stats;
    writeln!(
        out,
        "stats candidates {:?} frequent {:?} removed_dependencies {} removed_same_type {}",
        s.candidates_per_level,
        s.frequent_per_level,
        s.pairs_removed_dependencies,
        s.pairs_removed_same_type
    )
    .unwrap();
}

fn render_metrics(out: &mut String, m: &Metrics) {
    for (path, span) in m.spans() {
        writeln!(out, "span {path} x{}", span.count).unwrap();
    }
    for c in m.counters() {
        writeln!(out, "counter {c:?}").unwrap();
    }
    for h in m.histograms() {
        writeln!(out, "histogram {h:?}").unwrap();
    }
    for site in SITES {
        let (hits, fired) = failpoint::stats(site).expect("armed");
        assert_eq!(fired, 0, "{site} must never fire");
        writeln!(out, "site {site} hits {hits}").unwrap();
    }
}

fn render_journal(out: &mut String, journal: Option<&Journal>, kind: &str) {
    for (shard, payload) in journal.map(|j| j.records(kind)).unwrap_or_default() {
        writeln!(
            out,
            "record {kind} {shard} len {} digest {:016x}",
            payload.len(),
            fnv1a64(&payload)
        )
        .unwrap();
    }
}

/// Runs `config` with fresh controls and `journal`, and renders the run.
fn apriori_run(
    out: &mut String,
    name: &str,
    data: &Experiment,
    config: &AprioriConfig,
    journal: Option<Journal>,
) {
    let (rec, cancel, budget) = controls();
    let mut config =
        config.clone().with_recorder(rec.clone()).with_cancel(cancel).with_budget(budget);
    config.journal = journal.clone();
    let r = try_mine(&data.data, &config).expect("apriori run");
    writeln!(out, "== {name}").unwrap();
    render_result(out, &r);
    render_metrics(out, &rec.snapshot());
    render_journal(out, journal.as_ref(), APRIORI_LEVEL);
}

fn fp_run(
    out: &mut String,
    name: &str,
    data: &Experiment,
    config: &FpGrowthConfig,
    journal: Option<Journal>,
) {
    let (rec, cancel, budget) = controls();
    let mut config =
        config.clone().with_recorder(rec.clone()).with_cancel(cancel).with_budget(budget);
    config.journal = journal.clone();
    let r = try_mine_fp(&data.data, &config).expect("fp-growth run");
    writeln!(out, "== {name}").unwrap();
    render_result(out, &r);
    render_metrics(out, &rec.snapshot());
    render_journal(out, journal.as_ref(), FP_BRANCH);
}

fn render_all() -> String {
    let dir = Scratch::new();
    let dense = experiment1(32);
    let sparse = sparse_baskets(2_000, 200, 6, 5);
    let workloads: [(&str, &Experiment, f64, &[CountingStrategy]); 2] = [
        (
            "experiment1",
            &dense,
            0.10,
            &[
                CountingStrategy::HashSubset,
                CountingStrategy::VerticalBitmap,
                CountingStrategy::Auto,
            ],
        ),
        (
            "sparse",
            &sparse,
            0.01,
            &[CountingStrategy::HashSubset, CountingStrategy::VerticalBitmap],
        ),
    ];
    let mut out = String::new();
    for (workload, e, sup, strategies) in workloads {
        let minsup = MinSupport::Fraction(sup);
        for &counting in strategies {
            for kc_plus in [false, true] {
                let config = if kc_plus {
                    AprioriConfig::apriori_kc_plus(
                        minsup,
                        e.dependencies.clone(),
                        e.same_type.clone(),
                    )
                } else {
                    AprioriConfig::apriori(minsup)
                }
                .with_counting(counting);
                let name = format!(
                    "{workload} {} {}",
                    counting.name(),
                    if kc_plus { "kc+" } else { "plain" }
                );
                apriori_run(&mut out, &format!("{name} fresh"), e, &config, None);
                let tag = name.replace([' ', '+'], "_");
                let full = dir.journal(&format!("{tag}.journal"));
                apriori_run(&mut out, &format!("{name} journaled"), e, &config, Some(full.clone()));
                let partial =
                    cut(&full, &dir.0.join(format!("{tag}.l2.journal")), APRIORI_LEVEL, 2);
                apriori_run(
                    &mut out,
                    &format!("{name} resumed after L2"),
                    e,
                    &config,
                    Some(partial),
                );
            }
        }
        let config =
            FpGrowthConfig::new(minsup).with_filter(e.dependencies.clone().union(&e.same_type));
        let name = format!("{workload} fpgrowth kc+");
        fp_run(&mut out, &format!("{name} fresh"), e, &config, None);
        let full = dir.journal(&format!("{workload}_fp.journal"));
        fp_run(&mut out, &format!("{name} journaled"), e, &config, Some(full.clone()));
        let partial = cut(&full, &dir.0.join(format!("{workload}_fp.b2.journal")), FP_BRANCH, 2);
        fp_run(&mut out, &format!("{name} resumed after 2 branches"), e, &config, Some(partial));
    }
    failpoint::deactivate_all();
    out
}

#[test]
fn every_backend_matches_its_golden() {
    let golden = include_str!("../golden/mining_backends.txt");
    let got = render_all();
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "line {}: first difference from the golden", i + 1);
    }
    assert_eq!(got, golden, "output differs from the golden");
}
