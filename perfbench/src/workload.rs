//! The three workloads: their seeded inputs, the pipeline each one runs,
//! one timed job, and the output digest the oracle checks.
//!
//! * `city` — `CityConfig::metropolis()` at grid 200 (≈235k features), mined like
//!   `geopattern mine --minsup 0.1 --minconf 0.7 --dep street
//!   illuminationPoint`. Dominated by `sdb` (load, R-tree, rows, merge)
//!   relating 4–5-vertex shapes, with a wide and shallow mining step.
//! * `stars` — 256-vertex and 64-vertex star polygons with topological
//!   plus bounded two-band distance predicates. Nearly all of the job is
//!   `geom` (segment trees, point location, relate, `distance_within`), so
//!   a kernel change shows here and should not show on `city`.
//! * `txn` — the paper's Experiment-1 schema at 400,000 rows, mined
//!   through `run_filtered`: no geometry at all, and counting plus rules
//!   on a deep lattice. The same `mining` layer runs shallow on `city`.

use geopattern::{
    Algorithm, DistanceScheme, Error, ExtractionConfig, KnowledgeBase, MinSupport, MiningPipeline,
    PatternReport, SpatialDataset, Threads,
};
use geopattern_datagen::{generate_city, random_layer, CityConfig, Experiment, ExperimentSpec};
use geopattern_mining::{AssociationRule, ItemCatalog, ItemId, MiningResult};
use geopattern_sdb::{from_gpb, Layer};
use geopattern_testkit::Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The district city through the CLI-shaped pipeline.
    City,
    /// Many-vertex star polygons with a bounded distance scheme.
    Stars,
    /// Experiment-1 transactions mined without geometry.
    Txn,
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` keeps the
/// same shape at a size the benchmark's own tests can run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The stated benchmark scale.
    Full,
    /// A small instance of the same workload, for tests.
    Tiny,
}

impl Size {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Result<Size, String> {
        match s {
            "full" => Ok(Size::Full),
            "tiny" => Ok(Size::Tiny),
            other => Err(format!("unknown --size {other:?} (full, tiny)")),
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// `(count, vertices)` of the reference layer and the two relevant
/// layers of the `stars` workload, all made by datagen's `random_layer`.
const STARS_FULL: [(usize, usize); 3] = [(500, 256), (500, 256), (250, 64)];
const STARS_TINY: [(usize, usize); 3] = [(60, 32), (60, 32), (30, 16)];
const STARS_EXTENT: f64 = 1000.0;
const STARS_TYPES: [&str; 3] = ["parcel", "lake", "forest"];

/// Rows of the `txn` workload.
const TXN_ROWS_FULL: usize = 400_000;
const TXN_ROWS_TINY: usize = 5_000;

/// District grid of the `city` workload.
const CITY_GRID_FULL: usize = 200;
const CITY_GRID_TINY: usize = 16;

/// The generated input of one workload.
pub enum Inputs {
    /// A geometric dataset (`city`, `stars`).
    Geo(SpatialDataset),
    /// Encoded transactions with their `C₂` filters (`txn`).
    Txn(Experiment),
}

impl Inputs {
    /// Features over all layers (0 for `txn`).
    pub fn features(&self) -> usize {
        match self {
            Inputs::Geo(ds) => {
                ds.reference.len() + ds.relevant.iter().map(Layer::len).sum::<usize>()
            }
            Inputs::Txn(_) => 0,
        }
    }

    /// Rows the miner sees: reference features, or transactions.
    pub fn rows(&self) -> usize {
        match self {
            Inputs::Geo(ds) => ds.reference.len(),
            Inputs::Txn(e) => e.data.len(),
        }
    }
}

/// What one job starts from: `.gpb` bytes (loaded inside the job) or the
/// generated transactions (cloned outside the job's timer, since
/// `run_filtered` consumes its input).
pub enum JobInput<'a> {
    /// Encoded `.gpb` dataset bytes.
    Gpb(&'a [u8]),
    /// The generated experiment.
    Txn(&'a Experiment),
}

/// Wall time of each pipeline stage of one job, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `from_gpb` (an empty bracket for `txn`, which has no load stage).
    pub load: f64,
    /// `MiningPipeline::extract`.
    pub extract: f64,
    /// `MiningPipeline::encode`.
    pub encode: f64,
    /// `MiningPipeline::mine` (`run_filtered` for `txn`).
    pub mine: f64,
}

impl Stages {
    /// Sum of the stage times.
    pub fn total(&self) -> f64 {
        self.load + self.extract + self.encode + self.mine
    }
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Wall time of the whole job, teardown of its data included.
    pub wall: f64,
    /// Per-stage wall times.
    pub stages: Stages,
    /// Digest of the mined output, or the error the job failed with.
    pub digest: Result<u64, String>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::City, Workload::Stars, Workload::Txn];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown --workload {s:?} (city, stars, txn)"))
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::Stars => "stars",
            Workload::Txn => "txn",
        }
    }

    /// Whether the job starts from geometry (and so from `.gpb` bytes).
    pub fn is_geo(self) -> bool {
        self != Workload::Txn
    }

    /// Workload parameters, as `(key, value)` pairs for the result stamp.
    pub fn params(self, size: Size) -> Vec<(&'static str, String)> {
        let (minsup, minconf) = self.thresholds();
        let mut p = vec![
            ("minsup", minsup.to_string()),
            ("minconf", minconf.to_string()),
        ];
        match self {
            Workload::City => {
                p.push(("grid", city_config(size, 0).grid.to_string()));
                p.push(("dep", "street~illuminationPoint".to_string()));
            }
            Workload::Stars => {
                let layers = stars_layers(size)
                    .iter()
                    .zip(STARS_TYPES)
                    .map(|((n, v), t)| format!("{t}:{n}x{v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                p.push(("layers", layers));
                let bands = stars_scheme(size)
                    .bands()
                    .iter()
                    .map(|b| format!("{}<{}", b.name, b.upper))
                    .collect::<Vec<_>>()
                    .join(",");
                p.push(("bands", bands));
            }
            Workload::Txn => p.push(("rows", txn_rows(size).to_string())),
        }
        p
    }

    /// `(minimum support, minimum confidence)`.
    pub fn thresholds(self) -> (f64, f64) {
        match self {
            Workload::City => (0.1, 0.7),
            Workload::Stars => (0.05, 0.7),
            Workload::Txn => (0.05, 0.7),
        }
    }

    /// Generates the workload's inputs from `seed`. Deterministic.
    pub fn generate(self, size: Size, seed: u64) -> Inputs {
        match self {
            Workload::City => Inputs::Geo(generate_city(&city_config(size, seed))),
            Workload::Stars => {
                let mut rng = Rng::seed_from_u64(seed);
                let mut layers: Vec<Layer> = stars_layers(size)
                    .iter()
                    .zip(STARS_TYPES)
                    .map(|(&(count, vertices), t)| {
                        random_layer(&mut rng, t, count, vertices, STARS_EXTENT)
                    })
                    .collect();
                let reference = layers.remove(0);
                Inputs::Geo(SpatialDataset::new(reference, layers))
            }
            Workload::Txn => Inputs::Txn(txn_spec(size, seed).generate()),
        }
    }

    /// The pipeline every job of this workload runs: library defaults
    /// (tiling, counting strategy) except for what the workload states,
    /// with `threads` workers in this process.
    pub fn pipeline(self, size: Size, threads: usize) -> MiningPipeline {
        let (minsup, minconf) = self.thresholds();
        let pipe = MiningPipeline::new()
            .algorithm(Algorithm::AprioriKcPlus)
            .min_support(MinSupport::Fraction(minsup))
            .min_confidence(minconf)
            .threads(Threads::Fixed(threads));
        match self {
            Workload::City => {
                let mut kb = KnowledgeBase::new();
                kb.add_type_dependency("street", "illuminationPoint");
                pipe.knowledge(kb)
            }
            Workload::Stars => {
                pipe.extraction(ExtractionConfig::default().with_distance(stars_scheme(size)))
            }
            Workload::Txn => pipe,
        }
    }

    /// The oracle: the same pipeline with FP-Growth-KC+ instead of
    /// Apriori-KC+, run once on the generated inputs. Every job's digest
    /// must equal it.
    pub fn oracle(self, size: Size, threads: usize, inputs: &Inputs) -> Result<u64, Error> {
        let pipe = self
            .pipeline(size, threads)
            .algorithm(Algorithm::FpGrowthKcPlus);
        let report = match inputs {
            Inputs::Geo(ds) => pipe.run(ds)?,
            Inputs::Txn(e) => {
                pipe.run_filtered(e.data.clone(), e.dependencies.clone(), e.same_type.clone())?
            }
        };
        Ok(report_digest(&report))
    }
}

fn city_config(size: Size, seed: u64) -> CityConfig {
    let grid = match size {
        Size::Full => CITY_GRID_FULL,
        Size::Tiny => CITY_GRID_TINY,
    };
    CityConfig {
        grid,
        seed,
        ..CityConfig::metropolis()
    }
}

fn stars_layers(size: Size) -> [(usize, usize); 3] {
    match size {
        Size::Full => STARS_FULL,
        Size::Tiny => STARS_TINY,
    }
}

/// Two bounded bands scaled to the reference stars' radius, so the
/// window query keeps its pruning power at either size.
fn stars_scheme(size: Size) -> DistanceScheme {
    let radius = STARS_EXTENT / (stars_layers(size)[0].0 as f64).sqrt();
    DistanceScheme::new(vec![
        ("veryCloseTo", 0.1 * radius),
        ("closeTo", 0.3 * radius),
    ])
    .expect("increasing bounded bands")
}

fn txn_rows(size: Size) -> usize {
    match size {
        Size::Full => TXN_ROWS_FULL,
        Size::Tiny => TXN_ROWS_TINY,
    }
}

/// `datagen::experiment1`'s schema — 13 spatial predicates over 6 types,
/// 9 same-type pairs, 4 `Φ` pairs, a 4-valued attribute — at a chosen
/// row count and seed.
fn txn_spec(size: Size, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        relations_per_type: vec![3, 3, 2, 2, 2, 1],
        nonspatial_values: 4,
        dependencies: vec![(0, 2), (1, 3), (2, 5), (3, 4)],
        rows: txn_rows(size),
        seed,
        type_presence: 0.33,
        rel_given_present: 0.90,
        rel_noise: 0.04,
        dependency_strength: 0.40,
        core_patterns: vec![
            (vec![0, 1, 2, 6, 13], 0.20),
            (vec![3, 4, 5, 10, 14], 0.13),
            (vec![0, 1, 3, 4, 10, 11, 15], 0.07),
        ],
    }
}

/// Runs one complete job and times its stages. The digest is taken
/// outside the timer; dropping the job's data is inside it, since a
/// caller of the pipeline pays for that too.
pub fn run_job(input: &JobInput, pipe: &MiningPipeline) -> JobOutcome {
    let mut stages = Stages::default();
    let mut dataset = None;
    let (start, report) = match input {
        JobInput::Gpb(bytes) => {
            let start = Instant::now();
            let report = (|| {
                let ds = dataset.insert(from_gpb(bytes).map_err(|e| e.to_string())?);
                stages.load = start.elapsed().as_secs_f64();
                let t = Instant::now();
                let extracted = pipe.extract(ds).map_err(|e| e.to_string())?;
                stages.extract = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let encoded = pipe.encode(extracted).map_err(|e| e.to_string())?;
                stages.encode = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let report = pipe.mine(encoded).map_err(|e| e.to_string());
                stages.mine = t.elapsed().as_secs_f64();
                report
            })();
            (start, report)
        }
        JobInput::Txn(e) => {
            let (data, deps, same) = (e.data.clone(), e.dependencies.clone(), e.same_type.clone());
            // `txn` enters the pipeline after encoding: its load, extract
            // and encode brackets are empty and time only themselves.
            let empty = || Instant::now().elapsed().as_secs_f64();
            let start = Instant::now();
            stages.load = empty();
            stages.extract = empty();
            stages.encode = empty();
            let report = pipe
                .run_filtered(data, deps, same)
                .map_err(|e| e.to_string());
            stages.mine = start.elapsed().as_secs_f64();
            (start, report)
        }
    };
    let timed = start.elapsed().as_secs_f64();
    let digest = report.as_ref().map(report_digest).map_err(Clone::clone);
    let teardown = Instant::now();
    drop(report);
    drop(dataset);
    JobOutcome {
        wall: timed + teardown.elapsed().as_secs_f64(),
        stages,
        digest,
    }
}

/// Digest of a pipeline report: see [`digest`].
pub fn report_digest(report: &PatternReport) -> u64 {
    digest(&report.transactions.catalog, &report.result, &report.rules)
}

/// FNV-1a digest of every frequent itemset with its support and every
/// rule with its support and confidence bits. Items are written as
/// labels and sorted, so the digest does not depend on how items were
/// numbered — only on what was mined.
pub fn digest(catalog: &ItemCatalog, result: &MiningResult, rules: &[AssociationRule]) -> u64 {
    let labels = |items: &[ItemId]| {
        let mut v: Vec<&str> = items.iter().map(|&i| catalog.label(i)).collect();
        v.sort_unstable();
        v.join(",")
    };
    let mut itemsets: Vec<String> = result
        .all()
        .map(|f| format!("{}#{}", labels(&f.items), f.support))
        .collect();
    itemsets.sort_unstable();
    let mut rule_lines: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                "{}=>{}#{:x}#{:x}",
                labels(&r.antecedent),
                labels(&r.consequent),
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect();
    rule_lines.sort_unstable();
    let mut text = String::new();
    for line in itemsets
        .iter()
        .chain(["--".to_string()].iter())
        .chain(rule_lines.iter())
    {
        let _ = writeln!(text, "{line}");
    }
    geopattern_par::fnv1a64(text.as_bytes())
}
