//! The five workloads as data: which sessions run, in which order, on
//! which lane, with which RNG seeds. Everything here is a pure function of
//! `--seed` and depends on nothing but `std`, so `tests/determinism.rs`
//! can include this file and pin that property.
//!
//! Sizes were calibrated once on the 2-cpu box the README describes and
//! are frozen: a PR that claims a gain must not re-tune them.

/// Seed of everything that decides how *hard* a workload is: the flight
/// density model (group means and spreads — which bars certify early, how
/// many rounds the near-ties need) and the shape of the `plan_fanout`
/// predicate pool (which predicates exist and which of them are hot).
/// Fixed, not derived from `--seed`: measured on seed code, a seeded
/// model moves `ttfcb` 7× and a seeded hot set moves `plan_fanout`
/// throughput ±10 %, and a benchmark whose difficulty moves with the seed
/// cannot hold a regression bound. `--seed` draws the table's rows from
/// the model, the Zipf sequence over the pool, the operand orders and
/// disconnect points, and seeds every session's RNG.
pub const MODEL_SEED: u64 = 31;

pub const MEASURES: [&str; 3] = ["elapsed", "arr_delay", "dep_delay"];
pub const ORIGINS: usize = 40;
pub const YEARS: usize = 10;
pub const FIRST_YEAR: i64 = 2000;

/// Rows of the *cold* table: every value column is 32 MB and the group
/// bitmaps with their rank directories 8 MB, against 4 MB of L2.
pub const COLD_ROWS: u64 = 4_000_000;
/// Rows of the *hot* table.
pub const HOT_ROWS: u64 = 1_000_000;

/// Canonical predicates in the `plan_fanout` pool — 4× the engine's
/// default plan-LRU capacity of 64, so the Zipf head hits and the tail
/// misses and evicts.
pub const PREDICATE_POOL: usize = 256;
const POOL_YEAR: usize = YEARS;
const POOL_ORIGIN_YEAR: usize = 166;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdInproc,
    WireConverge,
    WireStream,
    WireChurn,
    PlanFanout,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdInproc,
        Workload::WireConverge,
        Workload::WireStream,
        Workload::WireChurn,
        Workload::PlanFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdInproc => "cold_inproc",
            Workload::WireConverge => "wire_converge",
            Workload::WireStream => "wire_stream",
            Workload::WireChurn => "wire_churn",
            Workload::PlanFanout => "plan_fanout",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdInproc => "4M-row table, 12 in-process sessions to Converged at 2% resolution: bitmap select, sampler, value fetch and stepper with cache-missing reads; serve, scheduler and checkpoint idle",
            Workload::WireConverge => "1M-row table over TCP, 2 clients, AVG+COUNT to Converged in few 512-sample rounds: per-round checkpoint refresh dominates, frame cost negligible",
            Workload::WireStream => "1M-row table over TCP, 2 clients, 4096-sample budget-capped tiles in 16-sample rounds (~110 small frames each): per-frame costs (encode, hand-off, socket write, small checkpoint) outweigh sampling",
            Workload::WireChurn => "wire_converge AVG sessions whose client drops the socket mid-stream and resumes by token: exercises checkpoint restore and re-plan instead of capture",
            Workload::PlanFanout => "in-process scheduler, 4-tile dashboards sharing one WHERE drawn Zipf(1) from 256 predicates: planning caches (hits, inserts, evictions) and scheduler quanta dominate, sampling is tiny",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_wire(self) -> bool {
        matches!(
            self,
            Workload::WireConverge | Workload::WireStream | Workload::WireChurn
        )
    }

    pub fn rows(self) -> u64 {
        match self {
            Workload::ColdInproc => COLD_ROWS,
            _ => HOT_ROWS,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    Avg,
    Sum,
    Count,
}

/// A tile's `WHERE`, by index into the origin / year domains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Filter {
    None,
    /// Dense: one row in ten.
    Year(i64),
    /// Selective: one row in four hundred.
    OriginYear(usize, i64),
    /// Three origins, operands in the order this draw shuffled them into
    /// (the engine canonicalises, so order must not split its caches).
    OriginIn(Vec<usize>),
}

/// One session (one dashboard tile).
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub agg: Agg,
    pub measure: &'static str,
    pub filter: Filter,
    pub resolution_pct: Option<f64>,
    pub samples_per_round: u64,
    pub max_samples: Option<u64>,
    pub seed: u64,
    /// `wire_churn`: drop the socket once a frame of this round (or a
    /// later one) has been read.
    pub drop_after_round: Option<u64>,
}

/// One pass of a workload: the unit the measurement loop repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// One closed-loop session list per driver lane (1 in-process, 2 on
    /// the wire).
    pub lanes: Vec<Vec<Spec>>,
    /// Consecutive tiles that form one dashboard and are scheduled
    /// together (`plan_fanout`: 4; elsewhere 1).
    pub tiles_per_dashboard: usize,
    /// Untimed sessions run before the first pass (taken from the head of
    /// lane 0). `plan_fanout` measures from cold caches, so it has none.
    pub warmup: usize,
}

/// SplitMix64: the generator behind every derived seed and every draw in
/// this file.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is < 2⁻⁵⁰ for the `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream `tag` of `seed`: independent generators for the table, each
/// workload's session seeds, the predicate draws and the disconnect points.
pub fn stream(seed: u64, tag: u64) -> SplitMix {
    let mut s = SplitMix::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
    s.next();
    s
}

pub fn table_seed(seed: u64) -> u64 {
    stream(seed, 1).next()
}

pub fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::ColdInproc => cold_inproc(seed),
        Workload::WireConverge => wire_converge(seed),
        Workload::WireStream => wire_stream(seed),
        Workload::WireChurn => wire_churn(seed),
        Workload::PlanFanout => plan_fanout(seed),
    }
}

fn spec(agg: Agg, measure: &'static str, resolution_pct: f64, spr: u64, seed: u64) -> Spec {
    Spec {
        agg,
        measure,
        filter: Filter::None,
        resolution_pct: Some(resolution_pct),
        samples_per_round: spr,
        max_samples: None,
        seed,
        drop_after_round: None,
    }
}

/// 12 sessions at 2 % resolution, 256 samples per round: 6 AVG (3
/// measures × 2 seeds), 3 COUNT, 3 SUM, interleaved so no aggregate runs
/// back to back.
fn cold_inproc(seed: u64) -> Plan {
    let mut seeds = stream(seed, 2);
    let [e, a, d] = MEASURES;
    let order = [
        (Agg::Avg, e),
        (Agg::Count, e),
        (Agg::Avg, a),
        (Agg::Sum, e),
        (Agg::Avg, d),
        (Agg::Count, a),
        (Agg::Avg, e),
        (Agg::Sum, a),
        (Agg::Avg, a),
        (Agg::Count, d),
        (Agg::Avg, d),
        (Agg::Sum, d),
    ];
    let lane = order
        .into_iter()
        .map(|(agg, m)| spec(agg, m, 2.0, 256, seeds.next()))
        .collect();
    Plan {
        lanes: vec![lane],
        tiles_per_dashboard: 1,
        warmup: 2,
    }
}

/// Sessions per client and pass of `wire_converge`.
pub const CONVERGE_PER_CLIENT: usize = 3;

/// 2 clients × 3 sessions to `Converged` at 5 % resolution, 512 samples
/// per round: 4 AVG + 2 COUNT (AVG > 60 %, so the median sits in the AVG
/// mode). Short passes, many of them: a pass is the unit the throughput
/// median is taken over.
fn wire_converge(seed: u64) -> Plan {
    let mut seeds = stream(seed, 3);
    let lanes = (0..2)
        .map(|lane| {
            (0..CONVERGE_PER_CLIENT)
                .map(|i| {
                    // Lane 0 runs A C A, lane 1 A A C.
                    let agg = if i == 1 + lane { Agg::Count } else { Agg::Avg };
                    spec(agg, MEASURES[(i + lane) % 3], 5.0, 512, seeds.next())
                })
                .collect()
        })
        .collect();
    Plan {
        lanes,
        tiles_per_dashboard: 1,
        warmup: 2,
    }
}

/// Tiles per client and pass of `wire_stream`.
pub const STREAM_PER_CLIENT: usize = 60;

/// 2 clients × 60 budget-capped tiles (4 096 samples, 16 per round),
/// AVG/SUM/COUNT round-robin — the regime `BENCH_serving.json` measured.
fn wire_stream(seed: u64) -> Plan {
    let mut seeds = stream(seed, 4);
    let lanes = (0..2)
        .map(|lane| {
            (0..STREAM_PER_CLIENT)
                .map(|i| {
                    let agg = [Agg::Avg, Agg::Sum, Agg::Count][i % 3];
                    Spec {
                        agg,
                        measure: MEASURES[(i / 3 + lane) % 3],
                        filter: Filter::None,
                        resolution_pct: None,
                        samples_per_round: 16,
                        max_samples: Some(4_096),
                        seed: seeds.next(),
                        drop_after_round: None,
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        lanes,
        tiles_per_dashboard: 1,
        warmup: 2,
    }
}

/// Sessions per client and pass of `wire_churn`.
pub const CHURN_PER_CLIENT: usize = 3;

/// 2 clients × 3 AVG sessions shaped as in `wire_converge` (56 rounds
/// each); every one is dropped after 10–40 rounds and resumed. The drop
/// rounds are one per sixth of that range — a checkpoint's size and the
/// work left after it grow with the round, so six free draws would make
/// some seeds' passes 15 % heavier than others' — and the seed decides
/// which session gets which, and where inside its sixth.
fn wire_churn(seed: u64) -> Plan {
    let mut seeds = stream(seed, 5);
    let mut drops = stream(seed, 6);
    let mut strata: Vec<u64> = (0..2 * CHURN_PER_CLIENT as u64).collect();
    for i in 0..strata.len() {
        let j = i + drops.below((strata.len() - i) as u64) as usize;
        strata.swap(i, j);
    }
    let lanes = (0..2)
        .map(|lane| {
            (0..CHURN_PER_CLIENT)
                .map(|i| {
                    let mut s = spec(Agg::Avg, MEASURES[(i + lane) % 3], 5.0, 512, seeds.next());
                    let stratum = strata[lane * CHURN_PER_CLIENT + i];
                    s.drop_after_round = Some(10 + 5 * stratum + drops.below(5));
                    s
                })
                .collect()
        })
        .collect();
    Plan {
        lanes,
        tiles_per_dashboard: 1,
        warmup: 2,
    }
}

/// Dashboards per pass of `plan_fanout`.
pub const FANOUT_DASHBOARDS: usize = 500;

/// The canonical predicate pool: 10 dense, 166 selective, 80 `IN`-lists.
/// Part of the workload's shape, so drawn from [`MODEL_SEED`].
pub fn predicate_pool() -> Vec<Filter> {
    let mut rng = stream(MODEL_SEED, 7);
    let mut pool: Vec<Filter> = (0..POOL_YEAR)
        .map(|y| Filter::Year(FIRST_YEAR + y as i64))
        .collect();
    // Distinct (origin, year) cells, drawn without repetition.
    let mut cells: Vec<usize> = (0..ORIGINS * YEARS).collect();
    for i in 0..POOL_ORIGIN_YEAR {
        let j = i + rng.below((cells.len() - i) as u64) as usize;
        cells.swap(i, j);
        pool.push(Filter::OriginYear(
            cells[i] / YEARS,
            FIRST_YEAR + (cells[i] % YEARS) as i64,
        ));
    }
    // Distinct sorted origin triples.
    while pool.len() < PREDICATE_POOL {
        let mut triple = [0usize; 3];
        for slot in 0..3 {
            triple[slot] = loop {
                let o = rng.below(ORIGINS as u64) as usize;
                if !triple[..slot].contains(&o) {
                    break o;
                }
            };
        }
        triple.sort_unstable();
        let candidate = Filter::OriginIn(triple.to_vec());
        if !pool.contains(&candidate) {
            pool.push(candidate);
        }
    }
    pool
}

/// 500 dashboards of 4 tiles sharing one `WHERE`, drawn Zipf(1.0) from
/// the pool; tiles capped at 1 024 samples, 4 per round.
fn plan_fanout(seed: u64) -> Plan {
    let pool = predicate_pool();
    let mut rng = stream(seed, 8);
    let mut seeds = stream(seed, 9);
    // Rank → pool slot, so the hot head mixes dense, selective and
    // IN-list predicates (shape, hence MODEL_SEED).
    let mut shape = stream(MODEL_SEED, 10);
    let mut by_rank: Vec<usize> = (0..pool.len()).collect();
    for i in 0..by_rank.len() {
        let j = i + shape.below((by_rank.len() - i) as u64) as usize;
        by_rank.swap(i, j);
    }
    let harmonic: Vec<f64> = (1..=pool.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = harmonic[pool.len() - 1];
    let tiles = [
        (Agg::Avg, MEASURES[0]),
        (Agg::Avg, MEASURES[1]),
        (Agg::Sum, MEASURES[2]),
        (Agg::Avg, MEASURES[2]),
    ];
    let mut lane = Vec::with_capacity(FANOUT_DASHBOARDS * tiles.len());
    for _ in 0..FANOUT_DASHBOARDS {
        let u = rng.unit() * total;
        let rank = harmonic.partition_point(|&h| h < u).min(pool.len() - 1);
        let mut filter = pool[by_rank[rank]].clone();
        if let Filter::OriginIn(origins) = &mut filter {
            for i in 0..origins.len() {
                let j = i + rng.below((origins.len() - i) as u64) as usize;
                origins.swap(i, j);
            }
        }
        for (agg, measure) in tiles {
            lane.push(Spec {
                agg,
                measure,
                filter: filter.clone(),
                resolution_pct: None,
                samples_per_round: 4,
                max_samples: Some(1_024),
                seed: seeds.next(),
                drop_after_round: None,
            });
        }
    }
    Plan {
        lanes: vec![lane],
        tiles_per_dashboard: tiles.len(),
        warmup: 0,
    }
}
