//! The `flights+` table: the flight model's three measures and Zipf-ish
//! `name` exactly as `FlightModel::to_table` draws them, plus two
//! independent filter columns, and the exact per-group aggregates the
//! correctness oracle compares certified orderings against.

use crate::workload::{Agg, FIRST_YEAR, MEASURES, MODEL_SEED, ORIGINS, YEARS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::needletail::{
    scan_group_aggregates, ColumnDef, DataType, NeedleTail, Predicate, Schema, Table, TableBuilder,
    Value,
};
use rapidviz_datagen::{FlightAttribute, FlightModel};

pub const AIRLINES: [&str; 14] = [
    "AA", "AS", "B6", "CO", "DL", "EV", "HA", "MQ", "NW", "OO", "UA", "US", "WN", "XE",
];
pub const INDEXED: [&str; 3] = ["name", "origin", "year"];

pub fn origin_name(i: usize) -> String {
    format!("O{i:02}")
}

/// Exact aggregates of the generated rows, per airline.
pub struct GroundTruth {
    pub rows: u64,
    pub count: [u64; 14],
    /// `sum[measure][airline]`.
    pub sum: [[f64; 14]; 3],
}

impl GroundTruth {
    /// The true value a session's estimate for `label` converges to.
    pub fn truth(&self, agg: Agg, measure: &str, label: &str) -> Option<f64> {
        let a = AIRLINES.iter().position(|&l| l == label)?;
        let m = MEASURES.iter().position(|&c| c == measure)?;
        Some(match agg {
            Agg::Avg => self.sum[m][a] / self.count[a] as f64,
            Agg::Sum => self.sum[m][a],
            Agg::Count => self.count[a] as f64 / self.rows as f64,
        })
    }
}

pub fn generate(table_seed: u64, rows: u64) -> (Table, GroundTruth) {
    let model = FlightModel::new(MODEL_SEED);
    let mut rng = StdRng::seed_from_u64(table_seed);
    let schema = Schema::new(vec![
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("origin", DataType::Str),
        ColumnDef::new("year", DataType::Int),
        ColumnDef::new(MEASURES[0], DataType::Float),
        ColumnDef::new(MEASURES[1], DataType::Float),
        ColumnDef::new(MEASURES[2], DataType::Float),
    ]);
    let origins: Vec<String> = (0..ORIGINS).map(origin_name).collect();
    let mut truth = GroundTruth {
        rows,
        count: [0; 14],
        sum: [[0.0; 14]; 3],
    };
    let mut builder = TableBuilder::new(schema);
    for _ in 0..rows {
        // Zipf-ish carrier volume skew, as `FlightModel::to_table`.
        let airline = loop {
            let i = rng.gen_range(0..AIRLINES.len());
            if rng.gen_bool(1.0 / (1.0 + i as f64 * 0.15)) {
                break i;
            }
        };
        let values = FlightAttribute::ALL.map(|attr| model.dist(airline, attr).sample(&mut rng));
        let origin = rng.gen_range(0..ORIGINS);
        let year = FIRST_YEAR + rng.gen_range(0..YEARS) as i64;
        truth.count[airline] += 1;
        for (m, v) in values.iter().enumerate() {
            truth.sum[m][airline] += v;
        }
        builder.push_row(vec![
            Value::Str(AIRLINES[airline].to_owned()),
            Value::Str(origins[origin].clone()),
            Value::Int(year),
            Value::Float(values[0]),
            Value::Float(values[1]),
            Value::Float(values[2]),
        ]);
    }
    (builder.finish(), truth)
}

pub fn engine(table: Table) -> NeedleTail {
    NeedleTail::new(table, &INDEXED).expect("every indexed column is in the schema")
}

/// Cross-checks the generator's running aggregates against the engine's
/// own full scan on one measure (counts exactly, sums to rounding).
pub fn verify_ground_truth(table: &Table, truth: &GroundTruth, measure_idx: usize) -> bool {
    let scanned = scan_group_aggregates(table, "name", MEASURES[measure_idx], &Predicate::True);
    scanned.iter().all(|g| {
        let Value::Str(label) = &g.group else {
            return false;
        };
        let Some(a) = AIRLINES.iter().position(|l| l == label) else {
            return false;
        };
        let expect = truth.sum[measure_idx][a];
        g.count == truth.count[a] && (g.sum - expect).abs() <= expect.abs() * 1e-9
    }) && scanned.iter().map(|g| g.count).sum::<u64>() == truth.rows
}
