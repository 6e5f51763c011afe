//! A generative stand-in for the flight-records dataset (§5.3).
//!
//! The paper's real-data experiments use the ASA Data Expo flight records
//! (120 M rows, 1987–2008, the paper's reference 20) and scale them to 1.2 B / 12 B rows via
//! probability-density estimation. We do not ship that dataset; instead
//! [`FlightModel`] substitutes the end product of that estimation, a density
//! model directly: one distribution per (airline, attribute), with
//! per-airline means deliberately containing **near-ties** (the "highly
//! conflicting groups with means very close to one another" the paper
//! credits for Table 3's runtimes). Lazily sampled, it reproduces the
//! structure that drives the experiment at any requested scale.
//!
//! Attributes mirror the paper's three: Elapsed Time, Arrival Delay, and
//! Departure Delay, grouped by Airline. Delays are bounded by `[0, 1440]`
//! minutes (the paper's "typical flights are not delayed beyond 24 hours").

use crate::dist::{TruncatedNormal, ValueDist};
use crate::virtual_group::VirtualGroup;
use rand::{Rng, RngCore, SeedableRng};
use rapidviz_needletail::{ColumnDef, DataType, Schema, Table, TableBuilder, Value};
use std::sync::Arc;

/// The three measure attributes of the §5.3 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightAttribute {
    /// Gate-to-gate elapsed time (minutes).
    ElapsedTime,
    /// Arrival delay (minutes, clamped at 0 — early arrivals count as 0).
    ArrivalDelay,
    /// Departure delay (minutes, clamped at 0).
    DepartureDelay,
}

impl FlightAttribute {
    /// All attributes, in the paper's Table 3 order.
    pub const ALL: [FlightAttribute; 3] = [
        FlightAttribute::ElapsedTime,
        FlightAttribute::ArrivalDelay,
        FlightAttribute::DepartureDelay,
    ];

    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FlightAttribute::ElapsedTime => "Elapsed Time",
            FlightAttribute::ArrivalDelay => "Arrival Delay",
            FlightAttribute::DepartureDelay => "Departure Delay",
        }
    }

    /// Value range bound `c` for this attribute.
    #[must_use]
    pub fn c(&self) -> f64 {
        match self {
            FlightAttribute::ElapsedTime => 720.0,
            FlightAttribute::ArrivalDelay | FlightAttribute::DepartureDelay => 1440.0,
        }
    }
}

/// Carrier codes modelled (the Data Expo's major carriers).
pub const AIRLINES: [&str; 14] = [
    "AA", "AS", "B6", "CO", "DL", "EV", "HA", "MQ", "NW", "OO", "UA", "US", "WN", "XE",
];

/// The per-(airline, attribute) density model.
pub struct FlightModel {
    /// `dists[attr][airline]`.
    dists: Vec<Vec<Arc<dyn ValueDist>>>,
}

impl std::fmt::Debug for FlightModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightModel")
            .field("airlines", &AIRLINES.len())
            .field("attributes", &FlightAttribute::ALL.len())
            .finish()
    }
}

impl FlightModel {
    /// Builds the model deterministically from a seed. Base means per
    /// airline are drawn from realistic ranges with two engineered
    /// near-tie clusters per attribute.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = AIRLINES.len();
        let mut dists = Vec::with_capacity(FlightAttribute::ALL.len());
        for attr in FlightAttribute::ALL {
            let (lo_mean, hi_mean, sigma_lo, sigma_hi) = match attr {
                FlightAttribute::ElapsedTime => (80.0, 220.0, 40.0, 80.0),
                FlightAttribute::ArrivalDelay => (2.0, 60.0, 25.0, 45.0),
                FlightAttribute::DepartureDelay => (3.0, 65.0, 25.0, 45.0),
            };
            let mut means: Vec<f64> = (0..k).map(|_| rng.gen_range(lo_mean..hi_mean)).collect();
            // Engineer two near-tie clusters: airlines (1,2) and (7,8)
            // differ by ~0.08% of the attribute range — the conflicts that
            // dominate Table 3's sampling cost. The gap is tuned so that
            // resolving the tie needs on the order of 10^7 samples
            // (m* ≈ 2·ln(π²k/3δ)·(c/η)²), which the 10^8-row dataset can
            // only just satisfy — reproducing the paper's observation that
            // the conflicted groups get sampled (nearly) exhaustively and
            // runtimes keep growing with the dataset.
            let sliver = attr.c() * 0.0008;
            means[2] = means[1] + sliver;
            means[8] = means[7] + sliver * 1.5;
            let per_airline = means
                .into_iter()
                .map(|mu| {
                    let sigma = rng.gen_range(sigma_lo..sigma_hi);
                    Arc::new(TruncatedNormal::new(mu, sigma, 0.0, attr.c())) as Arc<dyn ValueDist>
                })
                .collect();
            dists.push(per_airline);
        }
        Self { dists }
    }

    fn attr_index(attr: FlightAttribute) -> usize {
        FlightAttribute::ALL
            .iter()
            .position(|&a| a == attr)
            .expect("attribute is in ALL")
    }

    /// The distribution for one (airline, attribute) cell.
    #[must_use]
    pub fn dist(&self, airline: usize, attr: FlightAttribute) -> &Arc<dyn ValueDist> {
        &self.dists[Self::attr_index(attr)][airline]
    }

    /// True per-airline means for an attribute.
    #[must_use]
    pub fn true_means(&self, attr: FlightAttribute) -> Vec<f64> {
        self.dists[Self::attr_index(attr)]
            .iter()
            .map(|d| d.mean())
            .collect()
    }

    /// Virtual groups (one per airline) for `attr`, with `total_records`
    /// rows split equally — the Table 3 scale-up path (10^8–10^10 rows).
    #[must_use]
    pub fn virtual_groups(&self, attr: FlightAttribute, total_records: u64) -> Vec<VirtualGroup> {
        let k = AIRLINES.len() as u64;
        let size = (total_records / k).max(1);
        self.dists[Self::attr_index(attr)]
            .iter()
            .zip(AIRLINES)
            .map(|(dist, code)| VirtualGroup::new(code, Arc::clone(dist), size))
            .collect()
    }

    /// Materializes a flight table (`name`, `elapsed`, `arr_delay`,
    /// `dep_delay`) of `rows` records with airline frequencies skewed the
    /// way real carrier volumes are.
    #[must_use]
    pub fn to_table(&self, rows: u64, rng: &mut dyn RngCore) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("elapsed", DataType::Float),
            ColumnDef::new("arr_delay", DataType::Float),
            ColumnDef::new("dep_delay", DataType::Float),
        ]);
        let mut builder = TableBuilder::new(schema);
        let k = AIRLINES.len();
        for _ in 0..rows {
            // Zipf-ish carrier volume skew.
            let airline = loop {
                let i = rng.gen_range(0..k);
                let keep = 1.0 / (1.0 + i as f64 * 0.15);
                if rng.gen_bool(keep) {
                    break i;
                }
            };
            builder.push_row(vec![
                Value::Str(AIRLINES[airline].to_owned()),
                Value::Float(self.dist(airline, FlightAttribute::ElapsedTime).sample(rng)),
                Value::Float(
                    self.dist(airline, FlightAttribute::ArrivalDelay)
                        .sample(rng),
                ),
                Value::Float(
                    self.dist(airline, FlightAttribute::DepartureDelay)
                        .sample(rng),
                ),
            ]);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapidviz_core::group::GroupSource;

    #[test]
    fn model_is_deterministic() {
        let a = FlightModel::new(7);
        let b = FlightModel::new(7);
        for attr in FlightAttribute::ALL {
            assert_eq!(a.true_means(attr), b.true_means(attr));
        }
    }

    #[test]
    fn near_ties_are_engineered() {
        let m = FlightModel::new(7);
        for attr in FlightAttribute::ALL {
            let means = m.true_means(attr);
            let gap12 = (means[1] - means[2]).abs();
            let range = attr.c();
            assert!(
                gap12 / range < 0.01,
                "{}: airlines 1/2 should nearly tie (gap {gap12})",
                attr.name()
            );
        }
    }

    #[test]
    fn means_within_bounds() {
        let m = FlightModel::new(3);
        for attr in FlightAttribute::ALL {
            for mean in m.true_means(attr) {
                assert!(mean >= 0.0 && mean <= attr.c());
            }
        }
    }

    #[test]
    fn virtual_groups_split_total() {
        let m = FlightModel::new(1);
        let groups = m.virtual_groups(FlightAttribute::ArrivalDelay, 1_400_000_000);
        assert_eq!(groups.len(), AIRLINES.len());
        assert!(groups.iter().all(|g| g.len() == 100_000_000));
        assert_eq!(groups[0].label(), "AA");
    }

    #[test]
    fn table_materialization() {
        let m = FlightModel::new(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let table = m.to_table(5000, &mut rng);
        assert_eq!(table.row_count(), 5000);
        let name_idx = table.schema().column_index("name").unwrap();
        let distinct = table.distinct_values(name_idx);
        assert!(distinct.len() >= 10, "most airlines appear");
        // Values respect attribute bounds.
        let arr_idx = table.schema().column_index("arr_delay").unwrap();
        for row in 0..200 {
            let v = table.float_value(row, arr_idx);
            assert!((0.0..=1440.0).contains(&v));
        }
    }

    #[test]
    fn attribute_metadata() {
        assert_eq!(FlightAttribute::ElapsedTime.name(), "Elapsed Time");
        assert_eq!(FlightAttribute::ArrivalDelay.c(), 1440.0);
        assert_eq!(FlightAttribute::ALL.len(), 3);
    }
}
