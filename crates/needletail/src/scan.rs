//! The `SCAN` baseline: exact per-group aggregates via one sequential pass.
//!
//! "The SCAN operation represents an approach that a more traditional
//! system, such as PostgreSQL, would take to solve the visualization
//! problem" (§5.1): read every record, update a running (count, sum) in a
//! hash map keyed on the group, and emit exact means. The engine charges
//! the pass to the cost model as sequential block reads plus one hash
//! update per record.

use crate::predicate::Predicate;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// Exact aggregate for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAggregate {
    /// The group-by value.
    pub group: Value,
    /// Number of (predicate-satisfying) rows in the group.
    pub count: u64,
    /// Sum of the measure column over the group.
    pub sum: f64,
}

impl GroupAggregate {
    /// The group mean; `None` for an empty group.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Scans `table` computing `SELECT group_col, AVG(agg_col), COUNT(*), SUM(agg_col)
/// WHERE predicate GROUP BY group_col`, returning groups in first-appearance
/// order (strings) / ascending order (numerics).
///
/// # Panics
///
/// Panics if either column is missing or `agg_col` is not numeric.
#[must_use]
pub fn scan_group_aggregates(
    table: &Table,
    group_col: &str,
    agg_col: &str,
    predicate: &Predicate,
) -> Vec<GroupAggregate> {
    #[expect(clippy::panic, reason = "`# Panics` precondition of the oracle scan")]
    let g_idx = table
        .schema()
        .column_index(group_col)
        .unwrap_or_else(|| panic!("no column named {group_col:?}"));
    #[expect(clippy::panic, reason = "`# Panics` precondition of the oracle scan")]
    let a_idx = table
        .schema()
        .column_index(agg_col)
        .unwrap_or_else(|| panic!("no column named {agg_col:?}"));

    // Accumulate per distinct group value; key by display form is unsafe for
    // floats, so key by the table's distinct-value ordering instead.
    let distinct = table.distinct_values(g_idx);
    let key_of: HashMap<String, usize> = distinct
        .iter()
        .enumerate()
        .map(|(i, v)| (v.to_string(), i))
        .collect();
    let mut counts = vec![0u64; distinct.len()];
    let mut sums = vec![0.0f64; distinct.len()];

    for row in 0..table.row_count() {
        if !predicate.matches_row(table, row) {
            continue;
        }
        let group = table.value(row, g_idx);
        let slot = key_of[&group.to_string()];
        counts[slot] += 1;
        sums[slot] += table.float_value(row, a_idx);
    }

    distinct
        .into_iter()
        .enumerate()
        .map(|(i, group)| GroupAggregate {
            group,
            count: counts[i],
            sum: sums[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, Schema};
    use crate::table::TableBuilder;

    fn table() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for (n, d) in [
            ("AA", 30.0),
            ("JB", 15.0),
            ("AA", 20.0),
            ("UA", 85.0),
            ("JB", 25.0),
            ("AA", 10.0),
        ] {
            b.push_row(vec![n.into(), d.into()]);
        }
        b.finish()
    }

    #[test]
    fn exact_means() {
        let aggs = scan_group_aggregates(&table(), "name", "delay", &Predicate::True);
        assert_eq!(aggs.len(), 3);
        let by_name: HashMap<String, &GroupAggregate> =
            aggs.iter().map(|a| (a.group.to_string(), a)).collect();
        assert_eq!(by_name["AA"].count, 3);
        assert!((by_name["AA"].mean().unwrap() - 20.0).abs() < 1e-12);
        assert!((by_name["JB"].mean().unwrap() - 20.0).abs() < 1e-12);
        assert!((by_name["UA"].mean().unwrap() - 85.0).abs() < 1e-12);
        assert!((by_name["UA"].sum - 85.0).abs() < 1e-12);
    }

    #[test]
    fn predicate_filters_rows() {
        let aggs = scan_group_aggregates(&table(), "name", "delay", &Predicate::ge("delay", 20.0));
        let by_name: HashMap<String, &GroupAggregate> =
            aggs.iter().map(|a| (a.group.to_string(), a)).collect();
        assert_eq!(by_name["AA"].count, 2);
        assert!((by_name["AA"].mean().unwrap() - 25.0).abs() < 1e-12);
        assert_eq!(by_name["JB"].count, 1);
    }

    #[test]
    fn empty_group_mean_is_none() {
        let aggs =
            scan_group_aggregates(&table(), "name", "delay", &Predicate::ge("delay", 1000.0));
        assert!(aggs.iter().all(|a| a.count == 0 && a.mean().is_none()));
    }

    #[test]
    fn integer_group_column() {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("bucket", DataType::Int),
            ColumnDef::new("y", DataType::Float),
        ]));
        for (g, y) in [(2i64, 4.0), (1, 1.0), (2, 6.0), (1, 3.0)] {
            b.push_row(vec![Value::Int(g), y.into()]);
        }
        let aggs = scan_group_aggregates(&b.finish(), "bucket", "y", &Predicate::True);
        // Numeric groups come back sorted ascending.
        assert_eq!(aggs[0].group, Value::Int(1));
        assert!((aggs[0].mean().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(aggs[1].group, Value::Int(2));
        assert!((aggs[1].mean().unwrap() - 5.0).abs() < 1e-12);
    }
}
