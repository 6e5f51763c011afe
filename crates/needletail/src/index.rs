//! Per-attribute bitmap indexes.
//!
//! "For every value of every attribute in the relation that is indexed, the
//! bitmap index records a 1 at location i when the i-th tuple matches the
//! value for that attribute" (§4). [`BitmapIndex`] is exactly that: a sorted
//! map from distinct attribute value to a [`Bitmap`], supporting equality
//! probes and ordered range unions.

use crate::bitmap::Bitmap;
use crate::schema::DataType;
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Totally ordered key form of a [`Value`] (floats via order-preserving bit
/// transform; NaN rejected at table ingest).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ValueKey {
    Int(i64),
    Float(u64),
    Str(String),
}

/// Order-preserving mapping from `f64` to `u64`.
fn float_key(f: f64) -> u64 {
    assert!(!f.is_nan(), "NaN cannot be indexed");
    let bits = f.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

impl ValueKey {
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(float_key(*f)),
            Value::Str(s) => ValueKey::Str(s.clone()),
        }
    }
}

/// A bitmap index over one column of a table.
///
/// Memory: one dense [`Bitmap`] per distinct value, each about `rows / 8`
/// bytes plus its rank directory (an eighth more), however few rows the
/// value matches — so `d` distinct values cost about `d · rows · 9/64`
/// bytes ([`BitmapIndex::heap_bytes`]). High-cardinality columns are
/// expensive to index.
///
/// Per-value bitmaps are held behind [`Arc`] so the engine can hand them
/// to samplers, predicate evaluations, and plan cache entries **zero-copy**
/// — an unfiltered `GROUP BY` query clones pointers, never table-sized
/// bitmaps.
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    column: String,
    col_idx: usize,
    len: u64,
    /// Distinct value -> (original value, shared bitmap), ordered by value.
    entries: BTreeMap<ValueKey, (Value, Arc<Bitmap>)>,
}

impl BitmapIndex {
    /// Builds the index over `column` of `table` in one pass.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    #[must_use]
    pub fn build(table: &Table, column: &str) -> Self {
        #[expect(clippy::panic, reason = "`# Panics` precondition; runs at table load")]
        let col_idx = table
            .schema()
            .column_index(column)
            .unwrap_or_else(|| panic!("no column named {column:?}"));
        let len = table.row_count();
        let data_type = table.schema().columns()[col_idx].data_type;
        // Collect set-bit positions per distinct value.
        let mut positions: BTreeMap<ValueKey, (Value, Vec<u64>)> = BTreeMap::new();
        match data_type {
            DataType::Str => {
                // Avoid per-row string allocation via dictionary codes.
                let dict = table.str_dict(col_idx).to_vec();
                let mut per_code: Vec<Vec<u64>> = vec![Vec::new(); dict.len()];
                for row in 0..len {
                    per_code[table.str_code(row, col_idx) as usize].push(row);
                }
                for (code, rows) in per_code.into_iter().enumerate() {
                    let value = Value::Str(dict[code].clone());
                    positions.insert(ValueKey::from_value(&value), (value, rows));
                }
            }
            DataType::Int | DataType::Float => {
                for row in 0..len {
                    let value = table.value(row, col_idx);
                    positions
                        .entry(ValueKey::from_value(&value))
                        .or_insert_with(|| (value, Vec::new()))
                        .1
                        .push(row);
                }
            }
        }
        let entries = positions
            .into_iter()
            .filter(|(_, (_, rows))| !rows.is_empty())
            .map(|(key, (value, rows))| {
                let bm = Bitmap::from_sorted_positions(&rows, len);
                (key, (value, Arc::new(bm)))
            })
            .collect();
        Self {
            column: column.to_owned(),
            col_idx,
            len,
            entries,
        }
    }

    /// The indexed column name.
    #[must_use]
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The indexed column position.
    #[must_use]
    pub fn column_index(&self) -> usize {
        self.col_idx
    }

    /// Number of rows covered.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.len
    }

    /// Number of distinct indexed values.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        self.entries.len()
    }

    /// The distinct values in index (ascending) order.
    #[must_use]
    pub fn values(&self) -> Vec<Value> {
        self.entries.values().map(|(v, _)| v.clone()).collect()
    }

    /// The bitmap of rows matching `value` exactly, if any row does.
    #[must_use]
    pub fn bitmap_for(&self, value: &Value) -> Option<&Bitmap> {
        self.shared_bitmap_for(value).map(Arc::as_ref)
    }

    /// The shared handle to the bitmap of rows matching `value` exactly —
    /// cloning the returned [`Arc`] is the zero-copy path samplers and
    /// caches use.
    #[must_use]
    pub fn shared_bitmap_for(&self, value: &Value) -> Option<&Arc<Bitmap>> {
        self.entries
            .get(&ValueKey::from_value(value))
            .map(|(_, bm)| bm)
    }

    /// OR of all bitmaps for numeric values in `[lo, hi]` (inclusive,
    /// either side optional; a NaN bound selects nothing, as it does on the
    /// scan path). Strings are not range-indexable here.
    #[must_use]
    pub fn range_bitmap(&self, lo: Option<f64>, hi: Option<f64>) -> Bitmap {
        let mut acc: Option<Bitmap> = None;
        for (value, bm) in self.entries.values() {
            if !value.as_f64().is_some_and(|x| in_range(x, lo, hi)) {
                continue;
            }
            acc = Some(match acc {
                None => (**bm).clone(),
                Some(a) => a.or(bm.as_ref()),
            });
        }
        acc.unwrap_or_else(|| Bitmap::zeros(self.len))
    }

    /// Total heap bytes across all per-value bitmaps.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.entries.values().map(|(_, bm)| bm.heap_bytes()).sum()
    }
}

/// Whether `x` lies in `[lo, hi]` (either side optional) — the one range
/// test both the index ([`BitmapIndex::range_bitmap`]) and the row scan
/// ([`crate::predicate::Predicate::matches_row`]) apply, so the two paths
/// agree on every bound. A NaN bound admits no value.
#[must_use]
pub(crate) fn in_range(x: f64, lo: Option<f64>, hi: Option<f64>) -> bool {
    lo.is_none_or(|l| x >= l) && hi.is_none_or(|h| x <= h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows matching `value` (0 if absent).
    fn rows_of(idx: &BitmapIndex, value: &Value) -> u64 {
        idx.bitmap_for(value).map_or(0, Bitmap::count_ones)
    }
    use crate::schema::{ColumnDef, Schema};
    use crate::table::TableBuilder;

    fn table() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
            ColumnDef::new("year", DataType::Int),
        ]));
        let rows = [
            ("AA", 30.0, 2007),
            ("JB", 15.0, 2007),
            ("AA", 20.0, 2008),
            ("UA", 85.0, 2008),
            ("JB", 10.0, 2008),
            ("AA", 25.0, 2008),
        ];
        for (n, d, y) in rows {
            b.push_row(vec![n.into(), d.into(), Value::Int(y)]);
        }
        b.finish()
    }

    #[test]
    fn string_index_partitions_rows() {
        let t = table();
        let idx = BitmapIndex::build(&t, "name");
        assert_eq!(idx.distinct_count(), 3);
        let aa = idx.bitmap_for(&"AA".into()).unwrap();
        assert_eq!(aa.iter_ones().collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(rows_of(&idx, &"JB".into()), 2);
        assert_eq!(rows_of(&idx, &"ZZ".into()), 0);
        // Partition: bitmaps are disjoint and cover all rows.
        let total: u64 = idx.values().iter().map(|v| rows_of(&idx, v)).sum();
        assert_eq!(total, t.row_count());
    }

    #[test]
    fn int_index_ordered_values() {
        let t = table();
        let idx = BitmapIndex::build(&t, "year");
        assert_eq!(
            idx.values(),
            vec![Value::Int(2007), Value::Int(2008)],
            "values must come back in ascending order"
        );
        assert_eq!(rows_of(&idx, &Value::Int(2007)), 2);
        assert_eq!(rows_of(&idx, &Value::Int(2008)), 4);
    }

    #[test]
    fn float_index_and_range() {
        let t = table();
        let idx = BitmapIndex::build(&t, "delay");
        assert_eq!(rows_of(&idx, &Value::Float(30.0)), 1);
        let mid = idx.range_bitmap(Some(15.0), Some(30.0));
        // delays 15, 20, 25, 30 → rows 1, 2, 5, 0.
        assert_eq!(mid.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 5]);
        let open_low = idx.range_bitmap(None, Some(15.0));
        assert_eq!(open_low.iter_ones().collect::<Vec<_>>(), vec![1, 4]);
        let empty = idx.range_bitmap(Some(1000.0), None);
        assert_eq!(empty.count_ones(), 0);
    }

    #[test]
    fn float_key_preserves_order() {
        let mut xs = [-10.5, -0.0, 0.0, 1.0, 2.5, 1e9, -1e9];
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let keys: Vec<u64> = xs.iter().map(|&x| super::float_key(x)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        let t = table();
        let _ = BitmapIndex::build(&t, "missing");
    }
}
