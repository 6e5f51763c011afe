//! Composite (multi-attribute) bitmap indexes — §6.3.4's "joint index on
//! X and Z".
//!
//! For `GROUP BY X, Z` the engine can serve per-cell samplers straight
//! from one index over the attribute *pair*: each distinct `(x, z)`
//! combination maps to the bitmap of rows matching both. Equivalent to
//! intersecting two single-attribute bitmaps per probe, but built in one
//! pass and probed in one lookup.

use crate::bitmap::{Bitmap, DenseBitmap};
use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Totally ordered composite key (string form is sufficient because the
/// engine only builds composites over group-by attributes, which are
/// categorical; numeric group-by values order by their display form within
/// one column's entries of equal type).
type Key = Vec<String>;

/// A bitmap index over a tuple of columns. Per-cell bitmaps are held
/// behind [`Arc`] so plan cache entries and samplers share them zero-copy
/// (see [`crate::index::BitmapIndex`]).
#[derive(Debug, Clone)]
pub struct CompositeIndex {
    columns: Vec<String>,
    len: u64,
    entries: BTreeMap<Key, (Vec<Value>, Arc<Bitmap>)>,
}

impl CompositeIndex {
    /// Builds the index over the given columns in one table pass.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or any column is missing.
    #[must_use]
    pub fn build(table: &Table, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        #[expect(clippy::panic, reason = "`# Panics` precondition; runs at index build")]
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| {
                table
                    .schema()
                    .column_index(c)
                    .unwrap_or_else(|| panic!("no column named {c:?}"))
            })
            .collect();
        let len = table.row_count();
        let mut positions: BTreeMap<Key, (Vec<Value>, Vec<u64>)> = BTreeMap::new();
        for row in 0..len {
            let values: Vec<Value> = idxs.iter().map(|&c| table.value(row, c)).collect();
            let key: Key = values.iter().map(ToString::to_string).collect();
            positions
                .entry(key)
                .or_insert_with(|| (values, Vec::new()))
                .1
                .push(row);
        }
        let entries = positions
            .into_iter()
            .map(|(key, (values, rows))| {
                let bm = Bitmap::Dense(DenseBitmap::from_sorted_positions(&rows, len)).optimize();
                (key, (values, Arc::new(bm)))
            })
            .collect();
        Self {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            len,
            entries,
        }
    }

    /// The indexed column names.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Rows covered.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.len
    }

    /// Number of distinct cells (present combinations only — absent
    /// combinations of the cross product take no space).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.entries.len()
    }

    /// The distinct cells, each as its value tuple, in key order.
    #[must_use]
    pub fn cells(&self) -> Vec<Vec<Value>> {
        self.entries.values().map(|(v, _)| v.clone()).collect()
    }

    /// The bitmap of rows matching the given value tuple exactly.
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity differs from the index's.
    #[must_use]
    pub fn bitmap_for(&self, values: &[Value]) -> Option<&Bitmap> {
        self.shared_bitmap_for(values).map(Arc::as_ref)
    }

    /// The shared handle to a cell's bitmap — the zero-copy path samplers
    /// and plan cache entries use.
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity differs from the index's.
    #[must_use]
    pub fn shared_bitmap_for(&self, values: &[Value]) -> Option<&Arc<Bitmap>> {
        assert_eq!(values.len(), self.columns.len(), "tuple arity mismatch");
        let key: Key = values.iter().map(ToString::to_string).collect();
        self.entries.get(&key).map(|(_, bm)| bm)
    }

    /// Number of rows in a cell (0 if absent).
    #[must_use]
    pub fn cardinality_of(&self, values: &[Value]) -> u64 {
        self.bitmap_for(values).map_or(0, Bitmap::count_ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BitmapIndex;
    use crate::schema::{ColumnDef, DataType, Schema};
    use crate::table::TableBuilder;

    fn table() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("origin", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        let rows = [
            ("AA", "BOS", 30.0),
            ("AA", "SFO", 20.0),
            ("JB", "BOS", 15.0),
            ("AA", "BOS", 40.0),
            ("JB", "SFO", 25.0),
            ("JB", "BOS", 10.0),
        ];
        for (n, o, d) in rows {
            b.push_row(vec![n.into(), o.into(), d.into()]);
        }
        b.finish()
    }

    #[test]
    fn cells_partition_rows() {
        let t = table();
        let idx = CompositeIndex::build(&t, &["name", "origin"]);
        assert_eq!(idx.cell_count(), 4, "AA/JB x BOS/SFO all present");
        let total: u64 = idx
            .cells()
            .iter()
            .map(|cell| idx.cardinality_of(cell))
            .sum();
        assert_eq!(total, t.row_count());
        assert_eq!(idx.cardinality_of(&["AA".into(), "BOS".into()]), 2);
        assert_eq!(
            idx.bitmap_for(&["AA".into(), "BOS".into()])
                .unwrap()
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
    }

    #[test]
    fn matches_intersection_of_single_indexes() {
        let t = table();
        let joint = CompositeIndex::build(&t, &["name", "origin"]);
        let by_name = BitmapIndex::build(&t, "name");
        let by_origin = BitmapIndex::build(&t, "origin");
        for cell in joint.cells() {
            let a = by_name.bitmap_for(&cell[0]).unwrap();
            let b = by_origin.bitmap_for(&cell[1]).unwrap();
            let expect: Vec<u64> = a.and(b).iter_ones().collect();
            let got: Vec<u64> = joint.bitmap_for(&cell).unwrap().iter_ones().collect();
            assert_eq!(got, expect, "cell {cell:?}");
        }
    }

    #[test]
    fn absent_cell_is_empty() {
        let t = table();
        let idx = CompositeIndex::build(&t, &["name", "origin"]);
        assert_eq!(idx.cardinality_of(&["ZZ".into(), "BOS".into()]), 0);
        assert!(idx.bitmap_for(&["ZZ".into(), "BOS".into()]).is_none());
    }

    #[test]
    fn single_column_degenerates_to_plain_index() {
        let t = table();
        let joint = CompositeIndex::build(&t, &["name"]);
        let plain = BitmapIndex::build(&t, "name");
        assert_eq!(joint.cell_count(), plain.distinct_count());
        for cell in joint.cells() {
            assert_eq!(joint.cardinality_of(&cell), plain.cardinality_of(&cell[0]));
        }
    }

    #[test]
    fn mixed_type_composite() {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("g", DataType::Str),
            ColumnDef::new("bucket", DataType::Int),
            ColumnDef::new("y", DataType::Float),
        ]));
        for (g, k, y) in [
            ("a", 1i64, 1.0),
            ("a", 2, 2.0),
            ("b", 1, 3.0),
            ("a", 1, 4.0),
        ] {
            b.push_row(vec![g.into(), Value::Int(k), y.into()]);
        }
        let idx = CompositeIndex::build(&b.finish(), &["g", "bucket"]);
        assert_eq!(idx.cell_count(), 3);
        assert_eq!(idx.cardinality_of(&["a".into(), Value::Int(1)]), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity_probe() {
        let idx = CompositeIndex::build(&table(), &["name", "origin"]);
        let _ = idx.bitmap_for(&["AA".into()]);
    }
}
