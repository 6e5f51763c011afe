//! The in-memory row store.
//!
//! NEEDLETAIL runs in a row-store configuration for the paper's experiments
//! (§4); we store fixed-width columns contiguously and dictionary-encode
//! strings, so a "row fetch" touches one slot per column. Row width is
//! tracked so the I/O cost model can translate record counts into bytes and
//! 1 MB blocks exactly as the paper's setup does.

use crate::schema::{DataType, Schema};
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Physical column storage.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Dictionary codes plus the dictionary itself.
    Str {
        codes: Vec<u32>,
        dict: Vec<String>,
    },
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// This column with row `i` moved to the next free slot of its group
    /// `ordinals[i]`; `starts[g]` is group `g`'s first slot.
    fn scattered(&self, ordinals: &[u32], starts: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int(v) => ColumnData::Int(scatter(v, ordinals, starts)),
            ColumnData::Float(v) => ColumnData::Float(scatter(v, ordinals, starts)),
            ColumnData::Str { codes, dict } => ColumnData::Str {
                codes: scatter(codes, ordinals, starts),
                dict: dict.clone(),
            },
        }
    }
}

/// One pass of a counting sort: `src[i]` goes to the next free slot of
/// group `ordinals[i]`, so rows keep their relative order inside a group.
fn scatter<T: Copy + Default>(src: &[T], ordinals: &[u32], starts: &[usize]) -> Vec<T> {
    let mut next = starts.to_vec();
    let mut out = vec![T::default(); src.len()];
    for (&x, &g) in src.iter().zip(ordinals) {
        out[next[g as usize]] = x;
        next[g as usize] += 1;
    }
    out
}

/// Each value's position among the sorted distinct values of `values`.
#[expect(
    clippy::expect_used,
    reason = "row ordinals, like string codes, fit u32"
)]
fn sorted_ordinals<T: Copy>(values: &[T], cmp: impl Fn(&T, &T) -> Ordering) -> Vec<u32> {
    let mut distinct = values.to_vec();
    distinct.sort_unstable_by(&cmp);
    distinct.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    values
        .iter()
        .map(|x| {
            let g = distinct.partition_point(|d| cmp(d, x) == Ordering::Less);
            u32::try_from(g).expect("distinct values fit u32")
        })
        .collect()
}

/// An immutable, fully loaded relation.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    row_count: u64,
}

impl Table {
    /// The table's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Bytes per stored row (8 bytes per numeric column, 4 per string code),
    /// used by the I/O cost model.
    #[must_use]
    pub fn row_bytes(&self) -> u64 {
        self.schema
            .columns()
            .iter()
            .map(|c| match c.data_type {
                DataType::Int | DataType::Float => 8,
                DataType::Str => 4,
            })
            .sum()
    }

    /// Total stored bytes (`row_count * row_bytes`).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.row_count * self.row_bytes()
    }

    /// Narrows a row index to `usize` for the Vec-backed columns.
    #[expect(clippy::expect_used, reason = "Vec-backed rows always fit usize")]
    fn row_idx(row: u64) -> usize {
        usize::try_from(row).expect("row index fits usize")
    }

    /// The value at (`row`, column `col_idx`).
    ///
    /// # Panics
    ///
    /// Panics if the row or column is out of range.
    #[must_use]
    pub fn value(&self, row: u64, col_idx: usize) -> Value {
        let row = Self::row_idx(row);
        match &self.columns[col_idx] {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str { codes, dict } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// Fast float access for measure columns.
    ///
    /// # Panics
    ///
    /// Panics if the column is not numeric or indices are out of range.
    #[must_use]
    pub fn float_value(&self, row: u64, col_idx: usize) -> f64 {
        let row = Self::row_idx(row);
        match &self.columns[col_idx] {
            ColumnData::Int(v) => v[row] as f64,
            ColumnData::Float(v) => v[row],
            #[expect(clippy::panic, reason = "`# Panics`; plans type-check measures")]
            ColumnData::Str { .. } => panic!("column {col_idx} is not numeric"),
        }
    }

    /// Dictionary code at (`row`, string column `col_idx`) — used by index
    /// construction to avoid string allocation per row.
    ///
    /// # Panics
    ///
    /// Panics if the column is not a string column.
    #[must_use]
    pub fn str_code(&self, row: u64, col_idx: usize) -> u32 {
        let row = Self::row_idx(row);
        match &self.columns[col_idx] {
            ColumnData::Str { codes, .. } => codes[row],
            #[expect(clippy::panic, reason = "`# Panics`; index build checks types first")]
            _ => panic!("column {col_idx} is not a string column"),
        }
    }

    /// A code that tells column `col_idx`'s distinct values apart at
    /// `row`: a string's dictionary code, an integer's two's-complement
    /// bits, a float's bits (NaN is never stored, and `-0.0` stays apart
    /// from `0.0`). One-pass group-bys key rows by it.
    ///
    /// # Panics
    ///
    /// Panics if the row or column is out of range.
    #[must_use]
    pub(crate) fn group_code(&self, row: u64, col_idx: usize) -> u64 {
        let row = Self::row_idx(row);
        match &self.columns[col_idx] {
            ColumnData::Int(v) => v[row] as u64,
            ColumnData::Float(v) => v[row].to_bits(),
            ColumnData::Str { codes, .. } => u64::from(codes[row]),
        }
    }

    /// The dictionary of a string column.
    ///
    /// # Panics
    ///
    /// Panics if the column is not a string column.
    #[must_use]
    pub fn str_dict(&self, col_idx: usize) -> &[String] {
        match &self.columns[col_idx] {
            ColumnData::Str { dict, .. } => dict,
            #[expect(clippy::panic, reason = "`# Panics`; callers check the type first")]
            _ => panic!("column {col_idx} is not a string column"),
        }
    }

    /// Stably reorders every column's rows by column `col_idx`, so each of
    /// its distinct values owns one contiguous row range holding its rows
    /// in their original relative order. String values are ranged by
    /// dictionary code (first-appearance order), numeric ones by ascending
    /// value (`f64::total_cmp`, which keeps `-0.0` apart from `0.0` as the
    /// index does). A counting sort: one column is rewritten at a time, so
    /// the scratch is one column (plus the group ordinals of a numeric
    /// key), never a second table.
    pub(crate) fn cluster_by(&mut self, col_idx: usize) {
        let key = std::mem::replace(&mut self.columns[col_idx], ColumnData::Int(Vec::new()));
        let numeric;
        let ordinals: &[u32] = match &key {
            ColumnData::Str { codes, .. } => codes,
            ColumnData::Int(v) => {
                numeric = sorted_ordinals(v, i64::cmp);
                &numeric
            }
            ColumnData::Float(v) => {
                numeric = sorted_ordinals(v, f64::total_cmp);
                &numeric
            }
        };
        let groups = ordinals.iter().max().map_or(0, |&g| g as usize + 1);
        let mut starts = vec![0usize; groups];
        for &g in ordinals {
            starts[g as usize] += 1;
        }
        let mut next = 0;
        for slot in &mut starts {
            (*slot, next) = (next, next + *slot);
        }
        for (i, column) in self.columns.iter_mut().enumerate() {
            if i != col_idx {
                *column = column.scattered(ordinals, &starts);
            }
        }
        self.columns[col_idx] = key.scattered(ordinals, &starts);
    }

    /// All distinct values appearing in a column, in first-appearance order
    /// for strings and sorted order for numerics.
    #[must_use]
    pub fn distinct_values(&self, col_idx: usize) -> Vec<Value> {
        match &self.columns[col_idx] {
            ColumnData::Int(v) => {
                let mut d: Vec<i64> = v.clone();
                d.sort_unstable();
                d.dedup();
                d.into_iter().map(Value::Int).collect()
            }
            ColumnData::Float(v) => {
                let mut d: Vec<f64> = v.clone();
                d.sort_unstable_by(f64::total_cmp);
                d.dedup();
                d.into_iter().map(Value::Float).collect()
            }
            ColumnData::Str { dict, .. } => dict.iter().cloned().map(Value::Str).collect(),
        }
    }
}

/// Streaming builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<ColumnData>,
    dicts: Vec<Option<HashMap<String, u32>>>,
}

impl TableBuilder {
    /// Starts building a table with the given schema.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| match c.data_type {
                DataType::Int => ColumnData::Int(Vec::new()),
                DataType::Float => ColumnData::Float(Vec::new()),
                DataType::Str => ColumnData::Str {
                    codes: Vec::new(),
                    dict: Vec::new(),
                },
            })
            .collect();
        let dicts = schema
            .columns()
            .iter()
            .map(|c| (c.data_type == DataType::Str).then(HashMap::new))
            .collect();
        Self {
            schema,
            columns,
            dicts,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics on arity or type mismatch, or on a NaN float (NaN would break
    /// the total ordering the algorithms rely on).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.arity(), "row arity mismatch");
        for (i, value) in row.into_iter().enumerate() {
            match (&mut self.columns[i], value) {
                (ColumnData::Int(v), Value::Int(x)) => v.push(x),
                (ColumnData::Float(v), Value::Float(x)) => {
                    assert!(!x.is_nan(), "NaN values are not storable");
                    v.push(x);
                }
                (ColumnData::Float(v), Value::Int(x)) => v.push(x as f64),
                (ColumnData::Str { codes, dict }, Value::Str(s)) => {
                    #[expect(clippy::expect_used, reason = "every Str column gets a dict")]
                    let table = self.dicts[i].as_mut().expect("string column has dict");
                    #[expect(clippy::expect_used, reason = "u32 codes by design; overflow aborts")]
                    let code = *table.entry(s.clone()).or_insert_with(|| {
                        dict.push(s);
                        u32::try_from(dict.len() - 1).expect("dictionary fits u32")
                    });
                    codes.push(code);
                }
                #[expect(clippy::panic, reason = "`# Panics`; build time, never serving")]
                (_, v) => panic!(
                    "type mismatch in column {:?}: got {:?}",
                    self.schema.columns()[i].name,
                    v.data_type()
                ),
            }
        }
    }

    /// Number of rows appended so far.
    #[must_use]
    pub fn row_count(&self) -> u64 {
        self.columns.first().map_or(0, |c| c.len() as u64)
    }

    /// Finalizes the table.
    #[must_use]
    pub fn finish(self) -> Table {
        let row_count = self.row_count();
        Table {
            schema: self.schema,
            columns: self.columns,
            row_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn flights_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
            ColumnDef::new("year", DataType::Int),
        ])
    }

    fn small_table() -> Table {
        let mut b = TableBuilder::new(flights_schema());
        b.push_row(vec!["AA".into(), 30.0.into(), Value::Int(2008)]);
        b.push_row(vec!["JB".into(), 15.0.into(), Value::Int(2008)]);
        b.push_row(vec!["AA".into(), 20.0.into(), Value::Int(2007)]);
        b.finish()
    }

    #[test]
    fn roundtrip_values() {
        let t = small_table();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(0, 0), Value::Str("AA".into()));
        assert_eq!(t.value(1, 1), Value::Float(15.0));
        assert_eq!(t.value(2, 2), Value::Int(2007));
    }

    #[test]
    fn dictionary_reuses_codes() {
        let t = small_table();
        assert_eq!(t.str_code(0, 0), t.str_code(2, 0), "AA shares a code");
        assert_ne!(t.str_code(0, 0), t.str_code(1, 0));
        assert_eq!(t.str_dict(0), &["AA".to_owned(), "JB".to_owned()]);
    }

    #[test]
    fn float_access_and_int_promotion() {
        let mut b = TableBuilder::new(Schema::new(vec![ColumnDef::new("y", DataType::Float)]));
        b.push_row(vec![Value::Int(4)]);
        let t = b.finish();
        assert_eq!(t.float_value(0, 0), 4.0);
    }

    #[test]
    fn distinct_values_sorted_numeric() {
        let mut b = TableBuilder::new(Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
        for v in [3i64, 1, 3, 2] {
            b.push_row(vec![Value::Int(v)]);
        }
        let t = b.finish();
        assert_eq!(
            t.distinct_values(0),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn row_bytes() {
        let t = small_table();
        // str(4) + float(8) + int(8) = 20.
        assert_eq!(t.row_bytes(), 20);
        assert_eq!(t.total_bytes(), 60);
    }

    /// Every row as a vector of values.
    fn rows(t: &Table) -> Vec<Vec<Value>> {
        (0..t.row_count())
            .map(|r| (0..t.schema().arity()).map(|c| t.value(r, c)).collect())
            .collect()
    }

    /// Asserts `after` is `before` stably regrouped by column `key`: each
    /// key value's rows are contiguous, in `before`'s relative order, and
    /// the groups come in `order`.
    fn assert_clustered(before: &[Vec<Value>], after: &[Vec<Value>], key: usize, order: &[Value]) {
        let mut expect = Vec::new();
        for v in order {
            expect.extend(before.iter().filter(|row| &row[key] == v).cloned());
        }
        assert_eq!(expect.len(), before.len(), "order lists every key value");
        assert_eq!(after, expect.as_slice());
    }

    /// Three interleaved groups under every key type, with a payload that
    /// records each row's original position.
    fn interleaved() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("s", DataType::Str),
            ColumnDef::new("i", DataType::Int),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("pos", DataType::Int),
        ]));
        for pos in 0..40i64 {
            let g = (pos * 7 + pos / 3) % 3;
            let s = ["JB", "AA", "UA"][g as usize];
            let f = [2.5, -0.0, -1.0][g as usize];
            b.push_row(vec![
                s.into(),
                Value::Int(10 - g),
                f.into(),
                Value::Int(pos),
            ]);
        }
        b.finish()
    }

    #[test]
    fn clustering_by_a_string_column_ranges_groups_in_dictionary_order() {
        let mut t = interleaved();
        let before = rows(&t);
        let dict: Vec<Value> = t
            .str_dict(0)
            .iter()
            .map(|s| Value::Str(s.clone()))
            .collect();
        t.cluster_by(0);
        assert_clustered(&before, &rows(&t), 0, &dict);
        assert_eq!(t.row_count(), 40);
        assert_eq!(t.str_dict(0).len(), 3, "the dictionary is unchanged");
    }

    #[test]
    fn clustering_by_a_numeric_column_ranges_groups_in_ascending_order() {
        for (key, order) in [
            (1, vec![Value::Int(8), Value::Int(9), Value::Int(10)]),
            (
                2,
                vec![Value::Float(-1.0), Value::Float(-0.0), Value::Float(2.5)],
            ),
        ] {
            let mut t = interleaved();
            let before = rows(&t);
            t.cluster_by(key);
            assert_clustered(&before, &rows(&t), key, &order);
        }
    }

    #[test]
    fn clustering_an_empty_or_single_group_table_changes_nothing() {
        let mut empty = TableBuilder::new(flights_schema()).finish();
        empty.cluster_by(0);
        empty.cluster_by(2);
        assert_eq!(empty.row_count(), 0);
        let mut b = TableBuilder::new(flights_schema());
        for (d, y) in [(3.0, 2001), (1.0, 2002), (2.0, 2003)] {
            b.push_row(vec!["AA".into(), d.into(), Value::Int(y)]);
        }
        let mut one = b.finish();
        let before = rows(&one);
        one.cluster_by(0);
        assert_eq!(rows(&one), before);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_wrong_arity() {
        let mut b = TableBuilder::new(flights_schema());
        b.push_row(vec!["AA".into()]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn rejects_wrong_type() {
        let mut b = TableBuilder::new(flights_schema());
        b.push_row(vec![Value::Int(1), 30.0.into(), Value::Int(2008)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let mut b = TableBuilder::new(Schema::new(vec![ColumnDef::new("y", DataType::Float)]));
        b.push_row(vec![Value::Float(f64::NAN)]);
    }
}
