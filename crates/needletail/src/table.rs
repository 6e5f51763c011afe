//! The in-memory row store.
//!
//! NEEDLETAIL runs in a row-store configuration for the paper's experiments
//! (§4); we store fixed-width columns contiguously and dictionary-encode
//! strings, so a "row fetch" touches one slot per column. Row width is
//! tracked so the I/O cost model can translate record counts into bytes and
//! 1 MB blocks exactly as the paper's setup does.

use crate::schema::{DataType, Schema};
use crate::value::Value;
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
