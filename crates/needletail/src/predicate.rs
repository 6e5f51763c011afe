//! Ad-hoc selection predicates (§6.3.3).
//!
//! A [`Predicate`] is a boolean combination of per-column atoms. Evaluation
//! produces an eligibility [`Bitmap`]: the index path is used when the
//! referenced column is indexed (equality probe / range union), and an
//! in-memory column scan otherwise — exactly the two retrieval modes the
//! paper describes for NEEDLETAIL. A row-level oracle
//! ([`Predicate::matches_row`]) is provided for testing and for the scan
//! baseline.

use crate::bitmap::Bitmap;
use crate::index::{in_range, BitmapIndex};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// A selection predicate over table columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no selection).
    True,
    /// `column = value`.
    Eq(String, Value),
    /// `column IN (values)`.
    In(String, Vec<Value>),
    /// `lo <= column <= hi` on a numeric column; either bound optional.
    Range {
        /// Column name.
        column: String,
        /// Inclusive lower bound, if any.
        lo: Option<f64>,
        /// Inclusive upper bound, if any.
        hi: Option<f64>,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor: `column = value`.
    #[must_use]
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Eq(column.into(), value.into())
    }

    /// Convenience constructor: `column IN (values)`.
    #[must_use]
    pub fn is_in<V: Into<Value>>(
        column: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        Predicate::In(column.into(), values.into_iter().map(Into::into).collect())
    }

    /// Convenience constructor: `column >= lo`.
    #[must_use]
    pub fn ge(column: impl Into<String>, lo: f64) -> Self {
        Predicate::Range {
            column: column.into(),
            lo: Some(lo),
            hi: None,
        }
    }

    /// Convenience constructor: `column <= hi`.
    #[must_use]
    pub fn le(column: impl Into<String>, hi: f64) -> Self {
        Predicate::Range {
            column: column.into(),
            lo: None,
            hi: Some(hi),
        }
    }

    /// Convenience constructor: `lo <= column <= hi`.
    #[must_use]
    pub fn between(column: impl Into<String>, lo: f64, hi: f64) -> Self {
        Predicate::Range {
            column: column.into(),
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// `self AND other`.
    #[must_use]
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    #[must_use]
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[must_use]
    #[expect(clippy::should_implement_trait, reason = "a builder verb like and/or")]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Row-level evaluation (oracle path; used by tests and SCAN). Values
    /// compare as the indexes key them (floats by bit pattern, so `-0.0`
    /// and `0.0` are different values) and ranges use the index's range
    /// test, so this agrees with [`Predicate::evaluate`] on every row.
    ///
    /// # Panics
    ///
    /// Panics if a referenced column does not exist or a range atom targets
    /// a non-numeric column.
    #[must_use]
    pub fn matches_row(&self, table: &Table, row: u64) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(col, value) => {
                let idx = column_index(table, col);
                table.value(row, idx).same_key(value)
            }
            Predicate::In(col, values) => {
                let idx = column_index(table, col);
                let v = table.value(row, idx);
                values.iter().any(|value| v.same_key(value))
            }
            Predicate::Range { column, lo, hi } => {
                let idx = column_index(table, column);
                #[expect(clippy::panic, reason = "`# Panics`; engine type-checks ranges first")]
                let x = table
                    .value(row, idx)
                    .as_f64()
                    .unwrap_or_else(|| panic!("range predicate on non-numeric column {column:?}"));
                in_range(x, *lo, *hi)
            }
            Predicate::And(a, b) => a.matches_row(table, row) && b.matches_row(table, row),
            Predicate::Or(a, b) => a.matches_row(table, row) || b.matches_row(table, row),
            Predicate::Not(p) => !p.matches_row(table, row),
        }
    }

    /// Evaluates to an eligibility bitmap, using indexes where available.
    ///
    /// # Panics
    ///
    /// Panics if a referenced column does not exist.
    #[must_use]
    pub fn evaluate(&self, table: &Table, indexes: &HashMap<String, BitmapIndex>) -> Bitmap {
        let n = table.row_count();
        match self {
            Predicate::True => Bitmap::ones(n),
            Predicate::Eq(col, value) => {
                if let Some(index) = indexes.get(col) {
                    index
                        .bitmap_for(value)
                        .cloned()
                        .unwrap_or_else(|| Bitmap::zeros(n))
                } else {
                    self.scan_bitmap(table)
                }
            }
            Predicate::In(col, values) => {
                if let Some(index) = indexes.get(col) {
                    let mut acc = Bitmap::zeros(n);
                    for value in values {
                        if let Some(bm) = index.bitmap_for(value) {
                            acc = acc.or(bm);
                        }
                    }
                    acc
                } else {
                    self.scan_bitmap(table)
                }
            }
            Predicate::Range { column, lo, hi } => {
                if let Some(index) = indexes.get(column) {
                    index.range_bitmap(*lo, *hi)
                } else {
                    self.scan_bitmap(table)
                }
            }
            Predicate::And(a, b) => a.evaluate(table, indexes).and(&b.evaluate(table, indexes)),
            Predicate::Or(a, b) => a.evaluate(table, indexes).or(&b.evaluate(table, indexes)),
            Predicate::Not(p) => p.evaluate(table, indexes).not(),
        }
    }

    /// Fallback: evaluate an atom by scanning the column.
    fn scan_bitmap(&self, table: &Table) -> Bitmap {
        let bits: Vec<bool> = (0..table.row_count())
            .map(|row| self.matches_row(table, row))
            .collect();
        Bitmap::from_bools(&bits)
    }

    /// A canonical, hashable key for this predicate — the predicate half
    /// of the key of [`crate::engine::NeedleTail`]'s plan cache.
    ///
    /// Canonicalization maps evaluation-equivalent spellings to one key so
    /// they share a cache entry:
    ///
    /// * `AND` / `OR` chains are flattened across nesting, their operands
    ///   canonicalized recursively, then **sorted and de-duplicated** —
    ///   `a AND (b AND c)` and `(c AND b) AND a` collide, as intersection
    ///   and union are commutative, associative, and idempotent;
    /// * double negation is removed;
    /// * `IN` lists are sorted and de-duplicated;
    /// * strings are length-prefixed and floats rendered by their exact
    ///   bit pattern, so distinct predicates can never collide.
    ///
    /// The key says nothing about *which table* the predicate was evaluated
    /// against — the engine's caches are per-engine (per immutable table),
    /// which scopes it.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        fn col(out: &mut String, name: &str) {
            use std::fmt::Write as _;
            let _ = write!(out, "{}:{name}", name.len());
        }
        fn val(out: &mut String, v: &Value) {
            use std::fmt::Write as _;
            match v {
                Value::Int(i) => {
                    let _ = write!(out, "i{i}");
                }
                Value::Float(f) => {
                    let _ = write!(out, "f{:016x}", f.to_bits());
                }
                Value::Str(s) => {
                    let _ = write!(out, "s{}:{s}", s.len());
                }
            }
        }
        fn bound(out: &mut String, b: Option<f64>) {
            use std::fmt::Write as _;
            match b {
                None => out.push('-'),
                Some(x) => {
                    let _ = write!(out, "f{:016x}", x.to_bits());
                }
            }
        }
        /// Flattens same-operator chains (`And` under `And`, `Or` under
        /// `Or`) into one operand list.
        fn flatten<'p>(p: &'p Predicate, conj: bool, out: &mut Vec<&'p Predicate>) {
            match (p, conj) {
                (Predicate::And(a, b), true) | (Predicate::Or(a, b), false) => {
                    flatten(a, conj, out);
                    flatten(b, conj, out);
                }
                _ => out.push(p),
            }
        }
        fn render(p: &Predicate, out: &mut String) {
            match p {
                Predicate::True => out.push('T'),
                Predicate::Eq(c, v) => {
                    out.push_str("E(");
                    col(out, c);
                    out.push(',');
                    val(out, v);
                    out.push(')');
                }
                Predicate::In(c, values) => {
                    out.push_str("I(");
                    col(out, c);
                    out.push_str(",[");
                    let mut rendered: Vec<String> = values
                        .iter()
                        .map(|v| {
                            let mut s = String::new();
                            val(&mut s, v);
                            s
                        })
                        .collect();
                    rendered.sort_unstable();
                    rendered.dedup();
                    out.push_str(&rendered.join(","));
                    out.push_str("])");
                }
                Predicate::Range { column, lo, hi } => {
                    out.push_str("R(");
                    col(out, column);
                    out.push(',');
                    bound(out, *lo);
                    out.push(',');
                    bound(out, *hi);
                    out.push(')');
                }
                chain @ (Predicate::And(..) | Predicate::Or(..)) => {
                    let conj = matches!(chain, Predicate::And(..));
                    let mut operands = Vec::new();
                    flatten(chain, conj, &mut operands);
                    let mut rendered: Vec<String> = operands
                        .iter()
                        .map(|q| {
                            let mut s = String::new();
                            render(q, &mut s);
                            s
                        })
                        .collect();
                    rendered.sort_unstable();
                    rendered.dedup();
                    out.push(if conj { 'A' } else { 'O' });
                    out.push('(');
                    out.push_str(&rendered.join(if conj { "&" } else { "|" }));
                    out.push(')');
                }
                Predicate::Not(inner) => {
                    if let Predicate::Not(doubly) = inner.as_ref() {
                        render(doubly, out);
                    } else {
                        out.push_str("N(");
                        render(inner, out);
                        out.push(')');
                    }
                }
            }
        }
        let mut out = String::new();
        render(self, &mut out);
        out
    }

    /// The set of column names this predicate references.
    #[must_use]
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::True => {}
            Predicate::Eq(col, _) | Predicate::In(col, _) => out.push(col),
            Predicate::Range { column, .. } => out.push(column),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(p) => p.collect_columns(out),
        }
    }
}

#[expect(clippy::panic, reason = "`# Panics`; engine resolves columns first")]
fn column_index(table: &Table, name: &str) -> usize {
    table
        .schema()
        .column_index(name)
        .unwrap_or_else(|| panic!("no column named {name:?}"))
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
            ("JB", 10.0),
        ] {
            b.push_row(vec![n.into(), d.into()]);
        }
        b.finish()
    }

    fn indexed(table: &Table, cols: &[&str]) -> HashMap<String, BitmapIndex> {
        cols.iter()
            .map(|c| ((*c).to_owned(), BitmapIndex::build(table, c)))
            .collect()
    }

    /// Index path and scan path must agree for any predicate.
    fn assert_paths_agree(p: &Predicate, t: &Table) {
        let with_idx = p.evaluate(t, &indexed(t, &["name", "delay"]));
        let without = p.evaluate(t, &HashMap::new());
        assert_eq!(
            with_idx.iter_ones().collect::<Vec<_>>(),
            without.iter_ones().collect::<Vec<_>>(),
            "index vs scan disagree for {p:?}"
        );
        for row in 0..t.row_count() {
            assert_eq!(with_idx.get(row), p.matches_row(t, row));
        }
    }

    #[test]
    fn eq_predicate() {
        let t = table();
        let p = Predicate::eq("name", "AA");
        assert_paths_agree(&p, &t);
        let bm = p.evaluate(&t, &indexed(&t, &["name"]));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn eq_missing_value_is_empty() {
        let t = table();
        let p = Predicate::eq("name", "ZZ");
        assert_eq!(p.evaluate(&t, &indexed(&t, &["name"])).count_ones(), 0);
        assert_paths_agree(&p, &t);
    }

    #[test]
    fn range_predicates() {
        let t = table();
        for p in [
            Predicate::ge("delay", 20.0),
            Predicate::le("delay", 15.0),
            Predicate::between("delay", 12.0, 40.0),
            Predicate::ge("delay", f64::NAN),
            Predicate::le("delay", f64::NAN),
            Predicate::between("delay", f64::NAN, f64::NAN),
        ] {
            assert_paths_agree(&p, &t);
        }
        let high = Predicate::ge("delay", 30.0).evaluate(&t, &indexed(&t, &["delay"]));
        assert_eq!(high.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn signed_zeros_are_distinct_values_on_both_paths() {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]));
        for (n, d) in [("AA", -0.0), ("JB", 0.0), ("AA", 1.0), ("UA", -0.0)] {
            b.push_row(vec![n.into(), d.into()]);
        }
        let t = b.finish();
        for p in [
            Predicate::eq("delay", 0.0),
            Predicate::eq("delay", -0.0),
            Predicate::is_in("delay", [0.0]),
            Predicate::is_in("delay", [-0.0, 1.0]),
            Predicate::eq("delay", 0.0).not(),
            Predicate::ge("delay", 0.0),
            Predicate::le("delay", -0.0),
        ] {
            assert_paths_agree(&p, &t);
        }
        // A filter on the `0` label selects exactly that group's one row.
        let zero = Predicate::eq("delay", 0.0).evaluate(&t, &HashMap::new());
        assert_eq!(zero.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn boolean_combinations() {
        let t = table();
        let p = Predicate::eq("name", "AA")
            .and(Predicate::ge("delay", 25.0))
            .or(Predicate::eq("name", "UA"));
        assert_paths_agree(&p, &t);
        let bm = p.evaluate(&t, &indexed(&t, &["name", "delay"]));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 3]);
        let not = Predicate::eq("name", "JB").not();
        assert_paths_agree(&not, &t);
        assert_eq!(not.evaluate(&t, &HashMap::new()).count_ones(), 3);
    }

    #[test]
    fn in_predicate() {
        let t = table();
        let p = Predicate::is_in("name", ["AA", "UA"]);
        assert_paths_agree(&p, &t);
        let bm = p.evaluate(&t, &indexed(&t, &["name"]));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
        // Empty list matches nothing.
        let none = Predicate::is_in("name", Vec::<&str>::new());
        assert_eq!(none.evaluate(&t, &indexed(&t, &["name"])).count_ones(), 0);
        assert_paths_agree(&none, &t);
    }

    #[test]
    fn true_matches_all() {
        let t = table();
        assert_eq!(
            Predicate::True.evaluate(&t, &HashMap::new()).count_ones(),
            t.row_count()
        );
    }

    #[test]
    fn referenced_columns() {
        let p = Predicate::eq("name", "AA")
            .and(Predicate::ge("delay", 1.0))
            .or(Predicate::eq("name", "JB"));
        assert_eq!(p.referenced_columns(), vec!["delay", "name"]);
        assert!(Predicate::True.referenced_columns().is_empty());
    }

    #[test]
    fn canonical_key_identifies_equivalent_spellings() {
        let a = Predicate::eq("name", "AA");
        let b = Predicate::ge("delay", 30.0);
        let c = Predicate::le("delay", 90.0);
        // Conjunction order and nesting don't matter.
        let left = a.clone().and(b.clone()).and(c.clone());
        let right = c.clone().and(a.clone().and(b.clone()));
        assert_eq!(left.canonical_key(), right.canonical_key());
        // Same for disjunctions, including idempotent repeats.
        let or1 = a.clone().or(b.clone()).or(a.clone());
        let or2 = b.clone().or(a.clone());
        assert_eq!(or1.canonical_key(), or2.canonical_key());
        // Double negation cancels.
        assert_eq!(a.clone().not().not().canonical_key(), a.canonical_key());
        // IN lists are order- and duplicate-insensitive.
        let in1 = Predicate::is_in("name", ["AA", "JB", "AA"]);
        let in2 = Predicate::is_in("name", ["JB", "AA"]);
        assert_eq!(in1.canonical_key(), in2.canonical_key());
    }

    #[test]
    fn canonical_key_separates_distinct_predicates() {
        let keys = [
            Predicate::True.canonical_key(),
            Predicate::eq("name", "AA").canonical_key(),
            Predicate::eq("name", "JB").canonical_key(),
            // A string that *looks* like the rendered int must not collide
            // with the int, nor AND with OR over the same operands.
            Predicate::eq("name", "i1").canonical_key(),
            Predicate::eq("name", Value::Int(1)).canonical_key(),
            Predicate::eq("delay", 30.0).canonical_key(),
            Predicate::ge("delay", 30.0).canonical_key(),
            Predicate::le("delay", 30.0).canonical_key(),
            Predicate::between("delay", 30.0, 30.0).canonical_key(),
            Predicate::eq("name", "AA").not().canonical_key(),
            Predicate::eq("name", "AA")
                .and(Predicate::eq("name", "JB"))
                .canonical_key(),
            Predicate::eq("name", "AA")
                .or(Predicate::eq("name", "JB"))
                .canonical_key(),
        ];
        let mut unique = keys.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "keys must be distinct: {keys:?}");
    }

    #[test]
    fn canonical_key_equal_predicates_evaluate_identically() {
        // The cache-safety property: same key ⇒ same bitmap.
        let t = table();
        let idx = indexed(&t, &["name", "delay"]);
        let p1 = Predicate::eq("name", "AA").and(Predicate::ge("delay", 20.0));
        let p2 = Predicate::ge("delay", 20.0).and(Predicate::eq("name", "AA"));
        assert_eq!(p1.canonical_key(), p2.canonical_key());
        assert_eq!(
            p1.evaluate(&t, &idx).iter_ones().collect::<Vec<_>>(),
            p2.evaluate(&t, &idx).iter_ones().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "non-numeric")]
    fn range_on_string_panics() {
        let t = table();
        let _ = Predicate::ge("name", 1.0).matches_row(&t, 0);
    }
}
