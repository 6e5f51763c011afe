//! Binary table persistence.
//!
//! A compact on-disk format so loaded relations survive process restarts
//! without re-ingesting CSV — a schema over [`crate::codec`], which owns
//! the primitives and the hardening rules:
//!
//! ```text
//! magic "NTBL" | version u32 | arity u32 | row_count u64
//! per column: name string | type u8 (0 Int / 1 Float / 2 Str)
//! per column payload:
//!   Int/Float: row_count * 8 bytes
//!   Str:       dict_len u32 | dict_len strings | row_count * 4 code bytes
//! trailer: fnv1a-64 checksum of everything before it
//! ```
//!
//! The reader checks magic, version and checksum, and caps every length
//! field against the bytes present, before building the table: truncated,
//! corrupted or crafted files fail with a [`StorageError`].

use crate::codec::{fnv1a64, CodecError, Dec, Enc};
use crate::schema::{ColumnDef, DataType, Schema};
use crate::table::{Table, TableBuilder};
use crate::value::Value;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"NTBL";
const VERSION: u32 = 1;

/// Errors from the binary codec.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a table file (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Checksum mismatch: the file is corrupt or truncated.
    Corrupt,
    /// Structurally invalid content (e.g. dictionary code out of range).
    Malformed(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::BadMagic => write!(f, "not a NEEDLETAIL table file"),
            StorageError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Corrupt => write!(f, "checksum mismatch (corrupt or truncated file)"),
            StorageError::Malformed(what) => write!(f, "malformed table file: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Malformed(match e {
            CodecError::Utf8 => "name or dictionary entry is not UTF-8",
            _ => "length fields disagree with the bytes present",
        })
    }
}

/// A length the format stores as `u32`; a table too large for it is an
/// error here, not a silently clamped (unreadable) file.
fn len_u32(n: usize, what: &'static str) -> Result<u32, StorageError> {
    u32::try_from(n).map_err(|_| StorageError::Malformed(what))
}

/// Serializes a table to any writer.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_table<W: Write>(table: &Table, mut writer: W) -> Result<(), StorageError> {
    let schema = table.schema();
    let rows = table.row_count();
    let mut e = Enc::default();
    e.bytes(MAGIC);
    e.u32(VERSION);
    e.u32(len_u32(schema.arity(), "arity")?);
    e.u64(rows);
    for col in schema.columns() {
        e.u32(len_u32(col.name.len(), "column name")?);
        e.bytes(col.name.as_bytes());
        e.u8(col.data_type as u8);
    }
    for (c, col) in schema.columns().iter().enumerate() {
        match col.data_type {
            DataType::Int => {
                for row in 0..rows {
                    let Value::Int(v) = table.value(row, c) else {
                        unreachable!("schema says Int");
                    };
                    e.i64(v);
                }
            }
            DataType::Float => {
                for row in 0..rows {
                    e.f64_bits(table.float_value(row, c));
                }
            }
            DataType::Str => {
                let dict = table.str_dict(c);
                e.u32(len_u32(dict.len(), "dictionary size")?);
                for entry in dict {
                    e.u32(len_u32(entry.len(), "dictionary entry")?);
                    e.bytes(entry.as_bytes());
                }
                for row in 0..rows {
                    e.u32(table.str_code(row, c));
                }
            }
        }
    }
    let mut file = e.into_bytes();
    let checksum = fnv1a64(&file);
    file.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&file)?;
    Ok(())
}

/// Deserializes a table from any reader, verifying the checksum.
///
/// # Errors
///
/// Returns a [`StorageError`] on I/O failure, format mismatch, or
/// corruption.
pub fn read_table<R: Read>(mut reader: R) -> Result<Table, StorageError> {
    let mut file = Vec::new();
    reader.read_to_end(&mut file)?;
    if !file.starts_with(MAGIC) {
        return Err(StorageError::BadMagic);
    }
    let (body, trailer) = file.split_at(file.len().saturating_sub(8));
    let mut d = Dec::new(body);
    d.bytes(MAGIC.len())?;
    let version = d.u32()?;
    if version != VERSION {
        return Err(StorageError::BadVersion(version));
    }
    if trailer != fnv1a64(body).to_le_bytes() {
        return Err(StorageError::Corrupt);
    }
    let arity = d.count(5)?;
    let rows = usize::try_from(d.u64()?).map_err(|_| StorageError::Malformed("row count"))?;
    if arity == 0 && rows > 0 {
        // No column bytes back the row count, so nothing below bounds it.
        return Err(StorageError::Malformed("rows without columns"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = d.str()?;
        columns.push(ColumnDef::new(name, tag_type(d.u8()?)?));
    }
    let schema = Schema::new(columns);

    // Column payloads arrive column-major; buffer then re-emit row-major
    // through the builder (simplest correct path; load is not a hot path).
    enum Payload {
        Int(Vec<i64>),
        Float(Vec<f64>),
        Str(Vec<String>, Vec<u32>),
    }
    let mut payloads = Vec::with_capacity(arity);
    for col in schema.columns() {
        payloads.push(match col.data_type {
            DataType::Int => Payload::Int(d.column(rows)?),
            DataType::Float => {
                let v: Vec<f64> = d.column(rows)?;
                if v.iter().any(|f| f.is_nan()) {
                    return Err(StorageError::Malformed("NaN float"));
                }
                Payload::Float(v)
            }
            DataType::Str => {
                let dict: Vec<String> = d.vec()?;
                let codes: Vec<u32> = d.column(rows)?;
                if codes.iter().any(|&code| code as usize >= dict.len()) {
                    return Err(StorageError::Malformed("dictionary code out of range"));
                }
                Payload::Str(dict, codes)
            }
        });
    }
    d.finish()?;
    drop(file); // the columns are decoded; don't hold the bytes through the rebuild

    let mut builder = TableBuilder::new(schema);
    for row in 0..rows {
        let mut values = Vec::with_capacity(payloads.len());
        for payload in &payloads {
            values.push(match payload {
                Payload::Int(v) => Value::Int(v[row]),
                Payload::Float(v) => Value::Float(v[row]),
                Payload::Str(dict, codes) => Value::Str(dict[codes[row] as usize].clone()),
            });
        }
        builder.push_row(values);
    }
    Ok(builder.finish())
}

fn tag_type(tag: u8) -> Result<DataType, StorageError> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        _ => Err(StorageError::Malformed("unknown type tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut b = TableBuilder::new(Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
            ColumnDef::new("year", DataType::Int),
        ]));
        for (n, d, y) in [
            ("AA", 30.5, 2008i64),
            ("JB", 15.0, 2008),
            ("AA", -3.25, 2007),
            ("ÜberAir", 1e9, 1999),
        ] {
            b.push_row(vec![n.into(), d.into(), Value::Int(y)]);
        }
        b.finish()
    }

    fn roundtrip(table: &Table) -> Vec<u8> {
        let mut buf = Vec::new();
        write_table(table, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_table();
        let bytes = roundtrip(&t);
        let back = read_table(bytes.as_slice()).unwrap();
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.row_count(), t.row_count());
        for row in 0..t.row_count() {
            for c in 0..t.schema().arity() {
                assert_eq!(back.value(row, c), t.value(row, c), "cell ({row}, {c})");
            }
        }
        // Dictionary structure survives too.
        assert_eq!(back.str_dict(0), t.str_dict(0));
    }

    /// `(len, fnv1a64)` of the sample table's file, pinned from the bytes
    /// the version-1 writer emitted before the codecs were unified: files
    /// already on disk must keep loading.
    #[test]
    fn golden_bytes_are_pinned() {
        let bytes = roundtrip(&sample_table());
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (164, 0x96d0_82b4_e9ca_cc69),
            "table file bytes drifted"
        );
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = TableBuilder::new(Schema::new(vec![ColumnDef::new("x", DataType::Int)])).finish();
        let bytes = roundtrip(&t);
        let back = read_table(bytes.as_slice()).unwrap();
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.schema().arity(), 1);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = roundtrip(&sample_table());
        bytes[0] = b'X';
        assert!(matches!(
            read_table(bytes.as_slice()),
            Err(StorageError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = roundtrip(&sample_table());
        bytes[4] = 99;
        assert!(matches!(
            read_table(bytes.as_slice()),
            Err(StorageError::BadVersion(99))
        ));
    }

    #[test]
    fn bit_flip_detected() {
        let mut bytes = roundtrip(&sample_table());
        // Flip a payload byte (past the header).
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x40;
        let err = read_table(bytes.as_slice());
        assert!(
            matches!(err, Err(StorageError::Corrupt | StorageError::Malformed(_))),
            "corruption slipped through: {err:?}"
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = roundtrip(&sample_table());
        let cut = &bytes[..bytes.len() - 5];
        assert!(matches!(
            read_table(cut),
            Err(StorageError::Io(_) | StorageError::Corrupt)
        ));
    }

    /// `body` plus a valid checksum trailer, so only the structural checks
    /// stand between a crafted length field and the allocator.
    fn stamped(body: &[u8]) -> Vec<u8> {
        let mut file = body.to_vec();
        file.extend_from_slice(&fnv1a64(body).to_le_bytes());
        file
    }

    #[test]
    fn hostile_length_fields_error_before_allocating() {
        // The 25-byte file that used to abort with `capacity overflow`:
        // one empty-named Int column and a row count of u64::MAX.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&1u32.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.push(0);
        assert_eq!(header.len(), 25);
        assert!(matches!(
            read_table(header.as_slice()),
            Err(StorageError::Corrupt)
        ));
        let err = read_table(stamped(&header).as_slice());
        assert!(matches!(err, Err(StorageError::Malformed(_))), "{err:?}");

        // Rows that no column backs would spin the row-major rebuild.
        let mut no_columns = header[..8].to_vec();
        no_columns.extend_from_slice(&0u32.to_le_bytes());
        no_columns.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_table(stamped(&no_columns).as_slice());
        assert!(matches!(err, Err(StorageError::Malformed(_))), "{err:?}");

        // Every u32 length field of a valid file, blown up to u32::MAX
        // under a re-stamped checksum. Offsets: 20-byte fixed header, then
        // 28 bytes of column definitions, then the Str column's dictionary.
        let good = roundtrip(&sample_table());
        let body = &good[..good.len() - 8];
        for (what, at) in [
            ("arity", 8),
            ("name_len", 20),
            ("dict_len", 48),
            ("entry len", 52),
        ] {
            let mut bad = body.to_vec();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let err = read_table(stamped(&bad).as_slice());
            assert!(
                matches!(err, Err(StorageError::Malformed(_))),
                "{what}: {err:?}"
            );
        }
        assert!(read_table(stamped(body).as_slice()).is_ok());
    }

    #[test]
    fn engine_works_on_reloaded_table() {
        use crate::engine::NeedleTail;
        use crate::predicate::Predicate;
        let bytes = roundtrip(&sample_table());
        let back = read_table(bytes.as_slice()).unwrap();
        let engine = NeedleTail::new(back, &["name"]).unwrap();
        let aggs = engine.scan("name", "delay", &Predicate::True).unwrap();
        let aa = aggs.iter().find(|a| a.group.to_string() == "AA").unwrap();
        assert_eq!(aa.count, 2);
        assert!((aa.mean().unwrap() - 13.625).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert!(StorageError::BadMagic.to_string().contains("NEEDLETAIL"));
        assert!(StorageError::Corrupt.to_string().contains("checksum"));
        assert!(StorageError::BadVersion(7).to_string().contains('7'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any table of random rows survives a write/read round trip
        /// bit-for-bit.
        #[test]
        fn roundtrip_arbitrary_tables(
            rows in proptest::collection::vec(
                (0usize..4, -1.0e12f64..1.0e12, proptest::num::i64::ANY),
                0..200,
            ),
        ) {
            let mut b = TableBuilder::new(Schema::new(vec![
                ColumnDef::new("g", DataType::Str),
                ColumnDef::new("x", DataType::Float),
                ColumnDef::new("n", DataType::Int),
            ]));
            for &(g, x, n) in &rows {
                b.push_row(vec![
                    Value::Str(format!("group-{g}")),
                    Value::Float(x),
                    Value::Int(n),
                ]);
            }
            let table = b.finish();
            let mut buf = Vec::new();
            write_table(&table, &mut buf).unwrap();
            let back = read_table(buf.as_slice()).unwrap();
            prop_assert_eq!(back.row_count(), table.row_count());
            for row in 0..table.row_count() {
                for c in 0..3 {
                    prop_assert_eq!(back.value(row, c), table.value(row, c));
                }
            }
        }

        /// Flipping any single payload byte is detected (checksum or
        /// structural validation) — never silently accepted with different
        /// content.
        #[test]
        fn any_single_bitflip_detected(flip_at in 12usize..500, bit in 0u8..8) {
            let mut b = TableBuilder::new(Schema::new(vec![
                ColumnDef::new("g", DataType::Str),
                ColumnDef::new("x", DataType::Float),
            ]));
            for i in 0..40 {
                b.push_row(vec![
                    Value::Str(format!("g{}", i % 3)),
                    Value::Float(f64::from(i)),
                ]);
            }
            let table = b.finish();
            let mut bytes = Vec::new();
            write_table(&table, &mut bytes).unwrap();
            let idx = flip_at % bytes.len();
            bytes[idx] ^= 1 << bit;
            match read_table(bytes.as_slice()) {
                Err(_) => {} // detected: good
                Ok(back) => {
                    // The flip hit the checksum trailer itself is impossible
                    // (then the checksum check fails); acceptance with
                    // identical content is also impossible since a bit
                    // changed upstream of the trailer... so any Ok here is
                    // a silent corruption.
                    let same = (0..table.row_count()).all(|r| {
                        (0..2).all(|c| back.value(r, c) == table.value(r, c))
                    });
                    prop_assert!(!same || idx >= bytes.len() - 8,
                        "silent corruption at byte {idx} bit {bit}");
                    prop_assert!(idx >= bytes.len() - 8 || !same);
                }
            }
        }
    }
}
