//! Binary table persistence.
//!
//! A compact little-endian on-disk format so loaded relations survive
//! process restarts without re-ingesting CSV:
//!
//! ```text
//! magic "NTBL" | version u32 | arity u32 | row_count u64
//! per column: name_len u32 | name bytes | type u8
//! per column payload:
//!   Int/Float: row_count * 8 bytes
//!   Str:       dict_len u32 | (len u32 | bytes)* | row_count * 4 code bytes
//! trailer: fnv1a-64 checksum of everything before it
//! ```
//!
//! The reader validates magic, version, and checksum before constructing
//! the table, so truncated or corrupted files fail loudly instead of
//! producing silently wrong aggregates.

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

/// FNV-1a 64-bit rolling checksum.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Writer that checksums everything it emits.
struct CheckedWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> CheckedWriter<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
}

/// Reader that checksums everything it consumes.
struct CheckedReader<R: Read> {
    inner: R,
    hash: Fnv1a,
}

impl<R: Read> CheckedReader<R> {
    fn new(inner: R) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }

    fn take(&mut self, buf: &mut [u8]) -> Result<(), StorageError> {
        self.inner.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }

    fn take_u32(&mut self) -> Result<u32, StorageError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn take_u64(&mut self) -> Result<u64, StorageError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Serializes a table to any writer.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_table<W: Write>(table: &Table, writer: W) -> Result<(), StorageError> {
    let mut w = CheckedWriter::new(writer);
    w.put(MAGIC)?;
    w.put_u32(VERSION)?;
    let arity =
        u32::try_from(table.schema().arity()).map_err(|_| StorageError::Malformed("arity"))?;
    w.put_u32(arity)?;
    w.put_u64(table.row_count())?;
    for col in table.schema().columns() {
        let name_len =
            u32::try_from(col.name.len()).map_err(|_| StorageError::Malformed("column name"))?;
        w.put_u32(name_len)?;
        w.put(col.name.as_bytes())?;
        w.put(&[type_tag(col.data_type)])?;
    }
    for (c, col) in table.schema().columns().iter().enumerate() {
        match col.data_type {
            DataType::Int => {
                for row in 0..table.row_count() {
                    let Value::Int(v) = table.value(row, c) else {
                        unreachable!("schema says Int");
                    };
                    w.put(&v.to_le_bytes())?;
                }
            }
            DataType::Float => {
                for row in 0..table.row_count() {
                    w.put(&table.float_value(row, c).to_le_bytes())?;
                }
            }
            DataType::Str => {
                let dict = table.str_dict(c);
                let dict_len = u32::try_from(dict.len())
                    .map_err(|_| StorageError::Malformed("dictionary size"))?;
                w.put_u32(dict_len)?;
                for entry in dict {
                    let entry_len = u32::try_from(entry.len())
                        .map_err(|_| StorageError::Malformed("dictionary entry"))?;
                    w.put_u32(entry_len)?;
                    w.put(entry.as_bytes())?;
                }
                for row in 0..table.row_count() {
                    w.put_u32(table.str_code(row, c))?;
                }
            }
        }
    }
    let checksum = w.hash.0;
    w.inner.write_all(&checksum.to_le_bytes())?;
    Ok(())
}

/// Deserializes a table from any reader, verifying the checksum.
///
/// # Errors
///
/// Returns a [`StorageError`] on I/O failure, format mismatch, or
/// corruption.
pub fn read_table<R: Read>(reader: R) -> Result<Table, StorageError> {
    let mut r = CheckedReader::new(reader);
    let mut magic = [0u8; 4];
    r.take(&mut magic)?;
    if &magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = r.take_u32()?;
    if version != VERSION {
        return Err(StorageError::BadVersion(version));
    }
    let arity = r.take_u32()? as usize;
    let row_count = r.take_u64()?;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name_len = r.take_u32()? as usize;
        let mut name = vec![0u8; name_len];
        r.take(&mut name)?;
        let name =
            String::from_utf8(name).map_err(|_| StorageError::Malformed("column name utf8"))?;
        let mut tag = [0u8; 1];
        r.take(&mut tag)?;
        columns.push(ColumnDef::new(name, tag_type(tag[0])?));
    }
    let schema = Schema::new(columns);

    // Column payloads arrive column-major; buffer then re-emit row-major
    // through the builder (simplest correct path; load is not a hot path).
    enum Payload {
        Int(Vec<i64>),
        Float(Vec<f64>),
        Str(Vec<String>),
    }
    let mut payloads = Vec::with_capacity(schema.arity());
    for col in schema.columns() {
        match col.data_type {
            DataType::Int => {
                let mut v = Vec::with_capacity(row_count as usize);
                for _ in 0..row_count {
                    let mut b = [0u8; 8];
                    r.take(&mut b)?;
                    v.push(i64::from_le_bytes(b));
                }
                payloads.push(Payload::Int(v));
            }
            DataType::Float => {
                let mut v = Vec::with_capacity(row_count as usize);
                for _ in 0..row_count {
                    let mut b = [0u8; 8];
                    r.take(&mut b)?;
                    let f = f64::from_le_bytes(b);
                    if f.is_nan() {
                        return Err(StorageError::Malformed("NaN float"));
                    }
                    v.push(f);
                }
                payloads.push(Payload::Float(v));
            }
            DataType::Str => {
                let dict_len = r.take_u32()? as usize;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let len = r.take_u32()? as usize;
                    let mut bytes = vec![0u8; len];
                    r.take(&mut bytes)?;
                    dict.push(
                        String::from_utf8(bytes)
                            .map_err(|_| StorageError::Malformed("dict entry utf8"))?,
                    );
                }
                let mut v = Vec::with_capacity(row_count as usize);
                for _ in 0..row_count {
                    let code = r.take_u32()? as usize;
                    let entry = dict
                        .get(code)
                        .ok_or(StorageError::Malformed("dictionary code out of range"))?;
                    v.push(entry.clone());
                }
                payloads.push(Payload::Str(v));
            }
        }
    }
    let computed = r.hash.0;
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != computed {
        return Err(StorageError::Corrupt);
    }

    let mut builder = TableBuilder::new(schema);
    for row in 0..row_count as usize {
        let mut values = Vec::with_capacity(payloads.len());
        for payload in &payloads {
            values.push(match payload {
                Payload::Int(v) => Value::Int(v[row]),
                Payload::Float(v) => Value::Float(v[row]),
                Payload::Str(v) => Value::Str(v[row].clone()),
            });
        }
        builder.push_row(values);
    }
    Ok(builder.finish())
}

fn type_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
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
        let mut hash = Fnv1a::new();
        hash.update(&bytes);
        assert_eq!(
            (bytes.len(), hash.0),
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
