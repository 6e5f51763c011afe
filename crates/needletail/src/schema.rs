//! Relation schemas.

use std::fmt;

/// Column data types supported by the engine. The discriminant is the
/// type byte of the table file ([`crate::storage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int = 0,
    /// 64-bit float.
    Float = 1,
    /// Dictionary-encoded UTF-8 string.
    Str = 2,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within the schema.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl ColumnDef {
    /// Creates a column definition.
    #[must_use]
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics if two columns share a name.
    #[must_use]
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|d| d.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
        }
        Self { columns }
    }

    /// The column definitions in order.
    #[must_use]
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column with the given name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The definition of the named column.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup() {
        let s = Schema::new(vec![
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("delay", DataType::Float),
        ]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column_index("delay"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("name").unwrap().data_type, DataType::Str);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_names() {
        let _ = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("a", DataType::Float),
        ]);
    }

    #[test]
    fn display_types() {
        assert_eq!(DataType::Int.to_string(), "INT");
        assert_eq!(DataType::Float.to_string(), "FLOAT");
        assert_eq!(DataType::Str.to_string(), "STR");
    }
}
