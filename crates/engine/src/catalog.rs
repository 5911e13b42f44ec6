//! Tables and the catalog.
//!
//! A [`Table`] is a named set of equally-long [`Column`]s (fully
//! decomposed storage, §II-B); the [`Catalog`] owns the tables plus the
//! declared foreign-key relationships. A decomposed column is held here in
//! its split form; its binding to the device lives in the `Database`.

use bwd_storage::{Column, DecomposedColumn, DecompositionSpec as Spec};
use bwd_types::{BwdError, FxHashMap, Result};

/// A named relational table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    index: FxHashMap<String, usize>,
    rows: usize,
}

impl Table {
    /// Build a table from named columns.
    ///
    /// # Errors
    /// Fails on duplicate column names or mismatched column lengths.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Column)>) -> Result<Self> {
        let name = name.into();
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut index = FxHashMap::default();
        for (i, (cname, col)) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(BwdError::InvalidArgument(format!(
                    "column {cname} has {} rows, expected {rows}",
                    col.len()
                )));
            }
            if index.insert(cname.clone(), i).is_some() {
                return Err(BwdError::InvalidArgument(format!(
                    "duplicate column name {cname}"
                )));
            }
        }
        Ok(Table {
            name,
            columns,
            index,
            rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i].1)
            .ok_or_else(|| BwdError::NotFound(format!("column {}.{name}", self.name)))
    }

    /// Whether the column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[(String, Column)] {
        &self.columns
    }

    /// Total modeled plain data volume in bytes.
    pub fn plain_bytes(&self) -> u64 {
        self.columns.iter().map(|(_, c)| c.plain_bytes()).sum()
    }
}

/// A declared foreign-key relationship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkDecl {
    /// Fact table.
    pub fact_table: String,
    /// Fact-side key column.
    pub fact_key: String,
    /// Dimension table.
    pub dim_table: String,
    /// Dimension-side (unique) key column.
    pub dim_key: String,
}

/// The schema catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: FxHashMap<String, Table>,
    fks: Vec<FkDecl>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table.
    ///
    /// # Errors
    /// Fails when a table of the same name exists.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.tables.contains_key(table.name()) {
            return Err(BwdError::InvalidArgument(format!(
                "table {} already exists",
                table.name()
            )));
        }
        self.tables.insert(table.name().to_string(), table);
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| BwdError::NotFound(format!("table {name}")))
    }

    /// Split `table.name` (both exist) by a spec `validate_spec` accepts, in
    /// place: handed over by value, a plain column is released as packed.
    pub(crate) fn decompose(&mut self, table: &str, name: &str, spec: &Spec) -> &DecomposedColumn {
        let t = self.tables.get_mut(table).expect("the table exists");
        let slot = &mut t.columns[t.index[name]].1;
        let plain = std::mem::replace(slot, Column::from_i32(vec![]));
        *slot = plain.decompose(spec).expect("the spec is validated");
        slot.split().expect("a decomposed column is split")
    }

    /// Register a foreign-key relationship (validated), in place of any
    /// declared from the same fact key: a fact key references one
    /// dimension.
    pub fn add_fk(&mut self, fk: FkDecl) -> Result<()> {
        let fact = self.table(&fk.fact_table)?;
        if !fact.has_column(&fk.fact_key) {
            return Err(BwdError::NotFound(format!(
                "column {}.{}",
                fk.fact_table, fk.fact_key
            )));
        }
        let dim = self.table(&fk.dim_table)?;
        if !dim.has_column(&fk.dim_key) {
            return Err(BwdError::NotFound(format!(
                "column {}.{}",
                fk.dim_table, fk.dim_key
            )));
        }
        self.fks
            .retain(|f| (&f.fact_table, &f.fact_key) != (&fk.fact_table, &fk.fact_key));
        self.fks.push(fk);
        Ok(())
    }

    /// The FK declaration from `fact_table.fact_key`, if any.
    pub fn fk_from(&self, fact_table: &str, fact_key: &str) -> Option<&FkDecl> {
        self.fks
            .iter()
            .find(|f| f.fact_table == fact_table && f.fact_key == fact_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2() -> Table {
        Table::new(
            "t",
            vec![
                ("a".into(), Column::from_i32(vec![1, 2, 3])),
                ("b".into(), Column::from_i32(vec![4, 5, 6])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn table_lookup_and_len() {
        let t = t2();
        assert_eq!(t.len(), 3);
        assert!(t.column("a").is_ok());
        assert!(t.column("z").is_err());
        assert_eq!(t.plain_bytes(), 24);
    }

    #[test]
    fn rejects_ragged_and_duplicate_columns() {
        assert!(Table::new(
            "t",
            vec![
                ("a".into(), Column::from_i32(vec![1])),
                ("b".into(), Column::from_i32(vec![1, 2])),
            ],
        )
        .is_err());
        assert!(Table::new(
            "t",
            vec![
                ("a".into(), Column::from_i32(vec![1])),
                ("a".into(), Column::from_i32(vec![2])),
            ],
        )
        .is_err());
    }

    #[test]
    fn catalog_tables_and_fks() {
        let mut cat = Catalog::new();
        cat.add_table(t2()).unwrap();
        assert!(cat.add_table(t2()).is_err(), "duplicate table");
        let dim = Table::new("d", vec![("k".into(), Column::from_i32(vec![1, 2]))]).unwrap();
        cat.add_table(dim).unwrap();
        cat.add_fk(FkDecl {
            fact_table: "t".into(),
            fact_key: "a".into(),
            dim_table: "d".into(),
            dim_key: "k".into(),
        })
        .unwrap();
        assert!(cat.fk_from("t", "a").is_some());
        assert!(cat.fk_from("t", "b").is_none());
        // Declaring the fact key again replaces the declaration.
        let to_b = FkDecl {
            fact_table: "t".into(),
            fact_key: "a".into(),
            dim_table: "t".into(),
            dim_key: "b".into(),
        };
        cat.add_fk(to_b.clone()).unwrap();
        assert_eq!(cat.fk_from("t", "a"), Some(&to_b));
        assert_eq!(cat.fks.len(), 1);
        // Missing column in FK declaration.
        assert!(cat
            .add_fk(FkDecl {
                fact_table: "t".into(),
                fact_key: "zzz".into(),
                dim_table: "d".into(),
                dim_key: "k".into(),
            })
            .is_err());
    }
}
