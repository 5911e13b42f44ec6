//! Tables and the catalog.
//!
//! A [`Table`] is a named set of equally-long [`Column`]s (fully
//! decomposed storage, §II-B); the [`Catalog`] owns the tables plus the
//! declared foreign-key relationships. A decomposed column is held here in
//! its split form; its binding to the device lives in the `Database`.

use crate::morsel::{partition_ranges_min, run_parts};
use bwd_storage::encoding::decode;
use bwd_storage::{pieces::chunk_count, Column, DecomposedColumn, DecompositionSpec as Spec};
use bwd_types::{BwdError, FxHashMap, Result};
use std::sync::{Mutex, OnceLock};

/// A named relational table.
#[derive(Debug)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    index: FxHashMap<String, usize>,
    rows: usize,
    /// Built on first use: payloads never change once a table is created.
    occupancy: OnceLock<Occupancy>,
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
            occupancy: OnceLock::new(),
        })
    }

    /// The cells of the smallest-domain columns the rows occupy.
    pub fn occupancy(&self) -> &Occupancy {
        let of = || Occupancy::of(self, chunk_count(self.rows));
        self.occupancy.get_or_init(of)
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
}

/// Cells an [`Occupancy`] may cover: its bitmap is at most 8 KiB.
const OCCUPANCY_CELLS: u64 = 1 << 16;

/// Which cells of a table's smallest-domain columns its rows occupy — a
/// cell is one combination of their payloads, one bit — so the exact
/// number of groups of every key set among them (ARCHITECTURE.md,
/// "Predict"). The columns are taken by domain ascending while their domains
/// multiply to at most `OCCUPANCY_CELLS`.
#[derive(Debug)]
pub struct Occupancy {
    /// Per covered column: its name, least payload and domain.
    cols: Vec<(String, i64, u64)>,
    /// One bit per cell, the last column varying fastest.
    pub(crate) cells: Vec<u64>,
    /// Distinct projections counted so far, by key-set mask.
    counted: Mutex<FxHashMap<u64, u64>>,
}

impl Occupancy {
    /// The statistic of `table`: up to `pieces` runs of 4 096-row blocks each
    /// fill a bitmap on an [`bwd_storage::pieces::in_pieces`] worker, OR-merged.
    pub(crate) fn of(table: &Table, pieces: usize) -> Occupancy {
        let span = |c: &Column| {
            c.payload_min_max()
                .map_or((0, 1), |(lo, hi)| (lo, hi.abs_diff(lo).saturating_add(1)))
        };
        let mut by_domain: Vec<_> = table.columns.iter().map(|(n, c)| (n, c, span(c))).collect();
        by_domain.sort_by_key(|&(_, _, (_, domain))| domain);
        let (mut cells, mut cols) = (1u64, Vec::new());
        for (name, col, (lo, domain)) in by_domain.into_iter().take(64) {
            match cells.checked_mul(domain).filter(|&n| n <= OCCUPANCY_CELLS) {
                Some(n) => cells = n,
                None => break,
            }
            cols.push((name.clone(), col, lo, domain));
        }
        let pieces = partition_ranges_min(table.rows.div_ceil(4096), pieces, 1);
        let mut bits = vec![0u64; cells.div_ceil(64) as usize];
        for part in run_parts(&pieces, |_, blocks| {
            let (mut bits, mut encoded, mut cell) = (bits.clone(), vec![0; 4096], vec![0u64; 4096]);
            for start in blocks.map(|b| b * 4096) {
                let n = (table.rows - start).min(4096);
                cell[..n].fill(0);
                for &(_, col, lo, domain) in &cols {
                    col.encoded_range(start, &mut encoded[..n]);
                    for (c, &e) in cell.iter_mut().zip(&encoded[..n]) {
                        *c = *c * domain + decode(e, col.dtype()).abs_diff(lo);
                    }
                }
                (cell[..n].iter()).for_each(|&c| bits[c as usize / 64] |= 1 << (c % 64));
            }
            bits
        }) {
            bits.iter_mut().zip(part).for_each(|(b, p)| *b |= p);
        }
        Occupancy {
            cols: cols
                .into_iter()
                .map(|(n, _, lo, d)| (n.clone(), lo, d))
                .collect(),
            cells: bits,
            counted: Mutex::default(),
        }
    }

    /// The distinct combinations of `keys` the rows hold: the occupied
    /// cells' distinct projections onto them; `None` unless every key is
    /// covered.
    pub fn groups(&self, keys: &[String]) -> Option<u64> {
        let at = |k: &String| self.cols.iter().position(|c| c.0 == *k);
        let mask = keys.iter().try_fold(0u64, |m, k| Some(m | 1 << at(k)?))?;
        // An entry is whole once inserted, so a poisoned lock's map is sound.
        let mut counted = self.counted.lock().unwrap_or_else(|e| e.into_inner());
        let count = counted.entry(mask).or_insert_with(|| {
            let width: u64 = (self.cols.iter().enumerate())
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, c)| c.2)
                .product();
            let mut seen = vec![0u64; width.div_ceil(64) as usize];
            for (w, &word) in self.cells.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let (mut rest, mut at) = ((w * 64) as u64 + word.trailing_zeros() as u64, 0);
                    word &= word - 1;
                    let mut radix = 1;
                    for (i, &(_, _, domain)) in self.cols.iter().enumerate().rev() {
                        if mask >> i & 1 == 1 {
                            at += rest % domain * radix;
                            radix *= domain;
                        }
                        rest /= domain;
                    }
                    seen[at as usize / 64] |= 1 << (at % 64);
                }
            }
            seen.iter().map(|w| u64::from(w.count_ones())).sum()
        });
        Some(*count)
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
