//! TPC-H subset generator.
//!
//! Generates the `lineitem` and `part` columns the evaluation queries
//! (Q1, Q6, Q14 — §VI-D) touch, with the distributions the paper's
//! analysis depends on:
//!
//! * `l_quantity`: 50 distinct values → 6 significant bits;
//! * `l_discount`: 0.00–0.10 in cents → ≤ 4 bits;
//! * `l_shipdate`: 2,526 distinct days → 12 bits;
//! * `p_type`: 125 distinct strings (5 × 5 × 5 syllables), 25 of them
//!   `PROMO*` — the dictionary-range rewrite target of Q14.
//!
//! Scale factor 1 ≈ 6 M lineitems / 200 K parts, linearly scaled.

use crate::rng::Xoshiro;
use bwd_storage::pieces::{chunk_count, Row};
use bwd_storage::{with_width, Column, ColumnData, Payload};
use bwd_types::{DataType, Date};

/// Deterministic generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// TPC-H scale factor (1.0 = 6M lineitems).
    pub scale: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.01,
            seed: 0x7C_41,
        }
    }
}

impl TpchConfig {
    /// A configuration at the given scale factor.
    pub fn scale(scale: f64) -> Self {
        TpchConfig {
            scale,
            ..Default::default()
        }
    }

    /// Number of lineitem rows.
    pub fn lineitems(&self) -> usize {
        (self.scale * 6_000_000.0).round().max(1.0) as usize
    }

    /// Number of part rows.
    pub fn parts(&self) -> usize {
        (self.scale * 200_000.0).round().max(125.0) as usize
    }
}

/// The five-syllable type vocabulary: 125 combinations, matching the
/// paper's "125 string values of the column" (§VI-D1).
const TYPES1: [&str; 5] = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "STANDARD"];
const TYPES2: [&str; 5] = ["ANODIZED", "BURNISHED", "BRUSHED", "PLATED", "POLISHED"];
const TYPES3: [&str; 5] = ["BRASS", "COPPER", "NICKEL", "STEEL", "TIN"];

/// First shippable day (TPC-H: 1992-01-02).
pub fn ship_epoch() -> Date {
    Date::from_ymd(1992, 1, 2)
}

/// Number of distinct ship dates (TPC-H: 2,526 days — 12 bits).
pub const SHIPDATE_DAYS: i64 = 2526;

/// The type of every TPC-H money column.
const DECIMAL_12_2: DataType = DataType::Decimal {
    precision: 12,
    scale: 2,
};

/// Generated `part` table columns.
pub struct PartTable {
    /// `p_partkey` — dense 1-based keys.
    pub p_partkey: Column,
    /// `p_type` — dictionary-encoded type strings.
    pub p_type: Column,
    /// `p_retailprice` — decimal(12,2).
    pub p_retailprice: Column,
}

/// TPC-H's retail price of part `key`, in cents: at most 90 000 +
/// 200 000 + 99 900 = 389 900.
fn retail_price(key: i64) -> i64 {
    90_000 + (key % 20_001) * 10 + (key % 1_000) * 100
}

/// Generate the `part` table. `p_type` is pushed in the byte its 125 codes
/// need; key and price, whose ranges grow with the scale up to SF 0.1,
/// arrive as `i32` and narrow once, in `Column`.
pub fn gen_part(cfg: &TpchConfig) -> PartTable {
    let n = cfg.parts();
    let mut rng = Xoshiro::seed(cfg.seed ^ 0x9A57);
    let mut keys = Vec::with_capacity(n);
    let mut types = Vec::with_capacity(n);
    let mut prices = Vec::with_capacity(n);
    // The 125 type strings are spelled once; a row is its three draws.
    let mut vocab = Vec::with_capacity(125);
    for t1 in TYPES1 {
        for t2 in TYPES2 {
            vocab.extend(TYPES3.map(|t3| format!("{t1} {t2} {t3}")));
        }
    }
    for i in 0..n {
        keys.push((i + 1) as i32);
        let (t1, t2, t3) = (rng.below(5), rng.below(5), rng.below(5));
        types.push(((t1 * 5 + t2) * 5 + t3) as i8); // 0..=124
        prices.push(retail_price((i + 1) as i64) as i32); // ≤ 389 900
    }
    PartTable {
        p_partkey: Column::from_i32(keys),
        p_type: Column::from_codes(&vocab, types).expect("three draws below 5 index the 125"),
        p_retailprice: Column::from_data(DECIMAL_12_2, prices.into())
            .expect("389 900 cents are 6 of 12 digits, in 3 of 8 bytes"),
    }
}

/// Generated `lineitem` table columns (the Q1/Q6/Q14 subset).
pub struct LineitemTable {
    /// `l_partkey` — foreign key into `part`.
    pub l_partkey: Column,
    /// `l_quantity` — 1..=50.
    pub l_quantity: Column,
    /// `l_extendedprice` — decimal(12,2).
    pub l_extendedprice: Column,
    /// `l_discount` — decimal(12,2), 0.00..=0.10.
    pub l_discount: Column,
    /// `l_tax` — decimal(12,2), 0.00..=0.08.
    pub l_tax: Column,
    /// `l_returnflag` — 'A' | 'N' | 'R'.
    pub l_returnflag: Column,
    /// `l_linestatus` — 'F' | 'O'.
    pub l_linestatus: Column,
    /// `l_shipdate` — 2,526-day domain.
    pub l_shipdate: Column,
}

/// The next row as stored — `l_partkey`, `l_quantity`, `l_extendedprice`,
/// `l_discount`, `l_tax`, `l_returnflag`, `l_linestatus`, `l_shipdate`:
/// the one copy of the draw sequence, which the checkpoint walk drops with
/// every value but the draws. Five draws, six when the row shipped by the
/// current date; `days` are the first ship date and that date. `K` holds
/// every key `1..=parts`.
#[inline]
fn line<K: Payload>(
    rng: &mut Xoshiro,
    parts: u64,
    days: [i64; 2],
) -> (K, i8, i32, i8, i8, i8, i8, i16) {
    let [epoch, currentdate] = days;
    let pk = 1 + rng.below(parts) as i64;
    let qty = rng.range_i64(1, 50);
    // extendedprice = qty * part retail price: ≤ 50 × 389 900 cents.
    let price = (qty * retail_price(pk)) as i32;
    let discount = rng.range_i64(0, 10) as i8;
    let tax = rng.range_i64(0, 8) as i8;
    let ship = epoch + rng.range_i64(0, SHIPDATE_DAYS - 1);
    // Codes into `RETURNFLAGS` and `LINESTATUSES`: "A" or "R" and "F" by
    // the current date, "N" and "O" after it. Only a shipped row draws its
    // flag, from a copy of the generator that the row keeps where it
    // shipped: half the rows ship, so a branch would miss on every other.
    let shipped = ship <= currentdate;
    let mut ahead = rng.clone();
    let flag = ahead.below(2) as i8;
    rng.take_if(shipped, &ahead);
    let (rflag, lstatus) = match shipped {
        true => (flag, 0),
        false => (2, 1),
    };
    let (pk, qty, ship) = (K::cut(pk), qty as i8, ship as i16);
    (pk, qty, price, discount, tax, rflag, lstatus, ship)
}

/// Flags as codes into these vocabularies, not one `&str` per row.
const RETURNFLAGS: [&str; 3] = ["A", "R", "N"];
const LINESTATUSES: [&str; 2] = ["F", "O"];

/// Generate the `lineitem` table. Every column is pushed in the width its
/// documented domain needs, so no wider vector exists to narrow: that of
/// `l_partkey`, `1..=parts`, grows with the scale and is the storage's own
/// pick ([`with_width!`]) before the fill.
pub fn gen_lineitem(cfg: &TpchConfig) -> LineitemTable {
    gen_lineitem_in(cfg, chunk_count(cfg.lineitems()))
}

/// [`gen_lineitem`] in `chunks` pieces ([`Row::checkpoint_fill`]): the
/// cursor at a piece's start is the generator there.
pub(crate) fn gen_lineitem_in(cfg: &TpchConfig, chunks: usize) -> LineitemTable {
    with_width!(1, cfg.parts() as i64, K => gen_lineitem_as::<K>(cfg, chunks))
}

/// [`gen_lineitem_in`] with `l_partkey` filled as `K`.
fn gen_lineitem_as<K: Payload>(cfg: &TpchConfig, chunks: usize) -> LineitemTable {
    let (n, parts) = (cfg.lineitems(), cfg.parts() as u64);
    // 1992-01-02 is day 8 036; the last ship date, day 10 561, fits `i16`.
    // The 1995-06-17 "current date" watershed drives returnflag/linestatus.
    let days = [ship_epoch(), Date::from_ymd(1995, 6, 17)].map(|d| d.days() as i64);
    let rng = Xoshiro::seed(cfg.seed);
    let (pk, qty, price, disc, tax, rflag, lstatus, ship) =
        Row::checkpoint_fill(n, chunks, rng, |rng| line::<K>(rng, parts, days));

    let decimal = |vals: ColumnData| {
        Column::from_data(DECIMAL_12_2, vals)
            .expect("19 495 000 cents are 8 of 12 digits, in 4 of 8 bytes")
    };
    LineitemTable {
        l_partkey: Column::from_data(DataType::Int32, pk.into())
            .expect("a scale of at most 2^31 - 1 parts"),
        l_quantity: Column::from_data(DataType::Int32, qty.into())
            .expect("one byte is narrower than an int's four"),
        l_extendedprice: decimal(price.into()),
        l_discount: decimal(disc.into()),
        l_tax: decimal(tax.into()),
        l_returnflag: Column::from_codes(&RETURNFLAGS, rflag).expect("codes 0..3"),
        l_linestatus: Column::from_codes(&LINESTATUSES, lstatus).expect("codes 0..2"),
        l_shipdate: Column::from_data(DataType::Date, ship.into())
            .expect("two bytes are narrower than a date's four"),
    }
}

impl LineitemTable {
    /// As named columns for `Database::create_table`.
    pub fn into_columns(self) -> Vec<(String, Column)> {
        vec![
            ("l_partkey".into(), self.l_partkey),
            ("l_quantity".into(), self.l_quantity),
            ("l_extendedprice".into(), self.l_extendedprice),
            ("l_discount".into(), self.l_discount),
            ("l_tax".into(), self.l_tax),
            ("l_returnflag".into(), self.l_returnflag),
            ("l_linestatus".into(), self.l_linestatus),
            ("l_shipdate".into(), self.l_shipdate),
        ]
    }
}

impl PartTable {
    /// As named columns for `Database::create_table`.
    pub fn into_columns(self) -> Vec<(String, Column)> {
        vec![
            ("p_partkey".into(), self.p_partkey),
            ("p_type".into(), self.p_type),
            ("p_retailprice".into(), self.p_retailprice),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_match_the_papers_bit_analysis() {
        let cfg = TpchConfig {
            scale: 0.005,
            seed: 1,
        };
        let li = gen_lineitem(&cfg);
        // l_quantity: 50 values.
        let (lo, hi) = li.l_quantity.payload_min_max().unwrap();
        assert!(lo >= 1 && hi <= 50);
        // l_discount: 11 cent-values 0..=10.
        let (lo, hi) = li.l_discount.payload_min_max().unwrap();
        assert!(lo >= 0 && hi <= 10);
        // l_shipdate: within the 2526-day domain.
        let (lo, hi) = li.l_shipdate.payload_min_max().unwrap();
        let epoch = ship_epoch().days() as i64;
        assert!(lo >= epoch && hi < epoch + SHIPDATE_DAYS);
        // Flags.
        let dict = li.l_returnflag.dictionary().unwrap();
        assert!(dict.iter().count() <= 3);
        let dict = li.l_linestatus.dictionary().unwrap();
        assert!(dict.iter().count() <= 2);
    }

    #[test]
    fn part_types_are_the_125_combinations() {
        let part = gen_part(&TpchConfig {
            scale: 0.05,
            seed: 2,
        });
        let dict = part.p_type.dictionary().unwrap();
        assert_eq!(dict.iter().count(), 125);
        // Q14's `like 'PROMO%'` is rewritten to one code range: the 25
        // PROMO types, all of them and nothing else, are contiguous.
        let (lo, hi) = dict.prefix_code_range("PROMO").unwrap();
        assert_eq!(hi - lo + 1, 25);
        for code in 0..dict.iter().count() as u32 {
            let promo = dict.value_of(code).starts_with("PROMO");
            assert_eq!(promo, (lo..=hi).contains(&code), "code {code}");
        }
        // And every row's code spells the type its three draws named.
        let (mut rng, n) = (Xoshiro::seed(2 ^ 0x9A57), part.p_type.len());
        for row in 0..n {
            let (t1, t2, t3) = (rng.below(5), rng.below(5), rng.below(5));
            let spelled = format!(
                "{} {} {}",
                TYPES1[t1 as usize], TYPES2[t2 as usize], TYPES3[t3 as usize]
            );
            assert_eq!(
                part.p_type.logical().value(part.p_type.payload(row)),
                bwd_types::Value::Str(spelled)
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TpchConfig {
            scale: 0.001,
            seed: 7,
        };
        let a = gen_lineitem(&cfg);
        let b = gen_lineitem(&cfg);
        assert_eq!(a.l_quantity.payloads(), b.l_quantity.payloads());
        assert_eq!(a.l_shipdate.payloads(), b.l_shipdate.payloads());
    }

    /// Every column the same — type, stored width, payloads, extrema and
    /// dictionary — whether one thread fills it or 2, 3 or 7 pieces do.
    #[test]
    fn the_pieces_change_no_row() {
        let cfg = TpchConfig {
            scale: 0.002,
            seed: 5,
        };
        let one = gen_lineitem_in(&cfg, 1).into_columns();
        for chunks in [2, 3, 7] {
            let got = gen_lineitem_in(&cfg, chunks).into_columns();
            for ((name, a), (_, b)) in one.iter().zip(&got) {
                assert_eq!(a.dtype(), b.dtype(), "{name}, {chunks} pieces");
                assert_eq!(a.plain(), b.plain(), "{name}, {chunks} pieces");
                assert_eq!(a.payload_min_max(), b.payload_min_max(), "{name}");
                assert_eq!(a.dictionary(), b.dictionary(), "{name}");
            }
        }
    }

    #[test]
    fn fk_targets_exist() {
        let cfg = TpchConfig {
            scale: 0.002,
            seed: 3,
        };
        let li = gen_lineitem(&cfg);
        let parts = cfg.parts() as i64;
        let (lo, hi) = li.l_partkey.payload_min_max().unwrap();
        assert!(lo >= 1 && hi <= parts);
    }

    #[test]
    fn extendedprice_is_quantity_times_retail() {
        let cfg = TpchConfig {
            scale: 0.001,
            seed: 11,
        };
        let li = gen_lineitem(&cfg);
        for i in 0..li.l_quantity.len().min(100) {
            let pk = li.l_partkey.payload(i);
            assert_eq!(
                li.l_extendedprice.payload(i),
                li.l_quantity.payload(i) * retail_price(pk)
            );
        }
    }
}
