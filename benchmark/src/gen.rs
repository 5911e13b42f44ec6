//! Seeded workload generator: `--seed` decides the data seeds and the
//! query parameters, and nothing else. The program under test only ever
//! sees the generated SQL text.
//!
//! One input is the same for every seed: the TPC-H tables ([`TPCH_SEED`]).
//! Q1/Q6/Q14 have no seeded parameter, and on 3 M generated rows Q6's
//! simulated cost moves 0.1–0.2 % from one data seed to the next — more
//! than the 0.1 % bound on `sim_ms_per_query`, which is there to catch a
//! change of the cost model, not sampling noise.

use waste_not::types::SplitMix64;

/// TPC-H Q1 (text as in `crates/bench/src/evaluation.rs`).
pub const Q1: &str = "select l_returnflag, l_linestatus, \
     sum(l_quantity) as sum_qty, \
     sum(l_extendedprice) as sum_base_price, \
     sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
     sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
     avg(l_quantity) as avg_qty, \
     avg(l_extendedprice) as avg_price, \
     avg(l_discount) as avg_disc, \
     count(*) as count_order \
     from lineitem \
     where l_shipdate <= date '1998-12-01' - interval '90' day \
     group by l_returnflag, l_linestatus";

/// TPC-H Q6.
pub const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue \
     from lineitem \
     where l_shipdate >= date '1994-01-01' \
     and l_shipdate < date '1994-01-01' + interval '1' year \
     and l_discount between 0.05 and 0.07 \
     and l_quantity < 24";

/// TPC-H Q14 (promo / total revenue).
pub const Q14: &str = "select \
     sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo_revenue, \
     sum(l_extendedprice * (1 - l_discount)) as total_revenue \
     from lineitem, part \
     where l_partkey = p_partkey \
     and l_shipdate >= date '1995-09-01' \
     and l_shipdate < date '1995-09-01' + interval '1' month";

/// Seed of the TPC-H generator, whatever `--seed` says (see above): the
/// generator's own default.
pub const TPCH_SEED: u64 = 0x7C_41;
/// Rows of the `small` probe table.
pub const SMALL_ROWS: usize = 16_000;
/// `small.a` holds a permutation of `0..SMALL_ROWS` spread by this
/// stride (plus sub-stride noise), so the 24/8 split leaves real
/// residual bits for the refine step.
pub const SMALL_STRIDE: i64 = 4096;
/// Distinct probe statements per run; requests cycle through them.
pub const PROBE_VARIANTS: usize = 64;
/// The scan cycle: S = spatial box, 6/14/1 = TPC-H query.
pub const SCAN_CYCLE: [Class; 16] = {
    use Class::{Q1, Q14, Q6, S};
    [S, Q6, Q14, S, Q6, Q14, S, Q6, Q14, S, Q6, Q14, S, Q6, S, Q1]
};

/// Query class: latencies are never pooled across classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `count(*)` over a 1 % range of `small`.
    Probe,
    /// The Table I spatial box, longitude shifted by a seeded offset.
    S,
    /// TPC-H Q6.
    Q6,
    /// TPC-H Q14.
    Q14,
    /// TPC-H Q1.
    Q1,
}

impl Class {
    /// Lower-case label used in metric names and reports.
    pub fn label(self) -> &'static str {
        match self {
            Class::Probe => "probe",
            Class::S => "S",
            Class::Q6 => "q6",
            Class::Q14 => "q14",
            Class::Q1 => "q1",
        }
    }
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Op {
    /// Query class.
    pub class: Class,
    /// Index into the run's distinct statements ([`Plan::statements`]).
    pub statement: usize,
}

/// Everything a run derives from its seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of the spatial generator.
    pub spatial_seed: u64,
    /// Seed of the `small` table.
    pub small_seed: u64,
    /// Distinct statements: (class, SQL text).
    pub statements: Vec<(Class, String)>,
    /// The 16-op scan cycle over [`Plan::statements`].
    pub scan_cycle: Vec<Op>,
    /// The probe requests, in send order, cycled as often as needed.
    pub probes: Vec<Op>,
}

/// The Table I box in 1e-5 degrees: `((lon_lo, lon_hi), (lat_lo, lat_hi))`.
pub const TABLE1_BOX: ((i64, i64), (i64, i64)) = ((268_288, 270_228), (5_042_220, 5_044_850));
/// Largest seeded longitude shift of the box, in 1e-5 degrees.
const MAX_LON_SHIFT: i64 = 2_000;

fn deg(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    format!("{sign}{}.{:05}", v.abs() / 100_000, v.abs() % 100_000)
}

/// The spatial statement with the box shifted east by `shift`.
pub fn spatial_sql(shift: i64) -> String {
    let ((lon_lo, lon_hi), (lat_lo, lat_hi)) = TABLE1_BOX;
    format!(
        "select count(lon) from trips where lon between {} and {} and lat between {} and {}",
        deg(lon_lo + shift),
        deg(lon_hi + shift),
        deg(lat_lo),
        deg(lat_hi)
    )
}

/// The probe statement over `[lo, lo + 1 %]` of `small.a`'s domain.
pub fn probe_sql(lo: i64) -> String {
    let width = SMALL_ROWS as i64 * SMALL_STRIDE / 100;
    format!(
        "select count(*) from small where a between {lo} and {}",
        lo + width - 1
    )
}

impl Plan {
    /// Derive data seeds, statements and op lists from `seed`.
    pub fn from_seed(seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        let spatial_seed = rng.next_u64();
        let small_seed = rng.next_u64();

        let mut statements: Vec<(Class, String)> = Vec::new();
        let mut scan_cycle = Vec::new();
        let tpch: Vec<usize> = [(Class::Q6, Q6), (Class::Q14, Q14), (Class::Q1, Q1)]
            .into_iter()
            .map(|(class, sql)| {
                statements.push((class, sql.to_string()));
                statements.len() - 1
            })
            .collect();
        for class in SCAN_CYCLE {
            let statement = match class {
                Class::S => {
                    let shift = rng.below(2 * MAX_LON_SHIFT as u64 + 1) as i64 - MAX_LON_SHIFT;
                    statements.push((Class::S, spatial_sql(shift)));
                    statements.len() - 1
                }
                Class::Q6 => tpch[0],
                Class::Q14 => tpch[1],
                Class::Q1 => tpch[2],
                Class::Probe => unreachable!("the scan cycle holds no probes"),
            };
            scan_cycle.push(Op { class, statement });
        }

        let domain = SMALL_ROWS as i64 * SMALL_STRIDE;
        let probes = (0..PROBE_VARIANTS)
            .map(|_| {
                let lo = rng.below((domain - domain / 100) as u64) as i64;
                statements.push((Class::Probe, probe_sql(lo)));
                Op {
                    class: Class::Probe,
                    statement: statements.len() - 1,
                }
            })
            .collect();

        Plan {
            spatial_seed,
            small_seed,
            statements,
            scan_cycle,
            probes,
        }
    }

    /// The first statement of `class` (the one the layer replays use).
    ///
    /// # Panics
    /// Never for a plan built by [`Plan::from_seed`]: it holds every class.
    pub fn first_of(&self, class: Class) -> usize {
        self.statements
            .iter()
            .position(|(c, _)| *c == class)
            .expect("a generated plan holds every class")
    }

    /// FNV-1a over everything the program will be sent, in order: the
    /// determinism check compares this across runs of one seed.
    pub fn op_list_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for seed in [self.spatial_seed, TPCH_SEED, self.small_seed] {
            eat(&seed.to_le_bytes());
        }
        for op in self.scan_cycle.iter().chain(&self.probes) {
            eat(self.statements[op.statement].1.as_bytes());
            eat(&[0]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_hash() {
        let a = Plan::from_seed(42);
        let b = Plan::from_seed(42);
        assert_eq!(a.op_list_hash(), b.op_list_hash());
        assert_eq!(a.statements, b.statements);
        assert_eq!(a.scan_cycle, b.scan_cycle);
        let c = Plan::from_seed(43);
        assert_ne!(a.op_list_hash(), c.op_list_hash());
        assert_ne!(a.spatial_seed, c.spatial_seed);
    }

    #[test]
    fn scan_cycle_has_the_fixed_shape() {
        let p = Plan::from_seed(7);
        let classes: Vec<Class> = p.scan_cycle.iter().map(|o| o.class).collect();
        assert_eq!(classes, SCAN_CYCLE);
        assert_eq!(classes.iter().filter(|&&c| c == Class::S).count(), 6);
        assert_eq!(classes.iter().filter(|&&c| c == Class::Q1).count(), 1);
        for op in p.scan_cycle.iter().chain(&p.probes) {
            assert_eq!(p.statements[op.statement].0, op.class);
        }
        assert_eq!(p.probes.len(), PROBE_VARIANTS);
        assert_eq!(p.statements[p.first_of(Class::Q6)].1, Q6);
    }

    #[test]
    fn generated_sql_is_well_formed() {
        assert_eq!(
            spatial_sql(0),
            "select count(lon) from trips where lon between 2.68288 and 2.70228 \
             and lat between 50.42220 and 50.44850"
        );
        assert_eq!(deg(-5), "-0.00005");
        assert_eq!(
            probe_sql(1000),
            "select count(*) from small where a between 1000 and 656359"
        );
    }
}
