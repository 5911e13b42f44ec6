//! Synthetic GPS trace generator — the Table I spatial workload.
//!
//! The paper evaluates on ~250 M proprietary navigation fixes (generated
//! per Bösche et al., TPCTC 2012: "Scalable Generation Of Synthetic GPS
//! Traces With Real-Life Data Characteristics"). That data is not
//! available, so this module synthesizes the closest equivalent that
//! exercises the same code paths: trips between hotspot cities inside the
//! paper's exact bounding box (lon −12.62427..29.64975, lat
//! 27.09371..70.13643), with dense random-walk fixes along each trip.
//! The coordinate ranges matter — they force wide (≥23-bit) value domains
//! that limit prefix compression to roughly the paper's 25 % (§VI-C2) and
//! make the full-resolution data exceed a 2 GB device at paper scale.
//!
//! Schema (Table I): `trips(tripid int, lon decimal(8,5), lat
//! decimal(7,5), time int)`.

use crate::rng::Xoshiro;
use bwd_storage::pieces::{chunk_count, Row};
use bwd_storage::{Column, Payload, I24};
use bwd_types::DataType;

/// The paper's coordinate bounding box, scaled by 1e5 (payload domain).
pub const LON_MIN: i64 = -1_262_427;
/// Maximum longitude payload.
pub const LON_MAX: i64 = 2_964_975;
/// Minimum latitude payload.
pub const LAT_MIN: i64 = 2_709_371;
/// Maximum latitude payload.
pub const LAT_MAX: i64 = 7_013_643;

/// Hotspot city centers `(lon, lat)` in the scaled domain — population
/// weight decays with index (Zipf-ish), giving the skewed density real
/// traces show.
const CITIES: [(i64, i64); 12] = [
    (236_950, 4_885_660),   // Paris-ish
    (1_340_000, 5_252_000), // Berlin-ish
    (-370_000, 5_150_000),  // London-ish
    (490_000, 5_237_000),   // Amsterdam-ish
    (1_640_000, 4_808_000), // Vienna-ish
    (912_000, 4_567_000),   // Milan-ish
    (-566_000, 4_040_000),  // Madrid-ish
    (2_102_000, 5_223_000), // Warsaw-ish
    (1_247_000, 4_183_000), // Rome-ish
    (1_805_000, 5_932_000), // Stockholm-ish
    (-912_000, 3_858_000),  // Lisbon-ish
    (2_801_000, 4_102_000), // Istanbul-ish
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SpatialConfig {
    /// Total number of GPS fixes (the paper: ~250 M).
    pub fixes: usize,
    /// Average fixes per trip; 0 makes every trip one fix.
    pub fixes_per_trip: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SpatialConfig {
    fn default() -> Self {
        SpatialConfig {
            fixes: 1_000_000,
            fixes_per_trip: 200,
            seed: 0x6F5,
        }
    }
}

impl SpatialConfig {
    /// A configuration with the given number of fixes.
    pub fn fixes(n: usize) -> Self {
        SpatialConfig {
            fixes: n,
            ..Default::default()
        }
    }
}

/// The generated `trips` table (Table I schema).
pub struct TripsTable {
    /// `tripid` — trip identifier.
    pub tripid: Column,
    /// `lon` — decimal(8,5) longitude.
    pub lon: Column,
    /// `lat` — decimal(7,5) latitude.
    pub lat: Column,
    /// `time` — seconds since trip start epoch.
    pub time: Column,
}

/// Where the fix stream stands, beside its generator: `start` fixes
/// precede the trip, which ends at `step == len`.
#[derive(Clone, Copy, Default)]
struct Trip {
    id: i32,
    start: usize,
    clock: i64,
    from: (i64, i64),
    to: (i64, i64),
    step: usize,
    len: usize,
}

impl Trip {
    /// The next fix from `rng` as stored — `tripid`, `lon`, `lat`, `time`:
    /// the one copy of the draw sequence, which the checkpoint walk drops
    /// with every value but the draws and the trip.
    #[inline]
    fn fix(&mut self, rng: &mut Xoshiro, cfg: &SpatialConfig) -> (i32, I24, I24, i32) {
        // Zipf-weighted city pair: earlier cities are denser.
        let pick = |r: &mut Xoshiro| {
            let u = r.unit_f64();
            CITIES[((CITIES.len() as f64) * u * u) as usize % CITIES.len()]
        };
        if self.step == self.len {
            (self.id, self.start) = (self.id + 1, self.start + self.len);
            (self.from, self.to) = (pick(rng), pick(rng));
            // At 0 fixes a trip, `below(1)`: still one draw, and length 1.
            let spread = (2 * cfg.fixes_per_trip as u64).max(1);
            let len = 1 + rng.below(spread) as usize;
            (self.step, self.len) = (0, len.min(cfg.fixes - self.start));
        }
        // Walk from source toward target with GPS jitter.
        let ((sx, sy), (tx, ty)) = (self.from, self.to);
        let f = self.step as f64 / self.len as f64;
        let x = (sx as f64 + (tx - sx) as f64 * f) as i64 + rng.range_i64(-4_000, 4_000);
        let y = (sy as f64 + (ty - sy) as f64 * f) as i64 + rng.range_i64(-4_000, 4_000);
        self.clock += 1 + rng.below(10) as i64;
        self.step += 1;
        let (lon, lat) = (x.clamp(LON_MIN, LON_MAX), y.clamp(LAT_MIN, LAT_MAX));
        (self.id, I24::cut(lon), I24::cut(lat), self.clock as i32)
    }
}

/// Generate the spatial workload.
pub fn gen_trips(cfg: &SpatialConfig) -> TripsTable {
    gen_trips_in(cfg, chunk_count(cfg.fixes))
}

/// [`gen_trips`] in `chunks` pieces ([`Row::checkpoint_fill`]): the
/// cursor at a piece's start is the generator and the trip there.
pub(crate) fn gen_trips_in(cfg: &SpatialConfig, chunks: usize) -> TripsTable {
    let start = (Xoshiro::seed(cfg.seed), Trip::default());
    let (tripid, lon, lat, time) =
        Row::checkpoint_fill(cfg.fixes, chunks, start, |(rng, at)| at.fix(rng, cfg));

    // Coordinates are built in the 3 bytes their 23-bit domains need: no
    // wider vector to narrow afterwards. `tripid` and `time` grow with the
    // fixes, so they arrive as `i32` and narrow once, in `Column`.
    let coordinate = |precision, vals: Vec<I24>| {
        let dtype = DataType::Decimal {
            precision,
            scale: 5,
        };
        Column::from_data(dtype, vals.into())
            .expect("clamped to the box: |lon| < 10^8, |lat| < 10^7")
    };
    TripsTable {
        tripid: Column::from_i32(tripid),
        lon: coordinate(8, lon),
        lat: coordinate(7, lat),
        time: Column::from_i32(time),
    }
}

impl TripsTable {
    /// As named columns for `Database::create_table`.
    pub fn into_columns(self) -> Vec<(String, Column)> {
        vec![
            ("tripid".into(), self.tripid),
            ("lon".into(), self.lon),
            ("lat".into(), self.lat),
            ("time".into(), self.time),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_the_bounding_box() {
        let t = gen_trips(&SpatialConfig {
            fixes: 50_000,
            fixes_per_trip: 100,
            seed: 3,
        });
        assert_eq!(t.lon.len(), 50_000);
        let (lo, hi) = t.lon.payload_min_max().unwrap();
        assert!(lo >= LON_MIN && hi <= LON_MAX);
        let (lo, hi) = t.lat.payload_min_max().unwrap();
        assert!(lo >= LAT_MIN && hi <= LAT_MAX);
    }

    #[test]
    fn uses_a_wide_range_limiting_prefix_compression() {
        // The whole point of the spatial dataset: coordinates span a wide
        // domain, so the decomposed approximation stays wide (§VI-C2).
        let t = gen_trips(&SpatialConfig {
            fixes: 200_000,
            fixes_per_trip: 150,
            seed: 5,
        });
        let (lo, hi) = t.lon.payload_min_max().unwrap();
        assert!(
            (hi - lo) > (LON_MAX - LON_MIN) / 2,
            "trips should span most of the longitude range"
        );
    }

    #[test]
    fn trips_are_contiguous_and_times_monotone() {
        let t = gen_trips(&SpatialConfig {
            fixes: 10_000,
            fixes_per_trip: 50,
            seed: 1,
        });
        let ids = t.tripid.payloads();
        // Trip ids are non-decreasing (fixes of one trip are contiguous).
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
        let times = t.time.payloads();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic() {
        let cfg = SpatialConfig {
            fixes: 5_000,
            fixes_per_trip: 50,
            seed: 9,
        };
        assert_eq!(
            gen_trips(&cfg).lon.payloads(),
            gen_trips(&cfg).lon.payloads()
        );
    }

    /// Every column the same — type, stored width, payloads and extrema —
    /// whether one thread fills it or 2, 3 or 7 pieces do; with trips
    /// short beside the pieces and trips spanning several cuts.
    #[test]
    fn the_pieces_change_no_fix() {
        for fixes_per_trip in [50, 5_000] {
            let cfg = SpatialConfig {
                fixes: 20_000,
                fixes_per_trip,
                seed: 17,
            };
            let one = gen_trips_in(&cfg, 1).into_columns();
            for chunks in [2, 3, 7] {
                let got = gen_trips_in(&cfg, chunks).into_columns();
                for ((name, a), (_, b)) in one.iter().zip(&got) {
                    let tag = format!("{name}, {fixes_per_trip} a trip, {chunks} pieces");
                    assert_eq!(a.dtype(), b.dtype(), "{tag}");
                    assert_eq!(a.plain(), b.plain(), "{tag}");
                    assert_eq!(a.payload_min_max(), b.payload_min_max(), "{tag}");
                }
            }
        }
    }

    /// `fixes_per_trip: 0` makes every trip one fix, in debug and release
    /// builds alike, and a trip still draws its length.
    #[test]
    fn zero_fixes_per_trip_is_one_fix_a_trip() {
        let cfg = SpatialConfig {
            fixes: 3_000,
            fixes_per_trip: 0,
            seed: 4,
        };
        let t = gen_trips_in(&cfg, 3);
        assert_eq!(t.tripid.payloads(), (1..=3_000).collect::<Vec<i64>>());
        // Each trip drew its pair of cities, a length and one fix.
        let mut rng = Xoshiro::seed(4);
        for _ in 0..5 {
            rng.next_u64();
        }
        let ticks = 1 + rng.below(10) as i64;
        assert_eq!(t.time.payload(0), ticks);
        assert_eq!(t.lon.len(), 3_000);
    }

    #[test]
    fn query_box_selects_some_but_not_all() {
        let t = gen_trips(&SpatialConfig {
            fixes: 300_000,
            fixes_per_trip: 150,
            seed: 12,
        });
        // The paper's Table I box, as payloads.
        let ((lon_lo, lon_hi), (lat_lo, lat_hi)) = ((268_288, 270_228), (5_042_220, 5_044_850));
        let lons = t.lon.payloads();
        let lats = t.lat.payloads();
        let matches = lons
            .iter()
            .zip(&lats)
            .filter(|(&x, &y)| x >= lon_lo && x <= lon_hi && y >= lat_lo && y <= lat_hi)
            .count();
        assert!(matches < t.lon.len());
    }
}
