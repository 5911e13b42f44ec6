//! Order-preserving payload encodings.
//!
//! Every column stores its logical values as primitive `i64` *payloads*
//! (ints as themselves, dates as day counts, decimals as scaled integers,
//! strings as ordered-dictionary codes). Decomposition, however, operates
//! on *unsigned* bit patterns: these functions map payloads to an unsigned
//! domain of the column's physical width such that payload order equals
//! unsigned integer order. Range predicates therefore commute with
//! encoding — the property the A&R predicate relaxation (§IV-B) relies on.

use bwd_types::DataType;

/// Physical width in bits of a column's stored representation.
#[inline]
pub fn physical_bits(dtype: DataType) -> u32 {
    (dtype.plain_width() * 8) as u32
}

/// Encode a payload into the order-preserving unsigned domain of the
/// column's physical width (sign bit flipped; 32-bit types occupy the low
/// 32 bits of the returned `u64`).
#[inline]
pub fn encode(payload: i64, dtype: DataType) -> u64 {
    match physical_bits(dtype) {
        32 => {
            debug_assert!(
                i32::try_from(payload).is_ok(),
                "payload {payload} exceeds the 32-bit physical width of {dtype}"
            );
            ((payload as i32 as u32) ^ 0x8000_0000) as u64
        }
        _ => (payload as u64) ^ (1u64 << 63),
    }
}

/// Inverse of [`encode`].
#[inline]
pub fn decode(enc: u64, dtype: DataType) -> i64 {
    match physical_bits(dtype) {
        32 => ((enc as u32) ^ 0x8000_0000) as i32 as i64,
        _ => (enc ^ (1u64 << 63)) as i64,
    }
}

/// The inclusive encoded interval of the payloads `lo..=hi` of `dtype`,
/// clamped first to the payloads its physical width holds: a bound past
/// them neither wraps nor matches. `None` when no payload is in it.
#[inline]
pub fn encoded_bounds(lo: i64, hi: i64, dtype: DataType) -> Option<(u64, u64)> {
    let shift = 64 - physical_bits(dtype);
    let (lo, hi) = (lo.max(i64::MIN >> shift), hi.min(i64::MAX >> shift));
    (lo <= hi).then(|| (encode(lo, dtype), encode(hi, dtype)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn widths() {
        assert_eq!(physical_bits(DataType::Int32), 32);
        assert_eq!(physical_bits(DataType::Int64), 64);
        assert_eq!(physical_bits(DataType::Date), 32);
        assert_eq!(physical_bits(DataType::Str), 32);
        assert_eq!(
            physical_bits(DataType::Decimal {
                precision: 8,
                scale: 5
            }),
            32
        );
        assert_eq!(physical_bits(DataType::decimal(2)), 64); // precision 18
    }

    #[test]
    fn roundtrip_32() {
        for v in [
            i32::MIN as i64,
            -1_262_427,
            -1,
            0,
            1,
            2_964_975,
            i32::MAX as i64,
        ] {
            let e = encode(v, DataType::Int32);
            assert!(e <= u32::MAX as u64, "32-bit encoding must stay in 32 bits");
            assert_eq!(decode(e, DataType::Int32), v);
        }
    }

    #[test]
    fn roundtrip_64() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(decode(encode(v, DataType::Int64), DataType::Int64), v);
        }
    }

    proptest! {
        #[test]
        fn prop_order_preserving_32(a in i32::MIN as i64..=i32::MAX as i64,
                                    b in i32::MIN as i64..=i32::MAX as i64) {
            let (ea, eb) = (encode(a, DataType::Int32), encode(b, DataType::Int32));
            prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        }

        #[test]
        fn prop_order_preserving_64(a: i64, b: i64) {
            let (ea, eb) = (encode(a, DataType::Int64), encode(b, DataType::Int64));
            prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
        }

        #[test]
        fn prop_roundtrip(v: i64) {
            prop_assert_eq!(decode(encode(v, DataType::Int64), DataType::Int64), v);
            let v32 = v as i32 as i64;
            prop_assert_eq!(decode(encode(v32, DataType::Date), DataType::Date), v32);
        }
    }
}
