//! Byte-level column codecs for the segment format.
//!
//! Every codec here is **bit-exact**: decoding the bytes produced by an
//! encoder reconstructs the input storage exactly, including `f64` NaN
//! payloads and the arbitrary placeholder values sitting under null slots.
//! That is what makes the segment roundtrip testable with `to_bits`
//! equality rather than tolerances.
//!
//! Layouts (all integers little-endian):
//!
//! * **plain float/int** — 8 bytes per row (`f64::to_bits` / `i64` LE);
//! * **plain cat** — 4 bytes per row (`u32` dictionary code);
//! * **plain bool** — bit-packed, LSB-first, `ceil(n/8)` bytes;
//! * **RLE float/int/cat** — `u32` run count, then per run the value at its
//!   plain width followed by a `u32` length. Runs over floats compare bit
//!   patterns, so `NaN` placeholders form runs like any other value;
//! * **validity bitmap** — bit-packed like bools, `1` = value present.

use crate::column::{check_codes, CatData, Column, ColumnData};
use crate::error::{FactError, Result};

/// How the writer decides between plain and run-length encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RlePolicy {
    /// RLE when the run count is at or below [`RLE_RUN_FRACTION`] of the
    /// row count (and the column type supports it).
    #[default]
    Auto,
    /// Always store plain buffers.
    Never,
    /// RLE whenever the column type supports it (tests, worst-case probes).
    Always,
}

/// `Auto` chooses RLE when `runs <= rows * RLE_RUN_FRACTION`.
pub const RLE_RUN_FRACTION: f64 = 0.5;

/// Minimum rows before `Auto` considers RLE at all.
pub const RLE_MIN_ROWS: usize = 16;

fn corrupt(what: impl Into<String>) -> FactError {
    FactError::Corrupt(what.into())
}

// ---------------------------------------------------------------------------
// bitmaps
// ---------------------------------------------------------------------------

/// Pack bools LSB-first into bytes.
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Unpack `n` bools from an LSB-first bit-packed buffer.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Result<Vec<bool>> {
    if bytes.len() != n.div_ceil(8) {
        return Err(corrupt(format!(
            "bitmap length {} does not hold {n} rows",
            bytes.len()
        )));
    }
    Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

// ---------------------------------------------------------------------------
// run-length encoding over fixed-width lanes
// ---------------------------------------------------------------------------

/// Count the runs of equal adjacent values (bit-pattern equality).
fn run_count(lanes: &[u64]) -> usize {
    let mut runs = 0usize;
    let mut prev = None;
    for &v in lanes {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
    }
    runs
}

/// Whether `policy` picks RLE for a lane buffer with this shape.
pub fn rle_chosen(policy: RlePolicy, rows: usize, runs: usize) -> bool {
    match policy {
        RlePolicy::Never => false,
        RlePolicy::Always => rows > 0,
        RlePolicy::Auto => {
            rows >= RLE_MIN_ROWS && (runs as f64) <= (rows as f64) * RLE_RUN_FRACTION
        }
    }
}

fn encode_rle(lanes: &[u64], width: usize, out: &mut Vec<u8>) {
    let mut runs: Vec<(u64, u32)> = Vec::new();
    for &v in lanes {
        match runs.last_mut() {
            Some((rv, n)) if *rv == v && *n < u32::MAX => *n += 1,
            _ => runs.push((v, 1)),
        }
    }
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (v, n) in runs {
        out.extend_from_slice(&v.to_le_bytes()[..width]);
        out.extend_from_slice(&n.to_le_bytes());
    }
}

/// Decode an RLE buffer of `rows` lanes. The run lengths are summed (with
/// checked adds) and must cover exactly `rows` before anything is
/// reserved, so a declared row count the buffer does not back costs
/// nothing; runs that do cover it but could never be held (more rows than
/// memory) are refused when the reservation fails, not by an abort.
fn decode_rle(bytes: &[u8], width: usize, rows: usize) -> Result<Vec<u64>> {
    if bytes.len() < 4 {
        return Err(corrupt("RLE buffer shorter than its run count"));
    }
    let n_runs = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let body = &bytes[4..];
    if body.len() != n_runs * (width + 4) {
        return Err(corrupt(format!(
            "RLE buffer holds {} bytes for {n_runs} runs of {} bytes",
            body.len(),
            width + 4
        )));
    }
    let run_len =
        |run: &[u8]| u32::from_le_bytes(run[width..].try_into().expect("4 bytes")) as usize;
    let covered = body
        .chunks_exact(width + 4)
        .try_fold(0usize, |total, run| total.checked_add(run_len(run)));
    if covered != Some(rows) {
        return Err(corrupt(format!(
            "RLE runs cover {} of {rows} declared rows",
            covered.map_or_else(|| "more than usize::MAX".to_string(), |c| c.to_string())
        )));
    }
    let mut out = Vec::new();
    out.try_reserve_exact(rows).map_err(|_| {
        corrupt(format!(
            "RLE runs declare {rows} rows, more than fit in memory"
        ))
    })?;
    for run in body.chunks_exact(width + 4) {
        let mut lane = [0u8; 8];
        lane[..width].copy_from_slice(&run[..width]);
        out.extend(std::iter::repeat_n(u64::from_le_bytes(lane), run_len(run)));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// column value buffers
// ---------------------------------------------------------------------------

/// The fixed-width lane view of one column's physical storage.
fn lanes(data: &ColumnData) -> (Vec<u64>, usize) {
    match data {
        ColumnData::Float(v) => (v.iter().map(|x| x.to_bits()).collect(), 8),
        ColumnData::Int(v) => (v.iter().map(|&x| x as u64).collect(), 8),
        ColumnData::Cat(c) => (c.codes.iter().map(|&x| x as u64).collect(), 4),
        ColumnData::Bool(_) => unreachable!("bools are bit-packed, not lane-encoded"),
    }
}

/// Encode a column's value buffer; returns the bytes and whether RLE was
/// used. Bools are always bit-packed (RLE never applies).
pub fn encode_values(data: &ColumnData, policy: RlePolicy) -> (Vec<u8>, bool) {
    if let ColumnData::Bool(v) = data {
        return (pack_bits(v), false);
    }
    let (lanes, width) = lanes(data);
    let rle = rle_chosen(policy, lanes.len(), run_count(&lanes));
    let mut out = Vec::new();
    if rle {
        encode_rle(&lanes, width, &mut out);
    } else {
        for &v in &lanes {
            out.extend_from_slice(&v.to_le_bytes()[..width]);
        }
    }
    (out, rle)
}

/// Decoded value storage for one segment's slice of a column. Categorical
/// columns decode to raw dictionary codes — the dictionary itself lives in
/// the segment-set manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedValues {
    /// `f64` lanes, bit-exact.
    Float(Vec<f64>),
    /// `i64` lanes.
    Int(Vec<i64>),
    /// Unpacked bools.
    Bool(Vec<bool>),
    /// Dictionary codes (resolved through the manifest dictionary).
    Codes(Vec<u32>),
}

impl DecodedValues {
    /// Number of decoded rows.
    pub fn len(&self) -> usize {
        match self {
            DecodedValues::Float(v) => v.len(),
            DecodedValues::Int(v) => v.len(),
            DecodedValues::Bool(v) => v.len(),
            DecodedValues::Codes(v) => v.len(),
        }
    }

    /// True when no rows were decoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Numeric view of row `i` (floats as-is, ints widened, bools 0/1);
    /// `None` for categorical codes.
    pub fn as_f64(&self, i: usize) -> Option<f64> {
        match self {
            DecodedValues::Float(v) => Some(v[i]),
            DecodedValues::Int(v) => Some(v[i] as f64),
            DecodedValues::Bool(v) => Some(if v[i] { 1.0 } else { 0.0 }),
            DecodedValues::Codes(_) => None,
        }
    }
}

/// Decode a value buffer written by [`encode_values`].
pub fn decode_values(
    bytes: &[u8],
    dtype: crate::value::DataType,
    rle: bool,
    rows: usize,
) -> Result<DecodedValues> {
    use crate::value::DataType;
    if dtype == DataType::Bool {
        if rle {
            return Err(corrupt("bool columns are never RLE-encoded"));
        }
        return Ok(DecodedValues::Bool(unpack_bits(bytes, rows)?));
    }
    let width = if dtype == DataType::Cat { 4 } else { 8 };
    if rle {
        let lanes = decode_rle(bytes, width, rows)?;
        return Ok(match dtype {
            DataType::Float => {
                DecodedValues::Float(lanes.iter().map(|&v| f64::from_bits(v)).collect())
            }
            DataType::Int => DecodedValues::Int(lanes.iter().map(|&v| v as i64).collect()),
            DataType::Cat => DecodedValues::Codes(lanes.iter().map(|&v| v as u32).collect()),
            DataType::Bool => unreachable!("handled above"),
        });
    }
    if rows.checked_mul(width) != Some(bytes.len()) {
        return Err(corrupt(format!(
            "plain buffer holds {} bytes for {rows} rows of {width}",
            bytes.len()
        )));
    }
    // Plain buffers decode in one fused pass, straight from the wire bytes
    // into the typed vector.
    Ok(match dtype {
        DataType::Float => DecodedValues::Float(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                .collect(),
        ),
        DataType::Int => DecodedValues::Int(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as i64)
                .collect(),
        ),
        DataType::Cat => DecodedValues::Codes(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        ),
        DataType::Bool => unreachable!("handled above"),
    })
}

/// Rebuild a [`Column`] from decoded values, a validity mask, and (for
/// categorical columns) the manifest dictionary — the exact inverse of
/// encoding a segment's slice.
pub fn rebuild_column(
    values: DecodedValues,
    validity: Option<Vec<bool>>,
    dict: Option<&[String]>,
) -> Result<Column> {
    let col = match values {
        DecodedValues::Float(v) => Column::from_f64(v),
        DecodedValues::Int(v) => Column::from_i64(v),
        DecodedValues::Bool(v) => Column::from_bool(v),
        DecodedValues::Codes(codes) => {
            let dict = dict.ok_or_else(|| corrupt("categorical column without a dictionary"))?;
            check_codes(&codes, dict.len())?;
            Column::from_cat(CatData {
                codes,
                dict: dict.to_vec(),
            })
        }
    };
    match validity {
        Some(mask) => col.with_validity(mask),
        None => Ok(col),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn bitmap_round_trip_all_lengths() {
        for n in 0usize..20 {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let packed = pack_bits(&bits);
            assert_eq!(packed.len(), n.div_ceil(8));
            assert_eq!(unpack_bits(&packed, n).unwrap(), bits);
        }
        assert!(unpack_bits(&[0u8; 3], 8).is_err());
    }

    #[test]
    fn plain_float_round_trip_preserves_nan_bits() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let data = ColumnData::Float(vec![1.5, f64::NAN, weird, -0.0]);
        let (bytes, rle) = encode_values(&data, RlePolicy::Never);
        assert!(!rle);
        let out = decode_values(&bytes, DataType::Float, false, 4).unwrap();
        match (out, &data) {
            (DecodedValues::Float(got), ColumnData::Float(want)) => {
                let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn rle_round_trip_and_threshold() {
        let v: Vec<i64> = std::iter::repeat(7)
            .take(50)
            .chain(std::iter::repeat(-3).take(50))
            .collect();
        let data = ColumnData::Int(v.clone());
        let (bytes, rle) = encode_values(&data, RlePolicy::Auto);
        assert!(rle, "2 runs over 100 rows is far below the run fraction");
        assert!(bytes.len() < 100 * 8);
        match decode_values(&bytes, DataType::Int, true, 100).unwrap() {
            DecodedValues::Int(got) => assert_eq!(got, v),
            _ => unreachable!(),
        }
        // high-entropy ints stay plain under Auto
        let noisy = ColumnData::Int((0..100).collect());
        let (_, rle) = encode_values(&noisy, RlePolicy::Auto);
        assert!(!rle);
    }

    #[test]
    fn rle_rejects_inconsistent_buffers() {
        assert!(decode_rle(&[1, 0], 8, 4).is_err()); // shorter than the count
        let mut bytes = Vec::new();
        encode_rle(&[5, 5, 5], 8, &mut bytes);
        assert!(decode_rle(&bytes, 8, 2).is_err()); // runs exceed rows
        assert!(decode_rle(&bytes, 8, 9).is_err()); // runs under-cover rows
    }

    #[test]
    fn cat_codes_round_trip_at_width_4() {
        let c = CatData::from_labels(&["a", "b", "a", "c"]);
        let data = ColumnData::Cat(c.clone());
        let (bytes, rle) = encode_values(&data, RlePolicy::Never);
        assert_eq!(bytes.len(), 16);
        match decode_values(&bytes, DataType::Cat, rle, 4).unwrap() {
            DecodedValues::Codes(got) => assert_eq!(got, c.codes),
            _ => unreachable!(),
        }
    }

    #[test]
    fn rebuild_rejects_out_of_range_codes() {
        let vals = DecodedValues::Codes(vec![0, 5]);
        let dict = vec!["only".to_string()];
        assert!(matches!(
            rebuild_column(vals, None, Some(&dict)),
            Err(FactError::Corrupt(_))
        ));
    }
}
