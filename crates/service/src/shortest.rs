//! Shortest round-trip text for `f64`, without `core::fmt`.
//!
//! [`push_f64`] writes the bytes `f64`'s `Display` writes, plus `.0`
//! when that text has no `.`, so a float never reads back as an integer.
//! Those are the bytes every JSON reply carries for its floats. `Display`
//! goes through the formatting machinery and picks its digits with
//! Grisu and a Dragon4 fallback; this module finds the same digits with
//! Ryu (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018):
//! the shortest decimal inside the interval of values that read back to
//! the same `f64`, and the one nearest the exact value when several are
//! that short. On an exact tie between two such candidates `Display`
//! takes the larger magnitude, where Ryu as published takes the even one;
//! this port follows `Display`. Both then define the same digits; only
//! the speed differs.
//!
//! Ryu multiplies the binary mantissa by a 125-bit approximation of a
//! power of five. Its two tables of those are computed at compile time
//! from exact multi-word arithmetic below, rather than pasted in.

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each power of five (and of each inverse).
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// Table sizes: the largest index a finite `f64` needs, plus one.
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

/// `POW5_SPLIT[i]` is `5^i` cut or padded to exactly 125 bits.
static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_table();
/// `POW5_INV_SPLIT[i]` is `⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1`.
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_table();

/// 64-bit words of the multi-word integers the tables are computed
/// from, least significant first: 1,024 bits, enough for `5^341` and
/// for `2^1023 / 5^i` at the precision the inverses need.
const WORDS: usize = 16;

/// `x · k` in place, for a small `k`.
const fn mul_small(x: &mut [u64; WORDS], k: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < WORDS {
        let t = x[i] as u128 * k as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
}

/// `⌊x / k⌋` in place, for a small `k`.
const fn div_small(x: &mut [u64; WORDS], k: u64) {
    let mut rem = 0u128;
    let mut i = WORDS;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | x[i] as u128;
        x[i] = (t / k as u128) as u64;
        rem = t % k as u128;
    }
}

/// Word `i` of `x`, zero past its end.
const fn word(x: &[u64; WORDS], i: usize) -> u128 {
    if i < WORDS {
        x[i] as u128
    } else {
        0
    }
}

/// Bits `shift..shift + 128` of `x`.
const fn bits_from(x: &[u64; WORDS], shift: usize) -> u128 {
    let (w, b) = (shift / 64, shift % 64);
    let low = (word(x, w) | word(x, w + 1) << 64) >> b;
    if b == 0 {
        low
    } else {
        low | word(x, w + 2) << (128 - b)
    }
}

/// Number of significant bits of `x`.
const fn bit_length(x: &[u64; WORDS]) -> usize {
    let mut i = WORDS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i + 64 - x[i].leading_zeros() as usize;
        }
    }
    0
}

const fn pow5_table() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow = [0u64; WORDS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let bits = bit_length(&pow);
        let keep = POW5_BITCOUNT as usize;
        table[i] = if bits <= keep {
            bits_from(&pow, 0) << (keep - bits)
        } else {
            bits_from(&pow, bits - keep)
        };
        mul_small(&mut pow, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_TABLE_SIZE] {
    // `inv` holds ⌊2^1023 / 5^i⌋. Flooring a floor again, by 5 or by a
    // power of two, floors the exact quotient, so every entry is exact.
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut inv = [0u64; WORDS];
    inv[WORDS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let j = pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT;
        table[i] = bits_from(&inv, 1023 - j as usize) + 1;
        div_small(&mut inv, 5);
        i += 1;
    }
    table
}

/// `bitlen(5^e)`, for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for a 55-bit `m`, a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, e10)` with `digits · 10^e10` reading back as
/// the positive finite `f64` whose fields these are (Ryu's `d2d`).
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // The interval's ends read back to this value on an even mantissa
    // (round-half-even parsing).
    let accept_bounds = m2 & 1 == 0;
    // The value and its interval, scaled by 4: [mv − 1 − mm_shift, mv + 2]
    // (the gap below is half as wide at a power of two).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Whether the interval's lower end is exactly representable with the
    // digits dropped (then it may itself be the answer). Ryu also tracks
    // whether the value itself is, for its round-half-even rule; rounding
    // ties up, as `Display` does, needs no such flag.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let mul = POW5_INV_SPLIT[q as usize];
        let j = -e2 + q as i32 + POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let mul = POW5_SPLIT[i as usize];
        let j = q as i32 - (pow5bits(i) - POW5_BITCOUNT);
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mm has a trailing zero bit exactly when mm_shift is 1; mp
            // always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The rare general case: the lower end may be the answer.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Appends finite `x` as `Display` prints it, plus `.0` when that text
/// has no `.`: the digits of [`shortest`] in positional notation, with
/// no exponent, however large or small `x` is.
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (digits, e10) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 17];
    let start = write_digits(&mut buf, digits);
    let digits = &buf[start..];
    let len = digits.len();
    // Where the decimal point falls, counted in digits from the first.
    let point = len as i32 + e10;
    // The text is assembled in a buffer of zeros (which are most of any
    // padding) and appended in one piece; only texts longer than the
    // buffer, below 1e-25 or above 1e45, are appended part by part.
    let mut text = [b'0'; 48];
    let used = if point <= 0 {
        let end = 2 + (-point) as usize + len;
        (end <= text.len()).then(|| {
            text[1] = b'.';
            text[end - len..end].copy_from_slice(digits);
            end
        })
    } else if (point as usize) < len {
        let (int, frac) = digits.split_at(point as usize);
        text[..int.len()].copy_from_slice(int);
        text[int.len()] = b'.';
        text[int.len() + 1..len + 1].copy_from_slice(frac);
        Some(len + 1)
    } else {
        let end = point as usize + 2;
        (end <= text.len()).then(|| {
            text[..len].copy_from_slice(digits);
            text[point as usize] = b'.';
            end
        })
    };
    match used {
        Some(used) => out.extend_from_slice(&text[..used]),
        None if point <= 0 => {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + (-point) as usize, b'0');
            out.extend_from_slice(digits);
        }
        None => {
            out.extend_from_slice(digits);
            out.resize(out.len() + point as usize - len, b'0');
            out.extend_from_slice(b".0");
        }
    }
}

/// Writes the decimal digits of `v` (at most 17 of them, not zero) at
/// the end of `buf`; returns where they start. The low eight digits, when
/// there are more, are cut off first so that the rest is 32-bit work.
fn write_digits(buf: &mut [u8; 17], v: u64) -> usize {
    let pair = |buf: &mut [u8; 17], at: usize, two: u32| {
        let i = two as usize * 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
    };
    let mut start = buf.len();
    let mut high = v;
    if v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        high = v / 100_000_000;
        let (a, b) = (low / 10_000, low % 10_000);
        pair(buf, start - 2, b % 100);
        pair(buf, start - 4, b / 100);
        pair(buf, start - 6, a % 100);
        pair(buf, start - 8, a / 100);
        start -= 8;
    }
    let mut high = high as u32;
    while high >= 100 {
        start -= 2;
        pair(buf, start, high % 100);
        high /= 100;
    }
    if high >= 10 {
        start -= 2;
        pair(buf, start, high);
    } else {
        start -= 1;
        buf[start] = b'0' + high as u8;
    }
    start
}

/// `"00" "01" … "99"`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: `Display`, tagged `.0` when it has no `.`.
    fn display(x: f64) -> String {
        let s = x.to_string();
        if s.contains('.') {
            s
        } else {
            s + ".0"
        }
    }

    fn text(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn check(x: f64) {
        assert_eq!(text(x), display(x), "bits {:#018x}", x.to_bits());
    }

    #[test]
    fn tables_hold_ryus_published_entries() {
        // Entries 0 to 2 of Ryu's d2s tables, as (high, low) words.
        let words = |x: u128| ((x >> 64) as u64, x as u64);
        assert_eq!(words(POW5_SPLIT[0]), (1_152_921_504_606_846_976, 0));
        assert_eq!(words(POW5_SPLIT[1]), (1_441_151_880_758_558_720, 0));
        assert_eq!(words(POW5_SPLIT[2]), (1_801_439_850_948_198_400, 0));
        assert_eq!(words(POW5_INV_SPLIT[0]), (2_305_843_009_213_693_952, 1));
        assert_eq!(
            words(POW5_INV_SPLIT[1]),
            (1_844_674_407_370_955_161, 11_068_046_444_225_730_970)
        );
        assert_eq!(
            words(POW5_INV_SPLIT[2]),
            (1_475_739_525_896_764_129, 5_165_088_340_638_674_453)
        );
        // Every entry keeps exactly 125 significant bits (126 only for
        // the exact inverse of 5^0 plus one).
        for x in POW5_SPLIT.iter().chain(&POW5_INV_SPLIT[1..]) {
            assert_eq!(128 - x.leading_zeros(), 125);
        }
    }

    #[test]
    fn matches_display_on_the_edges() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            2.0 / 3.0,
            1e21,
            1e22,
            1e23,
            123_456_789.0,
            9_007_199_254_740_993.0,
            1.5e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        ] {
            check(x);
        }
    }

    #[test]
    fn matches_display_on_every_power_of_two_and_small_integers() {
        for e in -1074..=1023 {
            check(2f64.powi(e));
            check(-2f64.powi(e) * 1.5);
        }
        for i in 0..100_000u64 {
            check(i as f64);
            check(i as f64 / 64.0);
        }
    }

    #[test]
    fn matches_display_on_random_bit_patterns() {
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = 0;
        while seen < 50_000 {
            bits = crate::cache::splitmix64(bits);
            let x = f64::from_bits(bits);
            if x.is_finite() {
                check(x);
                seen += 1;
            }
        }
    }

    /// A million random finite bit patterns, plus a million values with
    /// few significant bits (where exact ties live); CI runs it in
    /// release mode.
    #[test]
    #[ignore]
    fn matches_display_on_a_million_random_bit_patterns() {
        let mut bits = 0x2545_F491_4F6C_DD1Du64;
        let mut seen = 0;
        while seen < 1_000_000 {
            bits = crate::cache::splitmix64(bits);
            let x = f64::from_bits(bits);
            if x.is_finite() {
                check(x);
                seen += 1;
            }
            let short = f64::from_bits(bits & 0xFFFF_F000_0000_0000);
            if short.is_finite() {
                check(short);
            }
        }
    }
}
