//! Modular exponentiation (in Montgomery form), deterministic primality
//! testing and safe-prime search for 64-bit moduli.
//!
//! The Schnorr group used by the ring-signature substrate needs a *safe
//! prime* `p` (i.e. `p = 2q + 1` with `q` prime) so that the subgroup of
//! quadratic residues has prime order `q`. Working in a 62-bit group keeps
//! all arithmetic in `u64`/`u128` — a deliberate simulation-scale choice
//! documented in DESIGN.md.

/// Multiply two residues modulo `m` without overflow.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Raise `base` to `exp` modulo `m`.
///
/// `m` must be odd and above 1 (every modulus in this crate is an odd
/// prime); the exponentiation runs in Montgomery form, which needs an odd
/// modulus, and panics on an even one.
pub fn pow_mod(base: u64, exp: u64, m: u64) -> u64 {
    Montgomery::new(m).pow(base, exp)
}

/// Montgomery arithmetic modulo one odd `m` with `R = 2^64`.
///
/// A residue `a` is carried as its form `a·R mod m`. [`Self::mul`] reduces
/// the 128-bit product of two forms with one REDC — a wrapping multiply and
/// the high half of a second product — so an exponentiation does no 128-bit
/// division: lifting a residue in, every multiplication and lowering the
/// result out are all REDCs. Valid for every odd `m` in `3..2^64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Montgomery {
    m: u64,
    /// `m^-1 mod 2^64`.
    inv: u64,
    /// `R^2 mod m`: multiplying by it lifts a residue into its form.
    r2: u64,
    /// `R mod m`, the form of 1.
    one: u64,
}

impl Montgomery {
    /// The context for modulus `m`. Panics unless `m` is odd and above 1.
    pub(crate) fn new(m: u64) -> Self {
        assert!(
            m > 1 && m & 1 == 1,
            "Montgomery form needs an odd modulus above 1, got {m}"
        );
        // Every odd m is its own inverse mod 8; each Newton step doubles the
        // correct low bits (3 → 6 → 12 → 24 → 48 → 96).
        let mut inv = m;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        let one = m.wrapping_neg() % m;
        let (twice, carry) = one.overflowing_add(one);
        let two = if carry || twice >= m {
            twice.wrapping_sub(m)
        } else {
            twice
        };
        // `two` is the form of 2; six squarings give the form of 2^64 = R,
        // which is R^2 mod m.
        let mut ctx = Montgomery { m, inv, r2: 0, one };
        let mut r2 = two;
        for _ in 0..6 {
            r2 = ctx.mul(r2, r2);
        }
        ctx.r2 = r2;
        ctx
    }

    /// REDC: `t·R^-1 mod m` for `t < m·R`, the result fully reduced.
    #[inline]
    fn redc(&self, t: u128) -> u64 {
        let (lo, hi) = (t as u64, (t >> 64) as u64);
        // u·m agrees with t in the low 64 bits, so t - u·m = (hi - mh)·R.
        let u = lo.wrapping_mul(self.inv);
        let mh = ((u as u128 * self.m as u128) >> 64) as u64;
        let (r, borrow) = hi.overflowing_sub(mh);
        if borrow {
            r.wrapping_add(self.m)
        } else {
            r
        }
    }

    /// The product of two forms, as a form.
    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// The form of any `a < 2^64` (reduced on the way in).
    #[inline]
    fn form(&self, a: u64) -> u64 {
        self.mul(a, self.r2)
    }

    /// The residue a form stands for, in `0..m`.
    #[inline]
    fn residue(&self, a: u64) -> u64 {
        self.redc(a as u128)
    }

    /// `base^exp mod m` by left-to-right square-and-multiply.
    pub(crate) fn pow(&self, base: u64, exp: u64) -> u64 {
        if exp == 0 {
            return 1;
        }
        let b = self.form(base);
        let mut acc = b;
        for i in (0..63 - exp.leading_zeros()).rev() {
            acc = self.mul(acc, acc);
            if (exp >> i) & 1 == 1 {
                acc = self.mul(acc, b);
            }
        }
        self.residue(acc)
    }

    /// `a^x · b^y mod m` by Straus's method: one squaring chain over the
    /// longer exponent, multiplying in `a`, `b` or the precomputed `a·b` at
    /// each bit either exponent has set.
    pub(crate) fn pow2(&self, a: u64, x: u64, b: u64, y: u64) -> u64 {
        let (a, b) = (self.form(a), self.form(b));
        let table = [self.one, a, b, self.mul(a, b)];
        let mut acc = self.one;
        for i in (0..64 - (x | y).leading_zeros()).rev() {
            acc = self.mul(acc, acc);
            let digit = (((x >> i) & 1) | (((y >> i) & 1) << 1)) as usize;
            if digit != 0 {
                acc = self.mul(acc, table[digit]);
            }
        }
        self.residue(acc)
    }
}

/// Window width (bits) of [`FixedBaseWindow`]. Sixteen 4-bit windows cover
/// the full `u64` exponent range.
const WINDOW_BITS: u32 = 4;
/// Number of windows: `64 / WINDOW_BITS`.
const WINDOWS: usize = 16;
/// Digits per window: `2^WINDOW_BITS`.
const DIGITS: usize = 1 << WINDOW_BITS;

/// Precomputed fixed-base windowed exponentiation table.
///
/// For a fixed `base` and odd modulus `m`, stores the Montgomery forms of
/// `base^(d · 2^(4k)) mod m` for every window `k < 16` and digit `d < 16`.
/// Building the table costs 16 × 15 = 240 Montgomery multiplications; each
/// subsequent [`Self::pow`] is at most 16 — versus ~93 for a fresh
/// square-and-multiply over a 62-bit exponent. The table pays for itself
/// from the third exponentiation of the same base onward.
#[derive(Debug, Clone)]
pub(crate) struct FixedBaseWindow {
    mont: Montgomery,
    table: [[u64; DIGITS]; WINDOWS],
}

impl FixedBaseWindow {
    /// Build the table for `base` modulo `m` (odd, above 1).
    pub(crate) fn new(base: u64, m: u64) -> Self {
        let mont = Montgomery::new(m);
        let mut table = [[mont.one; DIGITS]; WINDOWS];
        // wb = base^(2^(4k)) — the window's unit; row d holds wb^d.
        let mut wb = mont.form(base);
        for row in table.iter_mut() {
            for d in 1..DIGITS {
                row[d] = mont.mul(row[d - 1], wb);
            }
            wb = mont.mul(row[DIGITS - 1], wb);
        }
        FixedBaseWindow { mont, table }
    }

    /// `base^exp mod m` — identical to [`pow_mod`] on the same inputs.
    pub(crate) fn pow(&self, mut exp: u64) -> u64 {
        let mut acc = self.mont.one;
        let mut window = 0;
        while exp > 0 {
            let d = (exp & (DIGITS as u64 - 1)) as usize;
            if d != 0 {
                acc = self.mont.mul(acc, self.table[window][d]);
            }
            exp >>= WINDOW_BITS;
            window += 1;
        }
        self.mont.residue(acc)
    }

    /// The modulus the table was built for.
    pub(crate) fn modulus(&self) -> u64 {
        self.mont.m
    }
}

/// Witnesses that make Miller–Rabin *deterministic* for all `n < 3.3 * 10^24`
/// (covers the whole `u64` range). See Sinclair/Feitsma verification work.
const MR_WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Deterministic Miller–Rabin primality test for `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &MR_WITNESSES {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^r with d odd
    let mut d = n - 1;
    let r = d.trailing_zeros();
    d >>= r;
    let mont = Montgomery::new(n);
    'witness: for &a in &MR_WITNESSES {
        let mut x = mont.pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..r {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Whether `p` is a safe prime (`p` and `(p-1)/2` both prime).
pub fn is_safe_prime(p: u64) -> bool {
    p > 4 && p & 1 == 1 && is_prime(p) && is_prime(p >> 1)
}

/// Find the smallest safe prime `>= start`.
///
/// Panics if the search would overflow `u64` (never happens for the
/// constructor inputs used in this crate).
pub fn next_safe_prime(start: u64) -> u64 {
    let mut n = start.max(5);
    if n & 1 == 0 {
        n += 1;
    }
    // Safe primes other than 5/7 are ≡ 11 (mod 12); we simply scan odd
    // numbers — the density is ample for a one-off search.
    loop {
        if is_safe_prime(n) {
            return n;
        }
        n = n.checked_add(2).expect("safe prime search overflowed u64");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::SchnorrGroup;

    /// The `u128 %` square-and-multiply every Montgomery path is checked
    /// against.
    fn reference_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
        let mul = |a: u64, b: u64| ((a as u128 * b as u128) % m as u128) as u64;
        let mut acc = 1;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul(acc, base);
            }
            base = mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// The default group's p and q, the safe primes 5/7/11/23/47, 2^61 − 1
    /// and the largest u64 prime (moduli ≥ 2^63 leave REDC no headroom).
    fn reference_moduli() -> Vec<u64> {
        let grp = SchnorrGroup::default();
        vec![
            grp.modulus(),
            grp.order(),
            5,
            7,
            11,
            23,
            47,
            2_305_843_009_213_693_951,
            18_446_744_073_709_551_557,
        ]
    }

    /// `n` xorshift draws from `seed`.
    fn sweep(mut x: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// Edge exponents for modulus `m` plus a seeded sweep.
    fn reference_exponents(m: u64) -> Vec<u64> {
        let q = SchnorrGroup::default().order();
        let mut exps = vec![0, 1, 2, 15, 16, 17, q - 1, q, m - 1, m, u64::MAX];
        exps.extend(sweep(0x9E37_79B9_7F4A_7C15, 48));
        exps
    }

    /// Edge bases for modulus `m` (0, m and u64::MAX exercise the
    /// reduction on the way in) plus a seeded sweep.
    fn reference_bases(m: u64) -> Vec<u64> {
        let mut bases = vec![0, 1, 2, 4, m - 1, m, m + 1, u64::MAX];
        bases.extend(sweep(0x2545_F491_4F6C_DD1D, 8));
        bases
    }

    #[test]
    fn pow_mod_matches_reference() {
        for m in reference_moduli() {
            for b in reference_bases(m) {
                for e in reference_exponents(m) {
                    assert_eq!(
                        pow_mod(b, e, m),
                        reference_pow(b, e, m),
                        "b={b} e={e} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn pow2_matches_reference() {
        for m in reference_moduli() {
            let mont = Montgomery::new(m);
            let bases = reference_bases(m);
            let exps = reference_exponents(m);
            for (i, &a) in bases.iter().enumerate() {
                let b = bases[(i * 5 + 3) % bases.len()];
                for (j, &x) in exps.iter().enumerate() {
                    let y = exps[(j * 7 + 1) % exps.len()];
                    let expect = mul_mod(reference_pow(a, x, m), reference_pow(b, y, m), m);
                    assert_eq!(
                        mont.pow2(a, x, b, y),
                        expect,
                        "a={a} x={x} b={b} y={y} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn pow_mod_rejects_even_modulus() {
        pow_mod(3, 5, 1 << 40);
    }

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 97, 101, 7919];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 7917];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Strong pseudoprime stress: Carmichael numbers fool Fermat tests.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825265] {
            assert!(!is_prime(c), "{c} is Carmichael, not prime");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1 (Mersenne)
        assert!(is_prime(2_305_843_009_213_693_951)); // 2^61 - 1 (Mersenne)
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime(18_446_744_073_709_551_555));
    }

    #[test]
    fn safe_prime_detection() {
        // 5 = 2*2+1, 7 = 2*3+1, 11 = 2*5+1, 23 = 2*11+1, 47, 59, 83, 107
        for p in [5u64, 7, 11, 23, 47, 59, 83, 107, 167, 179] {
            assert!(is_safe_prime(p), "{p} is a safe prime");
        }
        for p in [13u64, 17, 19, 29, 31, 37, 41, 43] {
            assert!(!is_safe_prime(p), "{p} is prime but not safe");
        }
    }

    #[test]
    fn next_safe_prime_examples() {
        assert_eq!(next_safe_prime(0), 5);
        assert_eq!(next_safe_prime(6), 7);
        assert_eq!(next_safe_prime(8), 11);
        assert_eq!(next_safe_prime(24), 47);
        let p = next_safe_prime(1 << 61);
        assert!(is_safe_prime(p));
        assert!(p >= (1 << 61));
    }

    #[test]
    fn pow_mod_matches_naive() {
        for m in [97u64, 101, 65537] {
            for b in [0u64, 1, 2, 50, 96] {
                let mut expect = 1u64;
                for _ in 0..13 {
                    expect = expect * b % m;
                }
                assert_eq!(pow_mod(b, 13, m), expect, "b={b} m={m}");
            }
        }
    }

    #[test]
    fn mul_mod_no_overflow() {
        let big = u64::MAX - 58; // prime
        assert_eq!(mul_mod(big - 1, big - 1, big), 1); // (-1)^2 = 1
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let p = 2_305_843_009_213_693_951u64;
        for a in [2u64, 3, 12345, 987654321] {
            assert_eq!(pow_mod(a, p - 1, p), 1);
        }
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        for m in reference_moduli() {
            for base in [2u64, 4, 12345, m - 1, u64::MAX] {
                let table = FixedBaseWindow::new(base, m);
                for e in reference_exponents(m) {
                    assert_eq!(table.pow(e), pow_mod(base, e, m), "base={base} e={e} m={m}");
                }
            }
        }
    }

    #[test]
    fn windowed_pow_small_modulus() {
        let table = FixedBaseWindow::new(4, 23);
        for e in 0..=50u64 {
            assert_eq!(table.pow(e), pow_mod(4, e, 23), "e={e}");
        }
    }
}
