//! Arbitrary-precision unsigned integers.
//!
//! A compact school-book implementation sized for the toy RSA keys the
//! study uses (≤ 1024 bits). Limbs are `u32` so multiplication can use
//! `u64` intermediates without overflow gymnastics. Nothing here is
//! constant-time — these keys protect nothing.
//!
//! Every modular exponentiation is counted per thread
//! ([`modpow_calls`]), like SHA-256 compressions, so the signing and
//! verifying a piece of code does is a work count tests can pin.

use core::cmp::Ordering;
use core::fmt;
use std::cell::Cell;

thread_local! {
    static MODPOWS: Cell<u64> = const { Cell::new(0) };
}

/// Modular exponentiations run on the calling thread so far: every
/// Montgomery-kernel and schoolbook exponentiation, whichever entry
/// point ([`BigUint::modpow`], RSA signing or verification) led there.
pub fn modpow_calls() -> u64 {
    MODPOWS.with(Cell::get)
}

fn count_modpow() {
    MODPOWS.with(|n| n.set(n.get() + 1));
}

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing zero limbs (so zero is the empty
/// vector), least-significant limb first.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> BigUint {
        BigUint { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> BigUint {
        let mut n = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// From big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut acc: u32 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            acc |= u32::from(b) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes (minimal length; zero encodes as empty).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// To big-endian bytes left-padded with zeros to exactly `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|&l| l & 1 == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|&l| l >> off & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry: u64 = 0;
        for (i, &limb) in longer.iter().enumerate() {
            let sum = u64::from(limb) + u64::from(shorter.get(i).copied().unwrap_or(0)) + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned arithmetic).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_to(other) != Ordering::Less,
            "unsigned subtraction underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let mut diff = i64::from(self.limbs[i])
                - i64::from(other.limbs.get(i).copied().unwrap_or(0))
                - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other`.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = u64::from(out[k]) + carry;
                out[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push(l << bit_shift | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).copied().unwrap_or(0) << (32 - bit_shift);
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Compare (avoiding the `Ord` trait name clash in call sites).
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `(self / divisor, self % divisor)` by binary long division.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = u64::from(divisor.limbs[0]);
            let mut rem: u64 = 0;
            let mut q = vec![0u32; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = rem << 32 | u64::from(self.limbs[i]);
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut quot = BigUint { limbs: q };
            quot.normalize();
            return (quot, BigUint::from_u64(rem));
        }
        // General case: Knuth TAOCP vol. 2 Algorithm D (word-based long
        // division). Normalize so the divisor's top limb has its high bit
        // set, estimate each quotient digit from the top two remainder
        // limbs, and correct with at most two fix-ups.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let u_big = self.shl(shift);
        let n = v.len();
        let m = u_big.limbs.len() - n;
        let mut u = u_big.limbs;
        u.push(0); // extra high limb for the algorithm
        let mut q = vec![0u32; m + 1];
        let v_top = u64::from(v[n - 1]);
        let v_next = u64::from(v[n - 2]);
        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current window.
            let top = (u64::from(u[j + n]) << 32) | u64::from(u[j + n - 1]);
            let mut q_hat = top / v_top;
            let mut r_hat = top % v_top;
            while q_hat >= 1 << 32 || q_hat * v_next > (r_hat << 32 | u64::from(u[j + n - 2])) {
                q_hat -= 1;
                r_hat += v_top;
                if r_hat >= 1 << 32 {
                    break;
                }
            }
            // Multiply-subtract q_hat * v from u[j .. j+n].
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = q_hat * u64::from(v[i]) + carry;
                carry = p >> 32;
                let sub = i64::from(u[j + i]) - (p as u32 as i64) - borrow;
                if sub < 0 {
                    u[j + i] = (sub + (1 << 32)) as u32;
                    borrow = 1;
                } else {
                    u[j + i] = sub as u32;
                    borrow = 0;
                }
            }
            let sub = i64::from(u[j + n]) - carry as i64 - borrow;
            if sub < 0 {
                // q_hat was one too large: add the divisor back.
                u[j + n] = (sub + (1 << 32)) as u32;
                q_hat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let t = u64::from(u[j + i]) + u64::from(v[i]) + carry;
                    u[j + i] = t as u32;
                    carry = t >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u32);
            } else {
                u[j + n] = sub as u32;
            }
            q[j] = q_hat as u32;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        u.truncate(n);
        let mut rem = BigUint { limbs: u };
        rem.normalize();
        rem = rem.shr(shift);
        (quotient, rem)
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self * other mod m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self ^ exp mod m`.
    ///
    /// Odd moduli of up to 1024 bits — every RSA modulus and CRT prime
    /// in the study — take the Montgomery kernel (see [`MontgomeryCtx`]),
    /// which replaces the full division after every product with one
    /// word-by-word reduction pass. Even and wider moduli fall back to
    /// [`BigUint::modpow_schoolbook`].
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        match MontgomeryCtx::new(m) {
            Some(ctx) => ctx.pow(self, exp),
            None => self.modpow_schoolbook(exp, m),
        }
    }

    /// `self ^ exp mod m` by LSB-first square-and-multiply, one full
    /// division per product. The Montgomery kernel's correctness oracle
    /// and benchmark baseline, and the fallback for even moduli and
    /// moduli wider than the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow_schoolbook(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus is zero");
        count_modpow();
        if m.limbs == [1] {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mulmod(&base, m);
            }
            base = base.mulmod(&base, m);
        }
        result
    }

    /// Modular inverse of `self` modulo `m` via the extended Euclidean
    /// algorithm; `None` if `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        // Extended Euclid on signed values represented as (sign, magnitude).
        // r_{k+1} = r_{k-1} - q r_k ; track t coefficients only.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // t as (negative?, magnitude)
        let mut t0 = (false, BigUint::zero());
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0 != BigUint::one() {
            return None;
        }
        // Normalize t0 into [0, m).
        let (neg, mag) = t0;
        let mag = mag.rem(m);
        if neg && !mag.is_zero() {
            Some(m.sub(&mag))
        } else {
            Some(mag)
        }
    }
}

/// Widest modulus the Montgomery kernel takes, in 64-bit limbs: 1024
/// bits, the CRT primes of a 2048-bit key.
pub(crate) const MAX_LIMBS: usize = 16;

/// The Montgomery constants of one odd modulus `m > 1` of at most
/// [`MAX_LIMBS`] 64-bit limbs: everything `modpow` derives from the
/// modulus alone, so a key that exponentiates under one modulus many
/// times computes them once.
///
/// The kernel is CIOS Montgomery multiplication over 64-bit limbs with
/// `u128` products, monomorphized per width: [`MontgomeryCtx::pow`]
/// picks the width once, and every buffer after that is a fixed-size
/// array on the stack. `BigUint` keeps its `u32` limbs; operands are
/// packed into `u64` limbs on entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MontgomeryCtx {
    /// `m`, least-significant limb first; zero from `limbs` up.
    m: [u64; MAX_LIMBS],
    /// `R² mod m` with `R = 2^(64·limbs)`, which converts into
    /// Montgomery form; zero from `limbs` up.
    r2: [u64; MAX_LIMBS],
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
    /// Width of `m` in 64-bit limbs, `1..=MAX_LIMBS`.
    limbs: usize,
}

impl MontgomeryCtx {
    /// The constants for `m`, or `None` unless `m` is odd, greater than
    /// one and at most `64 · MAX_LIMBS` bits wide.
    pub(crate) fn new(m: &BigUint) -> Option<MontgomeryCtx> {
        let limbs = m.limbs.len().div_ceil(2);
        if !m.is_odd() || m.limbs == [1] || limbs > MAX_LIMBS {
            return None;
        }
        let mut packed = [0; MAX_LIMBS];
        pack(&m.limbs, &mut packed);
        // Hensel lifting: x ← x·(2 − m0·x) doubles the correct low bits
        // per step; odd m0 starts with 3 correct bits, 5 rounds cover 64.
        let m0 = packed[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let mut r2 = [0; MAX_LIMBS];
        pack(&BigUint::one().shl(128 * limbs).rem(m).limbs, &mut r2);
        Some(MontgomeryCtx {
            m: packed,
            r2,
            n0: inv.wrapping_neg(),
            limbs,
        })
    }

    /// `base ^ exp mod m`, the same function as [`BigUint::modpow`].
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        count_modpow();
        if exp.is_zero() {
            return BigUint::one();
        }
        match self.limbs {
            1 => self.pow_n::<1>(base, exp),
            2 => self.pow_n::<2>(base, exp),
            3 => self.pow_n::<3>(base, exp),
            4 => self.pow_n::<4>(base, exp),
            5 => self.pow_n::<5>(base, exp),
            6 => self.pow_n::<6>(base, exp),
            7 => self.pow_n::<7>(base, exp),
            8 => self.pow_n::<8>(base, exp),
            9 => self.pow_n::<9>(base, exp),
            10 => self.pow_n::<10>(base, exp),
            11 => self.pow_n::<11>(base, exp),
            12 => self.pow_n::<12>(base, exp),
            13 => self.pow_n::<13>(base, exp),
            14 => self.pow_n::<14>(base, exp),
            15 => self.pow_n::<15>(base, exp),
            16 => self.pow_n::<16>(base, exp),
            _ => unreachable!("MontgomeryCtx::new caps the width at MAX_LIMBS"),
        }
    }

    fn pow_n<const N: usize>(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let mut kernel = Kernel {
            m: [0; N],
            r2: [0; N],
            n0: self.n0,
        };
        kernel.m.copy_from_slice(&self.m[..N]);
        kernel.r2.copy_from_slice(&self.r2[..N]);
        let acc = kernel.pow(kernel.to_mont(&base.limbs), exp);
        // Leave Montgomery form: multiply by plain 1.
        let mut one = [0; N];
        one[0] = 1;
        unpack(&kernel.mul(&acc, &one))
    }
}

/// The CIOS kernel at a width of `N` 64-bit limbs. Values are `N`
/// limbs, least-significant first, and below `m` unless noted.
struct Kernel<const N: usize> {
    m: [u64; N],
    /// `R² mod m`.
    r2: [u64; N],
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
}

impl<const N: usize> Kernel<N> {
    /// `a·b·R⁻¹ mod m`, for any `a` and `b < m`. Each word of `a` is
    /// multiplied in and one word reduced away, so the running sum
    /// stays within `N + 2` words (`t`, `top`, `over`) and ends below
    /// `2m`.
    ///
    /// Always inlined: an exponentiation is a loop of these products,
    /// and an out-of-line call would pass every result back through
    /// memory.
    #[inline(always)]
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut t = [0; N];
        let mut top = 0u64;
        for &ai in a {
            let mut carry = 0;
            for (tj, &bj) in t.iter_mut().zip(b) {
                let s = u128::from(*tj) + u128::from(ai) * u128::from(bj) + u128::from(carry);
                *tj = s as u64;
                carry = (s >> 64) as u64;
            }
            let (sum, over) = top.overflowing_add(carry);
            // Add u·m, with u chosen so the low word cancels, and shift
            // that word out.
            let u = t[0].wrapping_mul(self.n0);
            let mut carry =
                ((u128::from(t[0]) + u128::from(u) * u128::from(self.m[0])) >> 64) as u64;
            for j in 1..N {
                let s =
                    u128::from(t[j]) + u128::from(u) * u128::from(self.m[j]) + u128::from(carry);
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let (word, over_again) = sum.overflowing_add(carry);
            t[N - 1] = word;
            top = u64::from(over) + u64::from(over_again);
        }
        self.reduce_once(t, top != 0)
    }

    /// `a + b mod m`.
    fn add(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut s = [0; N];
        let mut carry = false;
        for ((sj, &aj), &bj) in s.iter_mut().zip(a).zip(b) {
            let (x, c1) = aj.overflowing_add(bj);
            let (x, c2) = x.overflowing_add(u64::from(carry));
            *sj = x;
            carry = c1 | c2;
        }
        self.reduce_once(s, carry)
    }

    /// `t mod m` for `t < 2m`, where `carry` is `t`'s bit `64·N`.
    fn reduce_once(&self, mut t: [u64; N], carry: bool) -> [u64; N] {
        if carry || !t.iter().rev().lt(self.m.iter().rev()) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(&self.m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *tj = d;
                borrow = b1 | b2;
            }
        }
        t
    }

    /// `base·R mod m` for a base of any width, given its `u32` limbs:
    /// Horner's rule over its `N`-limb digits, most significant first,
    /// in Montgomery form (`acc ← acc·R + digit`), so no division.
    fn to_mont(&self, base: &[u32]) -> [u64; N] {
        let mut acc = [0; N];
        for (i, chunk) in base.chunks(2 * N).rev().enumerate() {
            let mut digit = [0; N];
            pack(chunk, &mut digit);
            let digit = self.mul(&digit, &self.r2);
            acc = if i == 0 {
                digit
            } else {
                self.add(&self.mul(&acc, &self.r2), &digit)
            };
        }
        acc
    }

    /// `x^exp` in Montgomery form for nonzero `exp`, left to right in
    /// windows of `width` bits. Exponents of 32 bits or fewer — a public
    /// exponent such as 65537 — use plain square-and-multiply (width 1),
    /// where a 16-entry table would cost more products than it saves;
    /// longer ones use 4-bit windows.
    fn pow(&self, x: [u64; N], exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_len();
        let width = if bits <= 32 { 1 } else { 4 };
        // table[w] = x^w for every nonzero window value w.
        let mut table = [[0; N]; 16];
        table[1] = x;
        for w in 2..1 << width {
            table[w] = self.mul(&table[w - 1], &x);
        }
        let window =
            |i: usize| (0..width).fold(0, |w, b| w | usize::from(exp.bit(i * width + b)) << b);
        let windows = bits.div_ceil(width);
        // The top window holds exp's top bit, so it is never zero.
        let mut acc = table[window(windows - 1)];
        for i in (0..windows - 1).rev() {
            for _ in 0..width {
                acc = self.mul(&acc, &acc);
            }
            let w = window(i);
            if w != 0 {
                acc = self.mul(&acc, &table[w]);
            }
        }
        acc
    }
}

/// Pack little-endian `u32` limbs into the `u64` limbs of `dst`, which
/// must have room for them.
fn pack(src: &[u32], dst: &mut [u64]) {
    for (d, pair) in dst.iter_mut().zip(src.chunks(2)) {
        *d = pair
            .iter()
            .rev()
            .fold(0, |acc, &limb| acc << 32 | u64::from(limb));
    }
}

/// The `BigUint` with little-endian `u64` limbs `src`.
fn unpack(src: &[u64]) -> BigUint {
    let mut limbs = Vec::with_capacity(2 * src.len());
    for &w in src {
        limbs.extend([w as u32, (w >> 32) as u32]);
    }
    let mut n = BigUint { limbs };
    n.normalize();
    n
}

/// `(a_sign, a) - (b_sign, b)` on sign/magnitude pairs.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both positive.
        (false, false) => {
            if a.1.cmp_to(&b.1) != Ordering::Less {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1.cmp_to(&a.1) != Ordering::Less {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_bytes() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_be_bytes(&[]).to_be_bytes(), Vec::<u8>::new());
        let x = BigUint::from_be_bytes(&[0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(x.to_be_bytes(), vec![0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(x.bit_len(), 33);
        assert_eq!(BigUint::from_be_bytes(&[0, 0, 7]).to_be_bytes(), vec![7]);
        assert_eq!(n(0x1_0000_0001).to_be_bytes(), vec![1, 0, 0, 0, 1]);
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(n(5).to_be_bytes_padded(4), vec![0, 0, 0, 5]);
        assert_eq!(BigUint::zero().to_be_bytes_padded(2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small_panics() {
        n(0x1_0000).to_be_bytes_padded(2);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = n(u64::MAX);
        let b = n(12345);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&b).sub(&a), b);
        // Carry chain across limbs.
        let c = BigUint::from_be_bytes(&[0xff; 12]);
        assert_eq!(c.add(&BigUint::one()).sub(&BigUint::one()), c);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(n(0).mul(&n(77)), n(0));
        assert_eq!(n(123456789).mul(&n(987654321)), n(123456789 * 987654321));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = n(u64::MAX);
        let sq = a.mul(&a);
        let expect = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(100).shr(100), n(1));
        assert_eq!(n(0b1011).shl(3), n(0b1011000));
        assert_eq!(n(0b1011).shr(2), n(0b10));
        assert_eq!(n(5).shr(64), n(0));
    }

    #[test]
    fn div_rem_properties() {
        let a = BigUint::from_be_bytes(&[0xde, 0xad, 0xbe, 0xef, 0xfe, 0xed, 0xfa, 0xce, 0x01]);
        let b = n(0xabcdef);
        let (q, r) = a.div_rem(&b);
        assert!(r.cmp_to(&b) == Ordering::Less);
        assert_eq!(q.mul(&b).add(&r), a);
        // Divisor bigger than dividend.
        let (q, r) = n(5).div_rem(&n(100));
        assert_eq!(q, n(0));
        assert_eq!(r, n(5));
        // Multi-limb divisor.
        let big = a.mul(&a).add(&n(17));
        let (q, r) = big.div_rem(&a);
        assert_eq!(q.mul(&a).add(&r), big);
        assert_eq!(r, n(17));
    }

    #[test]
    fn modpow_small_cases() {
        // 4^13 mod 497 = 445 (classic example)
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445));
        // Fermat: a^(p-1) mod p == 1 for prime p, a not divisible by p.
        let p = n(1_000_000_007);
        assert_eq!(n(123456).modpow(&p.sub(&BigUint::one()), &p), n(1));
        // mod 1 is always 0.
        assert_eq!(n(9).modpow(&n(9), &n(1)), n(0));
        // exponent 0 gives 1.
        assert_eq!(n(9).modpow(&n(0), &n(7)), n(1));
    }

    #[test]
    fn montgomery_matches_schoolbook() {
        // Deterministic pseudo-random operands from a SplitMix64 stream,
        // across odd moduli from one limb up to RSA-grade widths.
        let mut state = 0x9E37_79B9_97F4_A7C1u64;
        let mut next = move |bytes: usize| {
            let mut out = Vec::with_capacity(bytes);
            while out.len() < bytes {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                out.extend_from_slice(&z.to_be_bytes());
            }
            out.truncate(bytes);
            out
        };
        for bytes in [3usize, 4, 8, 16, 24, 48, 96] {
            let mut m_bytes = next(bytes);
            m_bytes[0] |= 0x80; // full width
            m_bytes[bytes - 1] |= 1; // odd
            let m = BigUint::from_be_bytes(&m_bytes);
            for _ in 0..4 {
                let a = BigUint::from_be_bytes(&next(bytes + 2));
                let e = BigUint::from_be_bytes(&next(bytes / 2 + 1));
                assert_eq!(
                    a.modpow(&e, &m),
                    a.modpow_schoolbook(&e, &m),
                    "bytes={bytes} a={a:?} e={e:?} m={m:?}"
                );
            }
        }
    }

    #[test]
    fn montgomery_and_schoolbook_edge_cases() {
        // Even modulus takes the schoolbook fallback inside modpow.
        assert_eq!(
            n(7).modpow(&n(5), &n(36)),
            n(7).modpow_schoolbook(&n(5), &n(36))
        );
        // Base ≥ m, base ≡ 0 mod m, exponent one.
        let m = n(0xFFFF_FFFF_FFFF_FFC5); // odd
        assert_eq!(n(5).mul(&m).modpow(&n(3), &m), n(0));
        assert_eq!(n(12345).modpow(&n(1), &m), n(12345));
        // Schoolbook shares modpow's m==1 / exp==0 contract.
        assert_eq!(n(9).modpow_schoolbook(&n(9), &n(1)), n(0));
        assert_eq!(n(9).modpow_schoolbook(&n(0), &n(7)), n(1));
    }

    #[test]
    fn modinv_basics() {
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(n(3).modinv(&n(11)), Some(n(4)));
        // gcd(6, 9) = 3: no inverse.
        assert_eq!(n(6).modinv(&n(9)), None);
        // e=65537 mod a typical phi.
        let phi = n(3_233_462_989_238_497_280);
        let e = n(65537);
        let d = e.modinv(&phi).unwrap();
        assert_eq!(e.mulmod(&d, &phi), BigUint::one());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        n(1).sub(&n(2));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        n(1).div_rem(&n(0));
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(BigUint::one().shl(64) > n(u64::MAX));
        assert_eq!(n(7).cmp_to(&n(7)), Ordering::Equal);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", n(0)), "0x0");
        assert_eq!(format!("{:?}", n(0xdeadbeef)), "0xdeadbeef");
        assert_eq!(format!("{:?}", n(0x1_0000_0000)), "0x100000000");
    }
}
