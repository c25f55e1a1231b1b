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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

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

    /// Window `i` of `width` bits (little-endian: bits `i·width` up),
    /// read from one limb; `width` divides 32, so a window never
    /// straddles two.
    fn window(&self, i: usize, width: usize) -> usize {
        let bit = i * width;
        self.limbs.get(bit / 32).map_or(0, |&limb| {
            (limb >> (bit % 32)) as usize & ((1 << width) - 1)
        })
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
        #[expect(clippy::unwrap_used, reason = "a nonzero divisor has a top limb")]
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

/// `$body` with the constant `$n` bound to the width `$limbs`, which
/// must be `1..=MAX_LIMBS`: where a runtime width picks the kernel
/// monomorphized for it.
macro_rules! with_width {
    ($limbs:expr, $n:ident => $body:expr) => {
        match $limbs {
            1 => with_width!(@ $n = 1, $body),
            2 => with_width!(@ $n = 2, $body),
            3 => with_width!(@ $n = 3, $body),
            4 => with_width!(@ $n = 4, $body),
            5 => with_width!(@ $n = 5, $body),
            6 => with_width!(@ $n = 6, $body),
            7 => with_width!(@ $n = 7, $body),
            8 => with_width!(@ $n = 8, $body),
            9 => with_width!(@ $n = 9, $body),
            10 => with_width!(@ $n = 10, $body),
            11 => with_width!(@ $n = 11, $body),
            12 => with_width!(@ $n = 12, $body),
            13 => with_width!(@ $n = 13, $body),
            14 => with_width!(@ $n = 14, $body),
            15 => with_width!(@ $n = 15, $body),
            16 => with_width!(@ $n = 16, $body),
            _ => unreachable!("MontgomeryCtx::new caps the width at MAX_LIMBS"),
        }
    };
    (@ $n:ident = $width:literal, $body:expr) => {{
        const $n: usize = $width;
        $body
    }};
}

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
        unpack(&self.pow_words(&base.limbs, exp)[..self.limbs])
    }

    /// [`MontgomeryCtx::pow`] without a `BigUint` either side: the base
    /// is given by its little-endian `u32` limbs, of any width, and the
    /// result comes back as `u64` limbs, zero from `m`'s width up.
    pub(crate) fn pow_words(&self, base: &[u32], exp: &BigUint) -> [u64; MAX_LIMBS] {
        count_modpow();
        let mut out = [0; MAX_LIMBS];
        if exp.is_zero() {
            out[0] = 1;
            return out;
        }
        with_width!(self.limbs, N => {
            let kernel = self.kernel::<N>();
            let acc = kernel.pow(kernel.to_mont(base), exp);
            out[..N].copy_from_slice(&kernel.out_of_mont(&acc));
        });
        out
    }

    /// True if the value of little-endian `u32` limbs `words` is below
    /// `m`, compared on their packed `u64` limbs.
    pub(crate) fn below_modulus(&self, words: &[u32]) -> bool {
        let (low, high) = words.split_at(words.len().min(2 * self.limbs));
        if high.iter().any(|&w| w != 0) {
            return false;
        }
        let mut packed = [0; MAX_LIMBS];
        pack(low, &mut packed);
        packed[..self.limbs]
            .iter()
            .rev()
            .lt(self.m[..self.limbs].iter().rev())
    }

    /// The kernel for this modulus at its width `N`.
    fn kernel<const N: usize>(&self) -> Kernel<N> {
        let mut kernel = Kernel {
            m: [0; N],
            r2: [0; N],
            n0: self.n0,
        };
        kernel.m.copy_from_slice(&self.m[..N]);
        kernel.r2.copy_from_slice(&self.r2[..N]);
        kernel
    }
}

/// The RSA-CRT private operation of one key, `m^d mod pq` from its two
/// half-size exponentiations: the primes' Montgomery constants, `d`
/// reduced mod `p − 1` and `q − 1`, and `q⁻¹ mod p`, all made once at
/// key generation.
///
/// When `p` and `q` share a width in 64-bit limbs and both exponents
/// are longer than 32 bits — every key of an even bit count — the two
/// exponentiations run in lock-step and Garner's recombination runs on
/// the kernel's fixed arrays, so [`CrtCtx::sign`] allocates nothing.
/// Otherwise the halves run one after the other and recombine through
/// `BigUint`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CrtCtx {
    p: MontgomeryCtx,
    q: MontgomeryCtx,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// For the lock-step path: `q⁻¹ mod p` and `q⁻¹·R mod p` (`qinv` in
    /// Montgomery form), zero from the width up.
    garner: Option<([u64; MAX_LIMBS], [u64; MAX_LIMBS])>,
}

impl CrtCtx {
    /// The operation for primes `p` and `q` with `dp = d mod (p − 1)`,
    /// `dq = d mod (q − 1)` and `qinv = q⁻¹ mod p`, or `None` unless the
    /// kernel takes both primes (odd, at most [`MAX_LIMBS`] limbs).
    pub(crate) fn new(
        p: &BigUint,
        q: &BigUint,
        dp: BigUint,
        dq: BigUint,
        qinv: BigUint,
    ) -> Option<CrtCtx> {
        let (p_ctx, q_ctx) = (MontgomeryCtx::new(p)?, MontgomeryCtx::new(q)?);
        let lock_step = p_ctx.limbs == q_ctx.limbs && dp.bit_len() > 32 && dq.bit_len() > 32;
        let garner = lock_step.then(|| {
            let mut plain = [0; MAX_LIMBS];
            pack(&qinv.rem(p).limbs, &mut plain);
            let mut mont = [0; MAX_LIMBS];
            pack(&qinv.shl(64 * p_ctx.limbs).rem(p).limbs, &mut mont);
            (plain, mont)
        });
        Some(CrtCtx {
            p: p_ctx,
            q: q_ctx,
            dp,
            dq,
            qinv,
            garner,
        })
    }

    /// `em^d mod pq`, for the big-endian message representative `em`
    /// below `pq`, written big-endian over the whole of `out`. Counts
    /// two exponentiations in [`modpow_calls`] on either path.
    ///
    /// # Panics
    ///
    /// Panics if `em` or `out` is wider than `pq`'s limbs, or `out` is
    /// too short for the result.
    pub(crate) fn sign(&self, em: &[u8], out: &mut [u8]) {
        let Some((qinv, qinv_r)) = &self.garner else {
            // s1 = m^dp mod p, s2 = m^dq mod q, h = qinv (s1 − s2) mod p,
            // s = s2 + q h.
            let (p, q) = (
                unpack(&self.p.m[..self.p.limbs]),
                unpack(&self.q.m[..self.q.limbs]),
            );
            let m = BigUint::from_be_bytes(em);
            let s1 = self.p.pow(&m, &self.dp);
            let s2 = self.q.pow(&m, &self.dq);
            // (s1 − s2) mod p, lifting s2 into Z_p first to avoid underflow.
            let s2_mod_p = s2.rem(&p);
            let diff = if s1.cmp_to(&s2_mod_p) != Ordering::Less {
                s1.sub(&s2_mod_p)
            } else {
                s1.add(&p).sub(&s2_mod_p)
            };
            let h = self.qinv.mulmod(&diff, &p);
            out.copy_from_slice(&s2.add(&q.mul(&h)).to_be_bytes_padded(out.len()));
            return;
        };
        count_modpow();
        count_modpow();
        with_width!(self.p.limbs, N => self.sign_lock_step::<N>(em, qinv, qinv_r, out))
    }

    fn sign_lock_step<const N: usize>(
        &self,
        em: &[u8],
        qinv: &[u64; MAX_LIMBS],
        qinv_r: &[u64; MAX_LIMBS],
        out: &mut [u8],
    ) {
        assert!(
            em.len() <= 16 * N && out.len() <= 16 * N,
            "message wider than the modulus"
        );
        let (kp, kq) = (self.p.kernel::<N>(), self.q.kernel::<N>());
        let mut words = [0; 4 * MAX_LIMBS];
        let words = be_words(em, &mut words);
        let (s1, s2) = pow_pair(
            &kp,
            kp.to_mont(words),
            &self.dp,
            &kq,
            kq.to_mont(words),
            &self.dq,
        );
        // Garner: h = (s1 − s2)·qinv mod p, then s = s2 + q·h. s1 stays
        // in Montgomery form, since its product with plain qinv takes the
        // R back out; s2 < q is below R, which is all a product needs of
        // a factor, and meets qinv·R.
        let s2 = kq.out_of_mont(&s2);
        let mut plain = [0; N];
        plain.copy_from_slice(&qinv[..N]);
        let mut mont = [0; N];
        mont.copy_from_slice(&qinv_r[..N]);
        // Each product has a factor below p, so it ends below 2p, and
        // one subtraction brings it below p for `sub`.
        let h = kp.sub(
            &kp.reduce_once(kp.mul(&s1, &plain), false),
            &kp.reduce_once(kp.mul(&s2, &mont), false),
        );
        // s ≤ (q − 1) + q·(p − 1) < pq fits in 2N words.
        let mut halves = [[0u64; N]; 2];
        let s = halves.as_flattened_mut();
        for (i, &qi) in kq.m.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &hj) in h.iter().enumerate() {
                let t = u128::from(s[i + j]) + u128::from(qi) * u128::from(hj) + u128::from(carry);
                s[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            s[i + N] = carry;
        }
        let mut carry = false;
        for (j, sj) in s.iter_mut().enumerate() {
            let (x, c1) = sj.overflowing_add(s2.get(j).copied().unwrap_or(0));
            let (x, c2) = x.overflowing_add(u64::from(carry));
            *sj = x;
            carry = c1 | c2;
        }
        write_be(s, out);
    }
}

/// `(xp^ep, xq^eq)` in Montgomery form under `kp` and `kq`, for
/// exponents longer than 32 bits: the two exponentiations of one CRT
/// signature in one loop. The chains share no data, so each step's two
/// products overlap in the CPU's pipelines instead of running one after
/// the other. A shorter exponent idles at Montgomery one, which
/// squaring leaves unchanged, until its top window comes up.
fn pow_pair<const N: usize>(
    kp: &Kernel<N>,
    xp: [u64; N],
    ep: &BigUint,
    kq: &Kernel<N>,
    xq: [u64; N],
    eq: &BigUint,
) -> ([u64; N], [u64; N]) {
    const WIDTH: usize = 4;
    let (tp, tq) = (kp.table(xp, WIDTH), kq.table(xq, WIDTH));
    let (wp, wq) = (ep.bit_len().div_ceil(WIDTH), eq.bit_len().div_ceil(WIDTH));
    let windows = wp.max(wq);
    let top = |k: &Kernel<N>, table: &[[u64; N]; 16], e: &BigUint, w: usize| {
        if w == windows {
            table[e.window(windows - 1, WIDTH)]
        } else {
            k.one()
        }
    };
    let mut ap = top(kp, &tp, ep, wp);
    let mut aq = top(kq, &tq, eq, wq);
    for i in (0..windows - 1).rev() {
        for _ in 0..WIDTH {
            ap = kp.sqr(&ap);
            aq = kq.sqr(&aq);
        }
        let (dp, dq) = (ep.window(i, WIDTH), eq.window(i, WIDTH));
        if dp != 0 {
            ap = kp.mul(&ap, &tp[dp]);
        }
        if dq != 0 {
            aq = kq.mul(&aq, &tq[dq]);
        }
    }
    (ap, aq)
}

/// The CIOS kernel at a width of `N` 64-bit limbs. Values are `N`
/// limbs, least-significant first. Products take and return values
/// below `R = 2^(64·N)`, only congruent to the result mod `m`, so an
/// exponentiation never compares against `m`; a value is brought below
/// `m` once, where it leaves the chain of products.
struct Kernel<const N: usize> {
    m: [u64; N],
    /// `R² mod m`.
    r2: [u64; N],
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
}

impl<const N: usize> Kernel<N> {
    /// A value below `R` congruent to `a·b·R⁻¹` mod `m`, for any `a`
    /// and `b` below `R`. Each word of `a` is multiplied in and one
    /// word reduced away, so the running sum stays within `N + 2` words
    /// (`t`, `top`, `over`) and ends below `b + m`: below `R + m`, and
    /// below `2m` when `b < m` (or `a < m`). The carry word alone then
    /// decides the correction (see [`Kernel::drop_carry`]), so the
    /// result need not be below `m`; [`Kernel::reduce_once`] makes it
    /// so where a value leaves a chain of products.
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
        self.drop_carry(t, top)
    }

    /// The same value as `mul(a, a)` for `a` below `R` (below `R` and
    /// congruent to `a·a·R⁻¹` mod `m`) with fewer products: the square
    /// is built in `2N` words with each cross product `a_i·a_j`
    /// (`i < j`) computed once and doubled, then reduced a word at a
    /// time (separated operand scanning): `N(N+1)/2` word products for
    /// the square where `mul` spends `N²`, and the same `N²` for the
    /// reduction.
    ///
    /// Always inlined, like [`Kernel::mul`].
    #[inline(always)]
    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        let mut halves = [[0u64; N]; 2];
        let t = halves.as_flattened_mut();
        // The cross products; row i ends at word i + N, which no
        // earlier row reached.
        for i in 0..N {
            let mut carry = 0u64;
            for j in i + 1..N {
                let s =
                    u128::from(t[i + j]) + u128::from(a[i]) * u128::from(a[j]) + u128::from(carry);
                t[i + j] = s as u64;
                carry = (s >> 64) as u64;
            }
            t[i + N] = carry;
        }
        // Doubled, they stay below a² < 2^(128N), so no bit leaves.
        let mut shifted_out = 0u64;
        for word in t.iter_mut() {
            let next = *word >> 63;
            *word = *word << 1 | shifted_out;
            shifted_out = next;
        }
        // Plus the squares on the diagonal.
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let square = u128::from(ai) * u128::from(ai);
            let lo = u128::from(t[2 * i]) + (square & u128::from(u64::MAX)) + u128::from(carry);
            t[2 * i] = lo as u64;
            let hi = u128::from(t[2 * i + 1]) + (square >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = (hi >> 64) as u64;
        }
        // Reduce: add u·m at word i so word i cancels, for each of the
        // low N words. Each row's carry out of word i + N is added one
        // word up with the next row's, and the last one is bit 64·N of
        // the result, which ends below (R² + R·m)/R = R + m.
        let mut extra = false;
        for i in 0..N {
            let u = t[i].wrapping_mul(self.n0);
            let mut carry =
                ((u128::from(t[i]) + u128::from(u) * u128::from(self.m[0])) >> 64) as u64;
            for j in 1..N {
                let s = u128::from(t[i + j])
                    + u128::from(u) * u128::from(self.m[j])
                    + u128::from(carry);
                t[i + j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let (word, c1) = t[i + N].overflowing_add(carry);
            let (word, c2) = word.overflowing_add(u64::from(extra));
            t[i + N] = word;
            extra = c1 | c2;
        }
        self.drop_carry(halves[1], u64::from(extra))
    }

    /// `a − b mod m`, for `a` and `b` below `m`: `m` masked by the
    /// borrow is added back.
    fn sub(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut d = [0; N];
        let mut borrow = false;
        for ((dj, &aj), &bj) in d.iter_mut().zip(a).zip(b) {
            let (x, b1) = aj.overflowing_sub(bj);
            let (x, b2) = x.overflowing_sub(u64::from(borrow));
            *dj = x;
            borrow = b1 | b2;
        }
        let mask = u64::from(borrow).wrapping_neg();
        let mut carry = false;
        for (dj, &mj) in d.iter_mut().zip(&self.m) {
            let (x, c1) = dj.overflowing_add(mj & mask);
            let (x, c2) = x.overflowing_add(u64::from(carry));
            *dj = x;
            carry = c1 | c2;
        }
        d
    }

    /// `a + b mod m`, for `a` and `b` below `m`.
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

    /// The carry-only correction that ends every product: `t − m` if
    /// `carry` (0 or 1, bit `64·N` of the value `t` stands for) is set,
    /// else `t`. A product ends below `R + m`, so either way the result
    /// is below `R`. The subtrahend is `m` masked by the carry, where a
    /// comparison against `m` would branch on the data after every
    /// product and mispredict about as often as it subtracts.
    #[inline(always)]
    fn drop_carry(&self, mut t: [u64; N], carry: u64) -> [u64; N] {
        let mask = carry.wrapping_neg();
        let mut borrow = false;
        for (tj, &mj) in t.iter_mut().zip(&self.m) {
            let (d, b1) = tj.overflowing_sub(mj & mask);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *tj = d;
            borrow = b1 | b2;
        }
        t
    }

    /// `t mod m` for `t < 2m`, where `carry` is `t`'s bit `64·N`: `t − m`
    /// unless that borrows past the carry, picked by a mask rather than
    /// a branch. This is where a value leaves a chain of products and
    /// must be below `m`: the inputs of [`Kernel::add`] and
    /// [`Kernel::sub`], and [`Kernel::out_of_mont`].
    fn reduce_once(&self, t: [u64; N], carry: bool) -> [u64; N] {
        let mut d = [0; N];
        let mut borrow = false;
        for ((dj, &tj), &mj) in d.iter_mut().zip(&t).zip(&self.m) {
            let (x, b1) = tj.overflowing_sub(mj);
            let (x, b2) = x.overflowing_sub(u64::from(borrow));
            *dj = x;
            borrow = b1 | b2;
        }
        let keep = u64::from(borrow & !carry).wrapping_neg();
        for (dj, &tj) in d.iter_mut().zip(&t) {
            *dj = tj & keep | *dj & !keep;
        }
        d
    }

    /// `base·R` mod `m`, below `R`, for a base of any width given its
    /// `u32` limbs: Horner's rule over its `N`-limb digits, most
    /// significant first, in Montgomery form (`acc ← acc·R + digit`), so
    /// no division. Each product has the factor `R² mod m < m`, so it
    /// ends below `2m`, and one subtraction brings it below `m` where
    /// [`Kernel::add`] takes it.
    fn to_mont(&self, base: &[u32]) -> [u64; N] {
        let mut acc = [0; N];
        for (i, chunk) in base.chunks(2 * N).rev().enumerate() {
            let mut digit = [0; N];
            pack(chunk, &mut digit);
            let digit = self.mul(&digit, &self.r2);
            acc = if i == 0 {
                digit
            } else {
                let shifted = self.mul(&acc, &self.r2);
                self.add(
                    &self.reduce_once(shifted, false),
                    &self.reduce_once(digit, false),
                )
            };
        }
        acc
    }

    /// `x^exp` in Montgomery form (below `R`) for nonzero `exp`, left to
    /// right in windows of `width` bits. Exponents of 32 bits or fewer —
    /// a public exponent such as 65537 — use plain square-and-multiply
    /// (width 1), where a 16-entry table would cost more products than
    /// it saves; longer ones use 4-bit windows.
    fn pow(&self, x: [u64; N], exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_len();
        let width = if bits <= 32 { 1 } else { 4 };
        let table = self.table(x, width);
        let windows = bits.div_ceil(width);
        // The top window holds exp's top bit, so it is never zero.
        let mut acc = table[exp.window(windows - 1, width)];
        for i in (0..windows - 1).rev() {
            for _ in 0..width {
                acc = self.sqr(&acc);
            }
            let w = exp.window(i, width);
            if w != 0 {
                acc = self.mul(&acc, &table[w]);
            }
        }
        acc
    }

    /// `table[w] = x^w` for every nonzero window value `w` of `width`
    /// bits; the rest stays zero.
    fn table(&self, x: [u64; N], width: usize) -> [[u64; N]; 16] {
        let mut table = [[0; N]; 16];
        table[1] = x;
        for w in 2..1 << width {
            table[w] = self.mul(&table[w - 1], &x);
        }
        table
    }

    /// One in Montgomery form, `R mod m`: the product of `R² mod m` and
    /// plain 1 ends at most `m`, and is not `m`, since `R` is prime to
    /// `m`.
    fn one(&self) -> [u64; N] {
        let mut one = [0; N];
        one[0] = 1;
        self.mul(&self.r2, &one)
    }

    /// `a·R⁻¹ mod m` for `a` below `R`: out of Montgomery form, by a
    /// product with plain 1, which ends at most `m`, and one
    /// subtraction.
    fn out_of_mont(&self, a: &[u64; N]) -> [u64; N] {
        let mut one = [0; N];
        one[0] = 1;
        self.reduce_once(self.mul(a, &one), false)
    }
}

/// Big-endian `bytes` as little-endian `u32` limbs, written into the
/// zeroed `words`, which must have room for them: a message
/// representative or a signature enters the kernel this way without a
/// `BigUint`.
pub(crate) fn be_words<'a>(bytes: &[u8], words: &'a mut [u32; 4 * MAX_LIMBS]) -> &'a [u32] {
    for (i, &byte) in bytes.iter().rev().enumerate() {
        words[i / 4] |= u32::from(byte) << (8 * (i % 4));
    }
    &words[..bytes.len().div_ceil(4)]
}

/// Little-endian `u64` limbs written big-endian over the whole of
/// `out`, whose length the value must fit.
pub(crate) fn write_be(limbs: &[u64], out: &mut [u8]) {
    for (i, byte) in out.iter_mut().rev().enumerate() {
        *byte = (limbs[i / 8] >> (8 * (i % 8))) as u8;
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

    /// `below_modulus` compares the whole value: `m − 1` and zero-padded
    /// small values are below `m`; `m`, and a value with a word set
    /// above `m`'s width, are not.
    #[test]
    fn below_modulus_reads_every_word() {
        let m = n(0xFFFF_FFFF_FFFF_FFC5);
        let below = |words: &[u32]| MontgomeryCtx::new(&m).map(|ctx| ctx.below_modulus(words));
        assert_eq!(below(&[0xFFFF_FFC4, 0xFFFF_FFFF]), Some(true));
        assert_eq!(below(&[0xFFFF_FFC5, 0xFFFF_FFFF]), Some(false));
        assert_eq!(below(&[5, 0, 0, 0]), Some(true));
        assert_eq!(below(&[5, 0, 1]), Some(false));
        assert_eq!(below(&[]), Some(true));
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

    #[test]
    fn windows_read_the_exponent_bits() {
        let e = BigUint::from_be_bytes(&[0xa5, 0x3c, 0x0f, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a]);
        for width in [1, 4] {
            for i in 0..=e.bit_len().div_ceil(width) + 2 {
                let by_bits = (0..width).fold(0, |w, b| w | usize::from(e.bit(i * width + b)) << b);
                assert_eq!(e.window(i, width), by_bits, "width {width} window {i}");
            }
        }
    }

    /// `(mul(a, b), sqr(a))` under the kernel for `m`, at its width, for
    /// `a` and `b` below `R`; `None` if the kernel does not take `m`.
    fn products(m: &BigUint, a: &BigUint, b: &BigUint) -> Option<(BigUint, BigUint)> {
        let ctx = MontgomeryCtx::new(m)?;
        Some(with_width!(ctx.limbs, N => {
            let kernel = ctx.kernel::<N>();
            let (mut x, mut y) = ([0; N], [0; N]);
            pack(&a.limbs, &mut x);
            pack(&b.limbs, &mut y);
            (unpack(&kernel.mul(&x, &y)), unpack(&kernel.sqr(&x)))
        }))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Products take any values below `R` and return values below
        /// `R` congruent to `a·b·R⁻¹` mod `m`, with the squaring equal
        /// to the product, at every kernel width: on random odd moduli,
        /// moduli just under `R`, and the smallest odd modulus of the
        /// width, `2^(64(N−1)) + 1` (3 at one limb), where values below
        /// `R` run furthest above `m` and the carry word is set most
        /// often. The operands are random values below `R` and `R − 1`.
        #[test]
        fn products_below_r_are_congruent_at_every_width(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 48..49),
            gap in 0u64..1 << 20,
        ) {
            let limb = |w: &u64| [*w as u32, (*w >> 32) as u32];
            let value = |w: &[u64]| {
                let mut v = BigUint { limbs: w.iter().flat_map(limb).collect() };
                v.normalize();
                v
            };
            for limbs in 1..=MAX_LIMBS {
                let r = BigUint::one().shl(64 * limbs);
                let mut random: Vec<u32> = words[..limbs].iter().flat_map(limb).collect();
                random[0] |= 1;
                random[2 * limbs - 1] |= 1 << 31;
                let top = r.sub(&BigUint::from_u64(2 * gap + 1));
                let smallest = if limbs == 1 {
                    BigUint::from_u64(3)
                } else {
                    BigUint::one().shl(64 * (limbs - 1)).add(&BigUint::one())
                };
                let all_ones = r.sub(&BigUint::one());
                let (a, b) = (value(&words[16..16 + limbs]), value(&words[32..32 + limbs]));
                for m in [BigUint { limbs: random.clone() }, top, smallest] {
                    // R is prime to odd m, so R⁻¹ exists.
                    let r_inv = r.rem(&m).modinv(&m);
                    proptest::prop_assert!(r_inv.is_some(), "m={:?}", m);
                    for (a, b) in [(&a, &b), (&all_ones, &all_ones), (&a, &all_ones)] {
                        let got = products(&m, a, b);
                        proptest::prop_assert_eq!(
                            got.as_ref().map(|(product, _)| product.rem(&m)),
                            r_inv.as_ref().map(|r_inv| a.mul(b).mul(r_inv).rem(&m)),
                            "m={:?} a={:?} b={:?}", m, a, b
                        );
                        proptest::prop_assert_eq!(
                            got.map(|(_, square)| square),
                            products(&m, a, a).map(|(product, _)| product),
                            "m={:?} a={:?}", m, a
                        );
                    }
                }
            }
        }

        /// The dedicated squaring equals the product of a value with
        /// itself at every kernel width, on random odd moduli and on
        /// moduli just under 2^(64·N), for random values below the
        /// modulus and for `m − 1`.
        #[test]
        fn squaring_matches_product_at_every_width(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 32..33),
            gap in 0u64..1 << 20,
        ) {
            let limb = |w: &u64| [*w as u32, (*w >> 32) as u32];
            for limbs in 1..=MAX_LIMBS {
                let mut random: Vec<u32> = words[..limbs].iter().flat_map(limb).collect();
                random[0] |= 1;
                random[2 * limbs - 1] |= 1 << 31;
                let top = BigUint::one().shl(64 * limbs).sub(&BigUint::from_u64(2 * gap + 1));
                for m in [BigUint { limbs: random }, top] {
                    let below = BigUint {
                        limbs: words[16..16 + limbs].iter().flat_map(limb).collect(),
                    };
                    let mut below = below.rem(&m);
                    below.normalize();
                    for a in [below, m.sub(&BigUint::one())] {
                        let squares = products(&m, &a, &a);
                        proptest::prop_assert!(
                            squares.as_ref().is_some_and(|(mul, sqr)| sqr == mul),
                            "m={:?} a={:?}: {:?}", m, a, squares
                        );
                    }
                }
            }
        }
    }

    /// The second carry of a reduction row (`c2`: a pending `extra`
    /// landing on a word the row's own carry filled to all ones), which
    /// random operands practically never reach. Under
    /// `m = 2^(64·N) − δ`, `a = m − δ ≡ −R (mod m)`, so the unreduced
    /// square `(a² + U·m)/R` is exactly `R = m + δ`: every row's top
    /// word wraps to zero, and from the second row on the carry out of
    /// it arrives through `extra`. One limb has no earlier row, so the
    /// widths start at two.
    #[test]
    fn squaring_carries_a_pending_overflow_through_an_all_ones_word() {
        for delta in [1, 159, (1 << 20) + 1] {
            let delta = BigUint::from_u64(delta);
            for limbs in 2..=MAX_LIMBS {
                let m = BigUint::one().shl(64 * limbs).sub(&delta);
                let a = m.sub(&delta);
                // Both ways, a²·R⁻¹ ≡ R ≡ δ (mod m).
                assert_eq!(
                    products(&m, &a, &a),
                    Some((delta.clone(), delta.clone())),
                    "m = 2^{} − {delta:?}",
                    64 * limbs
                );
            }
        }
    }
}
