//! Zero-dependency deterministic property-testing harness.
//!
//! The container this repo builds in has no network access to a crates
//! registry, so `proptest` is not available. This crate provides the
//! small slice of it the test-suite actually needs: a fast deterministic
//! PRNG ([`Rng`], SplitMix64), a handful of value generators, and a
//! seeded case loop ([`check`]) that reports the failing seed so a case
//! can be replayed in isolation with [`replay`].
//!
//! Everything is fully deterministic: the same base seed always produces
//! the same case sequence, on every platform.

/// SplitMix64 pseudo-random generator. Passes BigCrush for the purposes
/// of test-value generation, needs no external crates, and is trivially
/// reproducible from a single `u64` seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A value in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// A `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A signed value in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add((self.next_u64() % lo.abs_diff(hi)) as i64)
    }

    /// A boolean with probability `num/denom` of being true.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.next_u64() % denom < num
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len())]
    }

    /// A vector of `len` values drawn from `f`, with `len` in `[lo, hi)`.
    pub fn vec_of<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(lo, hi);
        (0..n).map(|_| f(self)).collect()
    }

    /// A vector of random bytes, length in `[lo, hi)`.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        self.vec_of(lo, hi, |r| r.next_u32() as u8)
    }
}

/// Runs `cases` property checks, each with a fresh deterministically
/// derived generator. On panic, the failing case's seed is printed so it
/// can be replayed with [`replay`].
pub fn check(name: &str, cases: u64, mut prop: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = derive_seed(name, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::seeded(seed);
            prop(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("testkit: property '{name}' failed at case {case} (seed {seed:#018x}); replay with testkit::replay(\"{name}\", {case}, ..)");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Re-runs exactly one case of a [`check`] loop, for debugging.
pub fn replay(name: &str, case: u64, mut prop: impl FnMut(&mut Rng)) {
    let mut rng = Rng::seeded(derive_seed(name, case));
    prop(&mut rng);
}

/// FNV-1a over a rendered surface: a hash that stays stable across Rust
/// releases (unlike `DefaultHasher`), so golden pins can be literals.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Derives a per-case seed from the property name and case index (FNV-1a
/// over the name, mixed with the index).
fn derive_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seeded(7);
        for _ in 0..1000 {
            let v = r.range(3, 17);
            assert!((3..17).contains(&v));
            let s = r.range_i64(-5, 5);
            assert!((-5..5).contains(&s));
            let u = r.range_u64(0, 1);
            assert_eq!(u, 0);
        }
    }

    #[test]
    fn pick_and_vec_of() {
        let mut r = Rng::seeded(1);
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
        let v = r.vec_of(2, 5, |r| r.next_u32());
        assert!((2..5).contains(&v.len()));
        let b = r.bytes(0, 4);
        assert!(b.len() < 4);
    }

    #[test]
    fn check_runs_all_cases_deterministically() {
        let mut firsts = Vec::new();
        check("demo", 5, |rng| firsts.push(rng.next_u64()));
        let mut again = Vec::new();
        check("demo", 5, |rng| again.push(rng.next_u64()));
        assert_eq!(firsts.len(), 5);
        assert_eq!(firsts, again);
        // distinct cases get distinct streams
        assert!(firsts.windows(2).all(|w| w[0] != w[1]));
    }
}
