//! Seeded case runner for the workspace's property tests.
//!
//! A property is a closure over a generator; [`check`] runs it a fixed number
//! of times, case `i` on its own [`StdRng`] seeded from the property's name
//! and `i`, so a result never depends on test order, thread count or which
//! other properties ran. A failing case is reported with its index and seed
//! and the panic is re-raised; [`replay`] re-runs that one seed. There is no
//! shrinking and no edge bias: a property whose interesting inputs sit at the
//! ends of a range names them as explicit cases next to the drawn ones.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rand::SampleRange;
pub use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over the property name: distinct properties get distinct streams.
fn fnv1a(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The splitmix64 finaliser: spreads consecutive case indices over the seed space.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of case `case` of the property called `name`.
fn case_seed(name: &str, case: u64) -> u64 {
    splitmix64(fnv1a(name) ^ case)
}

/// The message a `panic!` / `assert!` carried, if it was a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Runs `property` on `cases` independently seeded generators. The first
/// case that panics is reported on stderr as
/// `property '<name>' failed at case <i> (seed 0x…)` and its panic re-raised
/// with that line in front of the original message.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut StdRng)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let cause = panic_message(payload.as_ref());
            let report =
                format!("property '{name}' failed at case {case} (seed {seed:#018x}): {cause}");
            eprintln!("{report}");
            resume_unwind(Box::new(report));
        }
    }
}

/// Runs `property` once on the generator [`check`] reported as `seed`.
pub fn replay(seed: u64, property: impl FnOnce(&mut StdRng)) {
    property(&mut StdRng::seed_from_u64(seed));
}

/// A vector whose length is drawn from `len` and whose elements come from `draw`.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: impl SampleRange<usize>,
    mut draw: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| draw(rng)).collect()
}

/// Both ends of `range`, then one value drawn from it: the runner has no edge
/// bias, so a property whose boundary inputs matter walks all three.
pub fn ends_then_draw(rng: &mut StdRng, range: Range<usize>) -> [usize; 3] {
    [range.start, range.end - 1, rng.gen_range(range)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use std::cell::RefCell;

    fn panic_text(result: std::thread::Result<()>) -> String {
        panic_message(result.expect_err("the property must fail").as_ref()).to_owned()
    }

    /// False on purpose: some drawn byte is 200 or more well before 64 cases.
    fn every_byte_is_small(rng: &mut StdRng) {
        let b: u8 = rng.gen_range(0..=u8::MAX);
        assert!(b < 200, "drew {b}");
    }

    #[test]
    fn false_property_names_case_and_seed_and_replays() {
        let text =
            panic_text(catch_unwind(|| check("every_byte_is_small", 64, every_byte_is_small)));
        let case: u64 = text
            .split("failed at case ")
            .nth(1)
            .and_then(|t| t.split(' ').next())
            .and_then(|t| t.parse().ok())
            .expect("case index in the report");
        // Replaying the reported seed fails the same way, and the report is
        // that failure behind the case index and seed.
        let seed = case_seed("every_byte_is_small", case);
        let cause = panic_text(catch_unwind(|| replay(seed, every_byte_is_small)));
        assert!(cause.starts_with("drew "), "{cause}");
        let head =
            format!("property 'every_byte_is_small' failed at case {case} (seed {seed:#018x})");
        assert_eq!(text, format!("{head}: {cause}"));
    }

    #[test]
    fn cases_are_independent_of_order_and_distinct_per_name_and_index() {
        let firsts = |name: &str| {
            let seen = RefCell::new(Vec::new());
            check(name, 32, |rng| seen.borrow_mut().push(rng.next_u64()));
            seen.into_inner()
        };
        let a = firsts("a");
        assert_eq!(a, firsts("a"), "same name, same streams");
        assert_eq!(a.len(), 32);
        let mut all = a.clone();
        all.extend(firsts("b"));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "every (name, case) has its own stream");
        // Case i can be re-run alone from its seed.
        replay(case_seed("a", 7), |rng| assert_eq!(rng.next_u64(), a[7]));
    }

    #[test]
    fn vec_of_draws_length_then_elements() {
        check("vec_of", 64, |rng| {
            let v = vec_of(rng, 0..5, |r| r.gen_range(10u32..20));
            assert!(v.len() < 5 && v.iter().all(|x| (10..20).contains(x)));
            assert_eq!(vec_of(rng, 3..=3, |r| r.gen::<bool>()).len(), 3);
            let [lo, hi, drawn] = ends_then_draw(rng, 2..9);
            assert!((lo, hi) == (2, 8) && (2..9).contains(&drawn));
        });
    }
}
