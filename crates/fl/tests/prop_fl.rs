//! Property tests for the FL runtime's pure components: the learning-rate
//! schedules.

use fedsu_cases::{check, ends_then_draw, Rng};
use fedsu_fl::LrSchedule;

const CASES: u64 = 64;

#[test]
fn schedules_are_positive_and_bounded_by_base() {
    check("schedules_are_positive_and_bounded_by_base", CASES, |rng| {
        let base = rng.gen_range(0.001f32..1.0);
        for round in ends_then_draw(rng, 0..10_000) {
            for schedule in [
                LrSchedule::Constant,
                LrSchedule::InvSqrt,
                LrSchedule::Step { every: 100, gamma: 0.5 },
            ] {
                let lr = schedule.lr_at(base, round);
                assert!(lr > 0.0, "{schedule:?} gave {lr}");
                assert!(lr <= base + f32::EPSILON, "{schedule:?} exceeded base: {lr} > {base}");
            }
        }
    });
}

#[test]
fn decaying_schedules_are_monotone() {
    check("decaying_schedules_are_monotone", CASES, |rng| {
        let base = rng.gen_range(0.001f32..1.0);
        let (a, b) = (rng.gen_range(0usize..5_000), rng.gen_range(0usize..5_000));
        let (lo, hi) = (a.min(b), a.max(b));
        for schedule in [LrSchedule::InvSqrt, LrSchedule::Step { every: 7, gamma: 0.9 }] {
            assert!(schedule.lr_at(base, hi) <= schedule.lr_at(base, lo) + f32::EPSILON);
        }
    });
}

#[test]
fn eq13_ratio_shrinks_for_inv_sqrt() {
    check("eq13_ratio_shrinks_for_inv_sqrt", CASES, |rng| {
        let base = rng.gen_range(0.01f32..0.5);
        let s = LrSchedule::InvSqrt;
        let short = s.eq13_ratio(base, 200);
        let long = s.eq13_ratio(base, 5_000);
        assert!(long < short);
    });
}
