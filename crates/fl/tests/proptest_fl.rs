//! Property-based tests for the FL runtime's pure components: the
//! learning-rate schedules.

use fedsu_fl::LrSchedule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedules_are_positive_and_bounded_by_base(base in 0.001f32..1.0, round in 0usize..10_000) {
        for schedule in [
            LrSchedule::Constant,
            LrSchedule::InvSqrt,
            LrSchedule::Step { every: 100, gamma: 0.5 },
        ] {
            let lr = schedule.lr_at(base, round);
            prop_assert!(lr > 0.0, "{schedule:?} gave {lr}");
            prop_assert!(lr <= base + f32::EPSILON, "{schedule:?} exceeded base: {lr} > {base}");
        }
    }

    #[test]
    fn decaying_schedules_are_monotone(base in 0.001f32..1.0, a in 0usize..5_000, b in 0usize..5_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        for schedule in [LrSchedule::InvSqrt, LrSchedule::Step { every: 7, gamma: 0.9 }] {
            prop_assert!(schedule.lr_at(base, hi) <= schedule.lr_at(base, lo) + f32::EPSILON);
        }
    }

    #[test]
    fn eq13_ratio_shrinks_for_inv_sqrt(base in 0.01f32..0.5) {
        let s = LrSchedule::InvSqrt;
        let short = s.eq13_ratio(base, 200);
        let long = s.eq13_ratio(base, 5_000);
        prop_assert!(long < short);
    }
}
