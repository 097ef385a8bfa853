//! Opt-in runtime invariant checks.
//!
//! The FedSU reproduction's claims rest on numeric soundness; this module is
//! the runtime backstop behind the static gate (the workspace clippy table
//! and each library crate's lint denials). Checks are off by default and
//! cost one relaxed atomic load; setting `FEDSU_CHECK_INVARIANTS=1` (or
//! calling [`set_enabled`]) turns every guard in the workspace into a hard
//! panic with a diagnostic naming the violated invariant. CI runs the full test
//! suite once in this mode.
//!
//! Downstream crates gate their own guards on [`enabled`] — sim-time
//! monotonicity and wire-byte conservation in `fedsu-fl`, mask/no-check
//! period consistency in `fedsu-core` — so one switch arms them all.

use std::sync::atomic::{AtomicU8, Ordering};

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// `true` when invariant checking is armed, either via the
/// `FEDSU_CHECK_INVARIANTS` environment variable (`1` or `true`) or a prior
/// [`set_enabled`] call. The environment is consulted once and cached.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = std::env::var("FEDSU_CHECK_INVARIANTS")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces invariant checking on or off, overriding the environment.
///
/// Exists so tests can arm the guards deterministically instead of mutating
/// process-global environment variables under a multithreaded test runner.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Verifies that an operation with finite inputs produced a finite output
/// buffer.
///
/// Non-finite *inputs* are deliberately tolerated: fault-injection scenarios
/// feed NaN/Inf through the stack on purpose, and propagating garbage is the
/// caller's story. The invariant guarded here is that the kernels themselves
/// never *manufacture* a non-finite value (overflow in accumulation, bad
/// indexing reading uninitialized memory, and similar).
///
/// # Panics
///
/// Panics when checking is [`enabled`], every input is finite, and `output`
/// contains a NaN or infinity.
#[allow(clippy::panic, reason = "an armed guard fails loudly: that is its whole contract")]
pub fn check_op_output(op: &str, inputs: &[&[f32]], output: &[f32]) {
    if !enabled() {
        return;
    }
    if inputs.iter().any(|buf| buf.iter().any(|v| !v.is_finite())) {
        return;
    }
    if let Some((i, v)) = output.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        panic!(
            "invariant violation [finite-kernel]: `{op}` produced non-finite value {v} at \
             flat index {i} from finite inputs (set FEDSU_CHECK_INVARIANTS=0 to disable)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not three: the switch is process-global, so the phases must
    // run in a fixed order rather than race across test threads.
    #[test]
    fn switch_gates_the_check_and_inputs_excuse_outputs() {
        set_enabled(false);
        // Disabled: a NaN output is ignored.
        check_op_output("noop", &[&[1.0]], &[f32::NAN]);

        set_enabled(true);
        // Armed, but a non-finite input excuses the output (GIGO).
        check_op_output("gigo", &[&[f32::NAN]], &[f32::INFINITY]);
        // Armed with finite inputs and a non-finite output: must panic.
        let violation = std::panic::catch_unwind(|| {
            check_op_output("bad-kernel", &[&[1.0, 2.0]], &[1.0, f32::NAN]);
        });
        set_enabled(false);
        let err = violation.expect_err("finite inputs + NaN output must panic when armed");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string());
        assert!(msg.contains("finite-kernel"), "unexpected panic message: {msg}");
        assert!(msg.contains("bad-kernel"), "panic must name the op: {msg}");
    }
}
