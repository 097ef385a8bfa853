//! Fixture: a renamed import is still the same type. Linted as the
//! round-loop root file, the constructor call through the alias on line 9
//! is a `hot-alloc` finding that names the original type; the mention of
//! the alias in the signature is not a call and stays silent.
//! Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

use std::collections::VecDeque as Queue;

pub fn run(backlog: &mut Queue<u32>) { *backlog = Queue::new(); }
