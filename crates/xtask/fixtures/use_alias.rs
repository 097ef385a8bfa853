//! Fixture: a renamed import is still the same type. Linted as the pool
//! file, where `run_chunks` is the dispatch entry, `table.write()` takes a
//! guard only because `Shared` resolves to `RwLock`, so the dispatch call
//! under that guard on line 14 is a `lock-order` finding. Linted anywhere
//! else there is no dispatch entry and the file stays silent.
//! Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

use std::sync::RwLock as Shared;

pub fn run_chunks() {}

pub fn publish(table: &Shared<u32>) {
    let guard = table.write();
    run_chunks();
}
