//! One error: `finish` sends on `tx` after dropping it (line 6).
use std::sync::mpsc::{Receiver, Sender};

pub fn finish(tx: Sender<u32>, last: u32) {
    drop(tx);
    let _ = tx.send(last);
}

pub fn handoff(tx: &Sender<u32>, rx: Receiver<u32>, chunk: u32) -> bool {
    drop(rx);
    tx.send(chunk).is_err()
}
