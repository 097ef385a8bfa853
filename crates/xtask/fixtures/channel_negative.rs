//! No finding: `try_recv`, `recv_timeout` and a bounded send loop.
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

pub fn worker_loop(queue: &Receiver<fn()>) {
    while let Ok(job) = queue.try_recv() {
        job();
    }
}

pub fn relay(tx: &Sender<u32>, rx: &Receiver<u32>) {
    while let Ok(frame) = rx.recv_timeout(Duration::from_millis(10)) {
        let _ = tx.send(frame);
    }
}

pub fn broadcast(tx: &Sender<u32>, frames: Vec<u32>) -> usize {
    frames.into_iter().filter(|&f| tx.send(f).is_ok()).count()
}
