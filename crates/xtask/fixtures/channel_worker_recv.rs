//! One finding: the blocking `recv` a call below the worker (line 10).
pub fn worker_loop(rx: &std::sync::mpsc::Receiver<fn()>) {
    while let Some(job) = fetch_job(rx) {
        job();
    }
}

fn fetch_job(rx: &std::sync::mpsc::Receiver<fn()>) -> Option<fn()> {
    // A shared channel: the first idle worker to block here wins the job.
    rx.recv().ok()
}
