//! A renamed import is still the same type: one finding (line 5).
use std::sync::mpsc::Receiver as Inbox;

pub fn take(inbox: &Inbox<u32>) -> Option<u32> {
    inbox.recv().ok()
}
