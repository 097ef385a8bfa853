//! No finding: hazard text in nested block comments is prose.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/* outer comment
   /* nested: total_bytes += wire_bytes; let job = rx.recv(); */
   still inside the OUTER comment: upload_bytes * retries
*/
pub fn clean() {}
