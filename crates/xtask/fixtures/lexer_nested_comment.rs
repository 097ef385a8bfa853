//! Lexer fixture: hazards inside nested block comments must yield ZERO
//! diagnostics. Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

/* outer comment
   /* nested: let wire_bytes = (scalars * 4) as u32;
      total_bytes += wire_bytes;
   */
   still inside the OUTER comment after the nested close:
   total_bytes + extra_bytes; upload_bytes * retries
*/
fn clean() -> u32 {
    41
}
