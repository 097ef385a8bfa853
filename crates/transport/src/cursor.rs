//! Bounds-checked little-endian reads off the front of a byte slice: the
//! one cursor both wire decoders ([`crate::Envelope::decode`] and
//! [`crate::Message::decode`]) read through. Each call either consumes
//! exactly what it returns or fails with [`Truncated`] and consumes nothing.

/// The input ended before the requested bytes; each decoder maps it to its
/// own `Truncated` variant.
#[derive(Debug)]
pub(crate) struct Truncated;

pub(crate) fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], Truncated> {
    let (head, tail) = data.split_at_checked(n).ok_or(Truncated)?;
    *data = tail;
    Ok(head)
}

fn take_array<const N: usize>(data: &mut &[u8]) -> Result<[u8; N], Truncated> {
    let (head, tail) = data.split_first_chunk::<N>().ok_or(Truncated)?;
    *data = tail;
    Ok(*head)
}

pub(crate) fn take_u8(data: &mut &[u8]) -> Result<u8, Truncated> {
    take_array(data).map(|[byte]| byte)
}

pub(crate) fn take_u16(data: &mut &[u8]) -> Result<u16, Truncated> {
    take_array(data).map(u16::from_le_bytes)
}

pub(crate) fn take_u32(data: &mut &[u8]) -> Result<u32, Truncated> {
    take_array(data).map(u32::from_le_bytes)
}

/// A `u32` length or count prefix, widened for slicing.
pub(crate) fn take_len(data: &mut &[u8]) -> Result<usize, Truncated> {
    usize::try_from(take_u32(data)?).map_err(|_| Truncated)
}

/// Takes the `4 * n` bytes of a run of `n` 32-bit words and returns them
/// as 4-byte chunks. `n` comes off the wire, so the byte length is a
/// checked multiply: on a 32-bit `usize` it must not wrap past the bounds
/// check.
fn take_words<'a>(
    data: &mut &'a [u8],
    n: usize,
) -> Result<impl Iterator<Item = [u8; 4]> + 'a, Truncated> {
    let words = take(data, n.checked_mul(4).ok_or(Truncated)?)?.chunks_exact(4);
    Ok(words.map(|w| w.try_into().unwrap_or([0; 4])))
}

pub(crate) fn take_u32s(data: &mut &[u8], n: usize) -> Result<Vec<u32>, Truncated> {
    Ok(take_words(data, n)?.map(u32::from_le_bytes).collect())
}

pub(crate) fn take_f32s(data: &mut &[u8], n: usize) -> Result<Vec<f32>, Truncated> {
    Ok(take_words(data, n)?.map(f32::from_le_bytes).collect())
}
