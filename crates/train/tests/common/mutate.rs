//! One mutation harness for every file framed by `mbs_train::container`
//! (checkpoints and datasets): whatever bytes a decoder is handed, it
//! answers with a structured error — no panic, and no allocation larger
//! than the input. The allocation half needs the binary's global
//! allocator to be [`super::Probe`].

use mbs_train::container::{self, Error};

/// What a decoder may allocate that the input does not back: the
/// container's header-line buffer and an error message. Neither comes
/// near this.
pub const FIXED_BYTES: usize = 256;

/// `framed`'s magic, version, head and body, split by its header line.
fn split(framed: &[u8]) -> (&str, u64, &[u8], &[u8]) {
    let nl = framed
        .iter()
        .position(|&b| b == b'\n')
        .expect("a header line");
    let fields: Vec<&str> = std::str::from_utf8(&framed[..nl])
        .expect("a text header")
        .split(' ')
        .collect();
    let (head, body) = framed[nl + 1..].split_at(fields[2].parse().expect("a length"));
    (fields[0], fields[1].parse().expect("a version"), head, body)
}

/// `head` then `body` under a header with `like`'s magic and version that
/// describes the head truthfully, so damage gets past the container's
/// length and checksum checks and reaches the format's own reader.
pub fn reseal(like: &[u8], head: &[u8], body: &[u8]) -> Vec<u8> {
    let (magic, version, _, _) = split(like);
    let mut bytes = Vec::new();
    let start = container::begin(&mut bytes, magic, version);
    bytes.extend_from_slice(head);
    container::seal(&mut bytes, start);
    bytes.extend_from_slice(body);
    bytes
}

/// Decodes hostile bytes and checks the two promises: a structured
/// `Format`/`Version`/`Corrupt` error (`Ok` only where `may_decode`), and
/// no allocation request larger than the input or [`FIXED_BYTES`].
/// Returns the error, if any, for the caller to check further.
pub fn hostile<T>(
    bytes: &[u8],
    may_decode: bool,
    what: &str,
    decode: &mut impl FnMut(&[u8]) -> Result<T, Error>,
) -> Option<Error> {
    super::reset_largest();
    let result = decode(bytes);
    let largest = super::largest();
    assert!(
        largest <= bytes.len().max(FIXED_BYTES),
        "{what}: the decoder asked for {largest} bytes at once, the input has {}",
        bytes.len()
    );
    match result {
        Err(e @ (Error::Format(_) | Error::Version(_) | Error::Corrupt { .. })) => Some(e),
        Ok(_) if may_decode => None,
        Ok(_) => panic!("{what}: damaged bytes decoded"),
        Err(e) => panic!("{what}: want a structured format error, got {e:?}"),
    }
}

/// Every truncation length and a single-bit flip at every offset of
/// `golden` (header, head and body alike), then the same over its head
/// under a truthful header. Raw damage never decodes: the container's
/// length and checksum, the format's body checks or a chunk checksum
/// catch it. A cut head is always short of something; a flipped head bit
/// may land in a float and decode to a different, valid file.
pub fn every_cut_and_flip<T>(golden: &[u8], mut decode: impl FnMut(&[u8]) -> Result<T, Error>) {
    hostile(golden, true, "the golden file itself", &mut decode);
    for cut in 0..golden.len() {
        hostile(
            &golden[..cut],
            false,
            &format!("file cut to {cut}"),
            &mut decode,
        );
    }
    for bit in 0..golden.len() * 8 {
        let mut bytes = golden.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let what = format!("file bit {bit} flipped");
        hostile(&bytes, false, &what, &mut decode);
    }
    let (_, _, head, body) = split(golden);
    for cut in 0..head.len() {
        let what = format!("head cut to {cut}");
        hostile(
            &reseal(golden, &head[..cut], body),
            false,
            &what,
            &mut decode,
        );
    }
    for bit in 0..head.len() * 8 {
        let mut damaged = head.to_vec();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let what = format!("head bit {bit} flipped");
        hostile(&reseal(golden, &damaged, body), true, &what, &mut decode);
    }
}
