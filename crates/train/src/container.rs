//! The one on-disk framing that checkpoints ([`crate::checkpoint`]) and
//! datasets ([`crate::loader`]) share: a header line that pins the
//! format, then a checksummed binary *head*, then an optional *body*.
//!
//! ```text
//! <MAGIC> <version> <head-bytes> <fnv1a64(head)>\n
//! <head: head-bytes bytes>
//! <body: the rest of the file, possibly empty>
//! ```
//!
//! The length is 20 decimal digits and the checksum 16 lowercase hex
//! digits, single spaces between fields, so a writer can reserve the
//! header and patch it once the head exists ([`begin`], [`seal`]).
//! `read` validates magic → version → head length (against the bytes
//! the file actually holds, *before* allocating the head) → checksum, in
//! that order, and `Reader` then walks the verified head checking every
//! count against the bytes that remain before allocating for it. What
//! the body holds and how it is checked is the format's own business: a
//! checkpoint's is empty, a dataset's holds the chunks its head
//! checksums. Any damage is a structured [`Error`], never a panic and
//! never an allocation sized by a hostile length field.
//!
//! Files are written through `Staged`: the bytes land in `<name>.tmp`,
//! are fsynced, renamed over the final name, and the directory is
//! fsynced, so a crash at any point leaves either the old file or the new
//! one complete under the final name — never a torn one.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};

use mbs_core::fnv1a64;

/// Why a framed file could not be written or read.
#[derive(Debug)]
pub enum Error {
    /// The underlying filesystem operation failed (or, for a checkpoint,
    /// the writer thread died before finishing a save).
    Io(io::Error),
    /// The file exists but is not a valid file of its kind: bad magic,
    /// malformed header, truncation, checksum mismatch, or a head whose
    /// contents do not add up.
    Format(String),
    /// The file has a format version other than the one this build reads.
    Version(u64),
    /// A dataset chunk's bytes fail their checksum — damage inside the
    /// body, found when the chunk is first read.
    Corrupt {
        /// Chunk index within the file.
        chunk: usize,
        /// What the validation found.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O failed: {e}"),
            Self::Format(msg) => write!(f, "invalid file: {msg}"),
            Self::Version(v) => write!(f, "format version {v} is not readable by this build"),
            Self::Corrupt { chunk, reason } => write!(f, "chunk {chunk} is corrupt: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

fn bad(msg: String) -> Error {
    Error::Format(msg)
}

/// Longest header line [`read`] looks for a newline in: a magic, a
/// 20-digit version and the two fixed-width fields fit with room to spare.
const MAX_LINE: usize = 128;

/// Appends a header for `magic` `version` with zeroed length and checksum
/// fields and returns where the head starts; append the head, then
/// [`seal`].
pub fn begin(out: &mut Vec<u8>, magic: &str, version: u64) -> usize {
    writeln!(out, "{magic} {version} {:020} {:016x}", 0, 0).expect("Vec writes");
    out.len()
}

/// Fills in the length and checksum of the header [`begin`] wrote, where
/// `framed[head..]` is the whole head.
pub fn seal(framed: &mut [u8], head: usize) {
    let (len, checksum) = (framed.len() - head, fnv1a64(&framed[head..]));
    let mut slot = &mut framed[head - 38..head - 1];
    write!(slot, "{len:020} {checksum:016x}").expect("the placeholders' width");
}

/// A validated file: its checksum-verified head, and the byte range of
/// the body that follows it.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The head's bytes, checksum verified.
    pub(crate) head: Vec<u8>,
    /// File offsets of the body (empty when the head ends the file).
    pub(crate) body: Range<u64>,
}

/// Reads and validates the header and head of `src`, which must be a
/// `magic` file of format `version`: magic → version → head length →
/// checksum, in that order. The head is allocated only once its length is
/// known to fit in what `src` holds.
///
/// # Errors
///
/// [`Error::Format`] on bad magic, a malformed header, a head longer than
/// the file (truncation) or a checksum mismatch (corruption);
/// [`Error::Version`] for any other version; [`Error::Io`] when `src`
/// cannot be read.
pub(crate) fn read(
    src: &mut (impl Read + Seek),
    magic: &str,
    version: u64,
) -> Result<Frame, Error> {
    let len = src.seek(SeekFrom::End(0))?;
    src.rewind()?;
    let mut line = Vec::with_capacity(MAX_LINE);
    src.take(MAX_LINE as u64).read_to_end(&mut line)?;
    let nl = line
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("missing header line".into()))?;
    let header =
        std::str::from_utf8(&line[..nl]).map_err(|_| bad("header is not valid UTF-8".into()))?;
    // Exactly one space between fields and the checksum compared as
    // text: no damaged header may parse back to the intended values.
    let mut fields = header.split(' ');
    let found = fields.next().unwrap_or("");
    if found != magic {
        return Err(bad(format!("bad magic {found:?} (want {magic:?})")));
    }
    let found: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("header version field is not an integer".into()))?;
    if found != version {
        return Err(Error::Version(found));
    }
    let head_len: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("header length field is not an integer".into()))?;
    let checksum = fields.next().unwrap_or("");
    if fields.next().is_some() {
        return Err(bad("trailing header fields".into()));
    }
    let start = nl as u64 + 1;
    if head_len > len - start {
        return Err(bad(format!(
            "head is {head_len} bytes but {} follow the header (truncated write?)",
            len - start
        )));
    }
    let mut head = vec![0; head_len as usize];
    src.seek(SeekFrom::Start(start))?;
    src.read_exact(&mut head)?;
    let actual = format!("{:016x}", fnv1a64(&head));
    if actual != checksum {
        return Err(bad(format!(
            "head checksum {actual} does not match header {checksum:?} (corrupt file?)"
        )));
    }
    Ok(Frame {
        head,
        body: start + head_len..len,
    })
}

/// Cursor over a verified head. Every read is checked against the bytes
/// that remain, and every count is checked against them *before*
/// anything is allocated for it, so a hostile length field costs an
/// error message, not memory: each method fails with [`Error::Format`]
/// where the head cannot back what it asks for.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A cursor at the start of `head`.
    pub(crate) fn new(head: &'a [u8]) -> Self {
        Self(head)
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.0.len() {
            let left = self.0.len();
            return Err(bad(format!(
                "head ends early: {n} bytes wanted, {left} left"
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Every byte not yet read.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// A little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4"),
        ))
    }

    /// A little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8"),
        ))
    }

    /// A `u64` that must fit this platform's `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, Error> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("value {v} does not fit this platform")))
    }

    /// A `u64` count of items that occupy at least `item_bytes` each:
    /// rejected unless that many bytes remain.
    pub(crate) fn count(&mut self, item_bytes: usize) -> Result<usize, Error> {
        let (n, left) = (self.u64()?, self.0.len());
        usize::try_from(n)
            .ok()
            .filter(|n| n.checked_mul(item_bytes).is_some_and(|b| b <= left))
            .ok_or_else(|| bad(format!("count {n} exceeds the {left} head bytes left")))
    }

    /// Ends the walk: the whole head must have been read.
    pub(crate) fn finish(self) -> Result<(), Error> {
        match self.0.len() {
            0 => Ok(()),
            left => Err(bad(format!("{left} trailing head bytes"))),
        }
    }
}

/// A file being written as `<path>.tmp`, which appears under `path` only
/// once [`commit`](Staged::commit) made it durable. Dropped uncommitted,
/// it leaves the `.tmp` behind and `path` untouched.
#[derive(Debug)]
pub(crate) struct Staged {
    /// The `.tmp` file the bytes go to.
    pub(crate) file: File,
    tmp: PathBuf,
    path: PathBuf,
}

impl Staged {
    /// Creates (or truncates) `<path>.tmp`, creating `path`'s directory
    /// first if need be.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the directory or the file cannot be created.
    pub(crate) fn create(path: &Path) -> Result<Self, Error> {
        fs::create_dir_all(dir_of(path))?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        Ok(Self {
            file: File::create(&tmp)?,
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// Fsyncs the staged bytes: a crash from here on leaves them complete
    /// in the `.tmp` file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the fsync fails.
    pub(crate) fn sync(&self) -> Result<(), Error> {
        Ok(self.file.sync_all()?)
    }

    /// [`sync`](Staged::sync), rename over the final name, then fsync the
    /// directory so the rename itself survives a crash. The directory
    /// sync is best effort: some platforms cannot fsync a directory, and
    /// losing it only risks the rename, never a torn file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the fsync or the rename fails.
    pub(crate) fn commit(self) -> Result<(), Error> {
        self.sync()?;
        drop(self.file);
        fs::rename(&self.tmp, &self.path)?;
        if let Ok(d) = File::open(dir_of(&self.path)) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

fn dir_of(path: &Path) -> &Path {
    path.parent().unwrap_or(Path::new("."))
}
