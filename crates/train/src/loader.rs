//! Streaming data pipeline: the `*.mbsds` on-disk dataset format and the
//! double-buffered background-prefetch [`StreamLoader`] that feeds
//! [`train_grouped_source`](crate::training::train_grouped_source) from
//! disk **bitwise identically** to in-memory training.
//!
//! The source paper's discipline — keep the working set cache-sized, reuse
//! instead of re-materialize — stops at the dataset boundary today:
//! [`crate::data::generate`] materializes every sample up front. This
//! module extends it to input data: samples live on disk in checksummed
//! chunks, and a background thread streams shuffled batches into a small
//! ring of arena-pooled tensors that the training step consumes and
//! recycles, so steady-state streamed training allocates nothing and
//! (ideally) never waits.
//!
//! # On-disk format (`*.mbsds`, version 1)
//!
//! One ASCII header line, a JSON chunk index, then the raw chunk bytes —
//! the same magic/version/length/FNV-1a discipline as the checkpoint
//! format (see [`crate::checkpoint`]):
//!
//! ```text
//! MBSDS <version> <n> <c> <h> <w> <chunk-samples> <index-bytes> <index-fnv1a64-hex>\n
//! {"chunks":[{"samples":...,"bytes":...,"checksum":...},...]}
//! <chunk 0 bytes><chunk 1 bytes>...
//! ```
//!
//! Every chunk holds `chunk-samples` records (the last may hold fewer);
//! a record is a little-endian `u32` label followed by `c*h*w`
//! little-endian `f32` values — the exact bit patterns of the in-memory
//! tensor, so a save → open round trip is bitwise. The header checksums
//! the index and the index checksums each chunk, so validation is
//! hierarchical: [`DiskDataset::open`] proves the header and index
//! (magic → version → geometry → index length → index checksum → total
//! file length, in that order), and each chunk proves itself when first
//! read. A truncated or mid-chunk-torn file fails the total-length check
//! at open; a bit flip inside a chunk fails that chunk's checksum at read
//! time — either way a structured [`LoaderError`], never a garbage
//! tensor. Files are written atomically (tmp + fsync + rename +
//! directory fsync), so a crash mid-save never leaves a torn `*.mbsds`
//! under the final name.
//!
//! # The prefetch loop
//!
//! [`StreamLoader`] owns one background thread. Each epoch the trainer
//! hands it the epoch's shuffled index order (computed trainer-side, so
//! shuffle RNG consumption is identical to the in-memory path and
//! checkpoint kill/resume survives unchanged) and the thread assembles
//! batches into recycled [`Batch`] buffers: `prefetch` finished batches
//! queue in a bounded channel while one more is being filled and one is
//! being consumed. The trainer returns each consumed buffer through a
//! recycle channel, so after warm-up the same `prefetch + 2` tensors
//! cycle forever — zero arena misses in steady state (pinned by
//! `tests/grouped_steady_state.rs`). Dropping the loader closes every
//! channel and joins the thread, even mid-epoch, so a training error
//! never leaks the thread or its buffers.

use std::fmt;
use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mbs_core::fnv1a64;
use mbs_tensor::Tensor;

use crate::data::{generate_image_into, Dataset};

/// Current dataset format version (the second header field).
pub const MBSDS_VERSION: u64 = 1;

/// Header magic (the first header field).
pub const MBSDS_MAGIC: &str = "MBSDS";

/// File extension of finished datasets.
pub const MBSDS_EXT: &str = "mbsds";

/// Samples per chunk written by [`save_dataset`] and [`generate_to`]
/// (the `*_chunked` writers take any other size).
pub const DEFAULT_CHUNK_SAMPLES: usize = 64;

/// Prefetch depth of a streamed run whose `TrainConfig::prefetch` is
/// `None`.
pub const DEFAULT_PREFETCH: usize = 2;

/// Chunks the background thread keeps decoded at once. Shuffled access
/// hops between chunks, so a single-slot cache would thrash; a handful
/// bounds both re-reads and resident bytes.
const CACHE_CHUNKS: usize = 8;

/// Why a dataset file could not be written, opened, or streamed.
#[derive(Debug)]
pub enum LoaderError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but is not a valid dataset (bad magic, malformed
    /// header, index damage, truncation, geometry that does not add up).
    Format(String),
    /// The file has a newer format version than this build understands.
    Version(u64),
    /// A chunk's bytes fail their checksum — external damage inside the
    /// data region. Named so callers can report *which* chunk.
    ChunkCorrupt {
        /// Chunk index within the file.
        chunk: usize,
        /// What the validation found.
        reason: String,
    },
}

impl fmt::Display for LoaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "dataset I/O failed: {e}"),
            Self::Format(msg) => write!(f, "invalid dataset: {msg}"),
            Self::Version(v) => write!(
                f,
                "dataset format version {v} is newer than this build (max {MBSDS_VERSION})"
            ),
            Self::ChunkCorrupt { chunk, reason } => {
                write!(f, "dataset chunk {chunk} is corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for LoaderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoaderError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One chunk's entry in the JSON index: how many samples it holds, how
/// many bytes it spans, and the FNV-1a 64 checksum of those bytes.
/// Offsets are not stored — chunks are laid out back to back, so chunk
/// `i` starts at the sum of the previous chunks' byte counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkEntry {
    /// Records in this chunk.
    pub samples: usize,
    /// Bytes this chunk spans (`samples * (4 + 4 * c*h*w)`).
    pub bytes: usize,
    /// FNV-1a 64 of the chunk bytes.
    pub checksum: u64,
}

/// The JSON payload between the header line and the data region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ChunkIndex {
    chunks: Vec<ChunkEntry>,
}

/// An opened, header-validated `*.mbsds` file: geometry, chunk index,
/// and positioned reads. Opening proves the header and index; chunk
/// bytes prove themselves (per-chunk checksum) when first read.
#[derive(Debug)]
pub struct DiskDataset {
    path: PathBuf,
    /// `[n, c, h, w]` of the stored image tensor.
    shape: [usize; 4],
    chunk_samples: usize,
    data_start: u64,
    chunks: Vec<ChunkEntry>,
}

impl DiskDataset {
    /// Opens and validates `path`: magic → version → geometry → index
    /// length → index checksum → total file length, in that order. Chunk
    /// contents are *not* read here — each chunk validates on first read,
    /// so opening a terabyte dataset is O(index).
    ///
    /// # Errors
    ///
    /// [`LoaderError::Format`] for damage (named check), a structured
    /// [`LoaderError::Version`] for future versions, [`LoaderError::Io`]
    /// for filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, LoaderError> {
        let path = path.as_ref();
        let bad = |msg: String| LoaderError::Format(msg);
        let mut file = File::open(path)?;

        // Header line: bounded read so a binary blob cannot make us scan
        // gigabytes for a newline.
        let mut head = [0u8; 256];
        let got = read_up_to(&mut file, &mut head)?;
        let nl = head[..got]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad("missing header line".into()))?;
        let header = std::str::from_utf8(&head[..nl])
            .map_err(|_| bad("header is not valid UTF-8".into()))?;
        let mut fields = header.split_ascii_whitespace();
        let magic = fields.next().unwrap_or("");
        if magic != MBSDS_MAGIC {
            return Err(bad(format!("bad magic {magic:?} (want {MBSDS_MAGIC:?})")));
        }
        let version: u64 = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("header version field is not an integer".into()))?;
        if version > MBSDS_VERSION {
            return Err(LoaderError::Version(version));
        }
        let mut int = |name: &str| -> Result<usize, LoaderError> {
            fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("header {name} field is not an integer")))
        };
        let (n, c, h, w) = (int("n")?, int("c")?, int("h")?, int("w")?);
        let chunk_samples = int("chunk-samples")?;
        let index_len = int("index-bytes")?;
        let index_checksum = fields
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("header checksum field is not hex".into()))?;
        if fields.next().is_some() {
            return Err(bad("trailing header fields".into()));
        }
        if c == 0 || h == 0 || w == 0 || chunk_samples == 0 {
            return Err(bad(format!(
                "degenerate geometry [{n}, {c}, {h}, {w}] / chunk {chunk_samples}"
            )));
        }

        // Index: declared length, then checksum, then JSON.
        let mut index_bytes = vec![0u8; index_len];
        file.seek(SeekFrom::Start(nl as u64 + 1))?;
        file.read_exact(&mut index_bytes).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                bad("file ends inside the chunk index (truncated write?)".into())
            } else {
                LoaderError::Io(e)
            }
        })?;
        let actual = fnv1a64(&index_bytes);
        if actual != index_checksum {
            return Err(bad(format!(
                "index checksum {actual:016x} does not match header {index_checksum:016x} \
                 (corrupt file?)"
            )));
        }
        let index_text = std::str::from_utf8(&index_bytes)
            .map_err(|_| bad("chunk index is not valid UTF-8".into()))?;
        let index: ChunkIndex = serde_json::from_str(index_text)
            .map_err(|e| bad(format!("chunk index does not parse: {e}")))?;

        // Geometry must add up: per-chunk sample counts against `n` and
        // `chunk_samples`, per-chunk byte counts against the record size,
        // and the summed data region against the actual file length (the
        // mid-chunk-torn-write check).
        let row = c * h * w;
        let record = 4 + 4 * row;
        let mut samples = 0usize;
        let mut data_bytes = 0u64;
        for (i, chunk) in index.chunks.iter().enumerate() {
            let expect = if i + 1 < index.chunks.len() {
                chunk_samples
            } else {
                chunk.samples // the tail chunk may be short
            };
            if chunk.samples == 0 || chunk.samples != expect || chunk.samples > chunk_samples {
                return Err(bad(format!(
                    "chunk {i} holds {} samples (want {expect}, nominal {chunk_samples})",
                    chunk.samples
                )));
            }
            if chunk.bytes != chunk.samples * record {
                return Err(bad(format!(
                    "chunk {i} declares {} bytes for {} samples of {record} bytes",
                    chunk.bytes, chunk.samples
                )));
            }
            samples += chunk.samples;
            data_bytes += chunk.bytes as u64;
        }
        if samples != n {
            return Err(bad(format!(
                "chunks hold {samples} samples but the header declares {n}"
            )));
        }
        let data_start = nl as u64 + 1 + index_len as u64;
        let file_len = file.metadata()?.len();
        if file_len != data_start + data_bytes {
            return Err(bad(format!(
                "file is {file_len} bytes but header + index + chunks need {} \
                 (truncated or torn mid-chunk?)",
                data_start + data_bytes
            )));
        }

        Ok(Self {
            path: path.to_path_buf(),
            shape: [n, c, h, w],
            chunk_samples,
            data_start,
            chunks: index.chunks,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.shape[0]
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.shape[0] == 0
    }

    /// Stored image tensor shape `[n, c, h, w]`.
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Elements per sample (`c * h * w`).
    pub fn row_elems(&self) -> usize {
        self.shape[1] * self.shape[2] * self.shape[3]
    }

    /// Nominal samples per chunk (the last chunk may hold fewer).
    pub fn chunk_samples(&self) -> usize {
        self.chunk_samples
    }

    /// Number of chunks in the file.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Path this dataset was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset of chunk `i`'s first byte within the file.
    fn chunk_offset(&self, i: usize) -> u64 {
        self.data_start + self.chunks[..i].iter().map(|c| c.bytes as u64).sum::<u64>()
    }

    /// Reads and checksum-validates chunk `i` into `buf` (resized to the
    /// chunk's byte count) through the given file handle.
    fn read_chunk_into(
        &self,
        file: &mut File,
        i: usize,
        buf: &mut Vec<u8>,
    ) -> Result<(), LoaderError> {
        let entry = &self.chunks[i];
        buf.resize(entry.bytes, 0);
        file.seek(SeekFrom::Start(self.chunk_offset(i)))?;
        file.read_exact(buf)?;
        let actual = fnv1a64(buf);
        if actual != entry.checksum {
            return Err(LoaderError::ChunkCorrupt {
                chunk: i,
                reason: format!(
                    "checksum {actual:016x} does not match index {:016x}",
                    entry.checksum
                ),
            });
        }
        Ok(())
    }

    /// Loads the whole dataset into memory, validating every chunk. The
    /// result is **bitwise** equal to the [`Dataset`] that was saved
    /// (pinned by the round-trip proptest in `tests/loader_faults.rs`).
    ///
    /// # Errors
    ///
    /// [`LoaderError::ChunkCorrupt`] naming the first damaged chunk;
    /// [`LoaderError::Io`] for filesystem failures.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbs_train::data::generate;
    /// use mbs_train::loader::{save_dataset, DiskDataset};
    ///
    /// let dir = std::env::temp_dir().join("mbsds-doc-load");
    /// let path = dir.join("toy.mbsds");
    /// let set = generate(6, 4, 0.2, 9);
    /// save_dataset(&set, &path).unwrap();
    /// let reloaded = DiskDataset::open(&path).unwrap().load().unwrap();
    /// assert_eq!(reloaded.images, set.images);
    /// assert_eq!(reloaded.labels, set.labels);
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// ```
    pub fn load(&self) -> Result<Dataset, LoaderError> {
        let (tensor, labels) = self.read_prefix(self.len())?;
        Ok(Dataset {
            images: tensor,
            labels,
        })
    }

    /// Reads the first `k` samples (clamped to the dataset length) into a
    /// fresh tensor — the streamed analogue of
    /// [`slice_batch`](crate::module::slice_batch)`(images, 0, k)`, used
    /// for the pre-activation probe batch.
    ///
    /// # Errors
    ///
    /// Same as [`DiskDataset::load`].
    pub fn read_prefix(&self, k: usize) -> Result<(Tensor, Vec<usize>), LoaderError> {
        let k = k.min(self.len());
        let [_, c, h, w] = self.shape;
        let row = self.row_elems();
        let mut file = File::open(&self.path)?;
        let mut tensor = Tensor::uninit(&[k, c, h, w]);
        let mut labels = Vec::with_capacity(k);
        let mut chunk_buf = Vec::new();
        let mut done = 0usize;
        for (i, entry) in self.chunks.iter().enumerate() {
            if done >= k {
                break;
            }
            self.read_chunk_into(&mut file, i, &mut chunk_buf)?;
            let take = entry.samples.min(k - done);
            for s in 0..take {
                let rec = s * (4 + 4 * row);
                labels.push(decode_label(&chunk_buf[rec..rec + 4]));
                decode_row(
                    &chunk_buf[rec + 4..rec + 4 + 4 * row],
                    &mut tensor.data_mut()[(done + s) * row..(done + s + 1) * row],
                );
            }
            done += take;
        }
        Ok((tensor, labels))
    }
}

/// Reads as many bytes as the reader will give into `buf`, stopping at
/// EOF (unlike `read_exact`, short files are not an error here — the
/// header parser decides what "too short" means).
fn read_up_to(file: &mut File, buf: &mut [u8]) -> Result<usize, std::io::Error> {
    let mut got = 0;
    while got < buf.len() {
        match file.read(&mut buf[got..])? {
            0 => break,
            k => got += k,
        }
    }
    Ok(got)
}

fn decode_label(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes.try_into().expect("4 label bytes")) as usize
}

fn decode_row(bytes: &[u8], out: &mut [f32]) {
    debug_assert_eq!(bytes.len(), out.len() * 4);
    for (chunk, slot) in bytes.chunks_exact(4).zip(out.iter_mut()) {
        *slot = f32::from_le_bytes(chunk.try_into().expect("4 bytes per f32"));
    }
}

fn encode_record(label: usize, row: &[f32], out: &mut Vec<u8>) {
    out.extend_from_slice(&(label as u32).to_le_bytes());
    for &v in row {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Streams already-encoded chunks into a side `.data` temp file while
/// accumulating the index, then assembles the final file (header, then
/// index, then a data copy) atomically. Writers never hold more than
/// one chunk in memory, so generating a dataset far larger than RAM is
/// fine.
struct ChunkWriter {
    dir: PathBuf,
    final_path: PathBuf,
    data_tmp: PathBuf,
    data: File,
    chunks: Vec<ChunkEntry>,
    shape: [usize; 4],
    chunk_samples: usize,
}

impl ChunkWriter {
    fn new(path: &Path, shape: [usize; 4], chunk_samples: usize) -> Result<Self, LoaderError> {
        let dir = path
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .to_path_buf();
        fs::create_dir_all(&dir)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| LoaderError::Format("dataset path has no file name".into()))?;
        let data_tmp = dir.join(format!("{name}.tmp.data"));
        let data = File::create(&data_tmp)?;
        Ok(Self {
            dir,
            final_path: path.to_path_buf(),
            data_tmp,
            data,
            chunks: Vec::new(),
            shape,
            chunk_samples,
        })
    }

    fn push_chunk(&mut self, samples: usize, bytes: &[u8]) -> Result<(), LoaderError> {
        self.data.write_all(bytes)?;
        self.chunks.push(ChunkEntry {
            samples,
            bytes: bytes.len(),
            checksum: fnv1a64(bytes),
        });
        Ok(())
    }

    /// Writes header + index, appends the staged data, fsyncs, renames
    /// over the final name, and fsyncs the directory — the checkpoint
    /// module's durability protocol, applied to datasets.
    fn finish(mut self) -> Result<(), LoaderError> {
        self.data.sync_all()?;
        let index = serde_json::to_string(&ChunkIndex {
            chunks: std::mem::take(&mut self.chunks),
        })
        .expect("chunk index always serializes");
        let [n, c, h, w] = self.shape;
        let header = format!(
            "{MBSDS_MAGIC} {MBSDS_VERSION} {n} {c} {h} {w} {} {} {:016x}\n",
            self.chunk_samples,
            index.len(),
            fnv1a64(index.as_bytes())
        );
        let name = self
            .final_path
            .file_name()
            .and_then(|f| f.to_str())
            .expect("validated in new");
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut out = File::create(&tmp)?;
        out.write_all(header.as_bytes())?;
        out.write_all(index.as_bytes())?;
        let mut staged = File::open(&self.data_tmp)?;
        std::io::copy(&mut staged, &mut out)?;
        out.sync_all()?;
        drop(out);
        fs::rename(&tmp, &self.final_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all(); // best effort, like checkpoint::sync_dir
        }
        let _ = fs::remove_file(&self.data_tmp);
        Ok(())
    }
}

/// Saves an in-memory [`Dataset`] as `path` in chunks of
/// [`DEFAULT_CHUNK_SAMPLES`]. See [`save_dataset_chunked`].
///
/// # Errors
///
/// Same as [`save_dataset_chunked`].
pub fn save_dataset(set: &Dataset, path: impl AsRef<Path>) -> Result<(), LoaderError> {
    save_dataset_chunked(set, path, DEFAULT_CHUNK_SAMPLES)
}

/// Saves an in-memory [`Dataset`] as an atomic `*.mbsds` file with
/// `chunk_samples` records per chunk. The write is bitwise-faithful:
/// opening and [`DiskDataset::load`]ing the file reproduces `set`
/// exactly, including every f32 bit pattern.
///
/// # Errors
///
/// [`LoaderError::Format`] when the image tensor is not 4-D `[n,c,h,w]`
/// or the label count disagrees with it; [`LoaderError::Io`] for
/// filesystem failures.
pub fn save_dataset_chunked(
    set: &Dataset,
    path: impl AsRef<Path>,
    chunk_samples: usize,
) -> Result<(), LoaderError> {
    let shape = set.images.shape();
    if shape.len() != 4 {
        return Err(LoaderError::Format(format!(
            "dataset images must be [n, c, h, w], got {shape:?}"
        )));
    }
    let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
    if set.labels.len() != n {
        return Err(LoaderError::Format(format!(
            "{n} images but {} labels",
            set.labels.len()
        )));
    }
    let chunk_samples = chunk_samples.max(1);
    let row = c * h * w;
    let mut writer = ChunkWriter::new(path.as_ref(), [n, c, h, w], chunk_samples)?;
    let mut bytes = Vec::with_capacity(chunk_samples * (4 + 4 * row));
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk_samples).min(n);
        bytes.clear();
        for i in start..end {
            encode_record(
                set.labels[i],
                &set.images.data()[i * row..(i + 1) * row],
                &mut bytes,
            );
        }
        writer.push_chunk(end - start, &bytes)?;
        start = end;
    }
    writer.finish()
}

/// Generates `n` synthetic-ImageNet samples of `size × size` straight to
/// disk, one chunk of [`DEFAULT_CHUNK_SAMPLES`] at a time. See
/// [`generate_to_chunked`].
///
/// # Errors
///
/// Same as [`generate_to_chunked`].
pub fn generate_to(
    path: impl AsRef<Path>,
    n: usize,
    size: usize,
    noise: f32,
    seed: u64,
) -> Result<DiskDataset, LoaderError> {
    generate_to_chunked(path, n, size, noise, seed, DEFAULT_CHUNK_SAMPLES)
}

/// Streaming synthetic-ImageNet generator: the texture classes of
/// [`crate::data::generate`] at configurable count/size, written chunk by
/// chunk so the dataset never has to fit in memory. **Bitwise identical**
/// to `save_dataset_chunked(&generate(n, size, noise, seed), ...)`: both
/// run the same single-RNG-stream per-image routine
/// ([`generate_image_into`]), whose draw order is pinned by the golden
/// checksum test in `data.rs` — the disk generator cannot silently drift
/// from the in-memory one.
///
/// # Errors
///
/// [`LoaderError::Io`] for filesystem failures.
///
/// # Examples
///
/// ```
/// use mbs_train::loader::generate_to_chunked;
///
/// let dir = std::env::temp_dir().join("mbsds-doc-gen");
/// let ds = generate_to_chunked(dir.join("gen.mbsds"), 10, 6, 0.2, 3, 4).unwrap();
/// assert_eq!(ds.shape(), [10, 3, 6, 6]);
/// assert_eq!(ds.num_chunks(), 3); // 4 + 4 + 2 samples
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
pub fn generate_to_chunked(
    path: impl AsRef<Path>,
    n: usize,
    size: usize,
    noise: f32,
    seed: u64,
    chunk_samples: usize,
) -> Result<DiskDataset, LoaderError> {
    let chunk_samples = chunk_samples.max(1);
    let row = 3 * size * size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut writer = ChunkWriter::new(path.as_ref(), [n, 3, size, size], chunk_samples)?;
    let mut image = vec![0.0f32; row];
    let mut bytes = Vec::with_capacity(chunk_samples * (4 + 4 * row));
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk_samples).min(n);
        bytes.clear();
        for _ in start..end {
            let class = generate_image_into(&mut rng, size, noise, &mut image);
            encode_record(class, &image, &mut bytes);
        }
        writer.push_chunk(end - start, &bytes)?;
        start = end;
    }
    writer.finish()?;
    DiskDataset::open(path)
}

/// One prefetched batch: an arena-pooled image tensor and its labels.
/// Hand it back through [`StreamLoader::recycle`] after the training step
/// so the buffer (tensor storage included) is refilled instead of
/// reallocated.
#[derive(Debug)]
pub struct Batch {
    /// Images `[b, c, h, w]`.
    pub images: Tensor,
    /// One label per image row.
    pub labels: Vec<usize>,
}

/// The epoch order the trainer hands the background thread. Keeping the
/// permutation trainer-side keeps shuffle-RNG consumption identical to
/// the in-memory path — the invariant checkpoint kill/resume rides on.
struct EpochPlan {
    order: Vec<usize>,
    batch: usize,
    skip: usize,
}

/// Counters shared with the background thread (written there, read by
/// [`StreamLoader::stats`]).
#[derive(Debug, Default)]
struct SharedCounters {
    bytes_read: AtomicU64,
    chunk_loads: AtomicU64,
    batches_filled: AtomicU64,
}

/// A [`StreamLoader`]'s observable behavior, for benches and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LoaderStats {
    /// Times [`StreamLoader::next_batch`] found the queue empty and had
    /// to block — the prefetch-stall count. Zero means the training step
    /// never waited on disk.
    pub stalls: u64,
    /// Chunk bytes read off disk (re-reads from cache misses included).
    pub bytes_read: u64,
    /// Chunk reads (cache misses) the background thread performed.
    pub chunk_loads: u64,
    /// Batches the background thread finished assembling.
    pub batches_filled: u64,
}

/// Double-buffered background prefetch over a [`DiskDataset`].
///
/// One background thread assembles shuffled batches into a fixed ring of
/// recycled, arena-pooled buffers: `prefetch` finished batches queue in a
/// bounded channel, one more is being filled, one is at the trainer —
/// `prefetch + 2` buffers total, cycling forever. `prefetch = 1` is the
/// degenerate near-synchronous mode, which the equivalence tests sweep.
///
/// Dropping the loader closes every channel (unblocking the thread
/// wherever it sleeps) and joins it — mid-epoch drops, e.g. when the
/// training loop errors, leak neither the thread nor its buffers.
///
/// # Examples
///
/// ```
/// use mbs_train::loader::{generate_to_chunked, DiskDataset, StreamLoader};
///
/// let dir = std::env::temp_dir().join("mbsds-doc-stream");
/// let ds = generate_to_chunked(dir.join("s.mbsds"), 8, 4, 0.2, 5, 4).unwrap();
/// let mut loader = StreamLoader::new(&ds, 2).unwrap();
/// loader.begin_epoch(&[3, 1, 4, 1, 5, 0, 2, 6], 4, 0);
/// for _ in 0..2 {
///     let batch = loader.next_batch().unwrap();
///     assert_eq!(batch.images.shape(), &[4, 3, 4, 4]);
///     loader.recycle(batch);
/// }
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct StreamLoader {
    plan_tx: Option<Sender<EpochPlan>>,
    batch_rx: Option<Receiver<Result<Batch, LoaderError>>>,
    recycle_tx: Option<Sender<Batch>>,
    handle: Option<JoinHandle<()>>,
    counters: Arc<SharedCounters>,
    stalls: u64,
}

impl StreamLoader {
    /// Spawns the prefetch thread over `ds` with the given prefetch depth
    /// (clamped to ≥ 1). The thread opens its own file handle so trainer-
    /// side reads ([`DiskDataset::read_prefix`]) never contend with it.
    ///
    /// # Errors
    ///
    /// [`LoaderError::Io`] if the dataset file cannot be reopened.
    pub fn new(ds: &DiskDataset, prefetch: usize) -> Result<Self, LoaderError> {
        let prefetch = prefetch.max(1);
        let file = File::open(ds.path())?;
        let meta = ThreadMeta {
            shape: ds.shape,
            chunk_samples: ds.chunk_samples,
            data_start: ds.data_start,
            chunks: ds.chunks.clone(),
        };
        let (plan_tx, plan_rx) = std::sync::mpsc::channel::<EpochPlan>();
        let (batch_tx, batch_rx) = std::sync::mpsc::sync_channel(prefetch);
        let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<Batch>();
        let counters = Arc::new(SharedCounters::default());
        let thread_counters = Arc::clone(&counters);
        let max_bufs = prefetch + 2;
        let handle = std::thread::Builder::new()
            .name("mbs-loader".into())
            .spawn(move || {
                prefetch_thread(
                    file,
                    meta,
                    plan_rx,
                    batch_tx,
                    recycle_rx,
                    thread_counters,
                    max_bufs,
                )
            })
            .map_err(LoaderError::Io)?;
        Ok(Self {
            plan_tx: Some(plan_tx),
            batch_rx: Some(batch_rx),
            recycle_tx: Some(recycle_tx),
            handle: Some(handle),
            counters,
            stalls: 0,
        })
    }

    /// Hands the background thread the epoch's shuffled sample order:
    /// it will assemble batches `order[skip*batch..]` in `batch`-sized
    /// slices (the tail batch may be short). `skip` is the checkpoint-
    /// resume cursor — skipped batches are never read off disk.
    pub fn begin_epoch(&mut self, order: &[usize], batch: usize, skip: usize) {
        if let Some(tx) = &self.plan_tx {
            // A send can only fail if the thread died; next_batch will
            // surface that as a structured error.
            let _ = tx.send(EpochPlan {
                order: order.to_vec(),
                batch: batch.max(1),
                skip,
            });
        }
    }

    /// The next prefetched batch, blocking if the queue is empty (counted
    /// as a stall). Call once per batch announced by [`begin_epoch`].
    ///
    /// # Errors
    ///
    /// A structured [`LoaderError`] when the background thread hit one
    /// (chunk corruption, I/O failure) — the thread then discards the
    /// rest of the epoch and waits for the next plan — or
    /// [`LoaderError::Format`] if the thread is gone entirely.
    ///
    /// [`begin_epoch`]: StreamLoader::begin_epoch
    pub fn next_batch(&mut self) -> Result<Batch, LoaderError> {
        let rx = self
            .batch_rx
            .as_ref()
            .expect("receiver lives until the loader drops");
        match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                self.stalls += 1;
                rx.recv()
                    .map_err(|_| LoaderError::Format("loader thread exited".into()))?
            }
            Err(TryRecvError::Disconnected) => {
                Err(LoaderError::Format("loader thread exited".into()))
            }
        }
    }

    /// Returns a consumed batch buffer to the ring so the background
    /// thread refills it in place (same tensor storage, no allocation).
    pub fn recycle(&mut self, batch: Batch) {
        if let Some(tx) = &self.recycle_tx {
            let _ = tx.send(batch);
        }
    }

    /// Counters so far: trainer-side stalls plus the thread's disk and
    /// batch counters.
    pub fn stats(&self) -> LoaderStats {
        LoaderStats {
            stalls: self.stalls,
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            chunk_loads: self.counters.chunk_loads.load(Ordering::Relaxed),
            batches_filled: self.counters.batches_filled.load(Ordering::Relaxed),
        }
    }

    /// Shuts the loader down explicitly and returns the final stats.
    /// (Dropping does the same join without the stats.)
    pub fn finish(mut self) -> LoaderStats {
        let stats = self.stats();
        self.close_and_join();
        stats
    }

    fn close_and_join(&mut self) {
        // Closing every channel unblocks the thread no matter where it
        // sleeps: plans.recv, batches.send (bounded), or recycle.recv.
        self.plan_tx.take();
        self.batch_rx.take();
        self.recycle_tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StreamLoader {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// What the background thread needs from the [`DiskDataset`] (owned, so
/// the loader is not borrow-tied to it).
struct ThreadMeta {
    shape: [usize; 4],
    chunk_samples: usize,
    data_start: u64,
    chunks: Vec<ChunkEntry>,
}

impl ThreadMeta {
    fn row_elems(&self) -> usize {
        self.shape[1] * self.shape[2] * self.shape[3]
    }

    fn chunk_offset(&self, i: usize) -> u64 {
        self.data_start + self.chunks[..i].iter().map(|c| c.bytes as u64).sum::<u64>()
    }
}

/// A small LRU of decoded chunks, keyed by chunk index. Shuffled batch
/// assembly hops between chunks; keeping the last few resident bounds
/// re-reads without pinning the whole file.
struct ChunkCache {
    /// `(chunk_index, last_used_tick, bytes)` per slot.
    slots: Vec<(usize, u64, Vec<u8>)>,
    tick: u64,
    capacity: usize,
}

impl ChunkCache {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// The chunk's bytes, reading (and checksum-validating) on miss.
    fn get(
        &mut self,
        file: &mut File,
        meta: &ThreadMeta,
        chunk: usize,
        counters: &SharedCounters,
    ) -> Result<&[u8], LoaderError> {
        self.tick += 1;
        if let Some(pos) = self.slots.iter().position(|(c, _, _)| *c == chunk) {
            self.slots[pos].1 = self.tick;
            return Ok(&self.slots[pos].2);
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push((chunk, self.tick, Vec::new()));
            self.slots.len() - 1
        } else {
            // Evict the least recently used slot, reusing its buffer.
            let (evict, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used, _))| *used)
                .expect("cache has slots");
            self.slots[evict].0 = chunk;
            self.slots[evict].1 = self.tick;
            evict
        };
        let entry = &meta.chunks[chunk];
        let buf = &mut self.slots[slot].2;
        buf.resize(entry.bytes, 0);
        file.seek(SeekFrom::Start(meta.chunk_offset(chunk)))?;
        file.read_exact(buf)?;
        counters
            .bytes_read
            .fetch_add(entry.bytes as u64, Ordering::Relaxed);
        counters.chunk_loads.fetch_add(1, Ordering::Relaxed);
        let actual = fnv1a64(buf);
        if actual != entry.checksum {
            // Poison the slot so a retry re-reads instead of serving the
            // damaged bytes from cache.
            self.slots[slot].0 = usize::MAX;
            return Err(LoaderError::ChunkCorrupt {
                chunk,
                reason: format!(
                    "checksum {actual:016x} does not match index {:016x}",
                    entry.checksum
                ),
            });
        }
        Ok(&self.slots[slot].2)
    }
}

/// The background prefetch loop. Exits when any channel closes (the
/// trainer dropped the loader) or all plans are done and the plan sender
/// is gone. On a batch error it reports once and discards the rest of
/// that epoch, then waits for the next plan.
fn prefetch_thread(
    mut file: File,
    meta: ThreadMeta,
    plans: Receiver<EpochPlan>,
    batches: SyncSender<Result<Batch, LoaderError>>,
    recycle: Receiver<Batch>,
    counters: Arc<SharedCounters>,
    max_bufs: usize,
) {
    let mut cache = ChunkCache::new(CACHE_CHUNKS.min(meta.chunks.len().max(1)));
    let mut created = 0usize;
    while let Ok(plan) = plans.recv() {
        let n = plan.order.len();
        let mut start = plan.skip * plan.batch;
        while start < n {
            let end = (start + plan.batch).min(n);
            // A recycled buffer if one is waiting; fresh only while the
            // ring is still growing toward its fixed size.
            let buf = match recycle.try_recv() {
                Ok(b) => Some(b),
                Err(TryRecvError::Empty) if created < max_bufs => {
                    created += 1;
                    Some(Batch {
                        images: Tensor::uninit(&[0]),
                        labels: Vec::new(),
                    })
                }
                // When the ring is full, block for a recycled buffer;
                // a closed channel means the trainer is gone.
                Err(TryRecvError::Empty) => recycle.recv().ok(),
                Err(TryRecvError::Disconnected) => None,
            };
            let Some(mut buf) = buf else { return };
            let filled = fill_batch(
                &mut buf,
                &plan.order[start..end],
                &meta,
                &mut file,
                &mut cache,
                &counters,
            );
            match filled {
                Ok(()) => {
                    counters.batches_filled.fetch_add(1, Ordering::Relaxed);
                    if batches.send(Ok(buf)).is_err() {
                        return; // trainer gone
                    }
                    start = end;
                }
                Err(e) => {
                    // Report once; the trainer will abort or re-plan.
                    let _ = batches.send(Err(e));
                    break;
                }
            }
        }
    }
}

/// Assembles one batch in place: tensor reshaped (reusing its arena
/// storage when the capacity fits — always, after warm-up), labels
/// cleared and refilled, rows decoded straight from cached chunk bytes.
fn fill_batch(
    buf: &mut Batch,
    idxs: &[usize],
    meta: &ThreadMeta,
    file: &mut File,
    cache: &mut ChunkCache,
    counters: &SharedCounters,
) -> Result<(), LoaderError> {
    let [_, c, h, w] = meta.shape;
    let row = meta.row_elems();
    let shape = [idxs.len(), c, h, w];
    if buf.images.shape() != shape {
        // Dropping the old tensor recycles its storage into the arena;
        // `uninit` takes it straight back when the capacity fits, so this
        // is a pool round-trip, not an allocation, in steady state.
        buf.images = Tensor::uninit(&shape);
    }
    buf.labels.clear();
    let data = buf.images.data_mut();
    for (i, &idx) in idxs.iter().enumerate() {
        let chunk = idx / meta.chunk_samples;
        let within = idx % meta.chunk_samples;
        let bytes = cache.get(file, meta, chunk, counters)?;
        let rec = within * (4 + 4 * row);
        buf.labels.push(decode_label(&bytes[rec..rec + 4]));
        decode_row(
            &bytes[rec + 4..rec + 4 + 4 * row],
            &mut data[i * row..(i + 1) * row],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbsds-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_load_round_trips_bitwise() {
        let dir = scratch("roundtrip");
        let path = dir.join("set.mbsds");
        let set = generate(11, 6, 0.3, 41);
        save_dataset_chunked(&set, &path, 4).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        assert_eq!(disk.shape(), [11, 3, 6, 6]);
        assert_eq!(disk.num_chunks(), 3); // 4 + 4 + 3
        let loaded = disk.load().unwrap();
        assert_eq!(loaded.labels, set.labels);
        for (a, b) in loaded.images.data().iter().zip(set.images.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_to_matches_generate_then_save() {
        let dir = scratch("genmatch");
        let a = dir.join("streamed.mbsds");
        let b = dir.join("memory.mbsds");
        generate_to_chunked(&a, 9, 5, 0.25, 77, 4).unwrap();
        save_dataset_chunked(&generate(9, 5, 0.25, 77), &b, 4).unwrap();
        assert_eq!(
            fs::read(&a).unwrap(),
            fs::read(&b).unwrap(),
            "streamed generator drifted from generate() + save"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_prefix_matches_the_leading_samples() {
        let dir = scratch("prefix");
        let path = dir.join("set.mbsds");
        let set = generate(10, 4, 0.2, 5);
        save_dataset_chunked(&set, &path, 3).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        let (probe, labels) = disk.read_prefix(7).unwrap();
        assert_eq!(probe.shape(), &[7, 3, 4, 4]);
        assert_eq!(labels, set.labels[..7]);
        let row = 3 * 4 * 4;
        for (a, b) in probe.data().iter().zip(&set.images.data()[..7 * row]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_loader_reproduces_gathered_batches() {
        let dir = scratch("stream");
        let path = dir.join("set.mbsds");
        let set = generate(13, 4, 0.2, 8);
        save_dataset_chunked(&set, &path, 5).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        let mut loader = StreamLoader::new(&disk, 2).unwrap();
        let order: Vec<usize> = vec![12, 0, 7, 3, 9, 1, 11, 2, 8, 4, 10, 5, 6];
        let row = disk.row_elems();
        for epoch in 0..2 {
            loader.begin_epoch(&order, 4, 0);
            let mut start = 0;
            while start < order.len() {
                let end = (start + 4).min(order.len());
                let batch = loader.next_batch().unwrap();
                assert_eq!(batch.images.shape(), &[end - start, 3, 4, 4]);
                for (i, &idx) in order[start..end].iter().enumerate() {
                    assert_eq!(batch.labels[i], set.labels[idx], "epoch {epoch}");
                    let want = &set.images.data()[idx * row..(idx + 1) * row];
                    let got = &batch.images.data()[i * row..(i + 1) * row];
                    for (a, b) in got.iter().zip(want) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                loader.recycle(batch);
                start = end;
            }
        }
        let stats = loader.finish();
        assert!(stats.batches_filled >= 8);
        assert!(stats.bytes_read > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_resumes_mid_epoch() {
        let dir = scratch("skip");
        let path = dir.join("set.mbsds");
        let set = generate(8, 4, 0.2, 9);
        save_dataset_chunked(&set, &path, 4).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        let mut loader = StreamLoader::new(&disk, 1).unwrap();
        let order: Vec<usize> = (0..8).rev().collect();
        loader.begin_epoch(&order, 3, 1); // skip the first batch of 3
        let batch = loader.next_batch().unwrap();
        assert_eq!(
            batch.labels,
            vec![set.labels[4], set.labels[3], set.labels[2]]
        );
        loader.recycle(batch);
        let tail = loader.next_batch().unwrap();
        assert_eq!(tail.labels, vec![set.labels[1], set.labels[0]]);
        loader.recycle(tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_mid_epoch_joins_the_thread() {
        let dir = scratch("drop");
        let path = dir.join("set.mbsds");
        save_dataset_chunked(&generate(16, 4, 0.2, 10), &path, 4).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        let mut loader = StreamLoader::new(&disk, 2).unwrap();
        loader.begin_epoch(&(0..16).collect::<Vec<_>>(), 4, 0);
        let batch = loader.next_batch().unwrap();
        // Drop without recycling, mid-epoch, with the queue full: the
        // thread must unblock and join (Drop would hang otherwise).
        drop(loader);
        drop(batch);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_rejects_malformed_datasets() {
        let dir = scratch("badset");
        let path = dir.join("set.mbsds");
        let mut set = generate(4, 4, 0.2, 11);
        set.labels.pop();
        let err = save_dataset_chunked(&set, &path, 2).unwrap_err();
        assert!(matches!(err, LoaderError::Format(msg) if msg.contains("labels")));
        let _ = fs::remove_dir_all(&dir);
    }
}
