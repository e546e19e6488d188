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
//! # On-disk format (`*.mbsds`, version 2)
//!
//! A dataset is framed by [`crate::container`] with magic
//! [`MBSDS_MAGIC`], like a checkpoint: the header line, a binary head
//! that describes the geometry and checksums every chunk, then the chunks
//! back to back as the body.
//!
//! ```text
//! MBSDS 2 <head-bytes> <fnv1a64(head)-hex>\n
//! head : u64 n · u64 c · u64 h · u64 w · u64 chunk_samples
//!        ceil(n / chunk_samples) × u64 chunk checksum (FNV-1a 64)
//! body : chunk 0 · chunk 1 · …
//! ```
//!
//! Every chunk holds `chunk_samples` records (the last may hold fewer), so
//! chunk `i` starts `i · chunk_samples · record` bytes into the body. A
//! record is a little-endian `u32` label followed by `c*h*w`
//! little-endian `f32` values — the exact bit patterns of the in-memory
//! tensor, so a save → open round trip is bitwise. Validation is
//! hierarchical: [`DiskDataset::open`] runs the container's checks, then
//! proves the geometry (every product checked for overflow), the
//! checksum count and the body length, so a truncated or mid-chunk-torn
//! file fails at open; each chunk proves itself against its checksum when
//! first read, so a bit flip inside a chunk fails there — either way a
//! structured [`container::Error`], never a garbage tensor. Files are
//! written atomically through `container::Staged`, so a crash mid-save
//! never leaves a torn `*.mbsds` under the final name.
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

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_core::fnv1a64;
use mbs_tensor::Tensor;

use crate::container::{self, Error, Reader, Staged};
use crate::data::{generate_image_into, Dataset};

/// Dataset format version [`DiskDataset::open`] reads and the writers
/// write (the second header field).
pub const MBSDS_VERSION: u64 = 2;

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

/// An opened, validated `*.mbsds` file: geometry, chunk checksums, and
/// positioned reads. Opening proves the header, head and body length;
/// chunk bytes prove themselves against their checksum when read.
#[derive(Debug, Clone)]
pub struct DiskDataset {
    path: PathBuf,
    /// `[n, c, h, w]` of the stored image tensor.
    shape: [usize; 4],
    chunk_samples: usize,
    /// Bytes per record: the `u32` label and `c*h*w` `f32`s.
    record: usize,
    /// File offset of chunk 0.
    body_start: u64,
    /// FNV-1a 64 of each chunk's bytes.
    checksums: Vec<u64>,
}

/// `(record bytes, body bytes)` of `shape`'s samples, or a format error
/// naming the geometry if a sample is empty or either product overflows:
/// the one geometry check, for the writers and [`DiskDataset::open`].
fn sizes(shape: [usize; 4]) -> Result<(usize, usize), Error> {
    let [n, c, h, w] = shape;
    if shape[1..].contains(&0) {
        return Err(Error::Format(format!("degenerate geometry {shape:?}")));
    }
    c.checked_mul(h)
        .and_then(|hw| hw.checked_mul(w)?.checked_mul(4)?.checked_add(4))
        .and_then(|record| Some((record, record.checked_mul(n)?)))
        .ok_or_else(|| Error::Format(format!("geometry {shape:?} overflows the address space")))
}

impl DiskDataset {
    /// Opens and validates `path`: the container's magic → version → head
    /// length → head checksum, then geometry → checksum count → body
    /// length, in that order. Chunk contents are *not* read here — each
    /// chunk validates on first read, so opening a terabyte dataset costs
    /// its head.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] for damage (named check), [`Error::Version`] for
    /// any other format version, [`Error::Io`] for filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let frame = container::read(&mut File::open(path)?, MBSDS_MAGIC, MBSDS_VERSION)?;
        let mut head = Reader::new(&frame.head);
        let shape = [head.usize()?, head.usize()?, head.usize()?, head.usize()?];
        let chunk_samples = head.usize()?;
        if chunk_samples == 0 {
            return Err(Error::Format("chunks of 0 samples".into()));
        }
        let (record, body) = sizes(shape)?;
        // `8 * chunks <= 8 * n <= n * record`, which `sizes` proved fits.
        let chunks = shape[0].div_ceil(chunk_samples);
        let table = head.rest();
        if table.len() != 8 * chunks {
            return Err(Error::Format(format!(
                "head holds {} checksum bytes but {chunks} chunks need {}",
                table.len(),
                8 * chunks
            )));
        }
        let found = frame.body.end - frame.body.start;
        if found != body as u64 {
            return Err(Error::Format(format!(
                "body is {found} bytes but {} records of {record} bytes need {body} \
                 (truncated or torn mid-chunk?)",
                shape[0]
            )));
        }
        Ok(Self {
            path: path.to_path_buf(),
            shape,
            chunk_samples,
            record,
            body_start: frame.body.start,
            checksums: table
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("chunks of 8")))
                .collect(),
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
        self.checksums.len()
    }

    /// Path this dataset was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records in chunk `i` (the last may be short).
    fn chunk_len(&self, i: usize) -> usize {
        self.chunk_samples.min(self.len() - i * self.chunk_samples)
    }

    /// Reads chunk `i` into `buf` (resized to the chunk's bytes) through
    /// `file` and verifies its checksum: the one chunk read, behind both
    /// [`read_prefix`](DiskDataset::read_prefix) and the loader thread.
    fn read_chunk(&self, file: &mut File, i: usize, buf: &mut Vec<u8>) -> Result<(), Error> {
        let want = self.checksums[i];
        buf.resize(self.chunk_len(i) * self.record, 0);
        let offset = i * self.chunk_samples * self.record;
        file.seek(SeekFrom::Start(self.body_start + offset as u64))?;
        file.read_exact(buf)?;
        let actual = fnv1a64(buf);
        if actual != want {
            return Err(Error::Corrupt {
                chunk: i,
                reason: format!("checksum {actual:016x} does not match the head's {want:016x}"),
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
    /// [`Error::Corrupt`] naming the first damaged chunk;
    /// [`Error::Io`] for filesystem failures.
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
    pub fn load(&self) -> Result<Dataset, Error> {
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
    pub fn read_prefix(&self, k: usize) -> Result<(Tensor, Vec<usize>), Error> {
        let k = k.min(self.len());
        let [_, c, h, w] = self.shape;
        let row = self.row_elems();
        let mut file = File::open(&self.path)?;
        let mut tensor = Tensor::uninit(&[k, c, h, w]);
        let mut labels = Vec::with_capacity(k);
        let mut chunk_buf = Vec::new();
        let mut done = 0usize;
        for i in 0..self.num_chunks() {
            if done >= k {
                break;
            }
            self.read_chunk(&mut file, i, &mut chunk_buf)?;
            let take = self.chunk_len(i).min(k - done);
            for s in 0..take {
                let rec = s * self.record;
                labels.push(decode_label(&chunk_buf[rec..rec + 4]));
                decode_row(
                    &chunk_buf[rec + 4..rec + self.record],
                    &mut tensor.data_mut()[(done + s) * row..(done + s + 1) * row],
                );
            }
            done += take;
        }
        Ok((tensor, labels))
    }
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

/// Writes the `n = shape[0]` records of a `shape` dataset as an atomic
/// `*.mbsds` file in chunks of `chunk_samples`, `record(i, out)`
/// appending sample `i`'s encoding. The head is reserved first; the
/// chunks stream into the one staged file while their checksums fill the
/// head in memory; then the head is patched and the file committed. One
/// chunk is in memory at a time, so a dataset far larger than RAM is
/// fine.
fn write_chunked(
    path: &Path,
    shape: [usize; 4],
    chunk_samples: usize,
    mut record: impl FnMut(usize, &mut Vec<u8>),
) -> Result<(), Error> {
    let (record_bytes, _) = sizes(shape)?;
    let n = shape[0];
    let mut head = Vec::new();
    let start = container::begin(&mut head, MBSDS_MAGIC, MBSDS_VERSION);
    for v in shape.into_iter().chain([chunk_samples]) {
        head.extend_from_slice(&(v as u64).to_le_bytes());
    }
    let table = head.len();
    head.resize(table + 8 * n.div_ceil(chunk_samples), 0);
    let mut staged = Staged::create(path)?;
    staged.file.write_all(&head)?;
    let mut bytes = Vec::with_capacity(chunk_samples.min(n) * record_bytes);
    for (chunk, first) in (0..n).step_by(chunk_samples).enumerate() {
        bytes.clear();
        for i in first..n.min(first + chunk_samples) {
            record(i, &mut bytes);
        }
        staged.file.write_all(&bytes)?;
        head[table + 8 * chunk..][..8].copy_from_slice(&fnv1a64(&bytes).to_le_bytes());
    }
    container::seal(&mut head, start);
    staged.file.rewind()?;
    staged.file.write_all(&head)?;
    staged.commit()
}

/// Saves an in-memory [`Dataset`] as `path` in chunks of
/// [`DEFAULT_CHUNK_SAMPLES`]. See [`save_dataset_chunked`].
///
/// # Errors
///
/// Same as [`save_dataset_chunked`].
pub fn save_dataset(set: &Dataset, path: impl AsRef<Path>) -> Result<(), Error> {
    save_dataset_chunked(set, path, DEFAULT_CHUNK_SAMPLES)
}

/// Saves an in-memory [`Dataset`] as an atomic `*.mbsds` file with
/// `chunk_samples` records per chunk. The write is bitwise-faithful:
/// opening and [`DiskDataset::load`]ing the file reproduces `set`
/// exactly, including every f32 bit pattern.
///
/// # Errors
///
/// [`Error::Format`] when the image tensor is not 4-D `[n,c,h,w]` or the
/// label count disagrees with it; [`Error::Io`] for filesystem failures.
pub fn save_dataset_chunked(
    set: &Dataset,
    path: impl AsRef<Path>,
    chunk_samples: usize,
) -> Result<(), Error> {
    let shape: [usize; 4] = set.images.shape().try_into().map_err(|_| {
        Error::Format(format!(
            "dataset images must be [n, c, h, w], got {:?}",
            set.images.shape()
        ))
    })?;
    if set.labels.len() != shape[0] {
        return Err(Error::Format(format!(
            "{} images but {} labels",
            shape[0],
            set.labels.len()
        )));
    }
    let row = shape[1] * shape[2] * shape[3];
    let images = set.images.data();
    write_chunked(path.as_ref(), shape, chunk_samples.max(1), |i, out| {
        encode_record(set.labels[i], &images[i * row..(i + 1) * row], out);
    })
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
) -> Result<DiskDataset, Error> {
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
/// [`Error::Format`] when the geometry overflows; [`Error::Io`] for
/// filesystem failures.
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
) -> Result<DiskDataset, Error> {
    let shape = [n, 3, size, size];
    let mut rng = StdRng::seed_from_u64(seed);
    let (record, _) = sizes(shape)?;
    let mut image = vec![0.0f32; (record - 4) / 4];
    write_chunked(path.as_ref(), shape, chunk_samples.max(1), |_, out| {
        let class = generate_image_into(&mut rng, size, noise, &mut image);
        encode_record(class, &image, out);
    })?;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    batch_rx: Option<Receiver<Result<Batch, Error>>>,
    recycle_tx: Option<Sender<Batch>>,
    handle: Option<JoinHandle<()>>,
    counters: Arc<SharedCounters>,
    stalls: u64,
    /// The dataset's sample count, which bounds every order index.
    len: usize,
}

impl StreamLoader {
    /// Spawns the prefetch thread over `ds` with the given prefetch depth
    /// (clamped to ≥ 1). The thread opens its own file handle so trainer-
    /// side reads ([`DiskDataset::read_prefix`]) never contend with it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the dataset file cannot be reopened.
    pub fn new(ds: &DiskDataset, prefetch: usize) -> Result<Self, Error> {
        let prefetch = prefetch.max(1);
        let file = File::open(ds.path())?;
        let len = ds.len();
        let ds = ds.clone();
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
                    ds,
                    plan_rx,
                    batch_tx,
                    recycle_rx,
                    thread_counters,
                    max_bufs,
                )
            })
            .map_err(Error::Io)?;
        Ok(Self {
            plan_tx: Some(plan_tx),
            batch_rx: Some(batch_rx),
            recycle_tx: Some(recycle_tx),
            handle: Some(handle),
            counters,
            stalls: 0,
            len,
        })
    }

    /// Hands the background thread the epoch's shuffled sample order:
    /// it will assemble batches `order[skip*batch..]` in `batch`-sized
    /// slices (the tail batch may be short). `skip` is the checkpoint-
    /// resume cursor — skipped batches are never read off disk.
    ///
    /// # Panics
    ///
    /// If an index in `order` is not below [`DiskDataset::len`]. That is
    /// a caller bug; left to the prefetch thread it would surface as a
    /// damaged-file error from [`next_batch`](StreamLoader::next_batch).
    pub fn begin_epoch(&mut self, order: &[usize], batch: usize, skip: usize) {
        for &i in order {
            assert!(
                i < self.len,
                "sample index {i} is out of range for a dataset of {} samples",
                self.len
            );
        }
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
    /// A structured [`Error`] when the background thread hit one
    /// (chunk corruption, I/O failure) — the thread then discards the
    /// rest of the epoch and waits for the next plan — or
    /// [`Error::Format`] if the thread is gone entirely.
    ///
    /// [`begin_epoch`]: StreamLoader::begin_epoch
    pub fn next_batch(&mut self) -> Result<Batch, Error> {
        let rx = self
            .batch_rx
            .as_ref()
            .expect("receiver lives until the loader drops");
        match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                self.stalls += 1;
                rx.recv()
                    .map_err(|_| Error::Format("loader thread exited".into()))?
            }
            Err(TryRecvError::Disconnected) => Err(Error::Format("loader thread exited".into())),
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
        ds: &DiskDataset,
        chunk: usize,
        counters: &SharedCounters,
    ) -> Result<&[u8], Error> {
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
        let (id, _, buf) = &mut self.slots[slot];
        if let Err(e) = ds.read_chunk(file, chunk, buf) {
            // Poison the slot so a retry re-reads instead of serving the
            // damaged bytes from cache.
            *id = usize::MAX;
            return Err(e);
        }
        counters
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        counters.chunk_loads.fetch_add(1, Ordering::Relaxed);
        Ok(buf.as_slice())
    }
}

/// The background prefetch loop. Exits when any channel closes (the
/// trainer dropped the loader) or all plans are done and the plan sender
/// is gone. On a batch error it reports once and discards the rest of
/// that epoch, then waits for the next plan.
fn prefetch_thread(
    mut file: File,
    ds: DiskDataset,
    plans: Receiver<EpochPlan>,
    batches: SyncSender<Result<Batch, Error>>,
    recycle: Receiver<Batch>,
    counters: Arc<SharedCounters>,
    max_bufs: usize,
) {
    let mut cache = ChunkCache::new(CACHE_CHUNKS.min(ds.num_chunks().max(1)));
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
                &ds,
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
    ds: &DiskDataset,
    file: &mut File,
    cache: &mut ChunkCache,
    counters: &SharedCounters,
) -> Result<(), Error> {
    let [_, c, h, w] = ds.shape;
    let row = ds.row_elems();
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
        let chunk = idx / ds.chunk_samples;
        let within = idx % ds.chunk_samples;
        let bytes = cache.get(file, ds, chunk, counters)?;
        let rec = within * ds.record;
        buf.labels.push(decode_label(&bytes[rec..rec + 4]));
        decode_row(
            &bytes[rec + 4..rec + ds.record],
            &mut data[i * row..(i + 1) * row],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::fs;

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
    #[should_panic(expected = "sample index 100 is out of range for a dataset of 8 samples")]
    fn out_of_range_order_index_panics_in_begin_epoch() {
        let dir = scratch("badorder");
        let path = dir.join("set.mbsds");
        save_dataset_chunked(&generate(8, 4, 0.2, 12), &path, 4).unwrap();
        let disk = DiskDataset::open(&path).unwrap();
        let mut loader = StreamLoader::new(&disk, 1).unwrap();
        let _ = fs::remove_dir_all(&dir);
        loader.begin_epoch(&[0, 100], 2, 0);
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
        assert!(matches!(err, Error::Format(msg) if msg.contains("labels")));
        // Empty samples are refused before any file is written.
        let err = generate_to_chunked(&path, 4, 0, 0.2, 11, 2).unwrap_err();
        assert!(matches!(err, Error::Format(msg) if msg.contains("degenerate")));
        assert!(!path.exists() && !dir.join("set.mbsds.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
