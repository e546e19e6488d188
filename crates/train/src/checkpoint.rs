//! Crash-safe checkpointing for [`train_grouped`](crate::training::train_grouped).
//!
//! A checkpoint is everything needed to resume an interrupted grouped
//! training run **bitwise identically**: model parameters and
//! normalization running statistics ([`Module::export_state`]), SGD
//! momentum buffers, the shuffle RNG state, the epoch/step cursor, and
//! the per-epoch curve recorded so far. A [`Schedule::fingerprint`]
//! guards identity — a checkpoint saved for one (network, schedule) pair
//! refuses to load into another.
//!
//! # On-disk format (version 2)
//!
//! Each checkpoint is one file named `ckpt-{seq:08}.mbsckpt`, framed by
//! [`crate::container`] with magic [`CKPT_MAGIC`]: a 47-byte header line,
//! then the little-endian binary payload as the container's head, and no
//! body.
//!
//! ```text
//! MBSCKPT 2 <payload-bytes> <fnv1a64-hex>\n
//! u64 fingerprint · u64 epoch · u64 step_in_epoch · u64 steps · f32 loss_sum
//! net        : u64 byte count, UTF-8 bytes
//! rng        : u64 count, count × u64
//! curve      : u64 count, count × { u64 epoch, f32 train_loss,
//!              f64 val_error_pct, f32 preact_first, f32 preact_last }
//! model      : u64 count, count × { u64 rank, rank × u64 extent,
//!                                   u64 elems, elems × f32 }
//! velocities : as model
//! ```
//!
//! Floats are stored as their bit patterns, so NaN payloads, `-0.0`,
//! subnormals and infinities all round trip. Loading runs the container's
//! checks (magic → version → length → checksum), then the payload through
//! its bounded reader, then the fingerprint — a torn, corrupted or
//! hostile file is rejected with a descriptive error, never a panic, an
//! oversized allocation or a silently wrong resume.
//!
//! Any other version — including version 1, the same header over a JSON
//! payload that builds before the binary format wrote — is refused with
//! [`container::Error::Version`], so [`load_latest`] skips such files and
//! a run resuming from an old directory starts from scratch.
//!
//! # Durability
//!
//! [`save`] is atomic through `container::Staged`: the bytes are
//! written to `<name>.tmp`, fsynced, renamed over the final name, and the
//! directory is fsynced so the rename itself survives a crash. A crash
//! mid-save therefore leaves either the previous set of checkpoints
//! intact or the new file fully present — never a half-written
//! `*.mbsckpt`. Rotation keeps the newest `keep` files; [`load_latest`]
//! scans newest → oldest and falls back past corrupt files — each one recorded in the returned [`LoadReport`]
//! so callers can count and surface the damage — so a torn latest
//! checkpoint degrades to the previous good one rather than a panic.
//!
//! # Off the step path
//!
//! The training loop never runs [`save`] itself. It copies its state into
//! a recycled [`TrainCheckpoint`] (a memcpy per tensor, no allocation
//! after the second save) and hands it to a [`CheckpointWriter`], whose
//! one background thread encodes, writes, fsyncs, renames and rotates
//! behind the next training steps. At most one save is in flight, and the
//! writer is joined before `train_grouped*` returns on any path, so
//! *after the call returns* the newest checkpoint is on disk; *mid-run*
//! the newest durable checkpoint may trail the trainer by one save. A
//! crash between snapshot and rename resumes from the previous file,
//! which reproduces the same bits.
//!
//! [`Module::export_state`]: crate::module::Module::export_state
//! [`Schedule::fingerprint`]: mbs_core::Schedule::fingerprint

use std::fmt;
use std::fs;
use std::io::{Cursor, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::container::{self, Reader};
use crate::module::StateEntry;
use crate::training::EpochStats;

/// Checkpoint format version [`encode`] writes and [`decode`] reads (the
/// second header field).
pub const CKPT_VERSION: u64 = 2;

/// Header magic (the first header field).
pub const CKPT_MAGIC: &str = "MBSCKPT";

/// File extension of finished checkpoints (`.tmp` is appended while a
/// save is in flight; loaders ignore `.tmp` files).
pub const CKPT_EXT: &str = "mbsckpt";

/// Everything [`train_grouped`](crate::training::train_grouped) needs to
/// resume a run bitwise identically.
///
/// The cursor convention: `rng` is the shuffle RNG state **at the start
/// of `epoch`** (before that epoch's shuffle), and `step_in_epoch`
/// batches of that epoch are already complete with `loss_sum` the sum of
/// their losses over `steps` steps. An end-of-epoch checkpoint stores
/// the *next* epoch with `step_in_epoch == 0`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainCheckpoint {
    /// [`Schedule::fingerprint`](mbs_core::Schedule::fingerprint) of the
    /// (network, schedule) pair this state belongs to.
    pub fingerprint: u64,
    /// Network name, for error messages only (identity is `fingerprint`).
    pub net: String,
    /// Epoch the resumed run continues in (0-based).
    pub epoch: usize,
    /// Batches of `epoch` already completed.
    pub step_in_epoch: usize,
    /// Sum of training losses over the completed steps of `epoch`.
    pub loss_sum: f32,
    /// Completed steps of `epoch` (equals `step_in_epoch`; kept separate
    /// so the loss average stays self-describing).
    pub steps: usize,
    /// xoshiro256++ shuffle-RNG state at the start of `epoch` (4 words).
    pub rng: Vec<u64>,
    /// Model state in [`Module::export_state`] order
    /// (parameters plus normalization running statistics).
    ///
    /// [`Module::export_state`]: crate::module::Module::export_state
    pub model: Vec<StateEntry>,
    /// SGD momentum buffers in `visit_params` order.
    pub velocities: Vec<StateEntry>,
    /// Per-epoch curve recorded so far (epochs `0..epoch`).
    pub curve: Vec<EpochStats>,
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be written or read as a checkpoint (I/O
    /// failure, damage, another format version), or the
    /// [`CheckpointWriter`] thread died before finishing a save.
    Container(container::Error),
    /// The checkpoint belongs to a different (network, schedule) pair.
    FingerprintMismatch {
        /// Fingerprint of the run trying to resume.
        expected: u64,
        /// Fingerprint stored in the checkpoint (network named in the
        /// error message).
        found: u64,
        /// Network name stored in the checkpoint.
        net: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Container(e) => write!(f, "checkpoint: {e}"),
            Self::FingerprintMismatch {
                expected,
                found,
                net,
            } => write!(
                f,
                "checkpoint was saved for a different network/schedule \
                 (stored {found:#018x} for net {net:?}, this run is {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Container(e) => Some(e),
            Self::FingerprintMismatch { .. } => None,
        }
    }
}

impl From<container::Error> for CheckpointError {
    fn from(e: container::Error) -> Self {
        Self::Container(e)
    }
}

/// Payload bytes of one [`EpochStats`] record.
const CURVE_RECORD_BYTES: usize = 8 + 4 + 8 + 4 + 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_entries(out: &mut Vec<u8>, entries: &[StateEntry]) {
    put_u64(out, entries.len() as u64);
    for entry in entries {
        put_u64(out, entry.shape.len() as u64);
        for &dim in &entry.shape {
            put_u64(out, dim as u64);
        }
        put_u64(out, entry.data.len() as u64);
        for v in &entry.data {
            put_u32(out, v.to_bits());
        }
    }
}

/// [`encode`] into a caller-owned buffer (cleared first), so a writer
/// that saves repeatedly reuses one allocation.
fn encode_into(ckpt: &TrainCheckpoint, out: &mut Vec<u8>) {
    out.clear();
    let head = container::begin(out, CKPT_MAGIC, CKPT_VERSION);
    for v in [
        ckpt.fingerprint,
        ckpt.epoch as u64,
        ckpt.step_in_epoch as u64,
        ckpt.steps as u64,
    ] {
        put_u64(out, v);
    }
    put_u32(out, ckpt.loss_sum.to_bits());
    put_u64(out, ckpt.net.len() as u64);
    out.extend_from_slice(ckpt.net.as_bytes());
    put_u64(out, ckpt.rng.len() as u64);
    for &word in &ckpt.rng {
        put_u64(out, word);
    }
    put_u64(out, ckpt.curve.len() as u64);
    for e in &ckpt.curve {
        put_u64(out, e.epoch as u64);
        put_u32(out, e.train_loss.to_bits());
        put_u64(out, e.val_error_pct.to_bits());
        put_u32(out, e.preact_first.to_bits());
        put_u32(out, e.preact_last.to_bits());
    }
    put_entries(out, &ckpt.model);
    put_entries(out, &ckpt.velocities);
    container::seal(out, head);
}

/// Encodes a checkpoint to its on-disk bytes (header line + binary
/// payload, format version [`CKPT_VERSION`]).
pub fn encode(ckpt: &TrainCheckpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_into(ckpt, &mut bytes);
    bytes
}

/// Decodes and fully validates on-disk checkpoint bytes (format version
/// [`CKPT_VERSION`]).
///
/// # Errors
///
/// See `container::read`; [`container::Error::Format`] also for an
/// unparseable payload or bytes after it.
pub fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, container::Error> {
    let frame = container::read(&mut Cursor::new(bytes), CKPT_MAGIC, CKPT_VERSION)?;
    if !frame.body.is_empty() {
        return Err(container::Error::Format(format!(
            "{} bytes follow the payload",
            frame.body.end - frame.body.start
        )));
    }
    let mut r = Reader::new(&frame.head);
    let mut ckpt = TrainCheckpoint {
        fingerprint: r.u64()?,
        epoch: r.usize()?,
        step_in_epoch: r.usize()?,
        steps: r.usize()?,
        loss_sum: f32::from_bits(r.u32()?),
        ..TrainCheckpoint::default()
    };
    let net_len = r.count(1)?;
    ckpt.net = std::str::from_utf8(r.take(net_len)?)
        .map_err(|_| container::Error::Format("net name is not valid UTF-8".into()))?
        .to_string();
    for _ in 0..r.count(8)? {
        ckpt.rng.push(r.u64()?);
    }
    for _ in 0..r.count(CURVE_RECORD_BYTES)? {
        ckpt.curve.push(EpochStats {
            epoch: r.usize()?,
            train_loss: f32::from_bits(r.u32()?),
            val_error_pct: f64::from_bits(r.u64()?),
            preact_first: f32::from_bits(r.u32()?),
            preact_last: f32::from_bits(r.u32()?),
        });
    }
    ckpt.model = entries(&mut r)?;
    ckpt.velocities = entries(&mut r)?;
    r.finish()?;
    Ok(ckpt)
}

fn entries(r: &mut Reader<'_>) -> Result<Vec<StateEntry>, container::Error> {
    // Grown by push: an in-memory entry is larger than its smallest
    // encoding, so even a checked count must not size the vector.
    let mut entries = Vec::new();
    for _ in 0..r.count(16)? {
        let rank = r.count(8)?;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(r.usize()?);
        }
        let elems = r.count(4)?;
        let data = r.take(4 * elems)?.chunks_exact(4);
        let data = data.map(|b| f32::from_le_bytes(b.try_into().expect("chunks of 4")));
        entries.push(StateEntry {
            shape,
            data: data.collect(),
        });
    }
    Ok(entries)
}

/// File name of checkpoint number `seq` (`ckpt-00000042.mbsckpt`).
pub fn file_name(seq: usize) -> String {
    format!("ckpt-{seq:08}.{CKPT_EXT}")
}

/// Atomically writes checkpoint `seq` into `dir` and rotates old files,
/// keeping the newest `keep` (`keep == 0` is treated as 1).
///
/// The bytes land in `<name>.tmp` first, are fsynced, renamed over the
/// final name, and the directory is fsynced — a crash at any point
/// leaves either the old checkpoint set or the new file complete, never
/// a torn `*.mbsckpt`. This is the function the [`CheckpointWriter`]
/// thread runs for every save.
///
/// # Errors
///
/// Propagates filesystem failures as [`container::Error::Io`].
pub fn save(
    dir: &Path,
    seq: usize,
    ckpt: &TrainCheckpoint,
    keep: usize,
) -> Result<PathBuf, CheckpointError> {
    save_with(&mut Vec::new(), dir, seq, ckpt, keep, None)
}

/// [`save`] through a reusable encode buffer, suffering `fault` if one is
/// given: the one encode → tmp-write → fsync → rename → dir-fsync →
/// rotate sequence every save in the crate runs, injected damage
/// included.
fn save_with(
    bytes: &mut Vec<u8>,
    dir: &Path,
    seq: usize,
    ckpt: &TrainCheckpoint,
    keep: usize,
    fault: Option<Fault>,
) -> Result<PathBuf, CheckpointError> {
    let path = dir.join(file_name(seq));
    match fault {
        Some(Fault::KillBeforeWrite) => return Ok(path),
        Some(Fault::Panic) => panic!("fault plan: checkpoint writer panics at save {seq}"),
        _ => {}
    }
    encode_into(ckpt, bytes);
    let image = match fault {
        Some(Fault::Truncate(n)) => &bytes[..bytes.len().saturating_sub(n.max(1))],
        Some(Fault::FlipByte(i)) => {
            let at = i % bytes.len();
            bytes[at] ^= 0x40;
            &bytes[..]
        }
        _ => &bytes[..],
    };
    let mut staged = container::Staged::create(&path)?;
    staged.file.write_all(image).map_err(container::Error::Io)?;
    if fault == Some(Fault::KillMidWrite) {
        staged.sync()?;
        return Ok(path);
    }
    staged.commit()?;
    rotate(dir, keep.max(1))?;
    Ok(path)
}

/// Deletes all but the newest `keep` finished checkpoints in `dir`.
fn rotate(dir: &Path, keep: usize) -> Result<(), container::Error> {
    let mut found = list(dir)?;
    if found.len() > keep {
        let cut = found.len() - keep;
        for (_, path) in found.drain(..cut) {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Checkpoint files in `dir` as `(seq, path, torn)`, unsorted: finished
/// `ckpt-*.mbsckpt` files and (`torn`) the `*.mbsckpt.tmp` leftovers of
/// saves that died mid-write. A missing directory is an empty list.
fn scan(dir: &Path) -> Result<Vec<(usize, PathBuf, bool)>, container::Error> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let parsed = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|name| name.strip_prefix("ckpt-"))
            .and_then(|rest| {
                let stem = rest.strip_suffix(".tmp");
                let digits = stem.unwrap_or(rest).strip_suffix(&format!(".{CKPT_EXT}"))?;
                Some((digits.parse::<usize>().ok()?, stem.is_some()))
            });
        if let Some((seq, torn)) = parsed {
            found.push((seq, path, torn));
        }
    }
    Ok(found)
}

/// Finished checkpoints in `dir` as `(seq, path)`, oldest first. In-flight
/// `*.tmp` files and unrelated names are ignored; a missing directory is
/// an empty list.
pub fn list(dir: &Path) -> Result<Vec<(usize, PathBuf)>, container::Error> {
    let mut found: Vec<_> = scan(dir)?
        .into_iter()
        .filter_map(|(seq, path, torn)| (!torn).then_some((seq, path)))
        .collect();
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// Loads and validates one checkpoint file.
///
/// # Errors
///
/// See [`decode`]; I/O failures surface as [`container::Error::Io`].
pub fn load_file(path: &Path) -> Result<TrainCheckpoint, container::Error> {
    decode(&fs::read(path)?)
}

/// Which files [`load_latest`] had to skip on its way to a loadable
/// checkpoint, and why.
///
/// The durable-write protocol makes corrupt finished checkpoints possible
/// only via external damage, but damaged files must *degrade visibly*,
/// not crash — and not vanish into a stderr warning either. Callers (the
/// resume path in `train_grouped`, the serving hot-swap path) inspect the
/// report to count and surface corruption instead of silently serving an
/// older model than they thought.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// `(path, reason)` for every file that looked like a checkpoint but
    /// failed to load, newest first (the scan order).
    pub skipped: Vec<(PathBuf, String)>,
}

impl LoadReport {
    /// `true` when no file had to be skipped.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.skipped.is_empty() {
            return write!(f, "no checkpoints skipped");
        }
        write!(
            f,
            "skipped {} unreadable checkpoint(s):",
            self.skipped.len()
        )?;
        for (path, reason) in &self.skipped {
            write!(f, "\n  {}: {reason}", path.display())?;
        }
        Ok(())
    }
}

/// Loads the newest checkpoint in `dir` that matches `fingerprint`.
///
/// Scans newest → oldest. Corrupt or torn files are skipped — recorded in
/// the returned [`LoadReport`], the one place they surface — so a torn latest
/// checkpoint degrades to the previous good one rather than a panic.
/// Returns `Ok((None, report))` when the directory holds no loadable
/// checkpoint — the caller starts cold, with the report saying whether
/// that is an empty directory or a directory full of damage.
///
/// # Errors
///
/// A checkpoint that *decodes* but carries a different fingerprint is a
/// **hard** [`CheckpointError::FingerprintMismatch`]: resuming a
/// different network/schedule silently would corrupt the run, so the
/// caller must choose a fresh directory instead.
pub fn load_latest(
    dir: &Path,
    fingerprint: u64,
) -> Result<(Option<(usize, TrainCheckpoint)>, LoadReport), CheckpointError> {
    let mut report = LoadReport::default();
    for (seq, path) in list(dir)?.into_iter().rev() {
        match load_file(&path) {
            Ok(ckpt) if ckpt.fingerprint == fingerprint => return Ok((Some((seq, ckpt)), report)),
            Ok(ckpt) => {
                return Err(CheckpointError::FingerprintMismatch {
                    expected: fingerprint,
                    found: ckpt.fingerprint,
                    net: ckpt.net,
                })
            }
            Err(e) => report.skipped.push((path, e.to_string())),
        }
    }
    Ok((None, report))
}

/// Where, how often, and how durably
/// [`train_grouped`](crate::training::train_grouped) checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory the `ckpt-*.mbsckpt` files live in (created on demand).
    pub dir: PathBuf,
    /// Save every `every_steps` training steps; `0` saves only at epoch
    /// boundaries. Epoch boundaries always save regardless.
    pub every_steps: usize,
    /// How many finished checkpoints rotation keeps (minimum 1).
    pub keep: usize,
    /// Whether to resume from the newest matching checkpoint in `dir`
    /// (`false` trains cold but still saves).
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpointing into `dir` with the defaults: epoch-boundary saves
    /// only, keep 3, resume enabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_steps: 0,
            keep: 3,
            resume: true,
        }
    }
}

/// One way a [`FaultPlan`] damages a save (test-only harness; the
/// training loop itself never corrupts files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process "dies" after the state was copied for this save but
    /// before the writer touched the disk — the window the background
    /// writer opens: no file and no `.tmp` appear, and resume must come
    /// from the previous checkpoint.
    KillBeforeWrite,
    /// The process "dies" after writing the `.tmp` file but before the
    /// rename: the finished checkpoint never appears, the torn `.tmp`
    /// must be ignored by loaders (and is swept by the next run's
    /// [`CheckpointWriter`]).
    KillMidWrite,
    /// The file appears but its last `n` bytes are missing (header
    /// length check must reject it).
    Truncate(usize),
    /// The file appears with byte `i` (mod length) bit-flipped
    /// (checksum must reject it).
    FlipByte(usize),
    /// The save panics on the thread running it: the trainer must see a
    /// [`CheckpointError`], not a hang or a lost checkpoint.
    Panic,
}

/// Deterministic fault-injection plan for checkpoint saves.
///
/// `train_grouped` hands the plan to its [`CheckpointWriter`], whose
/// thread inflicts the plan's fault on each save it names — there is no
/// other, synchronous way to apply one. Tests attach faults to specific
/// save indices and a kill point, making "crashed mid-write at save 2,
/// then died after save 3" a reproducible scenario instead of a race.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(save_index, fault)` pairs: the `i`-th save (0-based, counted
    /// across the whole run) suffers `fault`.
    pub faults: Vec<(usize, Fault)>,
    /// Deterministically "kill" the run (return
    /// [`TrainError::Killed`](crate::training::TrainError::Killed))
    /// after this many saves have completed.
    pub kill_after_saves: Option<usize>,
}

impl FaultPlan {
    /// A plan that kills the run after `n` saves, damaging none of them.
    pub fn kill_after(n: usize) -> Self {
        Self {
            faults: Vec::new(),
            kill_after_saves: Some(n),
        }
    }

    /// A plan that applies `fault` to save `index` and never kills.
    pub fn fault_at(index: usize, fault: Fault) -> Self {
        Self {
            faults: vec![(index, fault)],
            kill_after_saves: None,
        }
    }

    /// The fault save number `index` (0-based) suffers, if any.
    fn fault(&self, index: usize) -> Option<Fault> {
        self.faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|&(_, f)| f)
    }

    /// Whether the run should die now, having completed `saves` saves.
    pub fn should_kill(&self, saves: usize) -> bool {
        self.kill_after_saves.is_some_and(|n| saves >= n)
    }
}

/// A finished save: the buffer handed back for reuse, and how it went.
type Done = (TrainCheckpoint, Result<(), CheckpointError>);

/// The one background thread that makes a run's checkpoints durable.
///
/// [`submit`](CheckpointWriter::submit) lends the caller a recycled
/// [`TrainCheckpoint`] to overwrite in place and sends it to the thread,
/// which runs the [`save`] sequence behind the caller's next steps and
/// hands the buffer back. Two buffers cycle forever (one being written,
/// one being filled), both created by the first two saves. At most one
/// save is in flight: a `submit` that finds the previous one unfinished
/// blocks until it is. A failed or panicked save surfaces as a
/// [`CheckpointError`] from the next `submit`, [`flush`] or [`finish`].
///
/// Dropping the writer waits for the in-flight save and joins the thread,
/// so a training run that errors out still leaves its newest checkpoint
/// complete on disk and leaks no thread.
///
/// [`flush`]: CheckpointWriter::flush
/// [`finish`]: CheckpointWriter::finish
///
/// # Examples
///
/// ```
/// use mbs_train::checkpoint::{self, CheckpointConfig, CheckpointWriter};
///
/// let dir = std::env::temp_dir().join("mbsckpt-doc-writer");
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut writer = CheckpointWriter::new(&CheckpointConfig::new(&dir), None).unwrap();
/// for epoch in 1..=2 {
///     writer.submit(|ckpt| ckpt.epoch = epoch).unwrap(); // returns at once
/// }
/// writer.finish().unwrap(); // both saves are on disk now
/// let (newest, _) = checkpoint::load_latest(&dir, 0).unwrap();
/// assert_eq!(newest.unwrap().1.epoch, 2);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Debug)]
pub struct CheckpointWriter {
    jobs: Option<SyncSender<TrainCheckpoint>>,
    done: Receiver<Done>,
    handle: Option<JoinHandle<()>>,
    /// The buffer that is not in flight (`None` until a save returns it).
    spare: Option<TrainCheckpoint>,
    in_flight: bool,
    submitted: usize,
}

impl CheckpointWriter {
    /// Starts the writer for `cfg.dir`: removes the torn `*.mbsckpt.tmp`
    /// files killed runs left behind, numbers its saves past every
    /// finished checkpoint already there (corrupt ones included), and
    /// spawns the thread. `plan` injects test faults by save index.
    ///
    /// # Errors
    ///
    /// [`container::Error::Io`] if `cfg.dir` exists but cannot be listed
    /// (it is a regular file, say) or the thread cannot be spawned.
    pub fn new(cfg: &CheckpointConfig, plan: Option<FaultPlan>) -> Result<Self, CheckpointError> {
        let mut first_seq = 0;
        for (seq, path, torn) in scan(&cfg.dir)? {
            if torn {
                let _ = fs::remove_file(path);
            } else {
                first_seq = first_seq.max(seq + 1);
            }
        }
        let (dir, keep) = (cfg.dir.clone(), cfg.keep);
        // One slot each way is all "at most one save in flight" can fill,
        // and a bounded channel never allocates per message.
        let (jobs, job_rx) = mpsc::sync_channel::<TrainCheckpoint>(1);
        let (done_tx, done) = mpsc::sync_channel::<Done>(1);
        let handle = std::thread::Builder::new()
            .name("mbs-ckpt".into())
            .spawn(move || {
                let mut bytes = Vec::new();
                for (index, ckpt) in job_rx.iter().enumerate() {
                    let fault = plan.as_ref().and_then(|p| p.fault(index));
                    let saved = save_with(&mut bytes, &dir, first_seq + index, &ckpt, keep, fault);
                    if done_tx.send((ckpt, saved.map(drop))).is_err() {
                        break;
                    }
                }
            })
            .map_err(container::Error::Io)?;
        Ok(Self {
            jobs: Some(jobs),
            done,
            handle: Some(handle),
            spare: None,
            in_flight: false,
            submitted: 0,
        })
    }

    /// Snapshots and saves: `fill` overwrites a recycled checkpoint with
    /// the caller's current state (while the previous save may still be
    /// writing), then the buffer goes to the thread. Returns how many
    /// saves have been submitted so far; the save itself completes behind
    /// the caller.
    ///
    /// # Errors
    ///
    /// The *previous* save's failure, or the thread's panic — in both
    /// cases the new snapshot is dropped, not written.
    pub fn submit(
        &mut self,
        fill: impl FnOnce(&mut TrainCheckpoint),
    ) -> Result<usize, CheckpointError> {
        let mut buf = self.spare.take().unwrap_or_default();
        fill(&mut buf);
        self.flush()?;
        let sent = self
            .jobs
            .as_ref()
            .is_some_and(|jobs| jobs.send(buf).is_ok());
        if !sent {
            return Err(self.dead());
        }
        self.in_flight = true;
        self.submitted += 1;
        Ok(self.submitted)
    }

    /// Blocks until the in-flight save (if any) is durable.
    ///
    /// # Errors
    ///
    /// That save's failure, or the thread's panic.
    pub fn flush(&mut self) -> Result<(), CheckpointError> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(());
        }
        match self.done.recv() {
            Ok((buf, saved)) => {
                self.spare = Some(buf);
                saved
            }
            Err(_) => Err(self.dead()),
        }
    }

    /// [`flush`](CheckpointWriter::flush), then joins the thread: when
    /// this returns `Ok`, every submitted save is on disk.
    ///
    /// # Errors
    ///
    /// The last save's failure, or the thread's panic.
    pub fn finish(mut self) -> Result<(), CheckpointError> {
        let flushed = self.flush();
        self.join().and(flushed)
    }

    /// Closes the job channel (ending the thread's loop) and joins the
    /// thread; a panic there becomes an error.
    fn join(&mut self) -> Result<(), CheckpointError> {
        self.jobs.take();
        match self.handle.take().map(JoinHandle::join) {
            Some(Err(panic)) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("no message");
                Err(writer_died(&format!("panicked: {msg}")))
            }
            _ => Ok(()),
        }
    }

    /// The thread stopped answering, which only a panic makes it do:
    /// joins it and reports how it died.
    fn dead(&mut self) -> CheckpointError {
        self.join().err().unwrap_or_else(|| writer_died("is gone"))
    }
}

fn writer_died(how: &str) -> CheckpointError {
    CheckpointError::Container(container::Error::Io(std::io::Error::other(format!(
        "checkpoint writer thread {how}"
    ))))
}

impl Drop for CheckpointWriter {
    fn drop(&mut self) {
        let _ = self.flush();
        let _ = self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbsckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(fingerprint: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint,
            net: "TestNet".into(),
            epoch: 3,
            step_in_epoch: 2,
            loss_sum: 1.25,
            steps: 2,
            rng: vec![1, 2, 3, 4],
            model: vec![StateEntry {
                shape: vec![2, 2],
                data: vec![0.5, -0.25, f32::MIN_POSITIVE, 1.0e10],
            }],
            velocities: vec![StateEntry {
                shape: vec![4],
                data: vec![0.0, -0.0, 0.125, 3.0],
            }],
            curve: vec![EpochStats {
                epoch: 0,
                train_loss: 1.5,
                val_error_pct: 42.0,
                preact_first: 0.25,
                preact_last: -0.5,
            }],
        }
    }

    /// One `sample(fingerprint)` save per fault, each suffering its
    /// fault, numbered after whatever `dir` already holds.
    fn save_faulted(dir: &Path, faults: &[Fault], fingerprint: u64) {
        let plan = FaultPlan {
            faults: faults.iter().copied().enumerate().collect(),
            kill_after_saves: None,
        };
        let mut writer = CheckpointWriter::new(&CheckpointConfig::new(dir), Some(plan)).unwrap();
        for _ in faults {
            writer.submit(|ckpt| *ckpt = sample(fingerprint)).unwrap();
        }
        writer.finish().unwrap();
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let ckpt = sample(0xdead_beef);
        let decoded = decode(&encode(&ckpt)).unwrap();
        assert_eq!(decoded, ckpt);
        // PartialEq on f32 treats -0.0 == 0.0; check the sign survived.
        assert_eq!(decoded.velocities[0].data[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn decode_rejects_damage_with_descriptive_errors() {
        let good = encode(&sample(7));
        // Truncation: header length no longer matches.
        let torn = &good[..good.len() - 5];
        assert!(
            matches!(decode(torn), Err(container::Error::Format(msg)) if msg.contains("truncated"))
        );
        // Bit flip in the payload: checksum mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(
            matches!(decode(&flipped), Err(container::Error::Format(msg)) if msg.contains("checksum"))
        );
        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(
            matches!(decode(&magic), Err(container::Error::Format(msg)) if msg.contains("magic"))
        );
        // Any other version, newer or older, is refused before the length
        // and checksum are even looked at.
        let mut bumped = good.clone();
        for v in [9, 1, 0] {
            bumped[CKPT_MAGIC.len() + 1] = b'0' + v;
            assert!(
                matches!(decode(&bumped), Err(container::Error::Version(found)) if found == v as u64)
            );
        }
    }

    #[test]
    fn save_rotates_and_load_latest_picks_newest() {
        let dir = scratch("rotate");
        for seq in 0..5 {
            let mut ckpt = sample(11);
            ckpt.epoch = seq;
            save(&dir, seq, &ckpt, 3).unwrap();
        }
        let kept: Vec<usize> = list(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let (found, report) = load_latest(&dir, 11).unwrap();
        let (seq, ckpt) = found.unwrap();
        assert_eq!((seq, ckpt.epoch), (4, 4));
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_past_corrupt_newest() {
        let dir = scratch("fallback");
        save(&dir, 0, &sample(5), 3).unwrap();
        // Newest is damaged two different ways; both must be skipped.
        save_faulted(&dir, &[Fault::Truncate(10), Fault::FlipByte(60)], 5);
        let (found, report) = load_latest(&dir, 5).unwrap();
        let (seq, _) = found.unwrap();
        assert_eq!(seq, 0, "must fall back to the oldest intact file");
        // Both damaged files are surfaced, newest first, with reasons.
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped[0].0.ends_with("ckpt-00000002.mbsckpt"));
        assert!(report.skipped[0].1.contains("checksum"));
        assert!(report.skipped[1].0.ends_with("ckpt-00000001.mbsckpt"));
        assert!(report.skipped[1].1.contains("truncated"));
        assert!(report.to_string().contains("skipped 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_invisible() {
        let dir = scratch("torn");
        save_faulted(&dir, &[Fault::KillMidWrite], 9);
        assert!(dir.join("ckpt-00000000.mbsckpt.tmp").exists());
        assert!(list(&dir).unwrap().is_empty());
        let (found, report) = load_latest(&dir, 9).unwrap();
        assert!(found.is_none());
        assert!(report.is_clean(), "tmp files are not skipped checkpoints");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_a_hard_error() {
        let dir = scratch("fpr");
        save(&dir, 0, &sample(1), 3).unwrap();
        let err = load_latest(&dir, 2).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::FingerprintMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_a_cold_start() {
        let dir = scratch("missing");
        let (found, report) = load_latest(&dir, 0).unwrap();
        assert!(found.is_none());
        assert!(report.is_clean());
    }
}
