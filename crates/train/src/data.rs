//! Seeded synthetic image-classification dataset.
//!
//! Substitute for ImageNet in the Fig. 6 reproduction (the substitution is
//! described in `mbs-bench`'s `experiments::fig06` module docs): four
//! texture classes — horizontal stripes, vertical stripes, checkerboard,
//! diagonal waves — with randomized frequency, phase, per-channel gain, and
//! additive Gaussian noise. Hard enough that an un-normalized network
//! struggles, easy enough to train on a CPU in seconds.
//!
//! # RNG discipline (load-bearing)
//!
//! The generator consumes **one shared `StdRng` stream**, seeded once from
//! `seed` — there is no per-image or per-plane re-seeding. Per image, in
//! order: the class, the frequency, the phase, three channel gains, then
//! exactly two uniform draws per pixel (Box-Muller noise) across all three
//! planes. The per-image draw count is therefore a fixed function of
//! `size`, which is what lets [`crate::loader::generate_to`] stream the
//! *same* images to disk one chunk at a time: both generators call
//! [`generate_image_into`] on the same stream, so their output is bitwise
//! identical. The stream's draw order is pinned by the golden checksum
//! test below (`generator_output_is_pinned`); any reordering is a format
//! break for every `*.mbsds` file ever generated, and must bump
//! [`crate::loader::MBSDS_VERSION`].

#![allow(clippy::needless_range_loop)] // indexed loops address multiple planes

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbs_tensor::Tensor;

use crate::container;
use crate::loader::{self, DiskDataset};

/// Number of texture classes.
pub const CLASSES: usize = 4;

/// A labeled image set.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images `[n, 3, size, size]`.
    pub images: Tensor,
    /// One label in `0..CLASSES` per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Saves this set as an atomic, checksummed `*.mbsds` file (chunks of
    /// [`loader::DEFAULT_CHUNK_SAMPLES`]). A later
    /// [`Dataset::open`] or [`DiskDataset::load`] reproduces it bitwise.
    ///
    /// # Errors
    ///
    /// See [`loader::save_dataset`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), container::Error> {
        loader::save_dataset(self, path)
    }

    /// Loads a `*.mbsds` file fully into memory, validating every chunk
    /// checksum. The streamed counterpart — training directly off the
    /// file without materializing it — is
    /// [`DataSource::Stream`](crate::training::DataSource).
    ///
    /// # Errors
    ///
    /// See [`DiskDataset::open`] and [`DiskDataset::load`].
    ///
    /// # Examples
    ///
    /// ```
    /// use mbs_train::data::{generate, Dataset};
    ///
    /// let dir = std::env::temp_dir().join("mbsds-doc-bridge");
    /// let path = dir.join("set.mbsds");
    /// let set = generate(6, 4, 0.2, 21);
    /// set.save(&path).unwrap();
    /// let reloaded = Dataset::open(&path).unwrap();
    /// assert_eq!(reloaded.labels, set.labels);
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// ```
    pub fn open(path: impl AsRef<Path>) -> Result<Self, container::Error> {
        DiskDataset::open(path)?.load()
    }
}

/// Generates one image directly into `out` (length `3 * size * size`,
/// CHW order) and returns its class, consuming the shared RNG stream in
/// the pinned draw order (see the module docs). Both [`generate`] and
/// the streaming [`crate::loader::generate_to`] are thin loops over this
/// routine — the single definition is what guarantees they can never
/// drift apart.
pub fn generate_image_into(rng: &mut StdRng, size: usize, noise: f32, out: &mut [f32]) -> usize {
    debug_assert_eq!(out.len(), 3 * size * size);
    let class = rng.gen_range(0..CLASSES);
    let freq = rng.gen_range(1.0f32..3.0);
    let phase = rng.gen_range(0.0f32..std::f32::consts::TAU);
    let gains: [f32; 3] = [
        rng.gen_range(0.7..1.3),
        rng.gen_range(0.7..1.3),
        rng.gen_range(0.7..1.3),
    ];
    for c in 0..3 {
        for y in 0..size {
            for x in 0..size {
                let fy = y as f32 / size as f32;
                let fx = x as f32 / size as f32;
                let v = match class {
                    0 => (std::f32::consts::TAU * freq * fy + phase).sin(),
                    1 => (std::f32::consts::TAU * freq * fx + phase).sin(),
                    2 => {
                        ((std::f32::consts::TAU * freq * fx + phase).sin()
                            * (std::f32::consts::TAU * freq * fy + phase).sin())
                        .signum()
                            * 0.8
                    }
                    _ => (std::f32::consts::TAU * freq * (fx + fy) + phase).sin(),
                };
                let noise_v: f32 = {
                    // Box-Muller on the shared stream.
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0f32..1.0);
                    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
                };
                out[(c * size + y) * size + x] = gains[c] * v + noise * noise_v;
            }
        }
    }
    class
}

/// Generates `n` samples of `size × size` images with the given noise
/// standard deviation. Deterministic in `seed`.
///
/// # Examples
///
/// ```
/// let d = mbs_train::data::generate(16, 12, 0.3, 7);
/// assert_eq!(d.images.shape(), &[16, 3, 12, 12]);
/// assert_eq!(d.labels.len(), 16);
/// ```
pub fn generate(n: usize, size: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut images = Tensor::zeros(&[n, 3, size, size]);
    let mut labels = Vec::with_capacity(n);
    let row = 3 * size * size;
    for i in 0..n {
        let class = generate_image_into(
            &mut rng,
            size,
            noise,
            &mut images.data_mut()[i * row..(i + 1) * row],
        );
        labels.push(class);
    }
    Dataset { images, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(8, 8, 0.2, 42);
        let b = generate(8, 8, 0.2, 42);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images.max_abs_diff(&b.images), 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(8, 8, 0.2, 1);
        let b = generate(8, 8, 0.2, 2);
        assert!(a.images.max_abs_diff(&b.images) > 0.1);
    }

    #[test]
    fn all_classes_appear_in_large_sets() {
        let d = generate(200, 8, 0.2, 3);
        for c in 0..CLASSES {
            assert!(d.labels.contains(&c), "class {c} missing");
        }
    }

    #[test]
    fn values_are_bounded() {
        let d = generate(16, 8, 0.3, 4);
        assert!(d.images.max_abs() < 6.0);
        assert!(d.images.data().iter().all(|v| v.is_finite()));
    }

    /// Pins the generator's RNG draw order with a golden checksum over the
    /// exact output bits. If this fails, the generator's stream discipline
    /// changed: every `*.mbsds` file ever generated (and the streamed /
    /// in-memory bitwise-equivalence contract in `loader.rs`) is affected,
    /// so treat it as a format break — bump `MBSDS_VERSION` and
    /// re-compute the constants below with the `eprintln!` left in place.
    ///
    /// The checksum covers f32 *bit patterns*, not values, so it also
    /// catches "harmless" numeric rewrites (e.g. fusing the Box-Muller
    /// expression) that would silently desynchronize old files. Note the
    /// transcendentals (`sin`, `ln`, `cos`) come from the platform libm:
    /// the constants are pinned for the CI image's toolchain; a libm
    /// change shows up here as a cross-platform drift, which is exactly
    /// the kind of silence this test exists to break.
    #[test]
    fn generator_output_is_pinned() {
        let d = generate(6, 8, 0.25, 1234);
        let mut bytes = Vec::with_capacity(d.images.len() * 4 + d.labels.len());
        for &v in d.images.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for &l in &d.labels {
            bytes.extend_from_slice(&(l as u32).to_le_bytes());
        }
        let checksum = mbs_core::fnv1a64(&bytes);
        eprintln!("generator checksum: {checksum:016x} labels: {:?}", d.labels);
        assert_eq!(
            d.labels,
            vec![3, 1, 1, 1, 1, 0],
            "per-image class draws moved — the shared RNG stream reordered"
        );
        assert_eq!(
            checksum, GOLDEN_GENERATOR_CHECKSUM,
            "generator output bits drifted from the pinned golden checksum"
        );
    }

    /// Golden checksum of `generate(6, 8, 0.25, 1234)`'s output bits.
    /// Recompute from the `eprintln!` above after an *intentional* format
    /// break (and bump `MBSDS_VERSION`).
    const GOLDEN_GENERATOR_CHECKSUM: u64 = 0xea9c_8307_cf48_e570;
}
