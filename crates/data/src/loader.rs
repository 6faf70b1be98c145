//! Batching data loader with deterministic shuffling, parallel sample
//! synthesis, lazy per-epoch iteration, and double-buffered prefetch.
//!
//! An epoch is defined by `(shuffle seed, epoch number, batch size)` alone:
//! every way of consuming it — [`DataLoader::epoch`] (materialized),
//! [`DataLoader::epoch_iter`] (lazy), or [`DataLoader::stream`]
//! (prefetched on a background thread) — produces bitwise-identical
//! batches in the same order, because they all funnel through the same
//! per-batch synthesis with the same derived seeds. The trainer can
//! therefore switch between them freely without perturbing a run.

use crate::augment::Augment;
use crate::dataset::Dataset;
use nb_tensor::Tensor;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};

/// Batches the background producer may run ahead of the consumer: one
/// being consumed, one in flight (double buffering).
const PREFETCH_DEPTH: usize = 2;

/// A minibatch of images and labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// `[n, 3, s, s]` images.
    pub images: Tensor,
    /// `n` labels.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// A copy of rows `start .. start + len` — the data-parallel trainer's
    /// deterministic batch slicing.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the batch.
    pub fn slice(&self, start: usize, len: usize) -> Batch {
        Batch {
            images: self.images.narrow0(start, len),
            labels: self.labels[start..start + len].to_vec(),
        }
    }
}

/// Where a loader's dataset lives: borrowed for plain iteration, shared
/// (`Arc`) when a background prefetch thread must also reach it.
enum Source<'d, D> {
    Borrowed(&'d D),
    Shared(Arc<D>),
}

impl<D> Source<'_, D> {
    fn get(&self) -> &D {
        match self {
            Source::Borrowed(d) => d,
            Source::Shared(d) => d,
        }
    }
}

/// Iterates a [`Dataset`] in shuffled minibatches, synthesizing samples in
/// parallel across worker threads.
pub struct DataLoader<'d, D: Dataset + Sync> {
    source: Source<'d, D>,
    batch_size: usize,
    augment: Augment,
    shuffle: bool,
    seed: u64,
    /// Synthesis-thread cap (0 = one per available core). Trainer shards
    /// and prefetch producers lower this so sample synthesis cannot
    /// oversubscribe the machine underneath the compute pool.
    synth_threads: usize,
}

impl<'d, D: Dataset + Sync> DataLoader<'d, D> {
    /// A loader over `dataset` with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(dataset: &'d D, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        DataLoader {
            source: Source::Borrowed(dataset),
            batch_size,
            augment: Augment::none(),
            shuffle: false,
            seed: 0,
            synth_threads: 0,
        }
    }

    /// Enables deterministic shuffling (reseeded per epoch).
    #[must_use]
    pub fn shuffled(mut self, seed: u64) -> Self {
        self.shuffle = true;
        self.seed = seed;
        self
    }

    /// Sets the augmentation policy.
    #[must_use]
    pub fn with_augment(mut self, augment: Augment) -> Self {
        self.augment = augment;
        self
    }

    /// Caps the number of sample-synthesis threads per batch (0 restores
    /// the default of one per available core). Thread count never affects
    /// batch contents — each sample's augmentation stream is seeded by its
    /// position — so this is purely a scheduling knob.
    #[must_use]
    pub fn with_synth_threads(mut self, threads: usize) -> Self {
        self.synth_threads = threads;
        self
    }

    /// Batches per epoch (drops the trailing partial batch only when it
    /// would be empty).
    pub fn batches_per_epoch(&self) -> usize {
        self.source.get().len().div_ceil(self.batch_size)
    }

    /// The shuffled sample order of `epoch`.
    fn epoch_order(&self, epoch: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.source.get().len()).collect();
        if self.shuffle {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(epoch as u64));
            order.shuffle(&mut rng);
        }
        order
    }

    /// Lazily iterates the batches of `epoch`, synthesizing each batch only
    /// when the consumer asks for it. [`DataLoader::epoch`] is this iterator
    /// collected.
    pub fn epoch_iter(&self, epoch: usize) -> EpochIter<'_, 'd, D> {
        EpochIter {
            loader: self,
            order: self.epoch_order(epoch),
            epoch,
            next_batch: 0,
        }
    }

    /// Materializes the batches of `epoch`.
    pub fn epoch(&self, epoch: usize) -> Vec<Batch> {
        self.epoch_iter(epoch).collect()
    }

    fn load_batch(&self, indices: &[usize], aug_seed: u64) -> Batch {
        let n = indices.len();
        let dataset = self.source.get();
        let s = dataset.image_size();
        let results: Mutex<Vec<Option<(Tensor, usize)>>> = Mutex::new(vec![None; n]);
        let threads = if self.synth_threads > 0 {
            self.synth_threads
        } else {
            nb_tensor::available_threads()
        }
        .min(n)
        .max(1);
        let per = n.div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for t in 0..threads {
                let results = &results;
                let aug = self.augment;
                scope.spawn(move |_| {
                    let hi = ((t + 1) * per).min(n);
                    for (k, &src) in indices.iter().enumerate().take(hi).skip(t * per) {
                        let (img, label) = dataset.get(src);
                        let mut rng =
                            StdRng::seed_from_u64(aug_seed.wrapping_mul(31).wrapping_add(k as u64));
                        let img = aug.apply(&img, &mut rng);
                        results.lock()[k] = Some((img, label));
                    }
                });
            }
        })
        .expect("loader worker panicked");
        let results = results.into_inner();
        let mut images = Tensor::zeros([n, 3, s, s]);
        let mut labels = Vec::with_capacity(n);
        let plane = 3 * s * s;
        for (k, slot) in results.into_iter().enumerate() {
            let (img, label) = slot.expect("every slot filled");
            images.as_mut_slice()[k * plane..(k + 1) * plane].copy_from_slice(img.as_slice());
            labels.push(label);
        }
        Batch { images, labels }
    }
}

impl<D: Dataset + Sync> DataLoader<'static, D> {
    /// A loader over a shared dataset. Shared loaders can hand the dataset
    /// to a background prefetch thread (see [`DataLoader::stream`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn shared(dataset: Arc<D>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        DataLoader {
            source: Source::Shared(dataset),
            batch_size,
            augment: Augment::none(),
            shuffle: false,
            seed: 0,
            synth_threads: 0,
        }
    }
}

impl<'d, D: Dataset + Sync + Send + 'static> DataLoader<'d, D> {
    /// Streams the batches of `epoch`, overlapping synthesis with the
    /// consumer's compute: shared-source loaders spawn one producer thread
    /// that runs at most `PREFETCH_DEPTH` batches ahead through a bounded
    /// channel; borrowed-source loaders fall back to inline lazy iteration.
    /// Batch contents and order are identical either way.
    ///
    /// Dropping the stream early stops the producer (its next send fails)
    /// and joins it, so abandoned epochs never leak threads.
    pub fn stream(&self, epoch: usize) -> BatchStream<'_, 'd, D> {
        match &self.source {
            Source::Borrowed(_) => BatchStream {
                inner: StreamInner::Inline(self.epoch_iter(epoch)),
            },
            Source::Shared(arc) => {
                let producer = DataLoader {
                    source: Source::Shared(Arc::clone(arc)),
                    batch_size: self.batch_size,
                    augment: self.augment,
                    shuffle: self.shuffle,
                    seed: self.seed,
                    synth_threads: self.synth_threads,
                };
                let (tx, rx) = mpsc::sync_channel(PREFETCH_DEPTH);
                let handle = std::thread::spawn(move || {
                    for batch in producer.epoch_iter(epoch) {
                        if tx.send(batch).is_err() {
                            break; // consumer dropped the stream
                        }
                    }
                });
                BatchStream {
                    inner: StreamInner::Prefetched(PrefetchStream {
                        rx: Some(rx),
                        handle: Some(handle),
                    }),
                }
            }
        }
    }
}

/// Lazy batch iterator over one epoch (see [`DataLoader::epoch_iter`]).
pub struct EpochIter<'a, 'd, D: Dataset + Sync> {
    loader: &'a DataLoader<'d, D>,
    order: Vec<usize>,
    epoch: usize,
    next_batch: usize,
}

impl<D: Dataset + Sync> Iterator for EpochIter<'_, '_, D> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        let bs = self.loader.batch_size;
        let start = self.next_batch * bs;
        if start >= self.order.len() {
            return None;
        }
        let bi = self.next_batch;
        self.next_batch += 1;
        let chunk = &self.order[start..self.order.len().min(start + bs)];
        Some(
            self.loader
                .load_batch(chunk, self.epoch as u64 * 1_000_003 + bi as u64),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = self.order.len().div_ceil(self.loader.batch_size);
        let left = total.saturating_sub(self.next_batch);
        (left, Some(left))
    }
}

impl<D: Dataset + Sync> ExactSizeIterator for EpochIter<'_, '_, D> {}

/// One epoch's batches, possibly produced ahead of the consumer by a
/// background thread (see [`DataLoader::stream`]).
pub struct BatchStream<'a, 'd, D: Dataset + Sync> {
    inner: StreamInner<'a, 'd, D>,
}

enum StreamInner<'a, 'd, D: Dataset + Sync> {
    Inline(EpochIter<'a, 'd, D>),
    Prefetched(PrefetchStream),
}

struct PrefetchStream {
    rx: Option<mpsc::Receiver<Batch>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for PrefetchStream {
    fn drop(&mut self) {
        // Close the channel first so a blocked producer send unblocks with
        // an error, then reap the thread.
        drop(self.rx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<D: Dataset + Sync> Iterator for BatchStream<'_, '_, D> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        match &mut self.inner {
            StreamInner::Inline(iter) => iter.next(),
            StreamInner::Prefetched(p) => p.rx.as_ref().and_then(|rx| rx.recv().ok()),
        }
    }
}

/// Samples a random probe batch (for equivalence checking and calibration).
pub fn random_probe_batch(dataset: &(impl Dataset + Sync), n: usize, rng: &mut impl Rng) -> Batch {
    let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..dataset.len())).collect();
    DataLoader::new(dataset, n).load_batch(&indices, rng.gen())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Split, SyntheticVision};
    use crate::recipe::{Family, Nuisance};

    fn ds() -> SyntheticVision {
        SyntheticVision::new(
            "t",
            Family::Objects,
            3,
            8,
            10,
            Nuisance::easy(),
            1,
            Split::Train,
        )
    }

    fn bitwise_eq(a: &Batch, b: &Batch) -> bool {
        a.labels == b.labels
            && a.images.dims() == b.images.dims()
            && a.images
                .as_slice()
                .iter()
                .zip(b.images.as_slice())
                .all(|(u, v)| u.to_bits() == v.to_bits())
    }

    #[test]
    fn batch_shapes() {
        let d = ds();
        let loader = DataLoader::new(&d, 4);
        let batches = loader.epoch(0);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].images.dims(), &[4, 3, 8, 8]);
        assert_eq!(batches[2].images.dims(), &[2, 3, 8, 8]); // remainder
        assert_eq!(batches[0].labels.len(), 4);
    }

    #[test]
    fn unshuffled_is_sequential() {
        let d = ds();
        let loader = DataLoader::new(&d, 10);
        let batch = &loader.epoch(0)[0];
        let want: Vec<usize> = (0..10).map(|i| i % 3).collect();
        assert_eq!(batch.labels, want);
    }

    #[test]
    fn shuffle_deterministic_and_epoch_dependent() {
        let d = ds();
        let loader = DataLoader::new(&d, 10).shuffled(5);
        let a = loader.epoch(0)[0].labels.clone();
        let b = loader.epoch(0)[0].labels.clone();
        let c = loader.epoch(1)[0].labels.clone();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // permutation preserves label multiset
        let mut sa = a.clone();
        sa.sort();
        assert_eq!(sa, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn batch_content_matches_dataset() {
        let d = ds();
        let loader = DataLoader::new(&d, 2);
        let batch = &loader.epoch(0)[0];
        let (img0, l0) = d.get(0);
        assert_eq!(batch.labels[0], l0);
        let got = batch.images.narrow0(0, 1).into_reshape([3, 8, 8]);
        assert!(got.allclose(&img0, 1e-6));
    }

    #[test]
    fn probe_batch_sizes() {
        let d = ds();
        let mut rng = StdRng::seed_from_u64(3);
        let b = random_probe_batch(&d, 5, &mut rng);
        assert_eq!(b.images.dims(), &[5, 3, 8, 8]);
        assert_eq!(b.labels.len(), 5);
    }

    #[test]
    fn lazy_iter_matches_materialized_epoch_bitwise() {
        let d = ds();
        let loader = DataLoader::new(&d, 4)
            .shuffled(7)
            .with_augment(Augment::standard());
        let eager = loader.epoch(2);
        let lazy: Vec<Batch> = loader.epoch_iter(2).collect();
        assert_eq!(eager.len(), lazy.len());
        assert!(eager.iter().zip(&lazy).all(|(a, b)| bitwise_eq(a, b)));
        assert_eq!(loader.epoch_iter(2).len(), eager.len());
    }

    #[test]
    fn prefetch_stream_matches_epoch_bitwise() {
        let loader = DataLoader::shared(Arc::new(ds()), 3)
            .shuffled(11)
            .with_augment(Augment::standard())
            .with_synth_threads(1);
        let eager = loader.epoch(1);
        let streamed: Vec<Batch> = loader.stream(1).collect();
        assert_eq!(eager.len(), streamed.len());
        assert!(eager.iter().zip(&streamed).all(|(a, b)| bitwise_eq(a, b)));
    }

    #[test]
    fn borrowed_stream_falls_back_inline() {
        let d = ds();
        let loader = DataLoader::new(&d, 4).shuffled(3);
        let eager = loader.epoch(0);
        let streamed: Vec<Batch> = loader.stream(0).collect();
        assert!(eager.iter().zip(&streamed).all(|(a, b)| bitwise_eq(a, b)));
    }

    #[test]
    fn dropping_stream_early_joins_producer() {
        let loader = DataLoader::shared(Arc::new(ds()), 2).shuffled(1);
        let mut stream = loader.stream(0);
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must not hang or leak the producer
    }

    #[test]
    fn synth_thread_cap_does_not_change_bits() {
        let d = ds();
        let wide = DataLoader::new(&d, 8).with_augment(Augment::standard());
        let capped = DataLoader::new(&d, 8)
            .with_augment(Augment::standard())
            .with_synth_threads(1);
        let a = wide.epoch(0);
        let b = capped.epoch(0);
        assert!(a.iter().zip(&b).all(|(x, y)| bitwise_eq(x, y)));
    }

    #[test]
    fn batch_slice_views_rows() {
        let d = ds();
        let batch = &DataLoader::new(&d, 6).epoch(0)[0];
        let s = batch.slice(2, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, batch.labels[2..5]);
        let plane = 3 * 8 * 8;
        assert_eq!(
            s.images.as_slice(),
            &batch.images.as_slice()[2 * plane..5 * plane]
        );
    }
}
