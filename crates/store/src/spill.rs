//! The write-behind spill path: a bounded channel feeding a dedicated
//! writer thread, so persistence never blocks the serving hot path.
//!
//! [`SpillHandle::spill`] is `try_send` semantics — when the queue is
//! full the record is dropped and `spill_dropped` incremented; the
//! cache entry is unaffected, only its persistence is lost. Dropping
//! the handle closes the channel; the writer then drains everything
//! already queued before exiting, so a graceful shutdown flushes every
//! accepted record to disk deterministically.
//!
//! The writer calls [`Store::sync`] whenever it catches up with the queue — and once
//! more after the graceful drain — so under a durability
//! [`SyncMode`](crate::log::SyncMode) the `synced` high-water mark
//! tracks the backlog instead of waiting for a segment rotation.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::log::{Counters, Store, StoreStats};

/// Handle to the spill writer thread. Owns the writer's lifetime.
#[derive(Debug)]
pub struct SpillHandle {
    tx: Option<SyncSender<(Vec<u8>, Vec<u8>)>>,
    writer: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl SpillHandle {
    /// Spawns the writer thread over `store` with a queue of
    /// `queue_capacity` pending records.
    pub fn spawn(store: Store, queue_capacity: usize) -> SpillHandle {
        Self::spawn_inner(store, queue_capacity, None)
    }

    /// Test seam: delay the writer's first receive so a test can fill
    /// the queue deterministically before anything drains.
    #[cfg(test)]
    fn spawn_stalled(
        store: Store,
        queue_capacity: usize,
        gate: std::sync::mpsc::Receiver<()>,
    ) -> SpillHandle {
        Self::spawn_inner(store, queue_capacity, Some(gate))
    }

    fn spawn_inner(
        mut store: Store,
        queue_capacity: usize,
        gate: Option<std::sync::mpsc::Receiver<()>>,
    ) -> SpillHandle {
        let counters = store.counters();
        let (tx, rx) = sync_channel::<(Vec<u8>, Vec<u8>)>(queue_capacity.max(1));
        let writer_counters = Arc::clone(&counters);
        let writer = std::thread::Builder::new()
            .name("gb-store-spill".into())
            .spawn(move || {
                if let Some(gate) = gate {
                    let _ = gate.recv();
                }
                // recv() returns Err only once every sender is gone AND
                // the queue is empty, so the outer loop drains the
                // backlog before exiting — graceful shutdown loses
                // nothing. The inner loop batches whatever is already
                // queued between syncs, so a durability mode pays one
                // fsync per drained batch, not one per record.
                while let Ok((key, value)) = rx.recv() {
                    if store.append(&key, &value).is_err() {
                        writer_counters.write_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    while let Ok((key, value)) = rx.try_recv() {
                        if store.append(&key, &value).is_err() {
                            writer_counters.write_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Caught up: push the batch to stable storage (no-op
                    // under SyncMode::None).
                    if store.sync().is_err() {
                        writer_counters.write_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Graceful drain complete; one final sync covers any
                // records the last recv() round appended.
                if store.sync().is_err() {
                    writer_counters.write_errors.fetch_add(1, Ordering::Relaxed);
                }
            })
            .expect("spawn spill writer");
        SpillHandle {
            tx: Some(tx),
            writer: Some(writer),
            counters,
        }
    }

    /// Queues one record for persistence. Never blocks: a full queue
    /// drops the record and bumps `spill_dropped`.
    pub fn spill(&self, key: Vec<u8>, value: Vec<u8>) {
        let Some(tx) = &self.tx else { return };
        match tx.try_send((key, value)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.counters.spill_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counter snapshot (shared with the store the writer owns).
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

impl Drop for SpillHandle {
    fn drop(&mut self) {
        // Closing the channel lets the writer drain and exit; joining
        // makes shutdown deterministic for a successor process opening
        // the same directory.
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{StoreConfig, SyncMode};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("gb-store-spill-{}-{tag}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn graceful_drop_flushes_every_accepted_record() {
        let dir = TempDir::new("flush");
        let (store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        let spill = SpillHandle::spawn(store, 256);
        for i in 0..50u32 {
            spill.spill(format!("k{i}").into_bytes(), format!("v{i}").into_bytes());
        }
        drop(spill); // joins the writer after it drains

        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        assert_eq!(recovered.len(), 50);
        assert_eq!(store.stats().recovered, 50);
    }

    #[test]
    fn full_queue_drops_and_counts_instead_of_blocking() {
        let dir = TempDir::new("drop");
        let (store, _) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        // Writer is gated: nothing drains, so capacity 1 fills on the
        // first spill and the next two must drop.
        let spill = SpillHandle::spawn_stalled(store, 1, gate_rx);
        spill.spill(b"a".to_vec(), b"1".to_vec());
        spill.spill(b"b".to_vec(), b"2".to_vec());
        spill.spill(b"c".to_vec(), b"3".to_vec());
        assert_eq!(spill.stats().spill_dropped, 2);
        gate_tx.send(()).unwrap();
        drop(spill);

        let (store, recovered) = Store::open(StoreConfig::new(&dir.0)).unwrap();
        assert_eq!(recovered.len(), 1, "only the accepted record persists");
        assert_eq!(store.stats().recovered, 1);
    }

    /// Satellite regression: a graceful drain under a durability mode
    /// must leave `synced` covering every accepted record.
    #[test]
    fn graceful_drain_syncs_under_durability_mode() {
        let dir = TempDir::new("drain-sync");
        let config = StoreConfig {
            sync: SyncMode::Data,
            ..StoreConfig::new(&dir.0)
        };
        let (store, _) = Store::open(config.clone()).unwrap();
        let spill = SpillHandle::spawn(store, 256);
        for i in 0..40u32 {
            spill.spill(format!("k{i}").into_bytes(), format!("v{i}").into_bytes());
        }
        let counters = Arc::clone(&spill.counters);
        drop(spill);
        let synced = counters.snapshot().synced;
        assert_eq!(synced, 40, "drain must fsync everything accepted");
    }
}
