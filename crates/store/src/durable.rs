//! [`DurableRun`] — the one save/resume path of every checkpointing process
//! (bench run sequences and serving sessions alike).

use std::path::PathBuf;

use hotspot_active::RunCheckpoint;
use hotspot_telemetry::{self as telemetry, JournalPosition};

use crate::{CheckpointBundle, CheckpointStore, StoreError};

/// A checkpoint directory plus the next key to commit under. Keys continue
/// after the newest file on disk, torn ones included, so a process that
/// falls back past a torn checkpoint commits after it instead of colliding
/// with it.
#[derive(Debug)]
pub struct DurableRun {
    store: CheckpointStore,
    next_key: u64,
}

impl DurableRun {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let store = CheckpointStore::open(dir)?;
        let next_key = store.latest_key().map_or(1, |key| key + 1);
        Ok(DurableRun { store, next_key })
    }

    /// Loads the newest valid bundle and restores the process's cumulative
    /// metrics and run-id watermark from it, counting `checkpoint.resumes`.
    /// The caller reopens its journal at `bundle.journal` and hands
    /// `bundle.run` to the framework. `Ok(None)` (touching nothing) when no
    /// checkpoint validates.
    ///
    /// # Errors
    ///
    /// Propagates store read errors and bundle decode errors.
    pub fn resume(&self) -> Result<Option<(u64, CheckpointBundle)>, StoreError> {
        let Some((key, bundle)) = self.store.load_latest_bundle()? else {
            return Ok(None);
        };
        telemetry::restore_metrics_state(&bundle.metrics);
        telemetry::set_run_id_watermark(bundle.run_id_watermark);
        telemetry::counter(telemetry::names::CHECKPOINT_RESUMES).incr();
        Ok(Some((key, bundle)))
    }

    /// Commits `run` with the process's current metrics and run-id
    /// watermark, the journal position and the caller's progress bytes.
    /// Returns the key it committed under.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointStore::save`] failures.
    pub fn save(
        &mut self,
        run: &RunCheckpoint,
        journal: Option<JournalPosition>,
        progress: Vec<u8>,
    ) -> Result<u64, StoreError> {
        let bundle = CheckpointBundle {
            run: run.clone(),
            metrics: telemetry::metrics_state(),
            run_id_watermark: telemetry::run_id_watermark(),
            journal,
            progress,
        };
        let key = self.next_key;
        self.store.save(key, &bundle.to_file())?;
        self.next_key += 1;
        Ok(key)
    }
}
