//! [`DurableRun`]: a save → resume round trip restores the process's
//! telemetry and counts the resume, and the key sequence continues past a
//! torn newest checkpoint instead of colliding with it.
//!
//! Both tests reset process-global telemetry, so they run one at a time.

use std::sync::Mutex;

use hotspot_active::{DatasetCheckpoint, ModelState, RunCheckpoint, RunFaultStats};
use hotspot_gmm::GaussianMixture;
use hotspot_litho::OracleStats;
use hotspot_nn::{AdamState, NetworkSnapshot};
use hotspot_store::DurableRun;
use hotspot_telemetry::{self as telemetry, names, JournalPosition};
use rand_chacha::ChaChaStreamState;

static GLOBAL_TELEMETRY: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hotspot-store-durable-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint(iteration: usize) -> RunCheckpoint {
    RunCheckpoint {
        iteration,
        seed: 5,
        run_id: 2,
        total: 8,
        by_score: (0..8).collect(),
        dataset: DatasetCheckpoint {
            labeled: vec![0, 1],
            labeled_classes: vec![0, 1],
            validation: vec![2],
            validation_classes: vec![1],
        },
        model: ModelState {
            snapshot: NetworkSnapshot::from_layer_parts(vec![(
                "dense".to_owned(),
                vec![vec![0.5f32; 4], vec![0.0f32; 2]],
            )]),
            optimizer: AdamState::default(),
            steps_trained: 10,
        },
        gmm: GaussianMixture::from_parts(2, vec![1.0], vec![0.0, 0.0], vec![1.0, 1.0])
            .expect("valid mixture"),
        temperature: 1.25,
        ece_before: 0.1,
        history: Vec::new(),
        cold_batches: 0,
        fault_stats: RunFaultStats::default(),
        stats_before: OracleStats::default(),
        oracle_calls_before: 0,
        rng: ChaChaStreamState {
            key: [3; 8],
            counter: 9,
            index: 1,
        },
        oracle: None,
    }
}

#[test]
fn save_then_resume_restores_telemetry_and_counts_the_resume() {
    let _guard = GLOBAL_TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("roundtrip");
    let counter = telemetry::counter("store.test.durable_counter");
    let mut run = DurableRun::open(&dir).expect("open");
    assert!(run.resume().expect("empty dir scans").is_none());

    counter.add(7);
    telemetry::set_run_id_watermark(41);
    let saved_counter = counter.get();
    let resumes_before = telemetry::counter(names::CHECKPOINT_RESUMES).get();
    let journal = Some(JournalPosition { bytes: 96, seq: 3 });
    let key = run
        .save(&checkpoint(3), journal, vec![1, 2, 3])
        .expect("save");
    assert_eq!(key, 1);

    // Work done after the save, which a crash would lose.
    counter.add(100);
    telemetry::set_run_id_watermark(99);

    let (resumed_key, bundle) = DurableRun::open(&dir)
        .expect("reopen")
        .resume()
        .expect("load")
        .expect("one checkpoint");
    assert_eq!(resumed_key, key);
    assert_eq!(bundle.run, checkpoint(3));
    assert_eq!(bundle.journal, journal);
    assert_eq!(bundle.progress, vec![1, 2, 3]);
    assert_eq!(counter.get(), saved_counter);
    assert_eq!(telemetry::run_id_watermark(), 41);
    assert_eq!(
        telemetry::counter(names::CHECKPOINT_RESUMES).get(),
        resumes_before + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn next_key_continues_after_a_torn_newest_checkpoint() {
    let _guard = GLOBAL_TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("torn");
    let mut run = DurableRun::open(&dir).expect("open");
    assert_eq!(run.save(&checkpoint(1), None, Vec::new()).expect("save"), 1);
    assert_eq!(run.save(&checkpoint(2), None, Vec::new()).expect("save"), 2);
    let path = dir.join("ckpt-0000000000000002.bin");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");

    let mut resumed = DurableRun::open(&dir).expect("reopen");
    let (key, bundle) = resumed.resume().expect("scan").expect("key 1 valid");
    assert_eq!((key, bundle.run.iteration), (1, 1));
    // Key 2 is taken by the torn file: the redone iteration commits as 3
    // and becomes the newest valid checkpoint.
    assert_eq!(
        resumed
            .save(&checkpoint(2), None, Vec::new())
            .expect("save"),
        3
    );
    let (key, bundle) = DurableRun::open(&dir)
        .expect("reopen")
        .resume()
        .expect("scan")
        .expect("key 3 valid");
    assert_eq!((key, bundle.run.iteration), (3, 2));
    let _ = std::fs::remove_dir_all(&dir);
}
