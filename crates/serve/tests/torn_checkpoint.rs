//! A torn newest checkpoint must cost a labelling session one iteration of
//! rework, never wedge it. The next step resumes one checkpoint earlier,
//! commits after the torn key (the key sequence counts every file on disk),
//! and the campaign finishes with the accuracy, Litho# and canonical
//! journal of an undisturbed session.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hotspot_serve::{SessionInfo, SessionManager, SessionRequest};
use hotspot_telemetry::MetricsRegistry;

fn request() -> SessionRequest {
    SessionRequest {
        benchmark: Some("iccad12".to_string()),
        scale: Some(0.004),
        seed: Some(7),
        method: Some("ours".to_string()),
        workers: Some(2),
        iterations: Some(4),
    }
}

fn step_to_done(sessions: &SessionManager, session: &str) -> SessionInfo {
    for _ in 0..16 {
        let info = sessions.step(session).expect("step succeeds");
        if info.done {
            return info;
        }
    }
    panic!("session {session} did not finish within 16 steps");
}

/// Cuts the last 5 bytes off the newest `ckpt-*.bin`, as a power cut on a
/// filesystem that reorders the rename before the data blocks can.
fn tear_newest_checkpoint(ckpt_dir: &Path) {
    let newest = std::fs::read_dir(ckpt_dir)
        .expect("read checkpoint dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("ckpt-") && name.ends_with(".bin"))
        })
        .max()
        .expect("a committed checkpoint");
    let bytes = std::fs::read(&newest).expect("read checkpoint");
    std::fs::write(&newest, &bytes[..bytes.len() - 5]).expect("tear checkpoint");
}

#[test]
fn torn_newest_checkpoint_costs_one_iteration_and_finishes_identically() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("lithohd-torn-session-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let sessions = SessionManager::start(&scratch, Arc::new(MetricsRegistry::default()))
        .expect("start session manager");

    let calm = sessions.create(request()).expect("create calm session");
    let calm_done = step_to_done(&sessions, &calm.session);

    let torn = sessions.create(request()).expect("create torn session");
    for expect_iteration in 1..=2 {
        let info = sessions.step(&torn.session).expect("step");
        assert_eq!(info.iteration, expect_iteration);
    }
    tear_newest_checkpoint(&scratch.join(&torn.session).join("ckpt"));
    let redo = sessions
        .step(&torn.session)
        .expect("a torn checkpoint must not wedge the session");
    assert_eq!(redo.iteration, 2, "the torn iteration is redone");
    let torn_done = step_to_done(&sessions, &torn.session);
    sessions.shutdown();

    assert_eq!(torn_done.accuracy, calm_done.accuracy);
    assert_eq!(torn_done.litho, calm_done.litho);
    let journal = |session: &str| {
        std::fs::read(scratch.join(session).join("journal.jsonl")).expect("read journal")
    };
    assert_eq!(
        journal(&torn.session),
        journal(&calm.session),
        "the re-run iteration must journal exactly what the undisturbed session did"
    );
    std::fs::remove_dir_all(&scratch).ok();
}
