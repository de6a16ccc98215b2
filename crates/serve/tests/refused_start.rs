//! A refused start touches nothing. Every refusal comes before the audit
//! log opens, a sidecar is written or a worker spawns, so the audit path
//! and the checkpoint directory stay byte-identical and no file appears,
//! even after a detached worker would have had time to write its final
//! checkpoint.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use common::{temp_dir, StubModel};
use fact_serve::{
    AuditSinkConfig, CheckpointConfig, DecisionRequest, DecisionService, GuardConfig, ServeConfig,
    ServeError, ShardSlot,
};

/// Every file under `dir` with its bytes, by path; empty when `dir` does
/// not exist.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in listing {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read scratch file");
            files.insert(path, bytes);
        }
    }
    files
}

/// Two guarded local shards, checkpointing and auditing under `dir`.
fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        shards: 2,
        batch_linger: Duration::ZERO,
        guards: Some(GuardConfig {
            dp_interval: 50,
            ..GuardConfig::default()
        }),
        checkpoint: Some(CheckpointConfig::new(dir.join("ckpt"), 100)),
        audit: Some(AuditSinkConfig {
            path: dir.join("audit.jsonl"),
            ..AuditSinkConfig::default()
        }),
        ..ServeConfig::default()
    }
}

#[test]
fn a_refused_start_leaves_the_audit_log_and_sidecars_untouched() {
    let dir = temp_dir("refused-start");
    let refusals = || {
        let zero_shards = ServeConfig {
            shards: 0,
            ..config(&dir)
        };
        let unreachable_remote = ServeConfig {
            topology: Some(vec![
                ShardSlot::Local,
                ShardSlot::Remote(dir.join("missing.sock")),
            ]),
            ..config(&dir)
        };
        [
            ("zero shards", zero_shards),
            ("unreachable remote slot", unreachable_remote),
        ]
    };
    // First on an empty directory, then on the state a served run leaves.
    for populated in [false, true] {
        if populated {
            let service = DecisionService::start(Arc::new(StubModel), config(&dir)).unwrap();
            for key in 0..200u64 {
                service
                    .decide(DecisionRequest {
                        features: vec![if key % 3 == 0 { 0.9 } else { 0.1 }],
                        group_b: key % 2 == 0,
                        route_key: key,
                        tenant: 0,
                    })
                    .unwrap();
            }
            assert!(service.shutdown().epsilon_spent > 0.0);
        }
        let before = tree(&dir);
        assert_eq!(before.is_empty(), !populated);
        for (what, refused) in refusals() {
            let err = DecisionService::start(Arc::new(StubModel), refused)
                .err()
                .unwrap_or_else(|| panic!("{what}: the start was not refused"));
            match what {
                "zero shards" => assert!(matches!(err, ServeError::BadRequest(_)), "{err}"),
                _ => assert!(matches!(err, ServeError::Remote(_)), "{err}"),
            }
            // a worker detached by a refused start would write by now
            std::thread::sleep(Duration::from_millis(300));
            let after = tree(&dir);
            assert!(after.keys().eq(before.keys()), "{what}: {:?}", after.keys());
            assert!(
                after == before,
                "{what}: a file changed (populated: {populated})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
