//! A refused start touches nothing. Every refusal comes before the audit
//! log opens, a sidecar is written or a worker spawns, so the audit path
//! and the checkpoint directory stay byte-identical and no file appears,
//! even after a detached worker would have had time to write its final
//! checkpoint. So does a start on guard state it may not read: a document
//! written by another shard count or holding a foreign window code, or the
//! per-shard files it replaced.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use common::{temp_dir, tree, StubModel};
use fact_serve::{
    transform_checkpoints, AuditSinkConfig, CheckpointConfig, DecisionRequest, DecisionService,
    GuardConfig, ServeConfig, ServeError, ShardSlot,
};

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

/// Serve 200 decisions under `config(dir)`, spending ε, and stop.
fn serve_and_stop(dir: &Path) {
    let service = DecisionService::start(Arc::new(StubModel), config(dir)).unwrap();
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
            serve_and_stop(&dir);
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

/// A start whose shard count differs from the one that wrote the
/// guard-state document is refused in both directions, and so is a start
/// on a directory in the per-shard layout (`shard-N.json`, no document),
/// which the offline transform refuses too. No file changes.
#[test]
fn a_start_on_another_shard_count_or_the_old_layout_touches_nothing() {
    let dir = temp_dir("refused-count");
    serve_and_stop(&dir);
    let unchanged = |before: &BTreeMap<PathBuf, Vec<u8>>, what: &str| {
        std::thread::sleep(Duration::from_millis(300));
        assert!(tree(&dir) == *before, "{what}: a file changed");
    };

    let before = tree(&dir);
    for shards in [1, 3] {
        let err = DecisionService::start(
            Arc::new(StubModel),
            ServeConfig {
                shards,
                ..config(&dir)
            },
        )
        .err()
        .unwrap_or_else(|| panic!("a {shards}-shard start on 2 shards' state ran"));
        let asks = format!("asks for {shards}");
        assert!(
            matches!(&err, ServeError::BadRequest(msg)
                if msg.contains("written by 2 shard(s)") && msg.contains(&asks)),
            "{err}"
        );
        unchanged(&before, &format!("{shards} shards"));
    }

    let ckpt = dir.join("ckpt");
    std::fs::remove_file(ckpt.join("guards.json")).unwrap();
    for k in 0..2 {
        std::fs::write(ckpt.join(format!("shard-{k}.json")), b"{}").unwrap();
    }
    let before = tree(&dir);
    let old_layout = |err: ServeError| {
        assert!(
            matches!(&err, ServeError::BadRequest(msg)
                if msg.contains("shard-0.json, shard-1.json") && msg.contains("guards.json")),
            "{err}"
        );
    };
    old_layout(
        DecisionService::start(Arc::new(StubModel), config(&dir))
            .err()
            .expect("a start on the per-shard layout ran"),
    );
    old_layout(transform_checkpoints(&ckpt, 1, 1.0).unwrap_err());
    unchanged(&before, "per-shard layout");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A document whose fairness window holds a character other than `0`–`3`
/// is corrupt: the start fails with a typed error and no file changes.
#[test]
fn a_start_on_a_window_with_a_foreign_code_touches_nothing() {
    let dir = temp_dir("refused-window");
    serve_and_stop(&dir);
    let document = dir.join("ckpt").join("guards.json");
    let json = std::fs::read_to_string(&document).unwrap();
    let key = "\"window\":\"";
    assert!(json.contains(key), "{json}");
    std::fs::write(&document, json.replacen(key, &format!("{key}4"), 1)).unwrap();
    let before = tree(&dir);

    let err = DecisionService::start(Arc::new(StubModel), config(&dir))
        .err()
        .expect("a start on a foreign window code ran");
    assert!(
        matches!(&err, ServeError::Internal(msg)
            if msg.contains("corrupt") && msg.contains("code other than 0-3")),
        "{err}"
    );
    std::thread::sleep(Duration::from_millis(300));
    assert!(tree(&dir) == before, "a file changed");
    let _ = std::fs::remove_dir_all(&dir);
}
