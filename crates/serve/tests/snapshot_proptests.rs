//! Property test for HNSW snapshot persistence: a `ServeState` booted
//! from a store's persisted snapshot must answer `/neighbors` with the
//! exact bytes a freshly rebuilt index produces — for arbitrary data,
//! shapes, and index regimes (graph and brute-force), under both
//! metrics.

use proptest::prelude::*;
use v2v_base::rng::splitmix64;
use v2v_serve::api::handle;
use v2v_serve::{HnswConfig, HnswIndex, Metric, Request, ServeState};

fn neighbors(state: &ServeState, v: usize, k: usize) -> (u16, String) {
    let req = Request {
        method: "GET".into(),
        path: "/neighbors".into(),
        query: vec![("v".into(), v.to_string()), ("k".into(), k.to_string())],
        body: Vec::new(),
        ..Default::default()
    };
    let r = handle(state, &req);
    (r.status, r.body)
}

proptest! {
    /// Snapshot-load equals rebuild, observed at the API boundary: every
    /// vertex's `/neighbors` response is byte-identical between the two
    /// boot paths.
    #[test]
    fn snapshot_boot_answers_neighbors_identically_to_rebuild(
        n in 5usize..90,
        dims in 2usize..7,
        seed in any::<u64>(),
        euclidean in any::<bool>(),
        brute_force in any::<bool>(),
    ) {
        let mut s = seed;
        let data: Vec<f32> = (0..n * dims)
            .map(|_| (splitmix64(&mut s) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect();
        let config = HnswConfig {
            metric: if euclidean { Metric::Euclidean } else { Metric::Cosine },
            // Flip between a real graph build and the exact fallback so
            // both snapshot shapes (with and without topology) are hit.
            brute_force_threshold: if brute_force { usize::MAX } else { 0 },
            ..HnswConfig::default()
        };

        let dir = std::env::temp_dir()
            .join(format!("v2v_serve_snap_prop_{}_{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.v2s");
        let shard_rows = v2v_store::default_shard_rows(dims);
        let fp = v2v_store::write_store(&path, dims, &data, shard_rows, None).unwrap();
        let snap = HnswIndex::build(dims, data.clone(), config.clone()).snapshot(fp);
        v2v_store::write_store(&path, dims, &data, shard_rows, Some(&snap)).unwrap();

        let from_snapshot = ServeState::from_store(
            v2v_store::EmbeddingStore::open(&path).unwrap(),
            config.clone(),
            None,
            true,
        ).unwrap();
        let rebuilt = ServeState::from_store(
            v2v_store::EmbeddingStore::open(&path).unwrap(),
            config,
            None,
            false,
        ).unwrap();
        prop_assert_eq!(from_snapshot.index_source(), "snapshot");
        prop_assert_eq!(rebuilt.index_source(), "rebuilt");

        let k = 1 + (seed % 10) as usize;
        for v in 0..n {
            let (status_a, body_a) = neighbors(&from_snapshot, v, k);
            let (status_b, body_b) = neighbors(&rebuilt, v, k);
            prop_assert_eq!(status_a, 200u16, "vertex {}: {}", v, body_a);
            prop_assert_eq!(status_b, 200u16);
            prop_assert_eq!(body_a, body_b, "vertex {} diverged (k = {})", v, k);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
