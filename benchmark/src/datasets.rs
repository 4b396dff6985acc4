//! Seeded input generators. Everything the `v2v` processes see — edge
//! lists, vectors, labels, streamed edges, query ids — is made here from
//! `--seed`, byte-identical on every commit (hashes pinned in the tests).

use crate::rng::Rng;

/// Dataset sizes. `FULL` is what every reported number uses; `QUICK` keeps
/// every code path and check alive in a few seconds for CI smoke runs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Quasi-clique graph: `qc_groups` groups of `qc_group_size` vertices.
    pub qc_groups: usize,
    pub qc_group_size: usize,
    pub qc_inter_edges: usize,
    /// Clustered vectors: `blobs_n` points around `blobs_clusters` centres.
    pub blobs_n: usize,
    pub blobs_clusters: usize,
    pub dims: usize,
}

/// Intra-group edge density of the quasi-clique graph (the paper's α).
pub const QC_ALPHA: f64 = 0.8;

pub const FULL: Scale = Scale {
    name: "full",
    qc_groups: 30,
    qc_group_size: 200,
    qc_inter_edges: 600,
    blobs_n: 30_000,
    blobs_clusters: 256,
    dims: 64,
};

pub const QUICK: Scale = Scale {
    name: "quick",
    qc_groups: 5,
    qc_group_size: 160,
    qc_inter_edges: 80,
    // Above the server's 512-vector exact-scan threshold, so the HNSW
    // graph path is the one exercised.
    blobs_n: 3_000,
    blobs_clusters: 24,
    dims: 64,
};

/// Streams per purpose; see [`Rng::fork`].
mod stream {
    pub const QC: u64 = 1;
    pub const BLOBS: u64 = 2;
    pub const LABELS: u64 = 3;
    pub const INGEST: u64 = 4;
    pub const QUERIES: u64 = 5;
}

/// A planted-partition graph in the paper's §III-A quasi-clique style.
pub struct QcGraph {
    /// Plain `src dst\n` lines.
    pub edge_list: Vec<u8>,
    /// Planted group of every vertex.
    pub groups: Vec<u32>,
    pub edges: usize,
}

fn push_edge(out: &mut Vec<u8>, a: usize, b: usize) {
    use std::io::Write;
    writeln!(out, "{a} {b}").expect("writing to a Vec cannot fail");
}

pub fn qc_graph(seed: u64, scale: &Scale) -> QcGraph {
    let mut rng = Rng::fork(seed, stream::QC);
    let (groups, size) = (scale.qc_groups, scale.qc_group_size);
    let n = groups * size;
    let mut edge_list = Vec::with_capacity(n * size / 2 * 11);
    let mut edges = 0;
    for g in 0..groups {
        let base = g * size;
        for i in 0..size {
            for j in i + 1..size {
                if rng.chance(QC_ALPHA) {
                    push_edge(&mut edge_list, base + i, base + j);
                    edges += 1;
                }
            }
        }
    }
    let mut placed = 0;
    while placed < scale.qc_inter_edges {
        let (a, b) = (rng.below(n), rng.below(n));
        if a / size != b / size {
            push_edge(&mut edge_list, a, b);
            placed += 1;
        }
    }
    edges += placed;
    QcGraph {
        edge_list,
        groups: (0..n).map(|v| (v / size) as u32).collect(),
        edges,
    }
}

/// Clustered vectors: centres uniform in `[-1, 1)`, jitter ±0.25 — one
/// blob per community, the shape a trained V2V embedding has.
pub struct Blobs {
    pub dims: usize,
    /// Row-major `n × dims`.
    pub data: Vec<f32>,
    /// Cluster of every vector.
    pub groups: Vec<u32>,
}

pub fn blobs(seed: u64, scale: &Scale) -> Blobs {
    let mut rng = Rng::fork(seed, stream::BLOBS);
    let (n, dims, clusters) = (scale.blobs_n, scale.dims, scale.blobs_clusters);
    let centres: Vec<f32> = (0..clusters * dims)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let mut data = Vec::with_capacity(n * dims);
    for i in 0..n {
        let c = i % clusters;
        for d in 0..dims {
            data.push(centres[c * dims + d] + rng.range_f32(-0.25, 0.25));
        }
    }
    Blobs {
        dims,
        data,
        groups: (0..n).map(|i| (i % clusters) as u32).collect(),
    }
}

/// Share of vertices whose label the server is told; the rest read `?`.
const LABELLED_FRAC: f64 = 0.9;

/// The `v2v serve --labels` file: `vertex label` or `vertex ?` per line.
pub fn labels_file(seed: u64, groups: &[u32]) -> Vec<u8> {
    use std::io::Write;
    let mut rng = Rng::fork(seed, stream::LABELS);
    let mut out = Vec::with_capacity(groups.len() * 10);
    for (v, g) in groups.iter().enumerate() {
        if rng.chance(LABELLED_FRAC) {
            writeln!(out, "{v} {g}").expect("writing to a Vec cannot fail");
        } else {
            writeln!(out, "{v} ?").expect("writing to a Vec cannot fail");
        }
    }
    out
}

pub const INGEST_BATCH_EDGES: usize = 40;
/// Share of streamed edges that join two members of one planted group.
const INGEST_INTRA_FRAC: f64 = 0.8;
/// One streamed edge in this many attaches the next unseen vertex id.
const INGEST_NEW_VERTEX_EVERY: usize = 500;

/// `batches` batches of streamed edges over a graph with the given planted
/// groups: mostly intra-group pairs, a few cross pairs, and now and then a
/// brand-new vertex (ids grow by one, as the server's admission rule asks).
pub fn ingest_batches(seed: u64, groups: &[u32], batches: usize) -> Vec<Vec<(u32, u32)>> {
    let mut rng = Rng::fork(seed, stream::INGEST);
    let n = groups.len();
    let group_count = groups.iter().max().map_or(0, |g| *g as usize + 1);
    let mut members = vec![Vec::new(); group_count];
    for (v, g) in groups.iter().enumerate() {
        members[*g as usize].push(v as u32);
    }
    let mut next_vertex = n as u32;
    let mut emitted = 0usize;
    (0..batches)
        .map(|_| {
            (0..INGEST_BATCH_EDGES)
                .map(|_| {
                    emitted += 1;
                    let a = rng.below(n) as u32;
                    if emitted.is_multiple_of(INGEST_NEW_VERTEX_EVERY) {
                        next_vertex += 1;
                        (a, next_vertex - 1)
                    } else if rng.chance(INGEST_INTRA_FRAC) {
                        let peers = &members[groups[a as usize] as usize];
                        (a, peers[rng.below(peers.len())])
                    } else {
                        (a, rng.below(n) as u32)
                    }
                })
                .collect()
        })
        .collect()
}

/// The JSON body `POST /ingest` takes.
pub fn ingest_body(batch: &[(u32, u32)]) -> String {
    let pairs: Vec<String> = batch.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
    format!("{{\"edges\": [{}]}}", pairs.join(", "))
}

/// What one read request asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    Neighbors(u32),
    Predict(u32),
    Similarity(u32, u32),
}

pub const K: usize = 10;

impl Query {
    pub fn path(&self) -> String {
        match self {
            Query::Neighbors(v) => format!("/neighbors?v={v}&k={K}"),
            Query::Predict(v) => format!("/predict?v={v}&k={K}"),
            Query::Similarity(a, b) => format!("/similarity?a={a}&b={b}"),
        }
    }
}

/// Which endpoints a read stream mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `/neighbors` only.
    Neighbors,
    /// 85 % `/neighbors`, 10 % `/predict`, 5 % `/similarity`.
    ReadMix,
}

/// An endless seeded query stream over `n` vertices, ids uniform. Each
/// client takes its own `client` number so streams do not repeat.
pub struct QueryStream {
    rng: Rng,
    n: usize,
    mix: Mix,
}

impl QueryStream {
    pub fn new(seed: u64, client: u64, n: usize, mix: Mix) -> QueryStream {
        QueryStream {
            rng: Rng::fork(seed, stream::QUERIES + (client << 8)),
            n,
            mix,
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let v = self.rng.below(self.n) as u32;
        Some(match self.mix {
            Mix::Neighbors => Query::Neighbors(v),
            Mix::ReadMix => match self.rng.below(100) {
                0..=84 => Query::Neighbors(v),
                85..=94 => Query::Predict(v),
                _ => Query::Similarity(v, self.rng.below(self.n) as u32),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the generated bytes.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ *b as u64).wrapping_mul(0x100_0000_01B3)
        })
    }

    /// The inputs of seed 1 at full scale, pinned: a change to a generator
    /// or to the RNG moves every number the benchmark has ever reported, so
    /// it must be deliberate (and the baseline measured again).
    #[test]
    fn seed_one_inputs_are_byte_stable() {
        let graph = qc_graph(1, &FULL);
        let vectors = blobs(1, &FULL);
        let vector_bytes: Vec<u8> = vectors.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        let batches = ingest_batches(1, &vectors.groups, 100);
        let stream: String = batches.iter().map(|b| ingest_body(b)).collect();
        let queries: String = QueryStream::new(1, 0, FULL.blobs_n, Mix::ReadMix)
            .take(1000)
            .map(|q| q.path())
            .collect();
        let got = [
            fnv1a64(&graph.edge_list),
            fnv1a64(&vector_bytes),
            fnv1a64(&labels_file(1, &vectors.groups)),
            fnv1a64(stream.as_bytes()),
            fnv1a64(queries.as_bytes()),
        ];
        assert_eq!(got, PINNED, "{got:#018X?}");
    }

    const PINNED: [u64; 5] = [
        0x9CEF_A615_ACD0_BC83,
        0x7B87_1DF9_2C6F_C876,
        0x6B6A_3923_50C7_ABE7,
        0x592C_728B_2612_A63C,
        0xD5B5_5A45_DF8D_C61D,
    ];

    #[test]
    fn same_seed_same_bytes_and_other_seed_differs() {
        let a = qc_graph(1, &QUICK);
        let b = qc_graph(1, &QUICK);
        let c = qc_graph(2, &QUICK);
        assert_eq!(a.edge_list, b.edge_list);
        assert_ne!(a.edge_list, c.edge_list);
        assert_eq!(blobs(1, &QUICK).data, blobs(1, &QUICK).data);
        assert_ne!(blobs(1, &QUICK).data, blobs(2, &QUICK).data);
    }

    #[test]
    fn qc_graph_has_the_planted_shape() {
        let g = qc_graph(7, &QUICK);
        let n = QUICK.qc_groups * QUICK.qc_group_size;
        assert_eq!(g.groups.len(), n);
        let pairs = QUICK.qc_groups * QUICK.qc_group_size * (QUICK.qc_group_size - 1) / 2;
        let intra = g.edges - QUICK.qc_inter_edges;
        let density = intra as f64 / pairs as f64;
        assert!((density - QC_ALPHA).abs() < 0.01, "density {density}");
        assert_eq!(g.edge_list.iter().filter(|b| **b == b'\n').count(), g.edges);
    }

    #[test]
    fn ingest_stream_grows_vertex_ids_by_one() {
        let groups = blobs(3, &QUICK).groups;
        let batches = ingest_batches(3, &groups, 50);
        let mut expected_next = groups.len() as u32;
        for (a, b) in batches.iter().flatten() {
            assert!((*a as usize) < groups.len());
            if *b as usize >= groups.len() {
                assert_eq!(*b, expected_next);
                expected_next += 1;
            }
        }
        assert_eq!(
            (expected_next as usize - groups.len()),
            50 * INGEST_BATCH_EDGES / INGEST_NEW_VERTEX_EVERY
        );
        assert_eq!(
            ingest_body(&[(1, 2), (3, 4)]),
            "{\"edges\": [[1, 2], [3, 4]]}"
        );
    }

    #[test]
    fn read_mix_has_the_stated_shares() {
        let mut counts = [0usize; 3];
        for q in QueryStream::new(1, 0, 1000, Mix::ReadMix).take(20_000) {
            match q {
                Query::Neighbors(_) => counts[0] += 1,
                Query::Predict(_) => counts[1] += 1,
                Query::Similarity(..) => counts[2] += 1,
            }
        }
        assert!((16_600..17_400).contains(&counts[0]), "{counts:?}");
        assert!((1_800..2_200).contains(&counts[1]), "{counts:?}");
        assert!((800..1_200).contains(&counts[2]), "{counts:?}");
    }
}
