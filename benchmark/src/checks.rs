//! Correctness checks, run inside every workload: a fast wrong answer must
//! not count as a result. A failed check fails the whole workload.

use crate::datasets::{Query, K};
use crate::http::KeepAlive;
use crate::json::Value;
use crate::rng::Rng;
use std::net::SocketAddr;

/// Share of sampled vertices that must be more similar (`/similarity`) to
/// a member of their own planted group than to a vertex of another group.
/// The seed commit scores 0.995–1.000 over fifty runs.
pub const SEPARATION_FLOOR: f64 = 0.95;
/// Share of served neighbours that must sit in the query's planted group,
/// as the mean over the builds of a run. Chance is 1 / groups = 0.03. The
/// seed commit serves 0.54–0.88 per build (mean 0.69 over 75 builds)
/// although the embedding separates the groups perfectly (see above): the
/// HNSW graph over near-duplicate vectors strands searches in a wrong
/// group, a different set of groups on every training run. The mean over
/// a run's builds moves less than one build does, which is what lets the
/// floor sit just under what the seed commit serves; raise it in a
/// benchmark PR once the index is fixed.
pub const PURITY_FLOOR: f64 = 0.50;
/// How far a served distance may be from the driver's own `1 - cosine` of
/// the two stored rows: f32 arithmetic against f64, nothing more.
pub const DISTANCE_TOLERANCE: f64 = 1e-4;
/// Share of the exact cosine top-10 the served neighbours must contain.
pub const RECALL_FLOOR: f64 = 0.95;

#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }

    pub fn at_least(name: &'static str, value: f64, floor: f64) -> Check {
        Check::new(name, value >= floor, format!("{value:.4} (floor {floor})"))
    }

    pub fn equal(name: &'static str, got: u64, expected: u64) -> Check {
        Check::new(
            name,
            got == expected,
            format!("{got} (expected {expected})"),
        )
    }
}

/// `count` distinct-ish vertex ids below `n`, seeded apart from every load
/// stream.
pub fn sample_vertices(seed: u64, n: usize, count: usize) -> Vec<u32> {
    let mut rng = Rng::fork(seed, 0xC4EC);
    (0..count).map(|_| rng.below(n) as u32).collect()
}

/// The `(vertex, distance)` pairs of a `/neighbors` reply, nearest first.
pub fn parse_neighbors(body: &str) -> Result<Vec<(u32, f64)>, String> {
    let v = Value::parse(body)?;
    let list = v
        .get("neighbors")
        .and_then(Value::arr)
        .ok_or("no neighbors array")?;
    list.iter()
        .map(|n| Ok((n.num_at("vertex")? as u32, n.num_at("distance")?)))
        .collect()
}

/// Asks the server for the neighbours of each sampled vertex over one
/// keep-alive connection.
pub fn served_neighbors(addr: SocketAddr, sample: &[u32]) -> Result<Vec<Vec<(u32, f64)>>, String> {
    let mut link = KeepAlive::new(addr);
    sample
        .iter()
        .map(|v| parse_neighbors(&link.get_ok(&Query::Neighbors(*v).path())?))
        .collect()
}

/// Planted-community recovery: the share of served neighbours that belong
/// to the query vertex's planted group.
pub fn neighbor_purity(groups: &[u32], sample: &[u32], served: &[Vec<(u32, f64)>]) -> f64 {
    let (mut same, mut total) = (0usize, 0usize);
    for (v, neighbors) in sample.iter().zip(served) {
        total += neighbors.len();
        same += neighbors
            .iter()
            .filter(|(u, _)| groups[*u as usize] == groups[*v as usize])
            .count();
    }
    same as f64 / total as f64
}

fn row(data: &[f32], dims: usize, i: usize) -> &[f32] {
    &data[i * dims..(i + 1) * dims]
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from(*x) * f64::from(*y))
        .sum()
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    dot(a, b) / (dot(a, a).sqrt() * dot(b, b).sqrt())
}

/// How many served neighbour lists disagree with the stored vectors they
/// were served from (`data`, as the driver reads them from the store):
/// not `K` distinct vertices other than the query, not nearest first, or a
/// distance that is not the driver's own `1 - cosine` of the two rows.
/// Unlike purity this does not depend on which neighbours the index
/// found, so every list must pass: it catches an index or serving path
/// that maps rows wrongly or answers with approximate distances.
pub fn inconsistent_lists(
    data: &[f32],
    dims: usize,
    sample: &[u32],
    served: &[Vec<(u32, f64)>],
) -> u64 {
    let consistent = |v: u32, list: &[(u32, f64)]| {
        let distinct = list
            .iter()
            .enumerate()
            .all(|(i, (u, _))| *u != v && list[..i].iter().all(|(w, _)| w != u));
        let ascending = list.windows(2).all(|w| w[0].1 <= w[1].1);
        let exact = list.iter().all(|(u, d)| {
            (*u as usize) < data.len() / dims && {
                let expected =
                    1.0 - cosine(row(data, dims, v as usize), row(data, dims, *u as usize));
                (d - expected).abs() <= DISTANCE_TOLERANCE
            }
        });
        list.len() == K && distinct && ascending && exact
    };
    sample
        .iter()
        .zip(served)
        .filter(|(v, list)| !consistent(**v, list))
        .count() as u64
}

/// Planted-community recovery measured on the embedding itself: for each
/// sampled vertex, is a random member of its own group more similar than a
/// random vertex of another group? Returns the share of wins.
pub fn planted_pair_separation(
    addr: SocketAddr,
    groups: &[u32],
    seed: u64,
    pairs: usize,
) -> Result<f64, String> {
    let mut rng = Rng::fork(seed, 0x5E9A);
    let mut link = KeepAlive::new(addr);
    let mut cosine = |a: u32, b: u32| -> Result<f64, String> {
        Value::parse(&link.get_ok(&Query::Similarity(a, b).path())?)?.num_at("cosine")
    };
    let pick = |rng: &mut Rng, wanted: &dyn Fn(u32) -> bool| loop {
        let v = rng.below(groups.len()) as u32;
        if wanted(v) {
            return v;
        }
    };
    let mut wins = 0;
    for _ in 0..pairs {
        let a = rng.below(groups.len()) as u32;
        let group = groups[a as usize];
        let peer = pick(&mut rng, &|v| v != a && groups[v as usize] == group);
        let stranger = pick(&mut rng, &|v| groups[v as usize] != group);
        if cosine(a, peer)? > cosine(a, stranger)? {
            wins += 1;
        }
    }
    Ok(wins as f64 / pairs as f64)
}

/// The `K` nearest rows to row `q` by cosine distance, `q` itself left
/// out: the benchmark's own brute force, sharing no code with the program.
pub fn exact_neighbors(data: &[f32], dims: usize, q: usize) -> Vec<u32> {
    let query = row(data, dims, q);
    let mut scored: Vec<(f64, u32)> = (0..data.len() / dims)
        .filter(|i| *i != q)
        .map(|i| (cosine(query, row(data, dims, i)), i as u32))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    scored.truncate(K);
    scored.into_iter().map(|(_, i)| i).collect()
}

/// recall@K of the served neighbours against [`exact_neighbors`].
pub fn neighbor_recall(
    addr: SocketAddr,
    data: &[f32],
    dims: usize,
    sample: &[u32],
) -> Result<f64, String> {
    let served = served_neighbors(addr, sample)?;
    let mut hit = 0usize;
    for (v, neighbors) in sample.iter().zip(&served) {
        let exact = exact_neighbors(data, dims, *v as usize);
        hit += neighbors.iter().filter(|(u, _)| exact.contains(u)).count();
    }
    Ok(hit as f64 / (sample.len() * K) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_count_trips_the_check() {
        assert!(Check::equal("ingest.folded_edges", 800, 800).ok);
        let off_by_one = Check::equal("ingest.folded_edges", 800, 801);
        assert!(!off_by_one.ok);
        assert_eq!(off_by_one.detail, "800 (expected 801)");
        assert!(Check::at_least("recall_at_10", 0.96, RECALL_FLOOR).ok);
        assert!(!Check::at_least("recall_at_10", 0.94, RECALL_FLOOR).ok);
    }

    #[test]
    fn parses_a_neighbors_reply() {
        let body = r#"{"vertex": 3, "k": 2, "metric": "cosine", "neighbors": [{"vertex": 118, "distance": 0.00014}, {"vertex": 7, "distance": 0.2}]}"#;
        assert_eq!(parse_neighbors(body), Ok(vec![(118, 0.00014), (7, 0.2)]));
        assert!(parse_neighbors(r#"{"error": "no such vertex"}"#).is_err());
    }

    #[test]
    fn purity_counts_neighbours_in_the_planted_group() {
        let groups = [0, 0, 0, 1, 1, 1];
        let served = vec![vec![(1, 0.1), (3, 0.2)], vec![(4, 0.1), (5, 0.2)]];
        assert_eq!(neighbor_purity(&groups, &[0, 3], &served), 0.75);
    }

    #[test]
    fn a_list_must_agree_with_the_stored_vectors() {
        // Twelve unit rows fanning out from the x axis: row i is at angle
        // 0.1 i, so row 0's nearest are 1, 2, 3, … at distance 1 - cos.
        let data: Vec<f32> = (0..12)
            .flat_map(|i| [(i as f32 * 0.1).cos(), (i as f32 * 0.1).sin()])
            .collect();
        let truth: Vec<(u32, f64)> = (1..=K as u32)
            .map(|u| (u, 1.0 - (f64::from(u) * 0.1).cos()))
            .collect();
        let bad = |list: Vec<(u32, f64)>| inconsistent_lists(&data, 2, &[0], &[list]);
        assert_eq!(bad(truth.clone()), 0);
        // A neighbour that is not the nearest is the index's business, as
        // long as its distance is the true one and the order holds.
        let mut other = truth.clone();
        other[9] = (11, 1.0 - 1.1f64.cos());
        assert_eq!(bad(other), 0);
        let mut wrong_distance = truth.clone();
        wrong_distance[4].1 += 0.01;
        assert_eq!(bad(wrong_distance), 1);
        let mut swapped = truth.clone();
        swapped.swap(2, 3);
        assert_eq!(bad(swapped), 1);
        let mut repeated = truth.clone();
        repeated[1] = repeated[0];
        assert_eq!(bad(repeated), 1);
        let mut with_query = truth.clone();
        with_query[0] = (0, 0.0);
        assert_eq!(bad(with_query), 1);
        assert_eq!(bad(truth[..9].to_vec()), 1);
        let mut out_of_range = truth;
        out_of_range[9].0 = 12;
        assert_eq!(bad(out_of_range), 1);
    }

    #[test]
    fn brute_force_ranks_by_cosine_and_skips_the_query() {
        // Rows 0..=11 fan out from the x axis; row 12 is row 0 scaled, so
        // its cosine distance to row 0 is zero whatever its length.
        let mut data = Vec::new();
        for i in 0..12 {
            let angle = i as f32 * 0.1;
            data.extend_from_slice(&[angle.cos(), angle.sin()]);
        }
        data.extend_from_slice(&[5.0, 0.0]);
        let got = exact_neighbors(&data, 2, 0);
        assert_eq!(got, vec![12, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }
}
