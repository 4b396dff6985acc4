//! Embedding quality primitives: canary sampling, neighbor churn, drift
//! statistics, and recall estimation.
//!
//! The serving layer mutates its own embeddings in production (streaming
//! ingest + incremental fine-tune + HNSW patching), and mechanical telemetry
//! (latency quantiles, queue depths) cannot tell whether the *answers* are
//! still good. This module holds the zero-dependency math shared by the
//! online quality sentinel (`serve::sentinel`), the per-batch refresh report,
//! and the offline `v2v drift` store differ:
//!
//! - [`canary_sample`] — a seeded reservoir sampler that picks a stable set
//!   of probe vertices. Same seed + same store length ⇒ the identical set on
//!   every restart, so drift numbers are comparable across process lifetimes.
//! - [`jaccard`] / [`mean_churn`] — neighbor-set overlap between two indexes;
//!   churn is `1 - jaccard` averaged over the canaries.
//! - [`recall`] / [`mean_recall`] — ANN-vs-exact top-k agreement.
//! - [`NormStats`] / [`DriftReport`] — centroid-shift and norm-distribution
//!   drift between two embeddings, with JSON export and an aligned table.

use crate::json;
use std::collections::BTreeSet;
use v2v_base::rng::splitmix64;

/// Knobs shared by the online sentinel and the offline differ.
#[derive(Clone, Copy, Debug)]
pub struct QualityConfig {
    /// Number of canary vertices to sample.
    pub canaries: usize,
    /// Neighbors per canary query (`k` in recall@k / churn@k).
    pub k: usize,
    /// Reservoir-sampler seed; fixed seed ⇒ stable canary set.
    pub seed: u64,
    /// Mean neighbor churn above which a batch retrain is advised.
    pub churn_threshold: f64,
}

impl Default for QualityConfig {
    fn default() -> QualityConfig {
        QualityConfig { canaries: 64, k: 10, seed: 0xCA9A_5EED, churn_threshold: 0.35 }
    }
}

/// Samples `k` distinct indices from `0..n` with Algorithm R seeded by
/// `seed`. Deterministic: the same `(n, k, seed)` always yields the same
/// sorted set, so a restarted process probes the same canaries.
pub fn canary_sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut reservoir: Vec<usize> = (0..k).collect();
    if k == 0 {
        return reservoir;
    }
    let mut state = seed;
    for i in k..n {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        if j < k {
            reservoir[j] = i;
        }
    }
    reservoir.sort_unstable();
    reservoir
}

/// Jaccard similarity of two id sets. Two empty sets are identical (1.0).
pub fn jaccard(a: &[usize], b: &[usize]) -> f64 {
    let sa: BTreeSet<usize> = a.iter().copied().collect();
    let sb: BTreeSet<usize> = b.iter().copied().collect();
    let union = sa.union(&sb).count();
    if union == 0 {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    inter as f64 / union as f64
}

/// Mean neighbor-set churn (`1 - jaccard`) over paired neighbor lists.
/// Lists are paired positionally; extra lists on either side are ignored.
pub fn mean_churn(old: &[Vec<usize>], new: &[Vec<usize>]) -> f64 {
    let n = old.len().min(new.len());
    if n == 0 {
        return 0.0;
    }
    let total: f64 = (0..n).map(|i| 1.0 - jaccard(&old[i], &new[i])).sum();
    total / n as f64
}

/// Fraction of the exact top-k that the ANN answer recovered.
/// An empty ground truth counts as perfect recall.
pub fn recall(ann: &[usize], exact: &[usize]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let truth: BTreeSet<usize> = exact.iter().copied().collect();
    let hits = ann.iter().filter(|id| truth.contains(id)).count();
    hits as f64 / truth.len() as f64
}

/// Mean recall over paired (ANN, exact) neighbor lists.
pub fn mean_recall(ann: &[Vec<usize>], exact: &[Vec<usize>]) -> f64 {
    let n = ann.len().min(exact.len());
    if n == 0 {
        return 1.0;
    }
    let total: f64 = (0..n).map(|i| recall(&ann[i], &exact[i])).sum();
    total / n as f64
}

/// Summary statistics of the per-row L2 norm distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NormStats {
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
}

impl NormStats {
    /// Computes norm statistics over every `dims`-wide row of `data`.
    pub fn from_rows(dims: usize, data: &[f32]) -> NormStats {
        if dims == 0 || data.len() < dims {
            return NormStats::default();
        }
        let mut norms: Vec<f64> = data
            .chunks_exact(dims)
            .map(|row| row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt())
            .collect();
        norms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = norms.iter().sum::<f64>() / norms.len() as f64;
        let pick = |q: f64| {
            let idx = ((norms.len() - 1) as f64 * q).round() as usize;
            norms[idx]
        };
        NormStats {
            mean,
            min: norms[0],
            max: norms[norms.len() - 1],
            p50: pick(0.50),
            p95: pick(0.95),
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"mean\": ");
        json::write_f64(out, self.mean);
        out.push_str(", \"min\": ");
        json::write_f64(out, self.min);
        out.push_str(", \"max\": ");
        json::write_f64(out, self.max);
        out.push_str(", \"p50\": ");
        json::write_f64(out, self.p50);
        out.push_str(", \"p95\": ");
        json::write_f64(out, self.p95);
        out.push('}');
    }
}

/// Centroid (mean vector, in f64) of the selected rows.
pub fn centroid(dims: usize, data: &[f32], rows: &[usize]) -> Vec<f64> {
    let mut acc = vec![0.0f64; dims];
    let mut used = 0usize;
    for &r in rows {
        let start = r * dims;
        let Some(row) = data.get(start..start + dims) else { continue };
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v as f64;
        }
        used += 1;
    }
    if used > 0 {
        for a in &mut acc {
            *a /= used as f64;
        }
    }
    acc
}

/// L2 distance between two equal-length f64 vectors.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Exact (brute-force) cosine top-`k` neighbors of each query row, computed
/// over every row of `data` and excluding the query itself. Cosine matches
/// the serving default metric. O(queries × rows × dims) — meant for canary
/// sets, not full-store scans.
pub fn exact_neighbors(dims: usize, data: &[f32], queries: &[usize], k: usize) -> Vec<Vec<usize>> {
    let n = data.len().checked_div(dims).unwrap_or(0);
    queries
        .iter()
        .map(|&q| {
            let start = q * dims;
            let Some(query) = data.get(start..start + dims) else {
                return Vec::new();
            };
            let qnorm = query.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
            let mut scored: Vec<(f64, usize)> = (0..n)
                .filter(|&i| i != q)
                .map(|i| {
                    let row = &data[i * dims..(i + 1) * dims];
                    let dot: f64 = query.iter().zip(row).map(|(&a, &b)| a as f64 * b as f64).sum();
                    let rnorm = row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
                    let denom = qnorm * rnorm;
                    let cos = if denom > 0.0 { dot / denom } else { 0.0 };
                    (1.0 - cos, i)
                })
                .collect();
            scored.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
            });
            scored.into_iter().take(k).map(|(_, i)| i).collect()
        })
        .collect()
}

/// Offline drift comparison between two embeddings (row-major flat slices
/// with a shared dimensionality). Produced by `v2v drift` and reused by
/// tests; the online sentinel computes the same statistics incrementally.
#[derive(Clone, Debug)]
pub struct DriftReport {
    pub dims: usize,
    pub vectors_a: usize,
    pub vectors_b: usize,
    /// Canary vertices actually compared (sampled from the shared prefix).
    pub canaries: usize,
    pub k: usize,
    pub seed: u64,
    /// Mean `1 - jaccard` between exact top-k neighbor sets (a vs b).
    pub neighbor_churn: f64,
    /// L2 distance between the canary centroids of a and b.
    pub centroid_shift: f64,
    /// Mean / max per-canary-row L2 displacement.
    pub mean_row_shift: f64,
    pub max_row_shift: f64,
    pub norm_a: NormStats,
    pub norm_b: NormStats,
    pub churn_threshold: f64,
    /// True when `neighbor_churn` crossed `churn_threshold`.
    pub retrain_advised: bool,
}

impl DriftReport {
    /// Compares two flat row-major embeddings. Canaries are sampled from the
    /// shared row range, so growing a store (ingest adding vertices) still
    /// diffs cleanly against its ancestor.
    pub fn compute(
        dims: usize,
        a: &[f32],
        b: &[f32],
        config: &QualityConfig,
    ) -> Result<DriftReport, String> {
        if dims == 0 {
            return Err("drift: dimensionality must be positive".into());
        }
        if !a.len().is_multiple_of(dims) || !b.len().is_multiple_of(dims) {
            return Err(format!(
                "drift: payload sizes ({}, {}) are not multiples of dims {dims}",
                a.len(),
                b.len()
            ));
        }
        let (na, nb) = (a.len() / dims, b.len() / dims);
        let shared = na.min(nb);
        if shared == 0 {
            return Err("drift: no shared rows to compare".into());
        }
        let canaries = canary_sample(shared, config.canaries, config.seed);
        let neigh_a = exact_neighbors(dims, a, &canaries, config.k);
        let neigh_b = exact_neighbors(dims, b, &canaries, config.k);
        let neighbor_churn = mean_churn(&neigh_a, &neigh_b);
        let centroid_shift =
            l2_distance(&centroid(dims, a, &canaries), &centroid(dims, b, &canaries));
        let mut mean_row_shift = 0.0f64;
        let mut max_row_shift = 0.0f64;
        for &c in &canaries {
            let ra = &a[c * dims..(c + 1) * dims];
            let rb = &b[c * dims..(c + 1) * dims];
            let d = ra
                .iter()
                .zip(rb)
                .map(|(&x, &y)| (x as f64 - y as f64) * (x as f64 - y as f64))
                .sum::<f64>()
                .sqrt();
            mean_row_shift += d;
            max_row_shift = max_row_shift.max(d);
        }
        mean_row_shift /= canaries.len() as f64;
        Ok(DriftReport {
            dims,
            vectors_a: na,
            vectors_b: nb,
            canaries: canaries.len(),
            k: config.k,
            seed: config.seed,
            neighbor_churn,
            centroid_shift,
            mean_row_shift,
            max_row_shift,
            norm_a: NormStats::from_rows(dims, a),
            norm_b: NormStats::from_rows(dims, b),
            churn_threshold: config.churn_threshold,
            retrain_advised: neighbor_churn > config.churn_threshold,
        })
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"dims\": {},\n", self.dims));
        out.push_str(&format!("  \"vectors_a\": {},\n", self.vectors_a));
        out.push_str(&format!("  \"vectors_b\": {},\n", self.vectors_b));
        out.push_str(&format!("  \"canaries\": {},\n", self.canaries));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"neighbor_churn\": ");
        json::write_f64(&mut out, self.neighbor_churn);
        out.push_str(",\n  \"centroid_shift\": ");
        json::write_f64(&mut out, self.centroid_shift);
        out.push_str(",\n  \"mean_row_shift\": ");
        json::write_f64(&mut out, self.mean_row_shift);
        out.push_str(",\n  \"max_row_shift\": ");
        json::write_f64(&mut out, self.max_row_shift);
        out.push_str(",\n  \"norm_a\": ");
        self.norm_a.write_json(&mut out);
        out.push_str(",\n  \"norm_b\": ");
        self.norm_b.write_json(&mut out);
        out.push_str(",\n  \"churn_threshold\": ");
        json::write_f64(&mut out, self.churn_threshold);
        out.push_str(&format!(",\n  \"retrain_advised\": {}\n}}", self.retrain_advised));
        out
    }

    /// Renders the report as an aligned two-column table for terminals.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        rows.push(("dims".into(), self.dims.to_string()));
        rows.push(("vectors (a / b)".into(), format!("{} / {}", self.vectors_a, self.vectors_b)));
        rows.push(("canaries".into(), self.canaries.to_string()));
        rows.push((format!("neighbor churn@{}", self.k), format!("{:.6}", self.neighbor_churn)));
        rows.push(("centroid shift".into(), format!("{:.6}", self.centroid_shift)));
        rows.push(("mean row shift".into(), format!("{:.6}", self.mean_row_shift)));
        rows.push(("max row shift".into(), format!("{:.6}", self.max_row_shift)));
        rows.push((
            "norm mean (a / b)".into(),
            format!("{:.6} / {:.6}", self.norm_a.mean, self.norm_b.mean),
        ));
        rows.push((
            "norm p95 (a / b)".into(),
            format!("{:.6} / {:.6}", self.norm_a.p95, self.norm_b.p95),
        ));
        rows.push(("churn threshold".into(), format!("{:.6}", self.churn_threshold)));
        rows.push((
            "retrain advised".into(),
            if self.retrain_advised { "YES".into() } else { "no".into() },
        ));
        let key_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let val_w = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<key_w$}  {v:>val_w$}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_sampling_is_deterministic_across_restarts() {
        // Same seed + same store size ⇒ identical canary set, every time.
        let first = canary_sample(10_000, 64, 42);
        let second = canary_sample(10_000, 64, 42);
        assert_eq!(first, second);
        assert_eq!(first.len(), 64);
        // Sorted, unique, in range.
        assert!(first.windows(2).all(|w| w[0] < w[1]));
        assert!(first.iter().all(|&i| i < 10_000));
        // A different seed draws a different set (overwhelmingly likely).
        let other = canary_sample(10_000, 64, 43);
        assert_ne!(first, other);
    }

    #[test]
    fn canary_sampling_handles_small_populations() {
        assert_eq!(canary_sample(3, 64, 7), vec![0, 1, 2]);
        assert_eq!(canary_sample(0, 64, 7), Vec::<usize>::new());
        assert_eq!(canary_sample(5, 0, 7), Vec::<usize>::new());
    }

    #[test]
    fn canary_sampling_is_roughly_uniform() {
        // Every index should be picked sometimes across seeds; reservoir
        // sampling must not systematically favor the head of the range.
        let mut hits = vec![0usize; 100];
        for seed in 0..200u64 {
            for &i in &canary_sample(100, 10, seed) {
                hits[i] += 1;
            }
        }
        assert!(hits.iter().all(|&h| h > 0), "some index never sampled: {hits:?}");
    }

    #[test]
    fn jaccard_and_churn() {
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
        let old = vec![vec![1, 2], vec![3, 4]];
        let new = vec![vec![1, 2], vec![5, 6]];
        assert!((mean_churn(&old, &new) - 0.5).abs() < 1e-12);
        assert_eq!(mean_churn(&[], &[]), 0.0);
    }

    #[test]
    fn recall_counts_overlap() {
        assert_eq!(recall(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(recall(&[], &[1]), 0.0);
        assert_eq!(recall(&[7], &[]), 1.0);
        let ann = vec![vec![1, 2], vec![3, 9]];
        let exact = vec![vec![1, 2], vec![3, 4]];
        assert!((mean_recall(&ann, &exact) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn exact_neighbors_finds_the_closest_rows() {
        // Four 2-d points: two pointing +x, two pointing +y.
        let data = vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9];
        let lists = exact_neighbors(2, &data, &[0, 2], 1);
        assert_eq!(lists, vec![vec![1], vec![3]]);
    }

    #[test]
    fn norm_stats_summarize_rows() {
        let data = vec![3.0, 4.0, 0.0, 0.0, 6.0, 8.0]; // norms 5, 0, 10
        let s = NormStats::from_rows(2, &data);
        assert!((s.mean - 5.0).abs() < 1e-9);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.p50, 5.0);
    }

    #[test]
    fn drift_of_identical_payloads_is_zero() {
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let report = DriftReport::compute(4, &data, &data, &QualityConfig::default()).unwrap();
        assert_eq!(report.neighbor_churn, 0.0);
        assert_eq!(report.centroid_shift, 0.0);
        assert_eq!(report.mean_row_shift, 0.0);
        assert_eq!(report.max_row_shift, 0.0);
        assert!(!report.retrain_advised);
        assert_eq!(report.norm_a, report.norm_b);
        let json = report.to_json();
        let parsed = json::parse(&json).unwrap();
        assert_eq!(parsed.get("neighbor_churn").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(parsed.get("retrain_advised").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn perturbed_payload_trips_retrain_advice() {
        // 32 rows in two clean clusters; scrambling half the rows reshuffles
        // neighborhoods enough to cross a low churn threshold.
        let dims = 4;
        let mut state = 99u64;
        let a: Vec<f32> = (0..32 * dims)
            .map(|i| {
                let sign = if (i / dims) % 2 == 0 { 1.0 } else { -1.0 };
                sign + (splitmix64(&mut state) % 1000) as f32 / 10_000.0
            })
            .collect();
        let mut b = a.clone();
        for (i, v) in b.iter_mut().enumerate() {
            if (i / dims) % 2 == 0 {
                *v = -*v; // flip half the rows to the other cluster
            }
        }
        let config = QualityConfig { canaries: 16, k: 5, churn_threshold: 0.2, ..Default::default() };
        let report = DriftReport::compute(dims, &a, &b, &config).unwrap();
        assert!(report.neighbor_churn > 0.2, "churn {}", report.neighbor_churn);
        assert!(report.retrain_advised);
        assert!(report.max_row_shift > 0.0);
        let parsed = json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("retrain_advised").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn drift_rejects_malformed_input() {
        assert!(DriftReport::compute(0, &[], &[], &QualityConfig::default()).is_err());
        assert!(DriftReport::compute(3, &[1.0; 4], &[1.0; 3], &QualityConfig::default()).is_err());
        assert!(DriftReport::compute(2, &[], &[], &QualityConfig::default()).is_err());
    }

    #[test]
    fn table_rendering_is_aligned() {
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let report = DriftReport::compute(4, &data, &data, &QualityConfig::default()).unwrap();
        let table = report.render_table();
        let widths: Vec<usize> =
            table.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged table:\n{table}");
        assert!(table.contains("retrain advised"));
        assert!(table.contains("neighbor churn@10"));
    }
}
