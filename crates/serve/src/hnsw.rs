//! Hierarchical Navigable Small World (HNSW) approximate-nearest-neighbor
//! index (Malkov & Yashunin, 2016), written from scratch over flat `f32`
//! vectors.
//!
//! The paper treats training as a one-time cost whose output is reused
//! across tasks (§V); every reuse is a nearest-neighbor lookup, and the
//! brute-force scan in `v2v-ml` is `O(n d)` per query. HNSW answers the
//! same queries in roughly `O(log n)` hops over a layered proximity graph:
//! each vertex gets a geometrically-distributed top level, links per layer
//! are capped (`M` above layer 0, `2M` at layer 0) and chosen with the
//! diversity heuristic of the paper's Algorithm 4, and a query greedily
//! descends the layers before running a best-first beam of width
//! `ef_search` at layer 0.
//!
//! Two pragmatic deviations from a textbook implementation:
//!
//! * **Exact fallback** — at or below
//!   [`HnswConfig::brute_force_threshold`] vectors no graph is built and
//!   [`search`](HnswIndex::search) is an exact scan: at small `n` the scan
//!   is faster than graph traversal and trivially exact.
//! * **Batched parallel build** — insertion order is sequential in
//!   HNSW's description; here construction runs in doubling rounds of two
//!   phases, both spread over `available_parallelism()` scoped threads by
//!   `v2v_base::par::map` (results in input order). The *search phase*
//!   plans every new vertex of the round against the frozen graph. Round
//!   `r` therefore can't see its own members, but reverse links still
//!   stitch them in, and each round doubles the graph so the "blind"
//!   fraction stays bounded — recall is validated against the exact scan
//!   in the property tests. The *apply phase* wires each new vertex's own
//!   links serially (a copy), then groups the round's reverse-link pushes
//!   by `(target, layer)`. A target is a vertex of an earlier round or,
//!   in [`patched`](HnswIndex::patched)'s relink round, a moved row of the
//!   same round whose own list the serial copy has already rewritten; a
//!   group touches one link list and reads only vectors, so groups are
//!   independent. Inside a group pushes keep plan order, so folding it
//!   replays exactly what pushing them one vertex at a time would do. The
//!   same two phases patch a live index: every moved row is relinked in
//!   one round, so a WAL replay spreads over the cores like a build. A
//!   round lands dozens of pushes on the same list, each overflow
//!   re-running the diversity heuristic over nearly the same members; the
//!   fold computes `d(target, member)` once and memoises the heuristic's
//!   member-to-member distances for the life of the group, which is where
//!   two thirds of the build's distance evaluations went.
//!   The graph does not depend on the thread count — but it does depend
//!   on how the heuristic's one `sort_unstable_by` resolves exact distance
//!   ties (duplicate rows produce them), so that sort's element type,
//!   comparator and input order are part of the snapshot-byte contract.
//!
//! Cosine distance is served by storing L2-normalized copies of the
//! vectors (norms are paid once at build time), so every comparison is one
//! dot product — evaluated by the runtime-dispatched SIMD kernels in
//! `v2v_linalg::kernels`, as is the squared-Euclidean path and the exact
//! brute-force scan. Euclidean is served as squared distance
//! (monotone-equivalent for ranking). All ranking uses `total_cmp`, so
//! NaNs from degenerate rows rank last instead of panicking the server.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};
use v2v_base::bytes::{seal, unseal, Put, Reader};
use v2v_base::hash::{fnv1a64, FNV_OFFSET};
use v2v_base::par;
use v2v_base::rng::Rng;
use v2v_embed::Embedding;
use v2v_linalg::kernels;

/// Which distance the index ranks by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// `1 - cos(a, b)`; vectors are pre-normalized so this is `1 - a·b`.
    Cosine,
    /// Squared Euclidean (monotone-equivalent to Euclidean for ranking).
    Euclidean,
}

impl Metric {
    /// Canonical lower-case name (`cosine` / `euclidean`).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Euclidean => "euclidean",
        }
    }
}

/// Index construction and search knobs.
#[derive(Clone, Debug)]
pub struct HnswConfig {
    /// Max links per vertex on layers above 0 (layer 0 allows `2 * m`).
    pub m: usize,
    /// Beam width while building (higher = better graph, slower build).
    pub ef_construction: usize,
    /// Default beam width while searching (higher = better recall, slower).
    pub ef_search: usize,
    /// Distance to rank by.
    pub metric: Metric,
    /// Seed for the geometric level assignment (build is deterministic).
    pub seed: u64,
    /// At or below this many vectors, skip the graph and scan exactly.
    pub brute_force_threshold: usize,
}

impl Default for HnswConfig {
    fn default() -> HnswConfig {
        HnswConfig {
            m: 16,
            ef_construction: 200,
            ef_search: 64,
            metric: Metric::Cosine,
            seed: 0x5EED,
            brute_force_threshold: 512,
        }
    }
}

/// `f32` ordered by `total_cmp` so it can live in heaps (NaN ranks last).
#[derive(Clone, Copy, PartialEq)]
struct OrdF32(f32);

impl Eq for OrdF32 {}

impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &OrdF32) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF32 {
    fn cmp(&self, other: &OrdF32) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Per-vertex link updates computed by the search phase of one build
/// round.
struct InsertPlan {
    id: usize,
    /// Selected neighbors per layer, `0..=level`, each with its distance
    /// to `id` — which the apply phase reuses as `d(neighbor, id)`; the
    /// kernels are bitwise symmetric.
    per_layer: Vec<Vec<(u32, f32)>>,
}

/// One reverse link of a round: `id`, at `dist`, joins `target`'s list.
struct Push {
    target: u32,
    layer: u32,
    id: u32,
    dist: f32,
}

/// A vertex's top layer: geometric with `mL = 1 / ln m`, capped so
/// pathological draws can't allocate absurd layer vectors. The build and
/// `patched` both draw levels here.
fn draw_level(rng: &mut Rng, m: usize) -> usize {
    let ml = 1.0 / (m as f64).ln();
    let u = 1.0 - rng.gen_f64(); // (0, 1]
    ((-u.ln() * ml) as usize).min(24)
}

/// Algorithm 4's diversity heuristic: walk candidates nearest-first and
/// keep one only if it is closer to the base vertex than to every
/// neighbor already kept; backfill with the nearest discards.
///
/// Candidates are `(key, distance to the base vertex)` and `pair_dist`
/// is the distance between two keys. The search phase keys by vertex id
/// and computes pairs from the vectors; the apply phase keys by list slot
/// and answers pairs from its memo. `skip` is the base vertex's own key,
/// for when the beam can surface it (re-linking a vertex already in the
/// graph): a vertex never links to itself.
fn select_neighbors(
    candidates: &mut Vec<(u32, f32)>,
    skip: Option<u32>,
    m: usize,
    mut pair_dist: impl FnMut(u32, u32) -> f32,
) -> Vec<(u32, f32)> {
    // The graph's bytes hang on this sort. Exact distance ties occur
    // (duplicate rows; hundreds per 30 000-vector build) and an unstable
    // sort orders them by std's internals, which look at the element
    // size: sorting `(usize, f32)` here already builds a different graph.
    // Keep the element type, the comparator and the callers' input order
    // as they are, or re-pin every snapshot hash in the tests.
    candidates.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
    candidates.dedup_by_key(|c| c.0);
    let mut kept: Vec<(u32, f32)> = Vec::with_capacity(m);
    let mut discarded: Vec<(u32, f32)> = Vec::new();
    for &(c, c_dist) in candidates.iter() {
        if Some(c) == skip {
            continue;
        }
        if kept.len() >= m {
            break;
        }
        if kept.iter().all(|&(s, _)| pair_dist(c, s) > c_dist) {
            kept.push((c, c_dist));
        } else {
            discarded.push((c, c_dist));
        }
    }
    let room = m - kept.len();
    kept.extend(discarded.into_iter().take(room));
    kept
}

/// The built index: layered proximity graph over flat `f32` vectors.
pub struct HnswIndex {
    config: HnswConfig,
    dims: usize,
    /// Row-major vectors; L2-normalized copies under [`Metric::Cosine`].
    vectors: Vec<f32>,
    /// `links[v][layer]` = neighbor ids of `v` at `layer` (empty in
    /// brute-force mode).
    links: Vec<Vec<Vec<u32>>>,
    /// Top layer per vertex.
    levels: Vec<usize>,
    /// Entry vertex (a vertex on the highest occupied layer).
    entry: usize,
    max_level: usize,
    build_time: Duration,
}

impl std::fmt::Debug for HnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnswIndex")
            .field("len", &self.len())
            .field("dims", &self.dims)
            .field("graph", &self.is_graph())
            .field("max_level", &self.max_level)
            .finish()
    }
}

impl HnswIndex {
    /// Builds an index over `count * dims` row-major values.
    ///
    /// # Panics
    /// Panics if `dims == 0`, the buffer is not a multiple of `dims`, or
    /// `config.m < 2`.
    pub fn build(dims: usize, vectors: Vec<f32>, config: HnswConfig) -> HnswIndex {
        HnswIndex::build_on(par::threads(), dims, vectors, config)
    }

    /// [`build`](HnswIndex::build) on a given number of threads; the
    /// graph is the same for every count.
    fn build_on(
        threads: usize,
        dims: usize,
        mut vectors: Vec<f32>,
        config: HnswConfig,
    ) -> HnswIndex {
        assert!(dims > 0, "dimensions must be positive");
        assert_eq!(vectors.len() % dims, 0, "buffer not a multiple of dimensions");
        assert!(config.m >= 2, "m must be at least 2");
        let n = vectors.len() / dims;
        let start = Instant::now();

        if config.metric == Metric::Cosine {
            for row in vectors.chunks_exact_mut(dims) {
                normalize(row);
            }
        }

        let mut index = HnswIndex {
            config,
            dims,
            vectors,
            links: Vec::new(),
            levels: Vec::new(),
            entry: 0,
            max_level: 0,
            build_time: Duration::ZERO,
        };

        if n > index.config.brute_force_threshold {
            index.build_graph(n, threads);
        }
        index.build_time = start.elapsed();
        index
    }

    /// Builds from a trained [`Embedding`] (vectors are copied).
    pub fn from_embedding(emb: &Embedding, config: HnswConfig) -> HnswIndex {
        HnswIndex::build(emb.dimensions(), emb.as_flat().to_vec(), config)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len() / self.dims
    }

    /// Whether the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Vector dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The build-time configuration.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Whether queries run the graph (`false` = exact-scan fallback).
    pub fn is_graph(&self) -> bool {
        !self.links.is_empty()
    }

    /// Wall-clock time spent in [`build`](HnswIndex::build).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Structural validation of the proximity graph: link tables cover
    /// every vertex, no list is over its layer's out-degree cap, every
    /// neighbor id is in range, is not the vertex itself and occupies the
    /// layer it is linked on, and the entry point sits on the top layer. A
    /// corrupted graph would make searches skip or crash; callers degrade
    /// to the exact scan ([`into_exact`](HnswIndex::into_exact)) instead
    /// of serving wrong neighbors. The `serve.index.validate` fault point
    /// lets tests force a failure.
    pub fn validate(&self) -> Result<(), String> {
        v2v_fault::inject::apply("serve.index.validate").map_err(|e| e.to_string())?;
        if !self.is_graph() {
            return Ok(());
        }
        let n = self.len();
        if self.links.len() != n || self.levels.len() != n {
            return Err(format!(
                "link table covers {} vertices ({} levels) but the index holds {n}",
                self.links.len(),
                self.levels.len()
            ));
        }
        if self.entry >= n {
            return Err(format!("entry point {} out of range ({n} vertices)", self.entry));
        }
        if self.levels[self.entry] < self.max_level {
            return Err(format!(
                "entry point {} sits on layer {} below the top layer {}",
                self.entry, self.levels[self.entry], self.max_level
            ));
        }
        for (v, layers) in self.links.iter().enumerate() {
            if layers.len() != self.levels[v] + 1 {
                return Err(format!(
                    "vertex {v} has {} link layers but level {}",
                    layers.len(),
                    self.levels[v]
                ));
            }
            for (layer, nbrs) in layers.iter().enumerate() {
                if nbrs.len() > self.m_for(layer) {
                    return Err(format!(
                        "vertex {v} has {} links at layer {layer}, over the cap of {}",
                        nbrs.len(),
                        self.m_for(layer)
                    ));
                }
                for &u in nbrs {
                    let u = u as usize;
                    if u == v {
                        return Err(format!("vertex {v} links to itself at layer {layer}"));
                    }
                    if u >= n {
                        return Err(format!(
                            "vertex {v} links to {u} at layer {layer}, out of range"
                        ));
                    }
                    if self.levels[u] < layer {
                        return Err(format!(
                            "vertex {v} links to {u} at layer {layer}, but {u} tops out at {}",
                            self.levels[u]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Discards the proximity graph, demoting every future search to the
    /// exact scan — the degraded-but-correct mode the server falls back
    /// to when [`validate`](HnswIndex::validate) fails.
    pub fn into_exact(mut self) -> HnswIndex {
        self.links = Vec::new();
        self.levels = Vec::new();
        self.entry = 0;
        self.max_level = 0;
        self
    }

    /// The `k` approximate nearest vectors to `query`, nearest first, as
    /// `(row, distance)` with distance per [`HnswConfig::metric`] (cosine
    /// distance, or *squared* Euclidean). Uses the configured `ef_search`.
    ///
    /// # Panics
    /// Panics if `query.len() != dims`.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        self.search_ef(query, k, self.config.ef_search)
    }

    /// [`search`](HnswIndex::search) with an explicit beam width; `ef` is
    /// clamped up to `k`. `ef >= len()` degenerates to an exhaustive beam,
    /// making the result exact.
    pub fn search_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        if !self.is_graph() {
            return self.search_exact(query, k);
        }
        let q = self.prepared_query(query);
        let q = q.as_ref();

        // Greedy descent through the upper layers.
        let mut ep = self.entry;
        let mut ep_dist = self.dist_to(q, ep);
        for layer in (1..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &nb in &self.links[ep][layer] {
                    let d = self.dist_to(q, nb as usize);
                    if d < ep_dist {
                        ep = nb as usize;
                        ep_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Beam search at layer 0.
        let mut found = self.search_layer(q, ep, ep_dist, 0, ef.max(k));
        found.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        found.truncate(k);
        found.into_iter().map(|(id, d)| (id as usize, d)).collect()
    }

    /// Exact brute-force `k` nearest — the ground truth the property tests
    /// and the recall bench compare against.
    pub fn search_exact(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let q = self.prepared_query(query);
        let q = q.as_ref();
        // One SIMD distance per stored row; rows are contiguous, so the
        // scan streams the vector buffer front to back.
        let scored: Vec<(usize, f32)> =
            (0..self.len()).map(|i| (i, self.dist_to(q, i))).collect();
        v2v_linalg::top_k_by(scored, k, |a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    // ------------------------------------------------------------ internals

    /// The stored (possibly normalized) vector of row `i`.
    #[inline]
    fn vector(&self, i: usize) -> &[f32] {
        &self.vectors[i * self.dims..(i + 1) * self.dims]
    }

    /// The query in stored-vector space: a normalized copy under cosine, a
    /// plain borrow under Euclidean (no per-query allocation).
    fn prepared_query<'q>(&self, query: &'q [f32]) -> Cow<'q, [f32]> {
        if self.config.metric == Metric::Cosine {
            let mut q = query.to_vec();
            normalize(&mut q);
            Cow::Owned(q)
        } else {
            Cow::Borrowed(query)
        }
    }

    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        match self.config.metric {
            // Pre-normalized at build/query time: cosine distance is
            // 1 - dot, with the dot clamped so rounding can't go negative.
            Metric::Cosine => 1.0 - kernels::cosine_prenormed(a, b),
            Metric::Euclidean => kernels::squared_l2(a, b),
        }
    }

    #[inline]
    fn dist_to(&self, q: &[f32], i: usize) -> f32 {
        self.dist(q, self.vector(i))
    }

    /// Max out-degree at `layer`.
    #[inline]
    fn m_for(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Best-first beam of width `ef` over one layer, seeded at `ep`.
    /// Returns up to `ef` `(id, distance)` pairs, unsorted.
    fn search_layer(
        &self,
        q: &[f32],
        ep: usize,
        ep_dist: f32,
        layer: usize,
        ef: usize,
    ) -> Vec<(u32, f32)> {
        let mut visited = vec![false; self.len()];
        visited[ep] = true;
        // Min-heap of frontier candidates, max-heap of current best `ef`.
        let mut frontier = BinaryHeap::new();
        frontier.push(Reverse((OrdF32(ep_dist), ep as u32)));
        let mut best: BinaryHeap<(OrdF32, u32)> = BinaryHeap::new();
        best.push((OrdF32(ep_dist), ep as u32));

        while let Some(Reverse((OrdF32(c_dist), c))) = frontier.pop() {
            let worst = best.peek().map(|&(OrdF32(d), _)| d).unwrap_or(f32::INFINITY);
            if best.len() >= ef && c_dist > worst {
                break;
            }
            for &nb in &self.links[c as usize][layer] {
                if std::mem::replace(&mut visited[nb as usize], true) {
                    continue;
                }
                let d = self.dist_to(q, nb as usize);
                let worst = best.peek().map(|&(OrdF32(w), _)| w).unwrap_or(f32::INFINITY);
                if best.len() < ef || d < worst {
                    frontier.push(Reverse((OrdF32(d), nb)));
                    best.push((OrdF32(d), nb));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        best.into_iter().map(|(OrdF32(d), id)| (id, d)).collect()
    }

    /// Builds the layered graph in doubling rounds (see module docs).
    fn build_graph(&mut self, n: usize, threads: usize) {
        let mut rng = Rng::seed_from_u64(self.config.seed);
        self.levels = (0..n).map(|_| draw_level(&mut rng, self.config.m)).collect();
        self.links = self
            .levels
            .iter()
            .map(|&l| vec![Vec::new(); l + 1])
            .collect();

        self.entry = 0;
        self.max_level = self.levels[0];

        let mut inserted = 1usize;
        while inserted < n {
            let round = inserted.min(n - inserted);
            let plans = par::map_on(threads, round, |i| self.plan_insert(inserted + i));
            self.apply_round(plans, threads);
            inserted += round;
        }
    }

    /// Search phase of an insertion: finds the selected neighbors of `id`
    /// on every layer `0..=level` against the *current* (frozen) graph.
    fn plan_insert(&self, id: usize) -> InsertPlan {
        let q = self.vector(id);
        let level = self.levels[id];
        let mut ep = self.entry;
        let mut ep_dist = self.dist_to(q, ep);

        // Greedy descent above the new vertex's top layer.
        for layer in ((level + 1)..=self.max_level).rev() {
            loop {
                let mut improved = false;
                for &nb in &self.links[ep][layer] {
                    let d = self.dist_to(q, nb as usize);
                    if d < ep_dist {
                        ep = nb as usize;
                        ep_dist = d;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        // Beam + select on each layer the vertex joins, top-down.
        let mut per_layer = vec![Vec::new(); level + 1];
        for layer in (0..=level.min(self.max_level)).rev() {
            let mut found =
                self.search_layer(q, ep, ep_dist, layer, self.config.ef_construction);
            let selected =
                select_neighbors(&mut found, Some(id as u32), self.m_for(layer), |c, s| {
                    self.dist(self.vector(c as usize), self.vector(s as usize))
                });
            // Continue descending from the best candidate found here.
            if let Some(&(best, best_dist)) =
                found.iter().min_by(|a, b| a.1.total_cmp(&b.1))
            {
                ep = best as usize;
                ep_dist = best_dist;
            }
            per_layer[layer] = selected;
        }
        InsertPlan { id, per_layer }
    }

    /// Link phase of a round: wires every planned vertex in, then folds
    /// the reverse links it asked for into their targets' lists, one
    /// `(target, layer)` group at a time (see module docs).
    fn apply_round(&mut self, plans: Vec<InsertPlan>, threads: usize) {
        let mut pushes: Vec<Push> = Vec::new();
        for plan in plans {
            let id = plan.id;
            for (layer, selected) in plan.per_layer.into_iter().enumerate() {
                for &(nb, dist) in &selected {
                    debug_assert_ne!(nb as usize, id, "a plan never selects its own vertex");
                    // A plan row can reach beyond the neighbor's level;
                    // there is no list to push to up there.
                    if self.links[nb as usize].len() > layer {
                        pushes.push(Push { target: nb, layer: layer as u32, id: id as u32, dist });
                    }
                }
                self.links[id][layer] = selected.into_iter().map(|(nb, _)| nb).collect();
            }
            if self.levels[id] > self.max_level {
                self.max_level = self.levels[id];
                self.entry = id;
            }
        }
        // Stable: inside a group, plan order is the order one-at-a-time
        // insertion would have pushed in.
        pushes.sort_by_key(|p| (p.target, p.layer));
        let groups: Vec<&[Push]> =
            pushes.chunk_by(|a, b| (a.target, a.layer) == (b.target, b.layer)).collect();
        let lists = par::map_on(threads, groups.len(), |i| self.fold_pushes(groups[i]));
        for (group, list) in groups.iter().zip(lists) {
            if let Some(list) = list {
                self.links[group[0].target as usize][group[0].layer as usize] = list;
            }
        }
    }

    /// One target's link list after a round's pushes, in plan order: push,
    /// and when the list overflows its cap, cut it back with the diversity
    /// heuristic — the list one-at-a-time insertion leaves, for fewer
    /// distance evaluations. A member's distance to the target is computed
    /// once, at the first overflow (a member pushed later brings it from
    /// its plan), and member-to-member distances are kept in `memo` while
    /// both members stay on the list. The target's list is read as the
    /// round's serial copy left it, which for a row `patched` moves in
    /// the same round is its recomputed list. `None` when the list already
    /// held every pushed vertex (`patched` re-linking a vertex whose
    /// neighbors still link back).
    fn fold_pushes(&self, pushes: &[Push]) -> Option<Vec<u32>> {
        let (target, layer) = (pushes[0].target as usize, pushes[0].layer as usize);
        let cap = self.m_for(layer);
        let old = &self.links[target][layer];
        let first_new = pushes.iter().position(|push| !old.contains(&push.id))?;
        let mut ids: Vec<u32> = Vec::with_capacity(cap + 1);
        ids.extend_from_slice(old);

        // While the list has room a push is an append.
        let mut rest = &pushes[first_new..];
        while let [push, later @ ..] = rest {
            if !ids.contains(&push.id) {
                if ids.len() >= cap {
                    break;
                }
                ids.push(push.id);
            }
            rest = later;
        }
        if rest.is_empty() {
            return Some(ids);
        }

        // From the first overflow on, members are known by slot (`ids[slot]`
        // is the vertex) and the list is `(slot, distance to target)` in
        // link order. The cut evicts a member for every one pushed and a
        // later push takes the slot over, so the memo stays
        // `stride * stride` however many pushes pass through. NaN marks a
        // pair not computed yet (a distance that *is* NaN is just computed
        // again each time).
        let stride = cap.max(ids.len()) + 1;
        let mut list: Vec<(u32, f32)> = Vec::with_capacity(stride);
        list.extend(
            (0u32..)
                .zip(&ids)
                .map(|(slot, &id)| (slot, self.dist_to(self.vector(target), id as usize))),
        );
        // Only a later overflow reads what this one memoises: a group's
        // last push goes without.
        let memoise = rest.len() > 1;
        let mut memo = vec![f32::NAN; if memoise { stride * stride } else { 0 }];
        let mut on_list = vec![false; if memoise { stride } else { 0 }];
        let mut free: Vec<u32> = Vec::new();

        for push in rest {
            if list.iter().any(|&(slot, _)| ids[slot as usize] == push.id) {
                continue;
            }
            let slot = match free.pop() {
                Some(slot) => {
                    let slot = slot as usize;
                    for other in 0..stride {
                        memo[slot * stride + other] = f32::NAN;
                        memo[other * stride + slot] = f32::NAN;
                    }
                    ids[slot] = push.id;
                    slot
                }
                None => {
                    ids.push(push.id);
                    ids.len() - 1
                }
            };
            list.push((slot as u32, push.dist));
            let pair = |c: usize, s: usize| {
                self.dist_to(self.vector(ids[c] as usize), ids[s] as usize)
            };
            let kept = select_neighbors(&mut list, None, cap, |c, s| {
                let (c, s) = (c as usize, s as usize);
                if !memoise {
                    return pair(c, s);
                }
                if memo[c * stride + s].is_nan() {
                    let d = pair(c, s);
                    memo[c * stride + s] = d;
                    memo[s * stride + c] = d;
                }
                memo[c * stride + s]
            });
            if memoise {
                for &(slot, _) in &kept {
                    on_list[slot as usize] = true;
                }
                free.extend(list.iter().map(|c| c.0).filter(|&slot| !on_list[slot as usize]));
                for &(slot, _) in &kept {
                    on_list[slot as usize] = false;
                }
            }
            list = kept;
        }
        Some(list.into_iter().map(|(slot, _)| ids[slot as usize]).collect())
    }

    /// Incremental patch for streaming refresh: a new index over this
    /// one's vectors with `updates` rows replaced and `appended` rows
    /// added, re-linking only the touched vertices instead of rebuilding
    /// the whole graph.
    ///
    /// Updated vertices keep their level. All of them are planned in one
    /// round, in parallel, against the pre-patch graph with the patched
    /// vectors — the same search-then-link procedure `build` uses — and
    /// the apply phase replaces each one's outgoing links wholesale. The
    /// plans run over the *old* links of the rows being relinked: they
    /// keep the graph connected during the search, which matters when a
    /// moved vertex is the entry point. A plan can pick another moved
    /// row; its reverse link then folds into that row's recomputed list.
    /// Reverse links held *by* untouched vertices toward a moved one are
    /// left in place — under fine-tuning, vectors move slightly, so those
    /// links stay near-optimal and searches remain correct (links only
    /// ever guide the beam; distances are always recomputed from the
    /// patched vectors).
    ///
    /// Appended vertices draw their level from the build seed XOR their
    /// id, keeping patch results independent of batch order, and join one
    /// at a time, each planned against a graph that holds the ones before
    /// it. Unlike a moved row, a new row has no links pointing at it yet:
    /// planned in one round, a batch of new rows that sit close together
    /// and away from the graph would not see each other, and the diversity
    /// heuristic would drop most of them from the lists they push into,
    /// leaving them unreachable.
    ///
    /// Falls back to a full [`build`](HnswIndex::build) when the base
    /// index runs in brute-force mode, which also handles growth across
    /// `brute_force_threshold`.
    ///
    /// # Panics
    /// Panics if an update id is out of range, an updated row or
    /// `appended` has the wrong width, or ids repeat within `updates`.
    pub fn patched(&self, updates: &[(usize, Vec<f32>)], appended: &[f32]) -> HnswIndex {
        self.patched_on(par::threads(), updates, appended)
    }

    /// [`patched`](HnswIndex::patched) on a given number of threads; the
    /// graph is the same for every count.
    fn patched_on(
        &self,
        threads: usize,
        updates: &[(usize, Vec<f32>)],
        appended: &[f32],
    ) -> HnswIndex {
        assert_eq!(appended.len() % self.dims, 0, "appended buffer not a multiple of dims");
        let n_old = self.len();
        let n_new = n_old + appended.len() / self.dims;

        let mut vectors = self.vectors.clone();
        vectors.extend_from_slice(appended);
        for (id, row) in updates {
            assert!(*id < n_old, "update id {id} out of range ({n_old} vectors)");
            assert_eq!(row.len(), self.dims, "update row has wrong dimensionality");
            vectors[id * self.dims..(id + 1) * self.dims].copy_from_slice(row);
        }
        if self.config.metric == Metric::Cosine {
            for (id, _) in updates {
                normalize(&mut vectors[id * self.dims..(id + 1) * self.dims]);
            }
            for row in vectors[n_old * self.dims..].chunks_exact_mut(self.dims) {
                normalize(row);
            }
        }

        if !self.is_graph() {
            return HnswIndex::build_on(threads, self.dims, vectors, self.config.clone());
        }

        let start = Instant::now();
        let mut idx = HnswIndex {
            config: self.config.clone(),
            dims: self.dims,
            vectors,
            links: self.links.clone(),
            levels: self.levels.clone(),
            entry: self.entry,
            max_level: self.max_level,
            build_time: Duration::ZERO,
        };

        let mut seen = vec![false; n_old];
        for &(id, _) in updates {
            assert!(!seen[id], "duplicate update id {id}");
            seen[id] = true;
        }
        let plans = par::map_on(threads, updates.len(), |i| idx.plan_insert(updates[i].0));
        idx.apply_round(plans, threads);

        for id in n_old..n_new {
            let mut rng =
                Rng::seed_from_u64(idx.config.seed ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let level = draw_level(&mut rng, idx.config.m);
            idx.levels.push(level);
            idx.links.push(vec![Vec::new(); level + 1]);
            let plan = idx.plan_insert(id);
            idx.apply_round(vec![plan], 1);
        }
        idx.build_time = start.elapsed();
        idx
    }
}

// --------------------------------------------------------------- snapshots
//
// Building a million-vertex graph takes minutes; the topology it produces
// is deterministic in (vectors, build config). A snapshot persists exactly
// the parts that are expensive to recompute — the layered link structure —
// and *not* the vectors, which the serving store already holds and which
// `from_snapshot` re-derives (including cosine pre-normalization) the same
// way `build` would. Stale snapshots are refused by two fingerprints: one
// over the build-shaping config knobs, one over the embedding payload the
// caller is serving.

/// Snapshot magic: "V2V Hnsw".
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"V2VH";

/// Snapshot format version, bumped on layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Fingerprint of everything that shapes the *built* structure: `m`,
/// `ef_construction`, metric, seed, brute-force threshold, and the vector
/// dimensionality. `ef_search` is deliberately excluded — it only affects
/// queries, so retuning it must not invalidate a snapshot.
pub fn build_fingerprint(config: &HnswConfig, dims: usize) -> u64 {
    let metric_tag = match config.metric {
        Metric::Cosine => 0u64,
        Metric::Euclidean => 1u64,
    };
    let mut h = FNV_OFFSET;
    for word in [
        config.m as u64,
        config.ef_construction as u64,
        metric_tag,
        config.seed,
        config.brute_force_threshold as u64,
        dims as u64,
        // Earlier builds hashed a shard count here, `1` for the only
        // layout that remains; the constant keeps every snapshot they
        // wrote for that layout loadable.
        1,
    ] {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    h
}

impl HnswIndex {
    /// Serializes the graph topology (not the vectors) into a
    /// self-checksummed byte section, stamped with the build fingerprint
    /// and the caller's embedding fingerprint so [`from_snapshot`]
    /// (HnswIndex::from_snapshot) can refuse mismatched reloads.
    pub fn snapshot(&self, embedding_fingerprint: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.links.iter().flatten().flatten().count() * 4);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.put(SNAPSHOT_VERSION);
        out.put_all(&[
            build_fingerprint(&self.config, self.dims),
            embedding_fingerprint,
            self.len() as u64,
        ]);
        out.put(u8::from(self.is_graph()));
        if self.is_graph() {
            out.put(self.entry as u64);
            out.put(self.max_level as u32);
            self.levels.iter().for_each(|&l| out.put(l as u32));
            for nbrs in self.links.iter().flatten() {
                out.put(nbrs.len() as u32);
                out.put_all(nbrs);
            }
        }
        seal(&mut out, 0);
        out
    }

    /// Reconstructs an index from a [`snapshot`](HnswIndex::snapshot) plus
    /// the raw vectors it was built over, refusing corrupt bytes, unknown
    /// versions, config mismatches, and — the important one for serving —
    /// snapshots whose embedding fingerprint differs from the store being
    /// served (a stale index would silently return wrong neighbors).
    ///
    /// Vectors are prepared exactly as [`build`](HnswIndex::build) prepares
    /// them (cosine pre-normalization), so a reloaded index answers every
    /// query identically to a fresh build over the same data.
    pub fn from_snapshot(
        bytes: &[u8],
        dims: usize,
        mut vectors: Vec<f32>,
        config: HnswConfig,
        embedding_fingerprint: u64,
    ) -> Result<HnswIndex, String> {
        let start = Instant::now();
        if bytes.get(..4) != Some(&SNAPSHOT_MAGIC[..]) {
            return Err("bad snapshot magic (not a V2VH section)".into());
        }
        let mut r = Reader::new(unseal(bytes).map_err(|e| format!("snapshot {e}"))?);
        r.take(4)?; // the magic, checked above
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            ));
        }
        let snap_build_fp = r.u64()?;
        let want_build_fp = build_fingerprint(&config, dims);
        if snap_build_fp != want_build_fp {
            return Err(format!(
                "snapshot was built under a different index configuration \
                 (snapshot fingerprint {snap_build_fp:#018x}, requested {want_build_fp:#018x})"
            ));
        }
        let snap_emb_fp = r.u64()?;
        if snap_emb_fp != embedding_fingerprint {
            return Err(format!(
                "stale snapshot: embedding fingerprint {snap_emb_fp:#018x} does not match \
                 the store being served ({embedding_fingerprint:#018x})"
            ));
        }
        let n = r.usize()?;
        if dims == 0 || n.checked_mul(dims) != Some(vectors.len()) {
            return Err(format!(
                "snapshot covers {n} vectors x {dims} dims but {} values were supplied",
                vectors.len()
            ));
        }
        let has_graph = r.u8()? != 0;

        if config.metric == Metric::Cosine {
            for row in vectors.chunks_exact_mut(dims) {
                normalize(row);
            }
        }
        let mut index = HnswIndex {
            config,
            dims,
            vectors,
            links: Vec::new(),
            levels: Vec::new(),
            entry: 0,
            max_level: 0,
            build_time: Duration::ZERO,
        };
        if has_graph {
            index.entry = r.usize()?;
            index.max_level = r.u32()? as usize;
            let levels: Vec<usize> = r.u32s(n)?.map(|l| l as usize).collect();
            let mut links = Vec::with_capacity(n);
            for &level in &levels {
                if level > 64 {
                    return Err(format!("snapshot level {level} is implausibly deep"));
                }
                let mut layers = Vec::with_capacity(level + 1);
                for _ in 0..=level {
                    let len = r.u32()? as usize;
                    if len > n {
                        return Err(format!("snapshot link list of {len} exceeds {n} vertices"));
                    }
                    layers.push(r.u32s(len)?.collect::<Vec<u32>>());
                }
                links.push(layers);
            }
            index.levels = levels;
            index.links = links;
        }
        r.finish().map_err(|e| format!("{e} inside snapshot body"))?;
        index.build_time = start.elapsed();
        Ok(index)
    }
}

/// Scales to unit L2 norm in place; zero (and non-finite-norm) vectors are
/// left untouched.
fn normalize(v: &mut [f32]) {
    let n = kernels::dot(v, v).sqrt();
    if n.is_finite() && n > 0.0 {
        kernels::scale(v, 1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic clustered test vectors: `clusters` centers, points
    /// jittered around them.
    fn clustered(n: usize, dims: usize, clusters: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng::seed_from_u64(seed);
        let centers: Vec<f32> =
            (0..clusters * dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut out = Vec::with_capacity(n * dims);
        for i in 0..n {
            let c = i % clusters;
            for d in 0..dims {
                out.push(centers[c * dims + d] + rng.gen_range(-0.15f32..0.15));
            }
        }
        out
    }

    fn recall_at_k(index: &HnswIndex, queries: &[Vec<f32>], k: usize, ef: usize) -> f64 {
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in queries {
            let exact: std::collections::HashSet<usize> =
                index.search_exact(q, k).into_iter().map(|(i, _)| i).collect();
            let approx = index.search_ef(q, k, ef);
            hits += approx.iter().filter(|(i, _)| exact.contains(i)).count();
            total += exact.len();
        }
        hits as f64 / total as f64
    }

    fn small_config(metric: Metric) -> HnswConfig {
        HnswConfig { brute_force_threshold: 0, metric, ..Default::default() }
    }

    #[test]
    fn graph_recall_on_clustered_data() {
        let (n, dims) = (2000, 16);
        let data = clustered(n, dims, 20, 7);
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let index = HnswIndex::build(dims, data.clone(), small_config(metric));
            assert!(index.is_graph());
            let queries: Vec<Vec<f32>> =
                (0..50).map(|i| data[i * 31 % n * dims..][..dims].to_vec()).collect();
            let r = recall_at_k(&index, &queries, 10, 64);
            assert!(r >= 0.9, "recall@10 = {r} under {metric:?}");
        }
    }

    #[test]
    fn exhaustive_ef_matches_exact() {
        let (n, dims) = (600, 8);
        let data = clustered(n, dims, 6, 11);
        let index = HnswIndex::build(dims, data.clone(), small_config(Metric::Euclidean));
        for qi in [0usize, 17, 333] {
            let q = &data[qi * dims..(qi + 1) * dims];
            let exact: Vec<usize> =
                index.search_exact(q, 10).into_iter().map(|(i, _)| i).collect();
            let approx: Vec<usize> =
                index.search_ef(q, 10, n).into_iter().map(|(i, _)| i).collect();
            assert_eq!(exact, approx, "query {qi}");
        }
    }

    #[test]
    fn brute_force_fallback_is_exact() {
        let dims = 4;
        let data = clustered(100, dims, 4, 3);
        let index = HnswIndex::build(dims, data.clone(), HnswConfig::default());
        assert!(!index.is_graph(), "100 <= default threshold must skip the graph");
        let got = index.search(&data[..dims], 5);
        assert_eq!(got, index.search_exact(&data[..dims], 5));
        assert_eq!(got[0].0, 0, "a stored vector is its own nearest neighbor");
    }

    #[test]
    fn nearest_is_self_through_the_graph() {
        let dims = 8;
        let data = clustered(1500, dims, 10, 5);
        let index = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        for qi in [0usize, 700, 1499] {
            let got = index.search(&data[qi * dims..(qi + 1) * dims], 1);
            assert_eq!(got[0].0, qi);
            assert!(got[0].1.abs() < 1e-5);
        }
    }

    #[test]
    fn patched_index_matches_full_rebuild_recall() {
        let (n, dims) = (1200, 16);
        let data = clustered(n, dims, 12, 21);
        let base = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        assert!(base.is_graph());

        // Move 40 existing rows (small perturbations, like fine-tuning
        // does) and append 60 new rows.
        let mut rng = Rng::seed_from_u64(99);
        let updates: Vec<(usize, Vec<f32>)> = (0..40)
            .map(|i| {
                let id = (i * 29) % n;
                let mut row = data[id * dims..(id + 1) * dims].to_vec();
                for x in &mut row {
                    *x += rng.gen_range(-0.05f32..0.05);
                }
                (id, row)
            })
            .collect();
        let appended = clustered(60, dims, 12, 22);

        let patched = base.patched(&updates, &appended);
        assert_eq!(patched.len(), n + 60);
        patched.validate().unwrap();

        // Reference: full rebuild over the identical patched vector set.
        let mut full_data = data.clone();
        for (id, row) in &updates {
            full_data[id * dims..(id + 1) * dims].copy_from_slice(row);
        }
        full_data.extend_from_slice(&appended);
        let rebuilt = HnswIndex::build(dims, full_data, small_config(Metric::Cosine));

        let queries: Vec<Vec<f32>> = (0..40)
            .map(|i| patched.vector((i * 13) % patched.len()).to_vec())
            .collect();
        let r_patched = recall_at_k(&patched, &queries, 10, 64);
        let r_full = recall_at_k(&rebuilt, &queries, 10, 64);
        assert!(
            r_patched >= r_full - 0.05 && r_patched >= 0.85,
            "patched recall {r_patched} too far below rebuild recall {r_full}"
        );

        // Moved and appended vertices are reachable through the graph.
        for (id, _) in updates.iter().take(5) {
            let got = patched.search(patched.vector(*id), 1);
            assert_eq!(got[0].0, *id, "moved vertex {id} must be its own nearest");
        }
        for id in [n, n + 30, n + 59] {
            let got = patched.search(patched.vector(id), 1);
            assert_eq!(got[0].0, id, "appended vertex {id} must be its own nearest");
        }
    }

    /// Recall@k that counts ties: a result is a hit when it sits at or
    /// under the exact `k`-th distance, so duplicate rows cannot turn a
    /// correct answer into a miss.
    fn tie_aware_recall(index: &HnswIndex, queries: &[Vec<f32>], k: usize) -> f64 {
        let mut hits = 0usize;
        for q in queries {
            let kth = index.search_exact(q, k).last().map_or(f32::INFINITY, |&(_, d)| d);
            hits += index.search_ef(q, k, 64).iter().filter(|&&(_, d)| d <= kth).count();
        }
        hits as f64 / (queries.len() * k) as f64
    }

    /// A patch too large to be a nudge: a quarter of the rows move, a
    /// tenth of those into another cluster, and 100 rows join, half of
    /// them in the existing clusters and half as a cluster of their own.
    /// Every moved row is relinked against a graph that still holds the
    /// others at their old places, and a new cluster has no member in
    /// the graph it is planned against, so this is where a blind round
    /// would show.
    #[test]
    fn large_patch_keeps_recall_and_finds_every_touched_row() {
        let (n, dims, clusters) = (3000, 16, 24);
        let data = clustered(n, dims, clusters, 0x1A46E);
        let cfg = small_config(Metric::Cosine);
        let base = HnswIndex::build(dims, data.clone(), cfg.clone());
        let mut rng = Rng::seed_from_u64(0x9A7C4);
        let center: Vec<f32> = (0..dims).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut jitter = |row: &[f32], amp: f32| -> Vec<f32> {
            row.iter().map(|x| x + rng.gen_range(-amp..amp)).collect()
        };
        let row = |id: usize| &data[id * dims..(id + 1) * dims];
        // Rows `4i` move; every tenth of them jumps to row `4i + 1`'s
        // cluster (the fixture deals rows to clusters round-robin).
        let updates: Vec<(usize, Vec<f32>)> = (0..n / 4)
            .map(|i| {
                let id = 4 * i;
                let moved =
                    if i % 10 == 0 { jitter(row(id + 1), 0.1) } else { jitter(row(id), 0.05) };
                (id, moved)
            })
            .collect();
        let mut appended: Vec<f32> = (0..50).flat_map(|i| jitter(row(i * 29 % n), 0.1)).collect();
        for _ in 0..50 {
            appended.extend(jitter(&center, 0.05));
        }

        let patched = base.patched(&updates, &appended);
        patched.validate().unwrap();
        let mut full = data.clone();
        for (id, moved) in &updates {
            full[id * dims..(id + 1) * dims].copy_from_slice(moved);
        }
        full.extend_from_slice(&appended);
        let rebuilt = HnswIndex::build(dims, full, cfg);

        let queries: Vec<Vec<f32>> =
            (0..patched.len()).step_by(7).map(|i| patched.vector(i).to_vec()).collect();
        let (r_patched, r_full) =
            (tie_aware_recall(&patched, &queries, 10), tie_aware_recall(&rebuilt, &queries, 10));
        assert!(
            r_patched >= 0.9 && r_patched >= r_full - 0.05,
            "patched recall {r_patched}, full rebuild {r_full}"
        );
        let touched = updates.iter().map(|&(id, _)| id).chain(n..n + 100);
        for id in touched {
            let got = patched.search(patched.vector(id), 1);
            assert_eq!(got[0].0, id, "row {id} must be its own nearest neighbour");
        }
    }

    #[test]
    fn patched_entry_point_update_keeps_graph_searchable() {
        let (n, dims) = (800, 8);
        let data = clustered(n, dims, 8, 31);
        let base = HnswIndex::build(dims, data, small_config(Metric::Euclidean));
        let entry = base.entry;
        // Move the entry point itself: the patch must not disconnect it.
        let moved: Vec<f32> = base.vector(entry).iter().map(|x| x + 0.01).collect();
        let patched = base.patched(&[(entry, moved)], &[]);
        patched.validate().unwrap();
        let got = patched.search(patched.vector(entry), 1);
        assert_eq!(got[0].0, entry);
        let queries: Vec<Vec<f32>> = (0..20).map(|i| patched.vector(i * 37).to_vec()).collect();
        assert!(recall_at_k(&patched, &queries, 10, 64) >= 0.85);
    }

    #[test]
    fn patched_brute_force_falls_back_to_rebuild() {
        let dims = 4;
        let data = clustered(50, dims, 4, 13);
        let base = HnswIndex::build(dims, data.clone(), HnswConfig::default());
        assert!(!base.is_graph());
        let patched = base.patched(&[(3, data[..dims].to_vec())], &clustered(8, dims, 4, 14));
        assert_eq!(patched.len(), 58);
        assert!(!patched.is_graph(), "still under the threshold");
        assert_eq!(patched.search(&data[..dims], 1), patched.search_exact(&data[..dims], 1));

        // Growth across the threshold promotes to a real graph.
        let small = HnswConfig { brute_force_threshold: 52, ..HnswConfig::default() };
        let base = HnswIndex::build(dims, data.clone(), small);
        let patched = base.patched(&[], &clustered(8, dims, 4, 15));
        assert!(patched.is_graph(), "58 > 52 must build the graph");
        patched.validate().unwrap();
    }

    #[test]
    fn empty_and_k_edge_cases() {
        let index = HnswIndex::build(3, Vec::new(), HnswConfig::default());
        assert!(index.is_empty());
        assert!(index.search(&[0.0, 0.0, 0.0], 5).is_empty());

        let index = HnswIndex::build(2, vec![1.0, 0.0, 0.0, 1.0], HnswConfig::default());
        assert!(index.search(&[1.0, 0.0], 0).is_empty());
        assert_eq!(index.search(&[1.0, 0.0], 10).len(), 2, "k clamps to n");
    }

    #[test]
    fn zero_and_nan_vectors_do_not_panic() {
        let dims = 4;
        let mut data = clustered(700, dims, 5, 9);
        data[0..dims].fill(0.0); // zero vector
        data[dims..2 * dims].fill(f32::NAN); // NaN vector
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let index = HnswIndex::build(dims, data.clone(), small_config(metric));
            let got = index.search(&data[2 * dims..3 * dims], 10);
            assert!(!got.is_empty());
            assert!(!got.iter().any(|&(i, _)| i == 1), "NaN row must not rank in top-10");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let dims = 8;
        let data = clustered(1200, dims, 8, 21);
        let a = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        let b = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        let q = &data[5 * dims..6 * dims];
        assert_eq!(a.search(q, 10), b.search(q, 10));
    }

    #[test]
    fn from_embedding_matches_build() {
        let emb = Embedding::from_flat(2, vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0]);
        let index = HnswIndex::from_embedding(&emb, HnswConfig::default());
        assert_eq!(index.len(), 3);
        assert_eq!(index.dims(), 2);
        let got = index.search(&[1.0, 0.1], 2);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_query_dims_panics() {
        let index = HnswIndex::build(2, vec![1.0, 0.0], HnswConfig::default());
        index.search(&[1.0, 0.0, 0.0], 1);
    }

    /// Compatibility pins, captured by running this body at the last
    /// commit that still had a sharded layout and int8/f16 scoring: a
    /// store indexed by any earlier build must keep booting from its
    /// snapshot, so neither the fingerprint nor a snapshot byte may move.
    #[test]
    fn default_fingerprint_and_snapshot_bytes_are_pinned() {
        assert_eq!(build_fingerprint(&HnswConfig::default(), 64), 0x8d71_9da0_d9ac_6225);
        // Integer coordinates under squared Euclidean: every distance is
        // exact in f32 whatever the summation order, so the graph — and
        // the pinned bytes — are the same on every kernel backend.
        let dims = 8;
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        let data: Vec<f32> =
            (0..700 * dims).map(|_| rng.gen_range(-8i32..=8) as f32).collect();
        let cfg = small_config(Metric::Euclidean);
        let fp = build_fingerprint(&cfg, dims);
        let snap = HnswIndex::build(dims, data, cfg).snapshot(fp);
        assert_eq!(snap.len(), 98_129);
        assert_eq!(fnv1a64(FNV_OFFSET, &snap), 0x2ad8_b7c3_7371_c3ce);
    }

    /// 3 000 clustered rows, every 7th row from 700 on an exact copy of
    /// an earlier one (zero distances and exact distance ties), and a
    /// patch over them: 40 moved rows, 5 appended.
    #[allow(clippy::type_complexity)]
    fn duplicate_rows_fixture() -> (usize, Vec<f32>, Vec<(usize, Vec<f32>)>, Vec<f32>) {
        let (n, dims) = (3000, 16);
        let mut data = clustered(n, dims, 24, 0xD0B1E);
        for i in (700..n).step_by(7) {
            data.copy_within((i - 650) * dims..(i - 649) * dims, i * dims);
        }
        let mut rng = Rng::seed_from_u64(0xFA7C4);
        let updates = (0..40)
            .map(|i| {
                let id = (i * 71 + 5) % n;
                let row = data[id * dims..(id + 1) * dims]
                    .iter()
                    .map(|x| x + rng.gen_range(-0.05f32..0.05))
                    .collect();
                (id, row)
            })
            .collect();
        (dims, data, updates, clustered(5, dims, 24, 0xA99E4D))
    }

    /// The build pins were captured at the last commit whose apply phase
    /// pushed reverse links one vertex at a time: twelve doubling rounds
    /// of `build` must leave the bytes that code left. The patch pins
    /// were captured when `patched` began relinking its 40 moved rows in
    /// one round (before, each was a round of its own and saw the rows
    /// relinked before it); its 5 appended rows are still a round each. Cosine distances round differently per kernel backend, so
    /// there is a pin per backend (the portable unrolled one cannot be
    /// forced from a test and goes unpinned).
    #[test]
    fn cosine_build_and_patch_snapshot_bytes_are_pinned() {
        let (want_built, want_patched) = match kernels::backend() {
            kernels::Backend::Avx2Fma => (0x96ca_88fb_9ebe_0236, 0xc036_343e_eac8_e8ea),
            kernels::Backend::Scalar => (0xb0c2_4b84_dcae_2510, 0xb6a4_8095_5169_76dd),
            kernels::Backend::Unrolled => return,
        };
        let (dims, data, updates, appended) = duplicate_rows_fixture();
        let cfg = small_config(Metric::Cosine);
        let fp = build_fingerprint(&cfg, dims);
        let built = HnswIndex::build(dims, data, cfg);
        let snap = built.snapshot(fp);
        assert_eq!(snap.len(), 422_101);
        assert_eq!(fnv1a64(FNV_OFFSET, &snap), want_built);
        let patched = built.patched(&updates, &appended);
        patched.validate().unwrap();
        let snap = patched.snapshot(fp);
        assert_eq!(snap.len(), 422_781);
        assert_eq!(fnv1a64(FNV_OFFSET, &snap), want_patched);
    }

    #[test]
    fn graph_does_not_depend_on_the_thread_count() {
        let (dims, data, updates, appended) = duplicate_rows_fixture();
        let build = |threads| {
            HnswIndex::build_on(threads, dims, data.clone(), small_config(Metric::Cosine))
        };
        let one = build(1);
        one.validate().unwrap();
        let patched_one = one.patched_on(1, &updates, &appended);
        patched_one.validate().unwrap();
        for threads in [2, 5] {
            let many = build(threads);
            assert_eq!(many.links, one.links, "{threads} threads");
            assert_eq!((many.entry, many.max_level), (one.entry, one.max_level));
            let patched = one.patched_on(threads, &updates, &appended);
            assert_eq!(patched.links, patched_one.links, "patch on {threads} threads");
            assert_eq!(
                (patched.entry, patched.max_level),
                (patched_one.entry, patched_one.max_level)
            );
        }
    }

    #[test]
    fn validate_refuses_overfull_lists_and_self_links() {
        let dims = 8;
        let data = clustered(700, dims, 5, 3);
        let build = || HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        build().validate().unwrap();

        let mut overfull = build();
        let cap = overfull.m_for(0);
        overfull.links[3][0] = (10..10 + cap as u32 + 1).collect();
        let err = overfull.validate().unwrap_err();
        assert_eq!(
            err,
            format!("vertex 3 has {} links at layer 0, over the cap of {cap}", cap + 1)
        );

        let mut selfish = build();
        selfish.links[3][0][0] = 3;
        let err = selfish.validate().unwrap_err();
        assert_eq!(err, "vertex 3 links to itself at layer 0");
    }

    #[test]
    fn snapshot_round_trip_answers_identically() {
        let dims = 8;
        let data = clustered(1500, dims, 10, 13);
        for metric in [Metric::Cosine, Metric::Euclidean] {
            let built = HnswIndex::build(dims, data.clone(), small_config(metric));
            assert!(built.is_graph());
            let snap = built.snapshot(0xFEED);
            let loaded = HnswIndex::from_snapshot(
                &snap,
                dims,
                data.clone(),
                small_config(metric),
                0xFEED,
            )
            .unwrap();
            assert!(loaded.is_graph());
            loaded.validate().unwrap();
            for qi in [0usize, 373, 1499] {
                let q = &data[qi * dims..(qi + 1) * dims];
                assert_eq!(built.search(q, 10), loaded.search(q, 10), "{metric:?} query {qi}");
                assert_eq!(
                    built.search_ef(q, 5, 200),
                    loaded.search_ef(q, 5, 200),
                    "{metric:?} query {qi} wide beam"
                );
            }
        }
    }

    #[test]
    fn snapshot_of_brute_force_index_round_trips() {
        let dims = 4;
        let data = clustered(50, dims, 3, 2);
        let built = HnswIndex::build(dims, data.clone(), HnswConfig::default());
        assert!(!built.is_graph());
        let snap = built.snapshot(7);
        let loaded =
            HnswIndex::from_snapshot(&snap, dims, data.clone(), HnswConfig::default(), 7).unwrap();
        assert!(!loaded.is_graph());
        assert_eq!(built.search(&data[..dims], 5), loaded.search(&data[..dims], 5));
    }

    #[test]
    fn snapshot_refuses_stale_embedding_fingerprint() {
        let dims = 8;
        let data = clustered(700, dims, 5, 3);
        let built = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        let snap = built.snapshot(0xAAAA);
        let err = HnswIndex::from_snapshot(
            &snap,
            dims,
            data,
            small_config(Metric::Cosine),
            0xBBBB,
        )
        .unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn snapshot_refuses_config_mismatch() {
        let dims = 8;
        let data = clustered(700, dims, 5, 3);
        let built = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        let snap = built.snapshot(1);
        // A different m reshapes the graph; ef_search does not.
        let other = HnswConfig { m: 8, ..small_config(Metric::Cosine) };
        let err = HnswIndex::from_snapshot(&snap, dims, data.clone(), other, 1).unwrap_err();
        assert!(err.contains("configuration"), "{err}");
        let retuned = HnswConfig { ef_search: 999, ..small_config(Metric::Cosine) };
        assert!(HnswIndex::from_snapshot(&snap, dims, data, retuned, 1).is_ok());
    }

    #[test]
    fn snapshot_corruption_and_truncation_rejected() {
        let dims = 8;
        let data = clustered(700, dims, 5, 3);
        let built = HnswIndex::build(dims, data.clone(), small_config(Metric::Cosine));
        let snap = built.snapshot(1);
        for cut in [0, 3, 24, snap.len() / 2, snap.len() - 1] {
            assert!(
                HnswIndex::from_snapshot(
                    &snap[..cut],
                    dims,
                    data.clone(),
                    small_config(Metric::Cosine),
                    1
                )
                .is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = HnswIndex::from_snapshot(
            &flipped,
            dims,
            data,
            small_config(Metric::Cosine),
            1,
        )
        .unwrap_err();
        assert!(err.contains("checksum") || err.contains("snapshot"), "{err}");
    }
}
