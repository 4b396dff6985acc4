//! Synthetic OpenFlights-like flight network.
//!
//! The paper's §IV–V experiments use the OpenFlights scrape (~10k airports,
//! ~67k directed routes, labeled with continent and country). That data
//! needs network access, so this module synthesizes a network with the
//! same *relevant* structure (DESIGN.md substitution #1):
//!
//! * a geographic hierarchy — continents are clusters of countries,
//!   countries are clusters of airports, airports get positions on the
//!   unit sphere;
//! * directed routes whose probability decays with distance, plus a
//!   hub-and-spoke layer (each country has a hub; continental hubs
//!   interconnect across continents), giving the heavy-tailed degree
//!   profile of real route maps;
//! * continent / country labels that are *not* used to generate any direct
//!   shortcut edges — they only shape geography, exactly like reality.
//!
//! What the experiments need survives: route-graph proximity correlates
//! with geography, so embeddings cluster by continent (Fig 8) and country
//! labels are k-NN-recoverable (Figs 9–10).

use v2v_base::rng::Rng;
use v2v_graph::{Graph, GraphBuilder, VertexId};

/// Continent display names (the paper's Fig 8 legend).
pub const CONTINENT_NAMES: [&str; 10] = [
    "North America",
    "Europe",
    "Asia",
    "Middle East",
    "Central America",
    "Oceania",
    "South America",
    "Africa",
    "Balkans",
    "Caribbean",
];

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpenFlightsConfig {
    /// Number of continents (≤ 10 to use the paper's legend names).
    pub continents: usize,
    /// Countries per continent.
    pub countries_per_continent: usize,
    /// Airports per country.
    pub airports_per_country: usize,
    /// Nearest same-country airports each airport links to (both
    /// directions).
    pub domestic_links: usize,
    /// Continental links per airport toward its continent's hubs/nearby
    /// airports.
    pub continental_links: usize,
    /// Inter-continental routes per pair of continental hub airports.
    pub intercontinental_links: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OpenFlightsConfig {
    /// A ~2000-airport network that keeps the experiments fast; raise the
    /// per-level counts to approach the real dataset's ~10k airports.
    fn default() -> Self {
        OpenFlightsConfig {
            continents: 10,
            countries_per_continent: 10,
            airports_per_country: 20,
            domestic_links: 4,
            continental_links: 2,
            intercontinental_links: 2,
            seed: 0xF11647,
        }
    }
}

/// The generated network with its ground-truth labels.
#[derive(Clone, Debug)]
pub struct FlightNetwork {
    /// Directed route graph.
    pub graph: Graph,
    /// Continent index per airport.
    pub continents: Vec<usize>,
    /// Country index per airport (dense over all countries).
    pub countries: Vec<usize>,
    /// Unit-sphere position per airport.
    pub positions: Vec<[f64; 3]>,
    /// Airport indices that are country hubs.
    pub hubs: Vec<usize>,
}

impl FlightNetwork {
    /// Number of airports.
    pub fn num_airports(&self) -> usize {
        self.continents.len()
    }

    /// Number of distinct countries.
    pub fn num_countries(&self) -> usize {
        self.countries.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// Random unit vector, by normalizing a Gaussian-ish sample (sum of
/// uniforms; exact isotropy is unnecessary here).
fn random_unit(rng: &mut Rng) -> [f64; 3] {
    loop {
        let v: [f64; 3] = [
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ];
        let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        if n > 1e-3 && n <= 1.0 {
            return [v[0] / n, v[1] / n, v[2] / n];
        }
    }
}

/// `center` jittered by `spread` and re-normalized onto the sphere.
fn jitter(center: [f64; 3], spread: f64, rng: &mut Rng) -> [f64; 3] {
    let v = [
        center[0] + rng.gen_range(-spread..spread),
        center[1] + rng.gen_range(-spread..spread),
        center[2] + rng.gen_range(-spread..spread),
    ];
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-9);
    [v[0] / n, v[1] / n, v[2] / n]
}

fn dist2(a: [f64; 3], b: [f64; 3]) -> f64 {
    let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
}

/// Generates the synthetic flight network.
pub fn generate(config: &OpenFlightsConfig) -> FlightNetwork {
    let c = *config;
    assert!(c.continents >= 1 && c.countries_per_continent >= 1 && c.airports_per_country >= 2);
    let mut rng = Rng::seed_from_u64(c.seed);

    let num_airports = c.continents * c.countries_per_continent * c.airports_per_country;
    let mut continents = Vec::with_capacity(num_airports);
    let mut countries = Vec::with_capacity(num_airports);
    let mut positions = Vec::with_capacity(num_airports);
    let mut hubs = Vec::new();

    // Geography: continent centers spread on the sphere, country centers
    // near their continent, airports near their country.
    let continent_centers: Vec<[f64; 3]> = (0..c.continents).map(|_| random_unit(&mut rng)).collect();
    for (ci, &cc) in continent_centers.iter().enumerate() {
        for co in 0..c.countries_per_continent {
            let country_center = jitter(cc, 0.25, &mut rng);
            let country_id = ci * c.countries_per_continent + co;
            for a in 0..c.airports_per_country {
                continents.push(ci);
                countries.push(country_id);
                positions.push(jitter(country_center, 0.08, &mut rng));
                if a == 0 {
                    hubs.push(positions.len() - 1); // first airport = hub
                }
            }
        }
    }

    let mut b = GraphBuilder::new_directed().deduplicate(true);
    b.ensure_vertices(num_airports);
    let add_round_trip = |b: &mut GraphBuilder, u: usize, v: usize| {
        if u != v {
            b.add_edge(VertexId(u as u32), VertexId(v as u32));
            b.add_edge(VertexId(v as u32), VertexId(u as u32));
        }
    };

    // Domestic layer: each airport links to its nearest same-country peers
    // and to its country hub.
    let spc = c.airports_per_country;
    for u in 0..num_airports {
        let country_base = (u / spc) * spc;
        let hub = hubs[u / spc];
        add_round_trip(&mut b, u, hub);
        let mut peers: Vec<usize> =
            (country_base..country_base + spc).filter(|&v| v != u).collect();
        peers.sort_by(|&x, &y| {
            dist2(positions[u], positions[x])
                .partial_cmp(&dist2(positions[u], positions[y]))
                .unwrap()
        });
        for &v in peers.iter().take(c.domestic_links) {
            add_round_trip(&mut b, u, v);
        }
    }

    // Continental layer: each airport links to hubs of nearby countries in
    // the same continent (distance-biased choice).
    let cpc = c.countries_per_continent;
    for u in 0..num_airports {
        let ci = continents[u];
        let mut continent_hubs: Vec<usize> = (ci * cpc..(ci + 1) * cpc)
            .map(|country| hubs[country])
            .filter(|&h| countries[h] != countries[u])
            .collect();
        continent_hubs.sort_by(|&x, &y| {
            dist2(positions[u], positions[x])
                .partial_cmp(&dist2(positions[u], positions[y]))
                .unwrap()
        });
        for &h in continent_hubs.iter().take(c.continental_links) {
            add_round_trip(&mut b, u, h);
        }
    }

    // Inter-continental layer: the first `intercontinental_links` country
    // hubs of each continent interconnect pairwise across continents.
    for ca in 0..c.continents {
        for cb in (ca + 1)..c.continents {
            for i in 0..c.intercontinental_links.min(cpc) {
                let ha = hubs[ca * cpc + i];
                let hb = hubs[cb * cpc + i];
                add_round_trip(&mut b, ha, hb);
            }
        }
    }

    FlightNetwork {
        graph: b.build().expect("generated routes are valid"),
        continents,
        countries,
        positions,
        hubs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlightNetwork {
        generate(&OpenFlightsConfig {
            continents: 4,
            countries_per_continent: 3,
            airports_per_country: 5,
            domestic_links: 2,
            continental_links: 1,
            intercontinental_links: 2,
            seed: 1,
        })
    }

    #[test]
    fn shape_and_labels() {
        let net = small();
        assert_eq!(net.num_airports(), 60);
        assert_eq!(net.num_countries(), 12);
        assert_eq!(net.graph.num_vertices(), 60);
        assert!(net.graph.is_directed());
        // Labels are consistent: same country implies same continent.
        for u in 0..60 {
            for v in 0..60 {
                if net.countries[u] == net.countries[v] {
                    assert_eq!(net.continents[u], net.continents[v]);
                }
            }
        }
    }

    #[test]
    fn positions_on_unit_sphere() {
        let net = small();
        for p in &net.positions {
            let n = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn network_is_connected() {
        let net = small();
        assert!(v2v_graph::traversal::is_connected(&net.graph));
    }

    #[test]
    fn hubs_have_highest_degrees() {
        let net = generate(&OpenFlightsConfig::default());
        let hub_set: std::collections::HashSet<_> = net.hubs.iter().copied().collect();
        let avg = |pred: &dyn Fn(usize) -> bool| {
            let sel: Vec<usize> = (0..net.num_airports()).filter(|&v| pred(v)).collect();
            sel.iter().map(|&v| net.graph.degree(VertexId(v as u32))).sum::<usize>() as f64
                / sel.len() as f64
        };
        let hub_deg = avg(&|v| hub_set.contains(&v));
        let other_deg = avg(&|v| !hub_set.contains(&v));
        assert!(hub_deg > 3.0 * other_deg, "hubs {hub_deg} vs others {other_deg}");
    }

    #[test]
    fn most_routes_stay_in_continent() {
        let net = generate(&OpenFlightsConfig::default());
        let mut intra = 0usize;
        let mut inter = 0usize;
        for e in net.graph.edges() {
            if net.continents[e.source.index()] == net.continents[e.target.index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 5 * inter, "intra {intra} vs inter {inter}");
        assert!(inter > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.edges().collect::<Vec<_>>(), b.graph.edges().collect::<Vec<_>>());
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn default_scale_is_realistic() {
        let net = generate(&OpenFlightsConfig::default());
        assert_eq!(net.num_airports(), 2000);
        // Directed routes in the tens of thousands, like the real dataset's
        // edge-to-node ratio (~6.7).
        let ratio = net.graph.num_edges() as f64 / net.num_airports() as f64;
        assert!(ratio > 4.0 && ratio < 20.0, "ratio {ratio}");
    }
}
