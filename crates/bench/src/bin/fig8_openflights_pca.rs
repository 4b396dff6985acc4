//! Fig 8: PCA visualization (2-D and 3-D) of V2V embeddings of the
//! OpenFlights route network, colored by continent.
//!
//! Uses the synthetic OpenFlights stand-in (DESIGN.md substitution #1).
//! The embedding is trained on the *directed route graph only* — no
//! geography enters training — yet continents separate in the projection,
//! reproducing the paper's headline qualitative result.
//!
//! ```text
//! cargo run --release -p v2v-bench --bin fig8_openflights_pca [--dims D]
//! ```

use v2v_bench::{experiment_config, Args};
use v2v_core::V2vModel;
use v2v_data::openflights_sim::{generate, OpenFlightsConfig, CONTINENT_NAMES};
use v2v_ml::metrics::pairwise_scores;
use v2v_ml::kmeans::{kmeans, KMeansConfig};

fn main() {
    let args = Args::parse();
    let dims: usize = args.get("dims", 50);
    let out = args.out_dir();

    let net = generate(&OpenFlightsConfig::default());
    println!(
        "synthetic OpenFlights: {} airports, {} directed routes, {} continents, {} countries",
        net.num_airports(),
        net.graph.num_edges(),
        CONTINENT_NAMES.len(),
        net.num_countries()
    );

    let cfg = experiment_config(dims, 23, args.flag("full"));
    let model = V2vModel::train(&net.graph, &cfg).expect("training succeeds");

    // 2-D projection.
    let (_, proj2) = model.project(2, 0);
    let points2: Vec<[f64; 2]> =
        (0..net.num_airports()).map(|i| [proj2[(i, 0)], proj2[(i, 1)]]).collect();
    let svg_path = out.join("fig8_openflights_2d.svg");
    let f = std::fs::File::create(&svg_path).expect("create svg");
    v2v_viz::svg::write_scatter(
        f,
        &points2,
        &net.continents,
        &format!("Fig 8a: PCA 2-D of {dims}-dim V2V embedding, colored by continent"),
    )
    .expect("write svg");
    println!("wrote {}", svg_path.display());

    // 3-D projection: dump CSV (x, y, z, continent).
    let (_, proj3) = model.project(3, 0);
    let csv_path = out.join("fig8_openflights_3d.csv");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).expect("create csv"));
    use std::io::Write;
    writeln!(w, "x,y,z,continent,country").unwrap();
    for i in 0..net.num_airports() {
        writeln!(
            w,
            "{},{},{},{},{}",
            proj3[(i, 0)],
            proj3[(i, 1)],
            proj3[(i, 2)],
            net.continents[i],
            net.countries[i]
        )
        .unwrap();
    }
    println!("wrote {}", csv_path.display());

    // Quantitative checks. Continent recovery by k-NN (classification is
    // the right probe: embeddings share a dominant direction that raw
    // k-means is sensitive to, so clustering uses normalized vectors).
    let acc = model.knn_cross_validation(&net.continents, 3, 10, 0);
    println!("k-NN (k=3, 10-fold CV) continent accuracy: {acc:.3}");
    let k = CONTINENT_NAMES.len();
    let m = model.to_matrix();
    let normalized = v2v_linalg::matrix::normalize_rows(&m);
    let result = kmeans(&normalized, &KMeansConfig { k, restarts: 10, ..Default::default() });
    let s = pairwise_scores(&net.continents, &result.assignments);
    let mi = v2v_ml::metrics::nmi(&net.continents, &result.assignments);
    println!(
        "spherical k-means vs continents: f1 {:.3}, NMI {:.3}",
        s.f1, mi
    );
    // Optional: the paper (§I) also names t-SNE as a principled
    // projection; --tsne renders it on a subsample (exact t-SNE is O(n^2)).
    if args.flag("tsne") {
        let mut rng = v2v_base::rng::Rng::seed_from_u64(8);
        let mut idx: Vec<usize> = (0..net.num_airports()).collect();
        rng.shuffle(&mut idx);
        idx.truncate(args.get("tsne-points", 600));
        let sub = v2v_linalg::RowMatrix::from_rows(
            &idx.iter().map(|&i| m.row(i).to_vec()).collect::<Vec<_>>(),
        );
        let y = v2v_viz::tsne::tsne(
            &sub,
            &v2v_viz::tsne::TsneConfig { perplexity: 25.0, iterations: 350, ..Default::default() },
        );
        let pts: Vec<[f64; 2]> = (0..y.rows()).map(|i| [y[(i, 0)], y[(i, 1)]]).collect();
        let lbls: Vec<usize> = idx.iter().map(|&i| net.continents[i]).collect();
        let path = out.join("fig8_openflights_tsne.svg");
        let f = std::fs::File::create(&path).expect("create svg");
        v2v_viz::svg::write_scatter(f, &pts, &lbls, "t-SNE of V2V embedding (continents)")
            .expect("write svg");
        println!("wrote {}", path.display());
    }

    println!(
        "\nShape check vs paper: airports of a continent cluster together in\n\
         the projection although no geographic feature was used in training."
    );

    v2v_bench::write_telemetry_sidecar(&args, "fig8_openflights_pca");
}
