//! Cross-crate integration tests: the full PeGaSus pipeline from graph
//! generation through summarization, query answering, and the
//! distributed application.

use pegasus_summary::prelude::*;
use pgs_core::error::personalized_error;

fn social_graph(seed: u64) -> Graph {
    planted_partition(1_000, 10, 7_000, 1_000, seed)
}

#[test]
fn every_summarizer_meets_its_budget_contract() {
    let g = social_graph(1);
    for &ratio in &[0.2, 0.5, 0.8] {
        let budget = ratio * g.size_bits();
        let p = summarize(&g, &[0, 1], budget, &PegasusConfig::default());
        assert!(p.size_bits() <= budget + 1e-9, "pegasus ratio {ratio}");
        let s = ssumm_summarize(&g, budget, &SsummConfig::default());
        assert!(s.size_bits() <= budget + 1e-9, "ssumm ratio {ratio}");
    }
    // Supernode-count budgeted baselines.
    for &k in &[50usize, 200, 500] {
        assert_eq!(
            kgrass_summarize(&g, k, &KGrassConfig::default()).num_supernodes(),
            k
        );
        assert!(s2l_summarize(&g, k, &S2lConfig::default()).num_supernodes() <= k);
        assert_eq!(
            saags_summarize(&g, k, &SaagsConfig::default()).num_supernodes(),
            k
        );
    }
}

#[test]
fn all_summarizers_produce_valid_partitions() {
    let g = social_graph(2);
    let budget = 0.5 * g.size_bits();
    let summaries: Vec<(&str, Summary)> = vec![
        (
            "pegasus",
            summarize(&g, &[5], budget, &PegasusConfig::default()),
        ),
        (
            "ssumm",
            ssumm_summarize(&g, budget, &SsummConfig::default()),
        ),
        (
            "kgrass",
            kgrass_summarize(&g, 100, &KGrassConfig::default()),
        ),
        ("s2l", s2l_summarize(&g, 100, &S2lConfig::default())),
        ("saags", saags_summarize(&g, 100, &SaagsConfig::default())),
    ];
    for (name, s) in &summaries {
        assert_eq!(s.num_nodes(), g.num_nodes(), "{name}: node count");
        // The supernodes partition V.
        let mut seen = vec![false; g.num_nodes()];
        for sn in 0..s.num_supernodes() as u32 {
            for &u in s.members(sn) {
                assert!(!seen[u as usize], "{name}: node {u} in two supernodes");
                seen[u as usize] = true;
                assert_eq!(s.supernode_of(u), sn, "{name}: inconsistent mapping");
            }
        }
        assert!(
            seen.iter().all(|&x| x),
            "{name}: nodes missing from partition"
        );
    }
}

/// The Fig. 5 personalization claim: with the summary personalized to a
/// single node, the personalized error measured at that node is smaller
/// (relative to a non-personalized summary of the same size).
#[test]
fn personalized_error_improves_at_single_target() {
    let g = social_graph(3);
    let budget = 0.5 * g.size_bits();
    let target = [17u32];
    let cfg = PegasusConfig {
        alpha: 1.5,
        ..Default::default()
    };
    let focused = summarize(&g, &target, budget, &cfg);
    let uniform = summarize(&g, &[], budget, &PegasusConfig::default());
    let w = NodeWeights::personalized(&g, &target, 1.5);
    let err_focused = personalized_error(&g, &focused, &w).unwrap();
    let err_uniform = personalized_error(&g, &uniform, &w).unwrap();
    assert!(
        err_focused < err_uniform,
        "personalized {err_focused} should beat uniform {err_uniform}"
    );
}

/// Fig. 7's headline: queries at target nodes are more accurate from
/// PeGaSus summaries than from the non-personalized competitors at a
/// comparable size.
#[test]
fn target_queries_beat_ssumm() {
    let g = social_graph(4);
    let budget = 0.5 * g.size_bits();
    let targets: Vec<NodeId> = (0..50).map(|i| i * 17 % 1000).collect();
    let p = summarize(&g, &targets, budget, &PegasusConfig::default());
    let s = ssumm_summarize(&g, budget, &SsummConfig::default());

    let mut p_err = 0.0;
    let mut s_err = 0.0;
    for &q in targets.iter().take(10) {
        let truth = hops_to_f64(&hops_exact(&g, q));
        p_err += smape(&truth, &hops_to_f64(&hops_summary(&p, q)));
        s_err += smape(&truth, &hops_to_f64(&hops_summary(&s, q)));
    }
    assert!(
        p_err < s_err,
        "HOP error: pegasus {p_err} should beat ssumm {s_err}"
    );
}

#[test]
fn queries_work_on_every_summarizer_output() {
    let g = social_graph(5);
    let budget = 0.6 * g.size_bits();
    let summaries: Vec<Summary> = vec![
        summarize(&g, &[3], budget, &PegasusConfig::default()),
        ssumm_summarize(&g, budget, &SsummConfig::default()),
        kgrass_summarize(&g, 200, &KGrassConfig::default()),
        s2l_summarize(&g, 200, &S2lConfig::default()),
        saags_summarize(&g, 200, &SaagsConfig::default()),
    ];
    for s in &summaries {
        let r = rwr_summary(s, 3, 0.05);
        assert_eq!(r.len(), 1000);
        assert!(r.iter().all(|&x| x.is_finite() && x >= -1e-12));
        let h = hops_summary(s, 3);
        assert_eq!(h.len(), 1000);
        let p = php_summary(s, 3, 0.95);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        assert_eq!(p[3], 1.0);
    }
}

#[test]
fn distributed_pipeline_runs_all_backends() {
    let g = social_graph(6);
    let budget = 0.5 * g.size_bits();
    let backends = [
        Backend::Pegasus(PegasusConfig::default()),
        Backend::Ssumm(SsummConfig::default()),
        Backend::Subgraph(Method::Louvain),
        Backend::Subgraph(Method::Blp),
        Backend::Subgraph(Method::ShpI),
        Backend::Subgraph(Method::ShpII),
        Backend::Subgraph(Method::ShpKL),
    ];
    for backend in backends {
        let cluster = Cluster::try_build(&g, 4, budget, &backend, 9).expect("valid budget");
        let r = cluster.rwr(42, 0.05);
        assert_eq!(r.len(), 1000);
        assert!(r.iter().all(|x| x.is_finite()));
    }
}

/// Fig. 12's headline on a small instance: distributed personalized
/// summaries answer HOP queries more accurately than the replicated
/// non-personalized summary.
#[test]
fn distributed_personalization_beats_replicated_ssumm() {
    let g = planted_partition(2_000, 20, 14_000, 2_000, 7);
    let budget = 0.4 * g.size_bits();
    let pegasus = Cluster::try_build(
        &g,
        4,
        budget,
        &Backend::Pegasus(PegasusConfig::default()),
        1,
    )
    .expect("valid budget");
    let ssumm = Cluster::try_build(&g, 4, budget, &Backend::Ssumm(SsummConfig::default()), 1)
        .expect("valid budget");
    let queries: Vec<NodeId> = (0..20).map(|i| i * 97 % 2000).collect();
    let mut p_err = 0.0;
    let mut s_err = 0.0;
    for &q in &queries {
        let truth = rwr_exact(&g, q, 0.05);
        p_err += smape(&truth, &pegasus.rwr(q, 0.05));
        s_err += smape(&truth, &ssumm.rwr(q, 0.05));
    }
    assert!(
        p_err < s_err,
        "distributed RWR error: pegasus {p_err} vs ssumm {s_err}"
    );
}

/// Alpha monotonicity at the *near* region (Fig. 5 trend): growing alpha
/// concentrates accuracy near the target set.
#[test]
fn larger_alpha_lowers_relative_personalized_error() {
    let g = social_graph(8);
    let budget = 0.5 * g.size_bits();
    let target = [123u32];
    let mut previous = f64::INFINITY;
    let mut oks = 0;
    for &alpha in &[1.0, 1.5, 2.0] {
        let cfg = PegasusConfig {
            alpha,
            ..Default::default()
        };
        let s = summarize(&g, &target, budget, &cfg);
        // Relative personalized error: error at target / error of the
        // non-personalized summary under the same target weights.
        let w = NodeWeights::personalized(&g, &target, 2.0);
        let err = personalized_error(&g, &s, &w).unwrap();
        if err <= previous * 1.1 {
            oks += 1; // allow mild non-monotonic noise, require trend
        }
        previous = err;
    }
    assert!(oks >= 2, "personalized error should trend down with alpha");
}

#[test]
fn loaders_round_trip_through_summarization() {
    // Write a generated graph to disk, reload it, summarize the reload.
    let g = social_graph(9);
    let dir = std::env::temp_dir().join("pgs_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    pgs_graph::io::write_edge_list(&g, &path).unwrap();
    let (g2, _) = pgs_graph::io::read_edge_list(&path).unwrap();
    assert_eq!(g.num_edges(), g2.num_edges());
    let s = summarize(&g2, &[0], 0.5 * g2.size_bits(), &PegasusConfig::default());
    assert!(s.size_bits() <= 0.5 * g2.size_bits());
    std::fs::remove_file(path).ok();
}
