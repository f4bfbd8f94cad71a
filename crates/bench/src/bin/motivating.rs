//! Regenerate the **§2 motivating example** end to end: access graph,
//! maximum branching, mapping report, and estimated mesh cost per
//! strategy (Figures 1–3 in structural form). The strategy table ends
//! with the two step-2 ablations of EXPERIMENTS.md: macro-only and
//! decompose-only.
//!
//! ```text
//! cargo run -p rescomm-bench --bin motivating
//! ```

use rescomm::substrate::accessgraph::{maximum_branching, AccessGraph};
use rescomm::{map_nest, MappingOptions};
use rescomm_bench::{motivating, MotivatingRow};
use rescomm_loopnest::examples::motivating_example;

fn main() {
    let (nest, _) = motivating_example(8, 4);
    println!("{nest}");

    let graph = AccessGraph::build(&nest, 2);
    println!("{graph}");
    let b = maximum_branching(&graph);
    println!(
        "maximum branching: {} edges, total weight {} (both weight-3 edges zeroed)",
        b.edges.len(),
        b.total_weight
    );
    for e in &b.edges {
        let ed = &graph.edges[e.0];
        println!("  {:?} -> {:?} via access {:?}", ed.from, ed.to, ed.access);
    }
    println!();

    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    println!("{}", mapping.report(&nest));

    println!(
        "strategy comparison (estimated communication time and compiled-plan makespan, \
         8×4 mesh, CYCLIC 32×16, 256 B, phased):"
    );
    println!(
        "{:>32} {:>7} {:>7} {:>11} {:>9} {:>14} {:>14}",
        "strategy", "local", "macro", "decomposed", "general", "est. time (ns)", "compiled (ns)"
    );
    let rows = motivating(256);
    for row in &rows {
        println!(
            "{:>32} {:>7} {:>7} {:>11} {:>9} {:>14} {:>14}",
            row.strategy,
            row.counts[0],
            row.counts[1],
            row.counts[2],
            row.counts[3],
            row.est_time,
            row.compiled_time
        );
    }
    // Rows 0 and 1: the two-step heuristic and step 1 alone.
    let ratio = |t: fn(&MotivatingRow) -> u64| t(&rows[0]) as f64 / t(&rows[1]) as f64;
    println!(
        "two-step / step 1: estimate {:.3}, compiled {:.3} (the plan lowers a \
         macro-communication as one round of point-to-point transfers, the \
         estimate prices it as a binomial tree)",
        ratio(|r| r.est_time),
        ratio(|r| r.compiled_time)
    );
}
