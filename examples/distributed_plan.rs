//! From mapping to runtime artifacts: build the communication *plan* of a
//! mapped nest, prove it delivers every element to its consumer, execute
//! the nest distributed and check it computes exactly the sequential
//! result, then price the plan on the simulated Paragon.
//!
//! ```text
//! cargo run -p rescomm-bench --example distributed_plan
//! ```

use rescomm::substrate::distribution::{Dist1D, Dist2D};
use rescomm::substrate::machine::{CostModel, Mesh2D, PhaseSim};
use rescomm::{compile, map_nest, verify_execution, CancelToken, CompileOptions};
use rescomm::{MappingOptions, PhaseKind, ScheduleMode};
use rescomm_loopnest::examples::motivating_example;

fn main() {
    let (nest, _) = motivating_example(6, 2);
    let mapping = map_nest(&nest, &MappingOptions::new(2)).unwrap();
    println!("{}", mapping.report(&nest));

    // The plan: ordered message phases a runtime would execute, compiled
    // for the 8×4 Paragon mesh (CYCLIC over a 24×24 virtual grid, 128 B
    // per element) and priced there under strict phase barriers.
    let target = CompileOptions {
        mesh: Mesh2D::new(8, 4, CostModel::paragon()),
        dist: Dist2D::uniform(Dist1D::Cyclic),
        vshape: (24, 24),
        bytes: 128,
        mode: ScheduleMode::Phased,
        closed: false,
    };
    let compiled = compile(&nest, &mapping, &target, &CancelToken::none()).unwrap();
    let plan = &compiled.plan;
    println!(
        "communication plan: {} phases, {} virtual messages",
        plan.phases.len(),
        plan.message_count()
    );
    for phase in &plan.phases {
        let kind = match &phase.kind {
            PhaseKind::Translation => "translation".to_string(),
            PhaseKind::CollectiveRound => "collective placement".to_string(),
            PhaseKind::Elementary(e) => format!("elementary {e}"),
            PhaseKind::DecompositionShift => "final shift".to_string(),
            PhaseKind::UnirowFactor => "unirow sweep".to_string(),
            PhaseKind::GeneralAffine => "general affine".to_string(),
        };
        println!(
            "  access {:?}: {kind} ({} msgs)",
            phase.access,
            phase.pattern.explicit().map_or(0, <[_]>::len)
        );
    }

    // Prove the plan correct: every element reaches its consumer.
    plan.verify_availability(&nest, &mapping)
        .expect("plan must deliver all data");
    println!("\navailability proof: ok");

    // Execute the nest distributed and compare against sequential.
    let stats = verify_execution(&nest, &mapping).expect("distributed run must match");
    println!(
        "functional check: ok ({} instances, {:.0}% reads local, {} remote reads)",
        stats.instances,
        100.0 * stats.read_locality(),
        stats.remote_reads
    );

    // The price, then the same lowered phases under the overlapped mode.
    let t = compiled.makespan;
    println!("simulated plan time on 8×4 Paragon mesh: {t} ns (phased)");
    let over = PhaseSim::new(target.mesh.clone())
        .simulate_phases_mode(&compiled.phases, ScheduleMode::overlapped());
    println!("with overlapped phase scheduling:        {over} ns");
}
