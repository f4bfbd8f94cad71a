//! Regenerate the **§5.4 comparison**: the grouped partition's effect on
//! a general affine communication that is *not* decomposed. The paper
//! reports "less than 5% difference between the grouped partition and
//! the CYCLIC distribution" — i.e. adopting the grouped partition costs
//! nothing even where it does not help.
//!
//! ```text
//! cargo run -p rescomm-bench --bin grouped_general
//! ```

use rescomm_bench::workload::{paragon_mesh, simulate_dataflow_with};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_intlin::IMat;
use rescomm_machine::PhaseSim;

fn main() {
    let mut sim = PhaseSim::new(paragon_mesh());
    let t = IMat::from_rows(&[&[1, 3], &[2, 7]]);
    println!("§5.4 — general affine communication T = [[1,3],[2,7]], NOT decomposed,");
    println!("grouped partition vs CYCLIC, 8×4 mesh:\n");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>10}",
        "virtual", "bytes", "CYCLIC (ns)", "grouped (ns)", "diff %"
    );
    for vshape in [(32usize, 16usize), (48, 16), (64, 32)] {
        for bytes in [128u64, 512, 2048] {
            let cyclic = Dist2D::uniform(Dist1D::Cyclic);
            let grouped = Dist2D {
                rows: Dist1D::Grouped(3),
                cols: Dist1D::Grouped(2),
            };
            let cyc = simulate_dataflow_with(&mut sim, &t, cyclic, vshape, bytes);
            let grp = simulate_dataflow_with(&mut sim, &t, grouped, vshape, bytes);
            let diff = 100.0 * (grp as f64 - cyc as f64) / cyc as f64;
            println!(
                "{:>10} {:>8} {:>14} {:>14} {:>+9.1}%",
                format!("{}x{}", vshape.0, vshape.1),
                bytes,
                cyc,
                grp,
                diff
            );
        }
    }
    println!("\npaper's claim: the grouped partition neither helps nor hurts a");
    println!("general (undecomposed) communication — differences stay small.");
}
