//! Figure 7: sustained shared-memory bandwidth per CR step (a) and the
//! per-step transaction counts with and without bank conflicts (b).

use gpa_apps::tridiag;
use gpa_bench::{curves, paper_scale, rule};
use gpa_core::Model;
use gpa_hw::Machine;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let nsys = if paper { 512 } else { 128 };
    let r = tridiag::case(512, nsys, false)
        .run(&m, &mut model)
        .expect("CR runs");

    println!("Figure 7a: sustained shared bandwidth per forward step ({nsys} systems)");
    rule(72);
    println!(
        "{:>8} {:>12} {:>16} {:>16}",
        "step", "warps", "ours (GB/s)", "paper (GB/s)"
    );
    rule(72);
    let paper = [
        (1usize, 8u32, 1029.0),
        (2, 4, 723.0),
        (3, 2, 470.0),
        (4, 1, 330.0),
    ];
    for (step, pwarps, pbw) in paper {
        let s = &r.analysis.stages[tridiag::FIRST_FORWARD_STAGE + step - 1];
        println!(
            "{:>8} {:>12} {:>16.0} {:>16.0}",
            step,
            s.warps_smem,
            s.smem_bandwidth / 1e9,
            pbw
        );
        assert_eq!(s.warps_smem, pwarps, "warp count should match the paper");
    }
    rule(72);

    println!("\nFigure 7b: shared transactions per forward step (warp-equivalents)");
    rule(72);
    println!(
        "{:>8} {:>18} {:>18}  paper (512 sys): 139264 flat vs halving",
        "step", "with conflicts", "conflict-free"
    );
    rule(72);
    let scale = 512.0 / f64::from(nsys); // report at the paper's 512 systems
    for k in 0..6 {
        let s = &r.input.stats.stages[tridiag::FIRST_FORWARD_STAGE + k];
        println!(
            "{:>8} {:>18.0} {:>18.0}",
            k + 1,
            s.smem_warp_equiv() * scale,
            s.smem_warp_equiv_no_conflicts() * scale
        );
    }
    rule(72);
    println!("paper: with conflicts the count stays ~constant (halving work x doubling");
    println!("conflicts); without conflicts it halves each step to the 1-warp floor.");
}
