//! Integration: every case-study and microbenchmark kernel survives the
//! one serialized kernel form — assembly text print/parse — and the
//! recovered kernel behaves identically in the functional simulator.

use gpa::apps::{matmul, spmv, tridiag};
use gpa::hw::{InstrClass, Machine};
use gpa::isa::asm::{kernel_to_asm, parse_kernel};
use gpa::isa::Kernel;
use gpa::sim::{FunctionalSim, GlobalMemory, LaunchConfig};
use gpa::ubench::{gmem, instr, smem};

fn all_kernels() -> Vec<Kernel> {
    let qcd = spmv::qcd_like(4, 1);
    let mut kernels = vec![
        matmul::kernel(128, 8).unwrap(),
        matmul::kernel(128, 16).unwrap(),
        matmul::kernel(1024, 32).unwrap(),
        tridiag::kernel(512, false).unwrap(),
        tridiag::kernel(512, true).unwrap(),
        spmv::ell_kernel(&qcd).unwrap(),
        spmv::bell_kernel(&qcd, false).unwrap(),
        spmv::bell_kernel(&qcd, true).unwrap(),
        smem::kernel(16, 256).unwrap(),
        // x4 and x2 unrolled bodies of the global-memory microbenchmark.
        gmem::kernel(gmem::GmemConfig::new(30, 256, 8)).unwrap(),
        gmem::kernel(gmem::GmemConfig::new(30, 256, 2)).unwrap(),
    ];
    for class in InstrClass::ALL {
        kernels.push(instr::kernel(class, 8, 16, 256).unwrap());
    }
    kernels
}

#[test]
fn assembly_round_trip_preserves_every_kernel() {
    for k in all_kernels() {
        let text = kernel_to_asm(&k);
        let back = parse_kernel(&text).unwrap_or_else(|e| panic!("{}: parse {e}", k.name));
        assert_eq!(back.instrs, k.instrs, "{} asm round-trip", k.name);
        assert_eq!(back.resources, k.resources);
        assert_eq!(back.name, k.name);
        assert_eq!(back.param_bytes, k.param_bytes);
    }
}

#[test]
fn reassembled_kernel_executes_identically() {
    let machine = Machine::gtx285();
    let k = tridiag::kernel(512, false).unwrap();
    let text = kernel_to_asm(&k);
    let k2 = parse_kernel(&text).unwrap();

    let run = |kernel: &Kernel| {
        let mut gmem = GlobalMemory::new();
        let data = tridiag::setup(&mut gmem, 512, 2, 7);
        let params: Vec<u32> = data.dev.iter().map(|d| *d as u32).collect();
        let launch = LaunchConfig::new_1d(2, 256);
        let mut sim = FunctionalSim::new(&machine, kernel, launch).unwrap();
        sim.set_params(&params);
        let out = sim.run(&mut gmem).unwrap();
        let x = gmem.read_f32s(data.dev[4], 1024).unwrap();
        (out.stats, x)
    };
    let (s1, x1) = run(&k);
    let (s2, x2) = run(&k2);
    assert_eq!(x1, x2, "solutions must match bitwise");
    assert_eq!(s1.total(), s2.total(), "dynamic statistics must match");
}
