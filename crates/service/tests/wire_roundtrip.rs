//! Property: requests and reports survive serialize → parse → serialize
//! **bit-exactly** — struct equality after one cycle, string equality
//! between the first and second serializations (riding `gpa-json`'s
//! shortest-round-trip `f64` formatting). A legacy `options.mode` string
//! injected into a request parses to the same request: the wire accepts
//! it, ignores it, and never writes it.

use gpa_apps::spmv::Format;
use gpa_core::{Analysis, Cause, Component, ComponentTimes, StageAnalysis, WhatIf};
use gpa_json::Value;
use gpa_service::{
    AnalysisOptions, AnalysisReport, AnalysisRequest, CustomKernel, Effort, KernelSpec, MemInit,
    MemRegionSpec, ParamValue, RegionReadback, RegionTraffic, WhatIfSpec,
};
use gpa_sim::{LaunchConfig, Threads};
use proptest::prelude::*;
use proptest::{collection, option};

/// Any finite f64, including negatives, subnormals, and signed zeros.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            // Remap NaN/inf bit patterns onto a finite value that still
            // exercises plenty of mantissa digits.
            (bits >> 11) as f64 / 3.0
        }
    })
}

/// Short strings with escapes and non-ASCII in the mix.
fn string() -> impl Strategy<Value = String> {
    collection::vec(
        prop_oneof![
            (32u8..127).prop_map(|b| b as char),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('λ'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn component() -> impl Strategy<Value = Component> {
    prop_oneof![
        Just(Component::InstructionPipeline),
        Just(Component::SharedMemory),
        Just(Component::GlobalMemory),
    ]
}

fn cause() -> impl Strategy<Value = Cause> {
    prop_oneof![
        finite_f64().prop_map(|density| Cause::LowComputationalDensity { density }),
        finite_f64().prop_map(|fraction| Cause::ExpensiveInstructions { fraction }),
        (1u32..64).prop_map(|warps| Cause::InsufficientWarpsForPipeline { warps }),
        finite_f64().prop_map(|factor| Cause::BankConflicts { factor }),
        (1u32..64).prop_map(|warps| Cause::InsufficientWarpsForSharedMemory { warps }),
        finite_f64().prop_map(|efficiency| Cause::UncoalescedAccesses { efficiency }),
        finite_f64()
            .prop_map(|reduction_at_16b| Cause::LargeTransactionGranularity { reduction_at_16b }),
        finite_f64().prop_map(|bandwidth_fraction| Cause::InsufficientMemoryParallelism {
            bandwidth_fraction
        }),
    ]
}

fn times() -> impl Strategy<Value = ComponentTimes> {
    (finite_f64(), finite_f64(), finite_f64(), finite_f64()).prop_map(
        |(instr, smem, gmem, atomic)| ComponentTimes {
            instr,
            smem,
            gmem,
            atomic,
        },
    )
}

fn stage() -> impl Strategy<Value = StageAnalysis> {
    (
        (0usize..64, times(), component()),
        (1u32..33, 1u32..33),
        (finite_f64(), finite_f64(), finite_f64()),
        collection::vec(cause(), 0..4),
    )
        .prop_map(
            |(
                (stage, times, bottleneck),
                (warps_instr, warps_smem),
                (instr_throughput, smem_bandwidth, gmem_bandwidth),
                causes,
            )| StageAnalysis {
                stage,
                times,
                bottleneck,
                warps_instr,
                warps_smem,
                instr_throughput,
                smem_bandwidth,
                gmem_bandwidth,
                causes,
            },
        )
}

fn analysis() -> impl Strategy<Value = Analysis> {
    (
        (string(), string(), 1u32..9, 1u32..33),
        collection::vec(stage(), 0..5),
        (times(), times()),
        (finite_f64(), finite_f64(), finite_f64()),
        (component(), component()),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
    )
        .prop_map(
            |(
                (kernel_name, machine_name, resident_blocks, resident_warps),
                stages,
                (totals, serialized_attribution),
                (serialized_seconds, overlapped_seconds, predicted_seconds),
                (bottleneck, next_bottleneck),
                (
                    computational_density,
                    bank_conflict_factor,
                    coalescing_efficiency,
                    atomic_contention_factor,
                ),
            )| Analysis {
                kernel_name,
                machine_name,
                resident_blocks,
                resident_warps,
                stages,
                totals,
                serialized_seconds,
                overlapped_seconds,
                predicted_seconds,
                serialized_attribution,
                bottleneck,
                next_bottleneck,
                computational_density,
                bank_conflict_factor,
                coalescing_efficiency,
                atomic_contention_factor,
            },
        )
}

fn what_if() -> impl Strategy<Value = WhatIf> {
    (
        string(),
        string(),
        finite_f64(),
        finite_f64(),
        finite_f64(),
        component(),
    )
        .prop_map(
            |(name, description, baseline_seconds, predicted_seconds, speedup, new_bottleneck)| {
                WhatIf {
                    name,
                    description,
                    baseline_seconds,
                    predicted_seconds,
                    speedup,
                    new_bottleneck,
                }
            },
        )
}

fn region() -> impl Strategy<Value = RegionTraffic> {
    (string(), 0u64..(1 << 53), 0u64..(1 << 53), 0u64..(1 << 53)).prop_map(
        |(name, transactions, bytes, requested_bytes)| RegionTraffic {
            name,
            transactions,
            bytes,
            requested_bytes,
        },
    )
}

fn readback() -> impl Strategy<Value = RegionReadback> {
    (string(), collection::vec(any::<u32>(), 0..8))
        .prop_map(|(name, words)| RegionReadback { name, words })
}

fn report() -> impl Strategy<Value = AnalysisReport> {
    (
        (string(), string()),
        analysis(),
        (finite_f64(), finite_f64(), 0u64..(1 << 53)),
        collection::vec(region(), 0..4),
        collection::vec(what_if(), 0..3),
        (collection::vec(readback(), 0..3), option::of(any::<bool>())),
    )
        .prop_map(
            |(
                (kernel, machine),
                analysis,
                (measured_seconds, measured_cycles, flops),
                regions,
                what_ifs,
                (outputs, verified),
            )| AnalysisReport {
                kernel,
                machine,
                analysis,
                measured_seconds,
                measured_cycles,
                flops,
                regions,
                what_ifs,
                outputs,
                verified,
            },
        )
}

fn mem_init() -> impl Strategy<Value = MemInit> {
    prop_oneof![
        Just(MemInit::Zero),
        any::<u32>().prop_map(MemInit::Fill),
        collection::vec(any::<u32>(), 0..6).prop_map(MemInit::Words),
        any::<u32>().prop_map(|seed| MemInit::Pattern { seed }),
    ]
}

fn mem_region() -> impl Strategy<Value = MemRegionSpec> {
    (
        string(),
        (1u64..64).prop_map(|w| w * 4),
        mem_init(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(name, len, init, texture, readback)| MemRegionSpec {
            name,
            len,
            init,
            texture,
            readback,
        })
}

fn param() -> impl Strategy<Value = ParamValue> {
    prop_oneof![
        any::<u32>().prop_map(ParamValue::Word),
        string().prop_map(ParamValue::RegionBase),
    ]
}

fn custom_kernel() -> impl Strategy<Value = CustomKernel> {
    (
        string(),
        (1u32..9, 1u32..3, 1u32..129, 1u32..3),
        collection::vec(param(), 0..4),
        collection::vec(mem_region(), 0..3),
    )
        .prop_map(|(asm, (gx, gy, bx, by), params, memory)| CustomKernel {
            asm,
            launch: LaunchConfig::new_2d((gx, gy), (bx, by)),
            params,
            memory,
        })
}

fn kernel_spec() -> impl Strategy<Value = KernelSpec> {
    prop_oneof![
        (1u32..17, 0u32..3).prop_map(|(m, t)| KernelSpec::Matmul {
            n: m * 64,
            tile: [8u32, 16, 32][t as usize],
        }),
        (1u32..65, any::<bool>()).prop_map(|(nsys, padded)| KernelSpec::Tridiag {
            n: 512,
            nsys,
            padded,
        }),
        (any::<u32>(), 0u32..3, any::<bool>()).prop_map(|(seed, f, texture)| KernelSpec::Spmv {
            l: 4,
            seed,
            format: [Format::Ell, Format::BellIm, Format::BellImIv][f as usize],
            texture,
        }),
        // The wire layer round-trips *any* custom payload, valid or not
        // (validation is the service's job, not the codec's).
        custom_kernel().prop_map(|c| KernelSpec::Custom(Box::new(c))),
    ]
}

fn options() -> impl Strategy<Value = AnalysisOptions> {
    (
        prop_oneof![Just(Threads::Auto), (1usize..32).prop_map(Threads::Fixed)],
        option::of(1u64..(1 << 53)),
        any::<bool>(),
        collection::vec(
            prop_oneof![
                Just(WhatIfSpec::NoBankConflicts),
                Just(WhatIfSpec::PerfectCoalescing),
                Just(WhatIfSpec::Granularity16),
                Just(WhatIfSpec::Granularity4),
                (1u32..65).prop_map(WhatIfSpec::MaxBlocks),
                (1u32..9).prop_map(WhatIfSpec::ResourcesScaled),
            ],
            0..4,
        ),
        prop_oneof![Just(Effort::Quick), Just(Effort::Paper)],
    )
        .prop_map(
            |(threads, fuel, verify, what_ifs, calibration)| AnalysisOptions {
                mode: None,
                threads,
                fuel,
                verify,
                what_ifs,
                calibration,
            },
        )
}

fn request() -> impl Strategy<Value = AnalysisRequest> {
    (kernel_spec(), string(), options()).prop_map(|(kernel, machine, options)| AnalysisRequest {
        kernel,
        machine,
        options,
    })
}

/// A legacy `options.mode` string, or none. The kernel declares its
/// trace mode, so the wire accepts these and drops them.
fn legacy_mode() -> impl Strategy<Value = Option<&'static str>> {
    option::of(prop_oneof![
        Just("homogeneous"),
        Just("per-block"),
        Just("auto")
    ])
}

proptest! {
    #[test]
    fn requests_round_trip_bit_exactly(req in request(), mode in legacy_mode()) {
        let json = req.to_json();
        let mut doc = Value::parse(&json).unwrap();
        let Value::Object(fields) = &mut doc else { panic!("a request is an object") };
        let (_, Value::Object(options)) = fields
            .iter_mut()
            .find(|(k, _)| k == "options")
            .expect("options are always written")
        else {
            panic!("options are an object")
        };
        prop_assert!(options.iter().all(|(k, _)| k != "mode"), "mode is never written");
        if let Some(mode) = mode {
            options.push(("mode".into(), Value::from(mode)));
        }
        let back = AnalysisRequest::from_value(&doc).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn reports_round_trip_bit_exactly(rep in report()) {
        let json = rep.to_json();
        let back = AnalysisReport::from_json(&json).unwrap();
        prop_assert_eq!(&back, &rep);
        prop_assert_eq!(back.to_json(), json);
    }
}
