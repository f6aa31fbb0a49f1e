//! Measured throughput tables with interpolating lookups.
//!
//! [`ThroughputCurves`] is the machine characterization the model consumes:
//! instruction throughput per class and shared-memory bandwidth, both as
//! functions of warps/SM (paper Figure 2). [`GmemBench`] memoizes the
//! synthetic global-memory benchmark (paper Figure 3 and §4.3).

use crate::gmem::{self, GmemConfig};
use crate::{instr, smem};
use gpa_hw::{InstrClass, Machine};
use gpa_json::Value;
use gpa_sim::engine::par_map;
use gpa_sim::Threads;
use std::collections::HashMap;

/// Measurement effort knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOpts {
    /// Chain instructions per loop iteration.
    pub unroll: u32,
    /// Loop iterations.
    pub iters: u32,
    /// Measure every warp count `1..=16` plus even counts to 32 when
    /// `true`; a sparse grid when `false`.
    pub dense: bool,
    /// Worker threads measuring warp sample points concurrently. Each
    /// sample point is an independent simulation, so the measured curves
    /// are bit-identical for every [`Threads`] selection; only wall-clock
    /// changes — hence the default of [`Threads::Auto`].
    pub threads: Threads,
}

impl MeasureOpts {
    /// Full-resolution measurement (figure regeneration).
    pub fn paper() -> MeasureOpts {
        MeasureOpts {
            unroll: 64,
            iters: 50,
            dense: true,
            threads: Threads::Auto,
        }
    }

    /// Cheap measurement for tests: sparse warp grid, short loops.
    pub fn quick() -> MeasureOpts {
        MeasureOpts {
            unroll: 24,
            iters: 10,
            dense: false,
            threads: Threads::Auto,
        }
    }

    /// The same effort, measured on an explicit [`Threads`] selection.
    pub fn with_threads(mut self, threads: Threads) -> MeasureOpts {
        self.threads = threads;
        self
    }

    /// The warp/SM sample points.
    pub fn warp_samples(&self) -> Vec<u32> {
        if self.dense {
            (1..=16).chain((18..=32).step_by(2)).collect()
        } else {
            vec![1, 2, 4, 6, 8, 12, 16, 24, 32]
        }
    }
}

impl Default for MeasureOpts {
    fn default() -> Self {
        MeasureOpts::paper()
    }
}

/// The measured machine characterization (paper Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputCurves {
    /// Machine these curves were measured on.
    pub machine_name: String,
    /// Warp/SM sample points (ascending).
    pub warps: Vec<u32>,
    /// `instr[class][i]`: warp-instructions/s at `warps[i]`, whole GPU.
    pub instr: [Vec<f64>; 4],
    /// `smem[i]`: shared-memory bytes/s at `warps[i]`, whole GPU.
    pub smem: Vec<f64>,
}

impl ThroughputCurves {
    /// Measure with default (full) effort.
    pub fn measure(machine: &Machine) -> ThroughputCurves {
        Self::measure_with(machine, MeasureOpts::default())
    }

    /// Measure with explicit effort.
    ///
    /// Warp sample points are independent simulations; with more than one
    /// worker (`opts.threads`) they are measured concurrently
    /// ([`gpa_sim::engine::par_map`], which hands out samples one at a
    /// time, since they grow costlier with the warp count) and come back
    /// in sample order, so the curves are identical for every thread
    /// count.
    pub fn measure_with(machine: &Machine, opts: MeasureOpts) -> ThroughputCurves {
        let warps = opts.warp_samples();
        let samples = par_map(&warps, opts.threads.count(), |_, &w| {
            Self::measure_sample(machine, w, opts)
        });

        let mut instr: [Vec<f64>; 4] = Default::default();
        for (per_class, _) in &samples {
            for class in InstrClass::ALL {
                instr[class.index()].push(per_class[class.index()]);
            }
        }
        let smem_curve = samples.iter().map(|(_, s)| *s).collect();
        ThroughputCurves {
            machine_name: machine.name.clone(),
            warps,
            instr,
            smem: smem_curve,
        }
    }

    /// All measurements at one warp count: the four class throughputs
    /// plus the shared-memory bandwidth.
    fn measure_sample(machine: &Machine, w: u32, opts: MeasureOpts) -> ([f64; 4], f64) {
        let mut per_class = [0.0f64; 4];
        for class in InstrClass::ALL {
            per_class[class.index()] = instr::measure(machine, class, w, opts.unroll, opts.iters);
        }
        (per_class, smem::measure(machine, w, opts.iters.max(4)))
    }

    fn interp(warps: &[u32], ys: &[f64], w: u32) -> f64 {
        debug_assert_eq!(warps.len(), ys.len());
        debug_assert!(!warps.is_empty());
        if w <= warps[0] {
            // Below the first sample: scale linearly through the origin
            // (throughput is ~linear in warps in the latency-bound regime).
            return ys[0] * f64::from(w) / f64::from(warps[0]);
        }
        if w >= *warps.last().unwrap() {
            return *ys.last().unwrap();
        }
        let i = warps.partition_point(|&x| x < w);
        if warps[i] == w {
            return ys[i];
        }
        let (x0, x1) = (f64::from(warps[i - 1]), f64::from(warps[i]));
        let (y0, y1) = (ys[i - 1], ys[i]);
        y0 + (y1 - y0) * (f64::from(w) - x0) / (x1 - x0)
    }

    /// Sustained instruction throughput for `class` at `warps_per_sm`
    /// (warp-instructions/s, whole GPU), interpolated between samples.
    pub fn instruction_throughput(&self, class: InstrClass, warps_per_sm: u32) -> f64 {
        Self::interp(&self.warps, &self.instr[class.index()], warps_per_sm)
    }

    /// Sustained shared-memory bandwidth at `warps_per_sm` (bytes/s, whole
    /// GPU), interpolated between samples.
    pub fn shared_bandwidth(&self, warps_per_sm: u32) -> f64 {
        Self::interp(&self.warps, &self.smem, warps_per_sm)
    }

    /// Serialize to JSON (for caching expensive measurements on disk).
    ///
    /// # Errors
    ///
    /// Fails if any measurement is non-finite (JSON has no NaN/inf
    /// literals; refusing here keeps the on-disk cache parseable).
    pub fn to_json(&self) -> Result<String, gpa_json::Error> {
        let mut all = self.instr.iter().flatten().chain(&self.smem);
        if let Some(bad) = all.find(|x| !x.is_finite()) {
            return Err(gpa_json::Error::msg(format!(
                "non-finite measurement {bad} cannot be cached as JSON"
            )));
        }
        let num_row = |row: &[f64]| Value::Array(row.iter().copied().map(Value::from).collect());
        let v = Value::Object(vec![
            (
                "machine_name".into(),
                Value::String(self.machine_name.clone()),
            ),
            (
                "warps".into(),
                Value::Array(
                    self.warps
                        .iter()
                        .map(|&w| Value::from(f64::from(w)))
                        .collect(),
                ),
            ),
            (
                "instr".into(),
                Value::Array(self.instr.iter().map(|c| num_row(c)).collect()),
            ),
            ("smem".into(), num_row(&self.smem)),
        ]);
        Ok(v.to_string_pretty())
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// Propagates `gpa_json` parse and schema errors.
    pub fn from_json(s: &str) -> Result<ThroughputCurves, gpa_json::Error> {
        let v = Value::parse(s)?;
        let warps = v
            .get("warps")?
            .as_array()?
            .iter()
            .map(Value::as_u32)
            .collect::<Result<Vec<u32>, _>>()?;
        let instr_rows = v.get("instr")?.as_array()?;
        if instr_rows.len() != 4 {
            return Err(gpa_json::Error::msg(format!(
                "expected 4 instruction-class curves, found {}",
                instr_rows.len()
            )));
        }
        if warps.is_empty() {
            return Err(gpa_json::Error::msg("empty warp sample grid"));
        }
        // interp() divides by warps[0] and binary-searches the grid, so the
        // samples must be positive and strictly ascending.
        if warps[0] == 0 || warps.windows(2).any(|w| w[0] >= w[1]) {
            return Err(gpa_json::Error::msg(format!(
                "warp samples must be positive and strictly ascending, got {warps:?}"
            )));
        }
        let mut instr: [Vec<f64>; 4] = Default::default();
        for (slot, row) in instr.iter_mut().zip(instr_rows) {
            *slot = row.as_f64_array()?;
        }
        let smem = v.get("smem")?.as_f64_array()?;
        // interp() indexes rows by warp position; a row of the wrong length
        // must fail here (falling back to re-measurement), not panic later.
        for row in instr.iter().chain(std::iter::once(&smem)) {
            if row.len() != warps.len() {
                return Err(gpa_json::Error::msg(format!(
                    "curve length {} does not match {} warp samples",
                    row.len(),
                    warps.len()
                )));
            }
        }
        Ok(ThroughputCurves {
            machine_name: v.get("machine_name")?.as_str()?.to_owned(),
            warps,
            instr,
            smem,
        })
    }
}

/// Memoized synthetic global-memory benchmark (paper §4.3): the model asks
/// for the bandwidth of a `(blocks, threads, transactions/thread)`
/// configuration; each distinct configuration is simulated once.
#[derive(Debug)]
pub struct GmemBench<'m> {
    machine: &'m Machine,
    cache: HashMap<GmemConfig, f64>,
}

impl<'m> GmemBench<'m> {
    /// A benchmark instrument for `machine`.
    pub fn new(machine: &'m Machine) -> GmemBench<'m> {
        GmemBench {
            machine,
            cache: HashMap::new(),
        }
    }

    /// Bandwidth (bytes/s) of the synthetic benchmark at `cfg`.
    pub fn bandwidth(&mut self, cfg: GmemConfig) -> f64 {
        *self
            .cache
            .entry(cfg)
            .or_insert_with(|| gmem::measure(self.machine, cfg))
    }

    /// Number of distinct configurations measured so far.
    pub fn measured_configs(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_curves() -> ThroughputCurves {
        ThroughputCurves::measure_with(&Machine::gtx285(), MeasureOpts::quick())
    }

    #[test]
    fn curves_are_monotone_and_bounded() {
        let m = Machine::gtx285();
        let c = quick_curves();
        for class in InstrClass::ALL {
            let peak = m.peak_warp_instruction_throughput(class);
            let col = &c.instr[class.index()];
            for (i, v) in col.iter().enumerate() {
                assert!(
                    *v <= peak * 1.001,
                    "{class} sample {i}: {v:.3e} > peak {peak:.3e}"
                );
                if i > 0 {
                    assert!(*v >= col[i - 1] * 0.95, "{class} not ~monotone at {i}");
                }
            }
        }
        for (i, v) in c.smem.iter().enumerate() {
            assert!(*v <= m.peak_shared_bandwidth());
            if i > 0 {
                assert!(*v >= c.smem[i - 1] * 0.95);
            }
        }
    }

    #[test]
    fn interpolation_brackets_samples() {
        let c = quick_curves();
        let at4 = c.instruction_throughput(InstrClass::TypeII, 4);
        let at6 = c.instruction_throughput(InstrClass::TypeII, 6);
        let at5 = c.instruction_throughput(InstrClass::TypeII, 5);
        assert!(at4 <= at5 && at5 <= at6, "{at4:.3e} {at5:.3e} {at6:.3e}");
        // Beyond the last sample: clamp.
        assert_eq!(
            c.instruction_throughput(InstrClass::TypeII, 32),
            c.instruction_throughput(InstrClass::TypeII, 40)
        );
        // Below the first: through the origin.
        let at1 = c.shared_bandwidth(1);
        assert!(at1 > 0.0);
    }

    #[test]
    fn parallel_measurement_is_bit_identical() {
        let m = Machine::gtx285();
        let seq = ThroughputCurves::measure_with(
            &m,
            MeasureOpts::quick().with_threads(Threads::sequential()),
        );
        for threads in [Threads::Fixed(2), Threads::Fixed(3), Threads::Auto] {
            let par =
                ThroughputCurves::measure_with(&m, MeasureOpts::quick().with_threads(threads));
            assert_eq!(seq, par, "curves diverge at {threads:?}");
        }
    }

    #[test]
    fn json_round_trip() {
        let c = quick_curves();
        let json = c.to_json().unwrap();
        let back = ThroughputCurves::from_json(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn gmem_bench_memoizes() {
        let m = Machine::gtx285();
        let mut b = GmemBench::new(&m);
        let cfg = GmemConfig::new(10, 128, 16);
        let x = b.bandwidth(cfg);
        let y = b.bandwidth(cfg);
        assert_eq!(x, y);
        assert_eq!(b.measured_configs(), 1);
        let _ = b.bandwidth(GmemConfig::new(20, 128, 16));
        assert_eq!(b.measured_configs(), 2);
    }
}
