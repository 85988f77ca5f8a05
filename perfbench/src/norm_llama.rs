//! `norm_llama`: repeated full normalization passes of a LLaMA-7B-shaped
//! stack — 65 RMSNorm sites, 4096 wide — through
//! `HaanNormalizer::normalize_matrix_into` with the paper's LLaMA-7B preset
//! (`Nsub` 256, skip 50–60, INT8). Site inputs are scaled per token and site
//! by the `IsdProfileModel::llama_7b` ISD profile.
//!
//! Passes alternate between a prefill-sized batch (the normalization part of
//! a first token) and a decode step of a batch of streams (the normalization
//! part of each later token). Normalization is all of the work: no matmul,
//! engine or router, so this exercises the core and numerics crates only.

use crate::inputs::Rng;
use crate::measure::{median, peak_rss_mib, ratio, secs, Report, Samples};
use crate::replica;
use crate::serving;
use haan::{BackendSelection, HaanConfig, HaanNormalizer};
use haan_accel::{config::AccelConfig, HaanAccelerator};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::synthetic::IsdProfileModel;
use haan_llm::{Matrix, NormKind};
use haan_numerics::stats::RowNormMode;
use haan_obs::{Obs, ObsSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub const SITES: usize = 65;
pub const WIDTH: usize = 4096;
pub const PREFILL_ROWS: usize = 64;
pub const DECODE_ROWS: usize = 8;
const SETUP_REPS: usize = 5;
const WARM_PASSES: usize = 8;
/// Relative tolerance of the backend-parity suites (fused vs scalar oracle).
const PARITY_TOLERANCE: f32 = 1e-5;

/// The stack's inputs and parameters. Site inputs are produced just before
/// each site runs, as the residual stream would produce them, from one
/// cache-resident base of unit-variance rows.
struct Stack {
    base: Matrix,
    /// `1/ISD` of row `r` at site `s`, at `s * PREFILL_ROWS + r`.
    scale: Vec<f32>,
    gamma: Vec<Vec<f32>>,
    beta: Vec<Vec<f32>>,
}

impl Stack {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::derive(seed, 3);
        let data = (0..PREFILL_ROWS * WIDTH)
            .map(|_| rng.gaussian() as f32)
            .collect();
        let base = Matrix::from_vec(PREFILL_ROWS, WIDTH, data).expect("consistent shape");
        let profiles = IsdProfileModel::llama_7b().sample_isd_profiles(PREFILL_ROWS, seed);
        let scale = (0..SITES)
            .flat_map(|s| profiles.iter().map(move |p| (1.0 / p[s]) as f32))
            .collect();
        let mut param = |mean: f64, std: f64| -> Vec<Vec<f32>> {
            (0..SITES)
                .map(|_| {
                    (0..WIDTH)
                        .map(|_| (mean + std * rng.gaussian()) as f32)
                        .collect()
                })
                .collect()
        };
        let gamma = param(1.0, 0.05);
        let beta = param(0.0, 0.02);
        Self {
            base,
            scale,
            gamma,
            beta,
        }
    }

    /// Writes site `site`'s input rows into `input`.
    fn fill(&self, site: usize, input: &mut Matrix) {
        for r in 0..input.rows() {
            let scale = self.scale[site * PREFILL_ROWS + r];
            let src = self.base.row((r + 7 * site) % PREFILL_ROWS);
            for (dst, &x) in input.row_mut(r).iter_mut().zip(src) {
                *dst = x * scale;
            }
        }
    }
}

fn site(layer_index: usize) -> NormSite {
    NormSite {
        layer_index,
        kind: NormKind::RmsNorm,
    }
}

/// Input and output buffers of one pass shape.
struct Buffers {
    input: Matrix,
    out: Matrix,
}

impl Buffers {
    fn new(rows: usize) -> Self {
        Self {
            input: Matrix::zeros(rows, WIDTH),
            out: Matrix::zeros(rows, WIDTH),
        }
    }
}

/// One 65-site pass; returns the milliseconds spent inside the normalizer.
fn pass<N: Normalizer>(
    stack: &Stack,
    norm: &mut N,
    buf: &mut Buffers,
    site_us: Option<&mut Samples>,
) -> f64 {
    let mut site_us = site_us;
    norm.begin_sequence();
    let mut total = 0.0;
    for s in 0..SITES {
        stack.fill(s, &mut buf.input);
        let started = Instant::now();
        norm.normalize_matrix_into(
            site(s),
            &buf.input,
            &stack.gamma[s],
            &stack.beta[s],
            &mut buf.out,
        );
        let dt = secs(started);
        black_box(&buf.out);
        total += dt;
        if let Some(samples) = site_us.as_deref_mut() {
            samples.push(dt * 1e6);
        }
    }
    total * 1e3
}

/// What a timed stretch of passes measured.
#[derive(Default)]
struct Timed {
    prefill_ms: Samples,
    decode_ms: Samples,
    /// Microseconds of each prefill-shaped site call.
    site_us: Samples,
    rows: u64,
    norm_s: f64,
}

impl Timed {
    fn gelem_s(&self) -> f64 {
        ratio(self.rows as f64 * (SITES * WIDTH) as f64, self.norm_s * 1e9)
    }
}

struct Runner {
    stack: Stack,
    prefill: Buffers,
    decode: Buffers,
}

impl Runner {
    fn new(seed: u64) -> Self {
        Self {
            stack: Stack::new(seed),
            prefill: Buffers::new(PREFILL_ROWS),
            decode: Buffers::new(DECODE_ROWS),
        }
    }

    fn measure<N: Normalizer>(&mut self, norm: &mut N, seconds: f64) -> Timed {
        let mut t = Timed::default();
        let started = Instant::now();
        while secs(started) < seconds {
            let p = pass(&self.stack, norm, &mut self.prefill, Some(&mut t.site_us));
            let d = pass(&self.stack, norm, &mut self.decode, None);
            t.prefill_ms.push(p);
            t.decode_ms.push(d);
            t.rows += (PREFILL_ROWS + DECODE_ROWS) as u64;
            t.norm_s += (p + d) / 1e3;
        }
        t
    }

    fn warm_up<N: Normalizer>(&mut self, norm: &mut N) {
        for _ in 0..WARM_PASSES {
            pass(&self.stack, norm, &mut self.prefill, None);
            pass(&self.stack, norm, &mut self.decode, None);
        }
    }

    /// Both pass shapes through `norm` and through the same preset on the
    /// scalar backend, site by site; true when every output is within the
    /// parity suites' tolerance.
    fn matches_scalar(&mut self, norm: &mut HaanNormalizer) -> bool {
        let mut oracle = HaanNormalizer::new(HaanConfig {
            backend: BackendSelection::Scalar,
            ..HaanConfig::llama_7b_paper()
        });
        let mut expected = Matrix::zeros(PREFILL_ROWS, WIDTH);
        for buf in [&mut self.prefill, &mut self.decode] {
            norm.begin_sequence();
            oracle.begin_sequence();
            expected.resize(buf.input.rows(), WIDTH);
            for s in 0..SITES {
                self.stack.fill(s, &mut buf.input);
                let (gamma, beta) = (&self.stack.gamma[s], &self.stack.beta[s]);
                norm.normalize_matrix_into(site(s), &buf.input, gamma, beta, &mut buf.out);
                oracle.normalize_matrix_into(site(s), &buf.input, gamma, beta, &mut expected);
                let close = buf
                    .out
                    .as_slice()
                    .iter()
                    .zip(expected.as_slice())
                    .all(|(x, y)| (x - y).abs() <= PARITY_TOLERANCE * y.abs().max(1.0));
                if !close {
                    return false;
                }
            }
        }
        true
    }
}

fn normalizer() -> HaanNormalizer {
    HaanNormalizer::new(HaanConfig::llama_7b_paper())
}

/// The preset plan's share of skipped sites.
fn planned_skip_share(norm: &HaanNormalizer) -> f64 {
    (0..SITES).filter(|&s| norm.is_skipped_site(s)).count() as f64 / SITES as f64
}

/// Simulated microseconds of one prefill-sized pass on the HAAN-v1 model.
fn sim_latency_us() -> f64 {
    HaanAccelerator::new(AccelConfig::haan_v1(), HaanConfig::llama_7b_paper())
        .workload(WIDTH, SITES, PREFILL_ROWS, NormKind::RmsNorm)
        .latency_us
}

fn shape_note(report: &mut Report) {
    report.note(format!(
        "norm_llama: {SITES} RMSNorm sites x {WIDTH} wide, HaanConfig::llama_7b_paper() (Nsub 256, skip (50, 60), INT8); passes alternate {PREFILL_ROWS} prefill rows and {DECODE_ROWS} decode rows; inputs scaled by IsdProfileModel::llama_7b; ttft_ms/itl_ms are the normalization part of a first token / a later token"
    ));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if trace {
        return traced(seed, seconds);
    }
    let mut report = Report::default();
    shape_note(&mut report);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let mut runner = Runner::new(seed);
        let mut norm = normalizer();
        runner.warm_up(&mut norm);
        setups.push(secs(started));
        if rep + 1 < SETUP_REPS {
            continue;
        }
        norm.reset_telemetry();
        let t = runner.measure(&mut norm, seconds);
        let skip = norm.telemetry().skip_fraction();
        let skip_ok = skip == planned_skip_share(&norm);
        let parity_ok = runner.matches_scalar(&mut norm);
        let sim = sim_latency_us();
        let sim_ok = sim.to_bits() == sim_latency_us().to_bits();
        let failed = u64::from(!skip_ok) + u64::from(!parity_ok) + u64::from(!sim_ok);
        report.note(format!(
            "checks: scalar-backend parity within {PARITY_TOLERANCE}: {parity_ok}; skip share {skip} equals the plan's {}: {skip_ok}; simulated latency repeats exactly: {sim_ok}",
            planned_skip_share(&norm)
        ));
        let passes = t.prefill_ms.len();
        report.add("setup_s", median(&setups), "s", Some(setups.len()));
        report.add(
            "tok_s",
            ratio(t.rows as f64, t.norm_s),
            "1/s",
            Some(2 * passes),
        );
        report.add_tails("ttft_ms", &t.prefill_ms, "ms")?;
        report.add_tails("itl_ms", &t.decode_ms, "ms")?;
        report.add("peak_rss_mib", peak_rss_mib()?, "MiB", None);
        report.add("norm_gelem_s", t.gelem_s(), "Gelem/s", Some(2 * passes));
        report.add_tails("pass_ms", &t.prefill_ms, "ms")?;
        report.add("sim_latency_us", sim, "us", Some(1));
        report.attempted = 2 * passes as u64;
        report.failed = failed;
        report.correct = failed == 0;
    }
    Ok(report)
}

fn traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    shape_note(&mut report);
    let half = seconds / 2.0;
    let mut runner = Runner::new(seed);
    let mut norm = normalizer();
    runner.warm_up(&mut norm);
    let untraced = runner.measure(&mut norm, half);

    let obs = Obs::shared(1 << 16);
    let mut norm = normalizer();
    norm.set_obs_sink(Some(Arc::clone(&obs) as Arc<dyn ObsSink>));
    runner.warm_up(&mut norm);
    norm.reset_telemetry();
    let t = runner.measure(&mut norm, half);
    let telemetry = norm.telemetry();

    report.add(
        "core.norm_ms_per_tick",
        t.prefill_ms.mean(),
        "ms",
        Some(t.prefill_ms.len()),
    );
    report.add(
        "core.fused_call_frac",
        0.0,
        "frac",
        Some(2 * SITES * t.prefill_ms.len()),
    );
    let site_us = serving::quantile(&t.site_us, 0.5, "core.site_us_p50")?;
    report.add("core.site_us_p50", site_us, "us", Some(t.site_us.len()));
    report.add("core.skip_frac", telemetry.skip_fraction(), "frac", None);
    report.add("core.read_frac", telemetry.read_fraction(), "frac", None);
    report.add(
        "numerics.stats_ns_per_elem",
        replica::stats_ns_per_elem(PREFILL_ROWS, WIDTH),
        "ns",
        None,
    );
    report.add(
        "numerics.normalize_ns_per_elem",
        replica::normalize_ns_per_elem(PREFILL_ROWS, WIDTH, RowNormMode::RmsNorm),
        "ns",
        None,
    );
    report.add(
        "obs.trace_overhead_pct",
        (ratio(untraced.gelem_s(), t.gelem_s()) - 1.0) * 100.0,
        "%",
        None,
    );
    report.note(format!(
        "norm_gelem_s untraced half {:.4}, traced half {:.4}; core.fused_call_frac is 0 because every site calls normalize_matrix_into directly",
        untraced.gelem_s(),
        t.gelem_s()
    ));
    serving::add_unexercised(
        &mut report,
        &[
            ("router.prefix_hit_rate", "frac"),
            ("serve.rows_per_tick", "rows"),
            ("serve.preemptions", "count"),
            ("serve.reprefill_frac", "frac"),
            ("admission.queued_frac", "frac"),
            ("admission.shed_frac", "frac"),
            ("llm.matmul_gflops", "GFLOP/s"),
            ("llm.matmul_share", "frac"),
            ("llm.weight_bytes_per_tick", "B"),
            ("llm.kv_bytes_peak", "B"),
            ("llm.prefill_row_frac", "frac"),
        ],
        "no router, engine or model: normalization only",
    );
    report.attempted = 2 * (untraced.prefill_ms.len() + t.prefill_ms.len()) as u64;
    report.correct = true;
    Ok(report)
}
