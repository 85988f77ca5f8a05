//! [`HaanNormalizer`] — a drop-in normalizer applying ISD skipping, subsampling and
//! operand quantization.
//!
//! The normalizer mirrors what the HAAN accelerator computes:
//!
//! * the *statistics path* sees the quantized, subsampled input prefix;
//! * for layers inside the calibrated skip range, the ISD is not computed at all but
//!   predicted from the anchor layer's ISD with the log-linear model (Eq. 3);
//! * the remaining ISDs go through the fast inverse square root (seed + Newton);
//! * the *normalization path* applies the estimated statistics and the affine
//!   transform to the full-precision input, exactly as the hardware's normalization
//!   units consume the statistics produced by the input statistics calculator.
//!
//! # One statistics policy
//!
//! Every entry point runs the same batched site. [`Normalizer::normalize_matrix_into`]
//! processes every row of the sequence with the per-site decisions (skip lookup,
//! subsample length, quantization policy) hoisted out of the row loop into a
//! [`crate::backend::BatchRequest`], then dispatched to exactly one execution
//! backend: the one attached with [`HaanNormalizer::with_external_backend`] (such as
//! `haan_accel`'s cycle-level accelerator simulator) if there is one, otherwise the
//! software backend selected by [`crate::config::BackendSelection`] — the fused
//! chunked kernel (the default) or the two-pass scalar oracle.
//! [`Normalizer::normalize`] is a one-row call of that site, and
//! [`Normalizer::normalize_residual_into`] is the same site behind a residual add, so
//! all three share the backend pick, the telemetry and the anchor bookkeeping.
//!
//! The skip anchors are tracked *per row* (per token): a skipped site predicts each
//! token from its own anchor observation when its row count matches the anchor
//! site's, and from the anchor site's last row otherwise (see [`AnchorState`]).

use crate::backend::{BatchRequest, FusedBackend, NormBackend, ResidualNormRequest, ScalarBackend};
use crate::config::{BackendSelection, HaanConfig};
use crate::quantization::QuantizationPolicy;
use crate::skipping::SkipPlan;
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};
use haan_numerics::stats::DEFAULT_EPS;
use std::sync::Arc;

/// Counters describing what the normalizer actually did, used by reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizerTelemetry {
    /// Total normalization invocations.
    pub calls: u64,
    /// Invocations whose ISD was predicted instead of computed.
    pub skipped_isd: u64,
    /// Invocations whose statistics came from a subsampled prefix.
    pub subsampled: u64,
    /// Total elements read by the statistics path.
    pub elements_read: u64,
    /// Total elements that a full-statistics implementation would have read.
    pub elements_total: u64,
}

impl NormalizerTelemetry {
    /// Fraction of ISD computations that were skipped.
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.skipped_isd as f64 / self.calls as f64
        }
    }

    /// Fraction of input elements actually read by the statistics path.
    #[must_use]
    pub fn read_fraction(&self) -> f64 {
        if self.elements_total == 0 {
            0.0
        } else {
            self.elements_read as f64 / self.elements_total as f64
        }
    }
}

/// A snapshot of the skip-anchor state of a [`HaanNormalizer`].
///
/// ISD skipping predicts a skipped layer's `log(ISD)` from the anchor layer's
/// observation (Eq. 3), which is per-sequence, per-token state. The normalizer keeps
/// it internally during a forward pass; [`HaanNormalizer::anchor_state`] exposes it
/// so parity suites can compare two execution paths anchor for anchor.
///
/// The state has two tiers:
///
/// * a per-row `log(ISD)` vector (one entry per token of the last anchor-site call),
///   consumed at skipped sites when the row count still matches;
/// * the last row's `log(ISD)`, the fallback when it does not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnchorState {
    /// `log(ISD)` of the last row of the last anchor-site call, if any.
    anchor_log_isd: Option<f64>,
    /// Per-row `log(ISD)` anchors of the current sequence (empty until an anchor
    /// site has been processed).
    row_anchors: Vec<f64>,
}

impl AnchorState {
    /// The empty state: no anchor observed yet (a fresh sequence).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The last-row anchor `log(ISD)` (the fallback tier), if an anchor site has
    /// been seen.
    #[must_use]
    pub fn scalar_log_isd(&self) -> Option<f64> {
        self.anchor_log_isd
    }

    /// The per-row anchor `log(ISD)`s of the last anchor-site batch.
    #[must_use]
    pub fn row_log_isds(&self) -> &[f64] {
        &self.row_anchors
    }

    /// True when no anchor has been observed at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.anchor_log_isd.is_none() && self.row_anchors.is_empty()
    }

    /// The anchor-resolution rule of a skipped site: the per-row anchors when the
    /// row count matches, otherwise the last-row fallback (or `calibration_fallback`
    /// when nothing has been observed).
    fn row_log_iter(
        &self,
        rows: usize,
        calibration_fallback: f64,
    ) -> impl Iterator<Item = f64> + '_ {
        let per_row = (self.row_anchors.len() == rows).then_some(self.row_anchors.as_slice());
        let fallback = self.anchor_log_isd.unwrap_or(calibration_fallback);
        (0..rows).map(move |row| per_row.map_or(fallback, |anchors| anchors[row]))
    }

    fn clear(&mut self) {
        self.anchor_log_isd = None;
        self.row_anchors.clear();
    }
}

/// The HAAN normalizer.
///
/// See the crate-level example for end-to-end usage with a transformer model.
#[derive(Debug, Clone)]
pub struct HaanNormalizer {
    config: HaanConfig,
    plan: Option<SkipPlan>,
    quantization: QuantizationPolicy,
    /// Skip-anchor state of the current sequence (snapshot via
    /// [`HaanNormalizer::anchor_state`]).
    anchors: AnchorState,
    /// Scratch buffer for quantized prefixes, reused across rows and calls.
    scratch: Vec<f32>,
    /// Scratch buffer for per-row predicted ISDs at skipped sites, reused across
    /// calls so the skipped hot path stays allocation-free.
    predicted_scratch: Vec<f32>,
    /// Externally-provided execution backend (the accelerator simulator, or anything
    /// attached with [`HaanNormalizer::with_external_backend`]); when set, it runs
    /// every batched site instead of the configured software backend.
    external: Option<Arc<dyn NormBackend>>,
    telemetry: NormalizerTelemetry,
    /// Optional observability sink: per-site skip/exact counters and skip-rate
    /// gauges are emitted here when installed; `None` (the default) keeps every
    /// site decision a single branch.
    obs: Option<Arc<dyn haan_obs::ObsSink>>,
    /// Per-site row totals and metric names, indexed by layer and grown on
    /// demand. Only maintained while a sink is installed.
    site_rows: Vec<SiteMetrics>,
}

/// One site's observability state: the running `(skipped, exact)` row totals
/// behind its `haan.skip_rate.site_N` gauge, and its metric names, formatted
/// once when the site is first seen instead of on every call.
#[derive(Debug, Clone)]
struct SiteMetrics {
    skipped_rows: u64,
    exact_rows: u64,
    skip: String,
    exact: String,
    skip_rate: String,
    fused_residual: String,
}

impl SiteMetrics {
    fn new(layer: usize) -> Self {
        Self {
            skipped_rows: 0,
            exact_rows: 0,
            skip: format!("haan.skip.site_{layer}"),
            exact: format!("haan.exact.site_{layer}"),
            skip_rate: format!("haan.skip_rate.site_{layer}"),
            fused_residual: format!("haan.path.fused_residual.site_{layer}"),
        }
    }

    /// The entry of `layer`, growing `sites` up to it.
    fn of(sites: &mut Vec<SiteMetrics>, layer: usize) -> &mut SiteMetrics {
        while sites.len() <= layer {
            sites.push(SiteMetrics::new(sites.len()));
        }
        &mut sites[layer]
    }
}

impl HaanNormalizer {
    /// Creates a normalizer from a configuration. If the configuration names a fixed
    /// skip range but no calibrated plan is attached (see [`HaanNormalizer::with_plan`]),
    /// the range is used with a decay of zero — calibration is what fits the decay.
    #[must_use]
    pub fn new(config: HaanConfig) -> Self {
        let plan = config.skip_range.map(|(start, end)| SkipPlan {
            start,
            end,
            decay: 0.0,
            correlation: 0.0,
            calibration_anchor_log_isd: 0.0,
        });
        let quantization = QuantizationPolicy::new(config.format);
        Self {
            config,
            plan,
            quantization,
            anchors: AnchorState::new(),
            scratch: Vec::new(),
            predicted_scratch: Vec::new(),
            external: None,
            telemetry: NormalizerTelemetry::default(),
            obs: None,
            site_rows: Vec::new(),
        }
    }

    /// Installs (or, with `None`, removes) an observability sink. With a sink
    /// installed, every normalization call emits per-site counters
    /// (`haan.skip.site_N` / `haan.exact.site_N`, in rows) and refreshes the
    /// running `haan.skip_rate.site_N` gauge — the live view of which sites the
    /// skip plan is actually predicting — and rows that took the fused
    /// residual+norm kernel count into `haan.path.fused_residual.site_N`.
    /// Disabled, each call pays one branch.
    pub fn set_obs_sink(&mut self, obs: Option<Arc<dyn haan_obs::ObsSink>>) {
        self.obs = obs;
    }

    /// Accounts one site decision (skip vs exact, `rows` rows) on the installed
    /// sink. The per-site totals and names only exist while enabled.
    fn note_site_decision(&mut self, layer: usize, skipped: bool, rows: u64) {
        let Some(obs) = &self.obs else {
            return;
        };
        let site = SiteMetrics::of(&mut self.site_rows, layer);
        if skipped {
            site.skipped_rows += rows;
            obs.counter_add(&site.skip, rows);
        } else {
            site.exact_rows += rows;
            obs.counter_add(&site.exact, rows);
        }
        obs.gauge_set(
            &site.skip_rate,
            site.skipped_rows as f64 / (site.skipped_rows + site.exact_rows) as f64,
        );
    }

    /// Attaches an externally-constructed execution backend (for example
    /// `haan_accel::AccelSimBackend`). It takes precedence over
    /// [`HaanConfig::backend`]: every batched site runs on it.
    #[must_use]
    pub fn with_external_backend(mut self, backend: Arc<dyn NormBackend>) -> Self {
        self.external = Some(backend);
        self
    }

    /// Attaches a calibrated [`SkipPlan`] (replacing any fixed range from the config).
    #[must_use]
    pub fn with_plan(mut self, plan: SkipPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Removes the skip plan (disables ISD skipping while keeping subsampling and
    /// quantization).
    #[must_use]
    pub fn without_plan(mut self) -> Self {
        self.plan = None;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &HaanConfig {
        &self.config
    }

    /// The active skip plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<&SkipPlan> {
        self.plan.as_ref()
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn telemetry(&self) -> NormalizerTelemetry {
        self.telemetry
    }

    /// Snapshots the current skip-anchor state (per-row anchors plus the last-row
    /// fallback).
    #[must_use]
    pub fn anchor_state(&self) -> AnchorState {
        self.anchors.clone()
    }

    /// True when the attached skip plan skips this site's ISD (predicted instead of
    /// computed). This and [`HaanNormalizer::is_anchor_site`] are the site-role
    /// policy every batched entry point applies.
    #[must_use]
    pub fn is_skipped_site(&self, layer_index: usize) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|plan| plan.is_skipped(layer_index))
    }

    /// True when this site records fresh skip anchors (the plan's anchor layer,
    /// itself not skipped).
    #[must_use]
    pub fn is_anchor_site(&self, layer_index: usize) -> bool {
        !self.is_skipped_site(layer_index)
            && self
                .plan
                .as_ref()
                .is_some_and(|plan| plan.is_anchor(layer_index))
    }

    /// Resets the telemetry counters.
    pub fn reset_telemetry(&mut self) {
        self.telemetry = NormalizerTelemetry::default();
    }

    /// The one backend every batched site dispatches to: the attached external
    /// backend if there is one, otherwise the configured software backend.
    fn backend(&self) -> &dyn NormBackend {
        match (&self.external, self.config.backend) {
            (Some(external), _) => external.as_ref(),
            (None, BackendSelection::Scalar) => &ScalarBackend,
            (None, BackendSelection::Fused) => &FusedBackend,
        }
    }

    /// Hoists the per-site decisions shared by every batched entry point (the plain
    /// matrix path and the residual+norm fusion shape) out of the row loop.
    fn site_decisions(&self, layer_index: usize, cols: usize) -> SiteDecisions {
        let calibration_fallback = self
            .plan
            .as_ref()
            .map_or(0.0, |plan| plan.calibration_anchor_log_isd);
        SiteDecisions {
            skipped: self.is_skipped_site(layer_index),
            is_anchor: self.is_anchor_site(layer_index),
            prefix_len: self.config.n_sub.unwrap_or(cols).max(1).min(cols),
            calibration_fallback,
            fallback_anchor_log: self.anchors.anchor_log_isd.unwrap_or(calibration_fallback),
        }
    }

    /// Fills `predicted` with one predicted ISD per row of a skipped site (the
    /// predictor is policy, not execution — backends see plain per-row ISDs).
    fn fill_predicted(
        &self,
        predicted: &mut Vec<f32>,
        rows: usize,
        layer_index: usize,
        calibration_fallback: f64,
    ) {
        let plan = self.plan.as_ref();
        predicted.extend(
            self.anchors
                .row_log_iter(rows, calibration_fallback)
                .map(|anchor_log| {
                    let predicted_log = plan
                        .map(|plan| {
                            plan.predictor()
                                .predict_log_isd(anchor_log, layer_index)
                                .unwrap_or(anchor_log)
                        })
                        .unwrap_or(anchor_log);
                    predicted_log.exp() as f32
                }),
        );
    }

    /// Runs one batched site on the [picked backend](Self::backend). Shared by both
    /// batched entry points, which differ only in the backend method `dispatch`
    /// calls: it hoists the per-site decisions, fills the predicted ISDs of a
    /// skipped site, builds the [`BatchRequest`] over `input`, hands it to
    /// `dispatch` with the anchor-ISD output and the scratch buffer, then accounts
    /// the site. Returns `false`, having done nothing, for an empty input.
    fn run_batched_site(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        dispatch: impl FnOnce(&dyn NormBackend, &BatchRequest<'_>, Option<&mut [f32]>, &mut Vec<f32>),
    ) -> bool {
        let (rows, cols) = input.shape();
        if rows == 0 || cols == 0 {
            return false;
        }
        assert_eq!(gamma.len(), cols, "batched site gamma length mismatch");
        assert_eq!(beta.len(), cols, "batched site beta length mismatch");
        let decisions = self.site_decisions(site.layer_index, cols);

        // Skipped sites: the predictor is policy, not execution, so it runs here and
        // backends see plain per-row ISDs (consumed from the per-row anchors when the
        // anchor site has been seen with this row count, the last-row fallback
        // otherwise). The member buffers keep the hot path allocation-free.
        let mut predicted = std::mem::take(&mut self.predicted_scratch);
        predicted.clear();
        if decisions.skipped {
            self.fill_predicted(
                &mut predicted,
                rows,
                site.layer_index,
                decisions.calibration_fallback,
            );
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        // Per-row ISDs come back from the backend only at the anchor site.
        let mut isds = if decisions.is_anchor {
            vec![decisions.fallback_anchor_log.exp() as f32; rows]
        } else {
            Vec::new()
        };

        let request = BatchRequest {
            data: input.as_slice(),
            cols,
            gamma,
            beta,
            mode: site.kind.row_mode(),
            eps: DEFAULT_EPS,
            prefix_len: decisions.prefix_len,
            quantization: &self.quantization,
            newton_iterations: self.config.invsqrt_newton_iterations,
            predicted_isd: decisions.skipped.then_some(predicted.as_slice()),
        };
        dispatch(
            self.backend(),
            &request,
            decisions.is_anchor.then_some(isds.as_mut_slice()),
            &mut scratch,
        );
        self.scratch = scratch;
        self.predicted_scratch = predicted;

        self.finish_batched_site(site, &decisions, rows, cols, &isds);
        true
    }

    /// Post-dispatch bookkeeping shared by every batched entry point: telemetry
    /// (fully determined by the request shape, identical for fused and composed
    /// execution) and skip-anchor adoption.
    fn finish_batched_site(
        &mut self,
        site: NormSite,
        decisions: &SiteDecisions,
        rows: usize,
        cols: usize,
        isds: &[f32],
    ) {
        // Skipped RMSNorm sites read nothing (no mean is needed); every other site
        // reads the subsampled prefix of every row.
        let stats_rows = if decisions.skipped && site.kind == NormKind::RmsNorm {
            0
        } else {
            rows as u64
        };
        self.telemetry.calls += rows as u64;
        self.telemetry.elements_total += (rows * cols) as u64;
        self.telemetry.elements_read += stats_rows * decisions.prefix_len as u64;
        if decisions.prefix_len < cols {
            self.telemetry.subsampled += stats_rows;
        }
        if decisions.skipped {
            self.telemetry.skipped_isd += rows as u64;
        }
        self.note_site_decision(site.layer_index, decisions.skipped, rows as u64);

        if decisions.is_anchor {
            // Both tiers: the last row as the fallback, and the per-row observations.
            self.anchors.anchor_log_isd = isds.last().map(|&isd| f64::from(isd).ln());
            self.anchors.row_anchors.clear();
            self.anchors
                .row_anchors
                .extend(isds.iter().map(|&isd| f64::from(isd).ln()));
        }
    }
}

/// Per-site decisions of one batched entry point, hoisted once per call (see
/// [`HaanNormalizer::site_decisions`]).
struct SiteDecisions {
    skipped: bool,
    is_anchor: bool,
    prefix_len: usize,
    calibration_fallback: f64,
    fallback_anchor_log: f64,
}

impl Normalizer for HaanNormalizer {
    /// One row through the batched site: the same backend, telemetry and anchor
    /// bookkeeping as a one-row [`Normalizer::normalize_matrix_into`] call.
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        if z.is_empty() {
            return Vec::new();
        }
        let input = Matrix::from_vec(1, z.len(), z.to_vec()).expect("one row of z.len() columns");
        self.normalize_matrix(site, &input, gamma, beta)
            .row(0)
            .to_vec()
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.shape(),
            out.shape(),
            "normalize_matrix_into shape mismatch"
        );
        self.run_batched_site(
            site,
            input,
            gamma,
            beta,
            |backend, request, isds, scratch| {
                backend.normalize_batch(request, out.as_mut_slice(), isds, scratch);
            },
        );
    }

    fn normalize_residual_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        residual: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        sum_out: &mut Matrix,
        out: &mut Matrix,
    ) {
        for other in [residual.shape(), sum_out.shape(), out.shape()] {
            assert_eq!(
                input.shape(),
                other,
                "normalize_residual_into shape mismatch"
            );
        }
        let ran = self.run_batched_site(
            site,
            input,
            gamma,
            beta,
            |backend, request, isds, scratch| {
                backend.fuse_residual_norm(
                    &ResidualNormRequest::new(*request, residual.as_slice()),
                    sum_out.as_mut_slice(),
                    out.as_mut_slice(),
                    isds,
                    scratch,
                );
            },
        );
        if let (true, Some(obs)) = (ran, &self.obs) {
            let names = SiteMetrics::of(&mut self.site_rows, site.layer_index);
            obs.counter_add(&names.fused_residual, input.rows() as u64);
        }
    }

    fn begin_sequence(&mut self) {
        self.anchors.clear();
    }

    fn description(&self) -> String {
        let skip = match &self.plan {
            Some(plan) => format!("skip ({}, {})", plan.start, plan.end),
            None => "no skipping".to_string(),
        };
        let sub = match self.config.n_sub {
            Some(n) => format!("Nsub = {n}"),
            None => "full input".to_string(),
        };
        format!(
            "HAAN normalizer [{}; {}; {}; {}; {} backend]",
            self.config.label,
            skip,
            sub,
            self.config.format,
            self.backend().name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HaanConfig;
    use haan_llm::norm::ReferenceNormalizer;
    use haan_llm::{ModelConfig, TransformerModel};
    use haan_numerics::Format;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian(len: usize, seed: u64, std: f32) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
            .collect()
    }

    fn site(layer_index: usize, kind: NormKind) -> NormSite {
        NormSite { layer_index, kind }
    }

    #[test]
    fn without_optimizations_matches_reference_closely() {
        let config = HaanConfig::unoptimized();
        let mut haan = HaanNormalizer::new(config);
        let mut reference = ReferenceNormalizer::new();
        let z = gaussian(256, 1, 2.0);
        let gamma = vec![1.0f32; 256];
        let beta = vec![0.0f32; 256];
        let a = haan.normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
        let b = reference.normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        assert_eq!(haan.telemetry().skipped_isd, 0);
        assert_eq!(haan.telemetry().read_fraction(), 1.0);
    }

    #[test]
    fn subsampling_reads_only_the_prefix() {
        let config = HaanConfig::builder().subsample(64).build();
        let mut haan = HaanNormalizer::new(config);
        let z = gaussian(512, 2, 1.0);
        let gamma = vec![1.0f32; 512];
        let beta = vec![0.0f32; 512];
        let out = haan.normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
        assert_eq!(out.len(), 512);
        let telemetry = haan.telemetry();
        assert_eq!(telemetry.subsampled, 1);
        assert_eq!(telemetry.elements_read, 64);
        assert_eq!(telemetry.elements_total, 512);
        assert!((telemetry.read_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn skipping_predicts_inside_the_range_only() {
        let plan = SkipPlan {
            start: 2,
            end: 5,
            decay: -0.1,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let config = HaanConfig::builder().subsample(64).build();
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        haan.begin_sequence();
        let gamma = vec![1.0f32; 128];
        let beta = vec![0.0f32; 128];
        for layer in 0..8 {
            let z = gaussian(128, 10 + layer as u64, 1.0 + layer as f32 * 0.2);
            let _ = haan.normalize(site(layer, NormKind::LayerNorm), &z, &gamma, &beta);
        }
        let telemetry = haan.telemetry();
        assert_eq!(telemetry.calls, 8);
        // Layers 3, 4, 5 are inside the skip range (2 is the anchor and still computes).
        assert_eq!(telemetry.skipped_isd, 3);
        assert!(haan.plan().is_some());
    }

    #[test]
    fn obs_sink_sees_per_site_skip_counters_and_rates() {
        let plan = SkipPlan {
            start: 2,
            end: 5,
            decay: -0.1,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let config = HaanConfig::builder().subsample(64).build();
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        let obs = haan_obs::Obs::shared(16);
        haan.set_obs_sink(Some(obs.clone() as Arc<dyn haan_obs::ObsSink>));
        haan.begin_sequence();
        let gamma = vec![1.0f32; 128];
        let beta = vec![0.0f32; 128];
        // Per-token calls: one row per call per layer.
        for layer in 0..8 {
            let z = gaussian(128, 10 + layer as u64, 1.0);
            let _ = haan.normalize(site(layer, NormKind::LayerNorm), &z, &gamma, &beta);
        }
        // Batched calls: 4 rows at an exact site and at a skipped site.
        let data: Vec<f32> = (0..4).flat_map(|r| gaussian(128, 90 + r, 1.0)).collect();
        let input = haan_llm::Matrix::from_vec(4, 128, data).unwrap();
        let mut out = haan_llm::Matrix::zeros(4, 128);
        haan.normalize_matrix_into(
            site(2, NormKind::LayerNorm),
            &input,
            &gamma,
            &beta,
            &mut out,
        );
        haan.normalize_matrix_into(
            site(3, NormKind::LayerNorm),
            &input,
            &gamma,
            &beta,
            &mut out,
        );
        let snap = obs.export();
        // Site 2 is the anchor (exact): 1 per-token row + 4 batched rows.
        assert_eq!(snap.counter("haan.exact.site_2"), Some(5));
        assert_eq!(snap.gauge("haan.skip_rate.site_2"), Some(0.0));
        // Site 3 is skipped: 1 per-token row + 4 batched rows, all predicted.
        assert_eq!(snap.counter("haan.skip.site_3"), Some(5));
        assert_eq!(snap.gauge("haan.skip_rate.site_3"), Some(1.0));
        // Sites outside the plan never skip.
        assert_eq!(snap.counter("haan.skip.site_0"), None);
        assert_eq!(snap.counter("haan.exact.site_0"), Some(1));
    }

    #[test]
    fn predicted_isd_tracks_the_log_linear_model() {
        // Construct inputs whose true ISD follows exp(-0.2 * layer) exactly, calibrate a
        // plan with that decay, and check the skipped layers land close to the truth.
        let decay = -0.2f64;
        let plan = SkipPlan {
            start: 1,
            end: 4,
            decay,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let config = HaanConfig::builder().build();
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        haan.begin_sequence();
        let gamma = vec![1.0f32; 256];
        let beta = vec![0.0f32; 256];
        let base = gaussian(256, 77, 1.0);
        let mut max_err = 0.0f64;
        for layer in 0..5 {
            // σ_layer = exp(0.2·layer) ⇒ ISD = exp(-0.2·layer).
            let sigma = (0.2 * layer as f64).exp() as f32;
            let z: Vec<f32> = base.iter().map(|v| v * sigma).collect();
            let out = haan.normalize(site(layer, NormKind::LayerNorm), &z, &gamma, &beta);
            // Reconstruct the ISD the normalizer used from the output magnitude.
            let reference = ReferenceNormalizer::new().normalize(
                site(layer, NormKind::LayerNorm),
                &z,
                &gamma,
                &beta,
            );
            let used_over_true = out
                .iter()
                .zip(&reference)
                .filter(|(_, r)| r.abs() > 0.1)
                .map(|(o, r)| f64::from(o / r))
                .sum::<f64>()
                / reference.iter().filter(|r| r.abs() > 0.1).count() as f64;
            if layer > 1 {
                max_err = max_err.max((used_over_true - 1.0).abs());
            }
        }
        assert!(max_err < 0.05, "predicted ISD deviates by {max_err}");
    }

    #[test]
    fn begin_sequence_resets_the_anchor() {
        let plan = SkipPlan {
            start: 0,
            end: 2,
            decay: 0.0,
            correlation: -1.0,
            calibration_anchor_log_isd: (0.25f64).ln(),
        };
        let config = HaanConfig::builder().build();
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        // Observe an anchor with ISD ≈ 1.
        haan.begin_sequence();
        let z = gaussian(64, 5, 1.0);
        let _ = haan.normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
        assert!(haan.anchors.anchor_log_isd.is_some());
        // A new sequence forgets it and falls back to the calibration anchor.
        haan.begin_sequence();
        assert!(haan.anchors.anchor_log_isd.is_none());
        let out = haan.normalize(site(1, NormKind::LayerNorm), &z, &gamma, &beta);
        // With the calibration anchor ISD of 0.25, outputs are about a quarter of the
        // unit-ISD normalization.
        let reference =
            ReferenceNormalizer::new().normalize(site(1, NormKind::LayerNorm), &z, &gamma, &beta);
        let ratio: f32 = out
            .iter()
            .zip(&reference)
            .filter(|(_, r)| r.abs() > 0.1)
            .map(|(o, r)| o / r)
            .sum::<f32>()
            / reference.iter().filter(|r| r.abs() > 0.1).count() as f32;
        assert!((ratio - 0.25).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn fixed_range_without_plan_uses_zero_decay() {
        let config = HaanConfig::builder().skip_range(1, 3).build();
        let haan = HaanNormalizer::new(config);
        let plan = haan.plan().unwrap();
        assert_eq!((plan.start, plan.end), (1, 3));
        assert_eq!(plan.decay, 0.0);
        let stripped = haan.without_plan();
        assert!(stripped.plan().is_none());
    }

    #[test]
    fn rmsnorm_tracks_inverse_rms() {
        let config = HaanConfig::builder().build();
        let mut haan = HaanNormalizer::new(config);
        let z = vec![3.0f32; 128]; // constant vector: σ = 0 but RMS = 3
        let gamma = vec![1.0f32; 128];
        let beta = vec![0.0f32; 128];
        let out = haan.normalize(site(0, NormKind::RmsNorm), &z, &gamma, &beta);
        for v in out {
            assert!((v - 1.0).abs() < 1e-2, "{v}");
        }
    }

    #[test]
    fn quantized_statistics_change_little_for_well_scaled_inputs() {
        let z = gaussian(1024, 9, 1.5);
        let gamma = vec![1.0f32; 1024];
        let beta = vec![0.0f32; 1024];
        let exact =
            ReferenceNormalizer::new().normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
        for format in [Format::Int8, Format::Fp16, Format::Fp32] {
            let config = HaanConfig::builder().format(format).build();
            let mut haan = HaanNormalizer::new(config);
            let out = haan.normalize(site(0, NormKind::LayerNorm), &z, &gamma, &beta);
            let max_err = out
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_err < 0.05, "{format}: max error {max_err}");
        }
    }

    #[test]
    fn end_to_end_model_accuracy_is_preserved_by_haan() {
        // The headline claim of Table I at laptop scale: replacing exact statistics with
        // HAAN statistics barely changes the model outputs.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 3).unwrap();
        let tokens = [1u32, 9, 17, 25, 33];
        let exact = model
            .logits(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        let config = HaanConfig::builder()
            .subsample(24)
            .format(Format::Fp16)
            .build();
        let mut haan = HaanNormalizer::new(config);
        let approx = model.logits(&tokens, &mut haan).unwrap();
        // Compare the argmax next-token prediction of the final position.
        let last = tokens.len() - 1;
        let argmax = |m: &haan_llm::Matrix| {
            m.row(last)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_eq!(argmax(&exact), argmax(&approx));
        assert!(haan.telemetry().calls > 0);
        assert!(haan.description().contains("HAAN"));
    }

    fn gaussian_matrix(rows: usize, cols: usize, seed: u64, std: f32) -> Matrix {
        let data: Vec<f32> = (0..rows)
            .flat_map(|r| gaussian(cols, seed + r as u64 * 101, std))
            .collect();
        haan_llm::Matrix::from_vec(rows, cols, data).expect("consistent shape")
    }

    #[test]
    fn batched_path_matches_scalar_path() {
        // One token at a time through every layer is one N-row call per layer, bit
        // for bit: the per-token path is a one-row batched site, and each token's
        // anchor-site call re-anchors the skipped layers that follow it.
        let plan = SkipPlan {
            start: 1,
            end: 4,
            decay: -0.1,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let kind = |layer: usize| {
            if layer.is_multiple_of(2) {
                NormKind::LayerNorm
            } else {
                NormKind::RmsNorm
            }
        };
        let inputs: Vec<Matrix> = (0..6)
            .map(|layer| gaussian_matrix(5, 96, 31 + layer as u64, 1.0 + 0.3 * layer as f32))
            .collect();
        let gamma = vec![1.2f32; 96];
        let beta = vec![0.1f32; 96];
        for backend in [BackendSelection::Fused, BackendSelection::Scalar] {
            for format in [Format::Fp32, Format::Fp16, Format::Int8] {
                let config = HaanConfig::builder()
                    .subsample(48)
                    .format(format)
                    .backend(backend)
                    .build();
                let mut per_token = HaanNormalizer::new(config.clone()).with_plan(plan);
                let mut batched = HaanNormalizer::new(config).with_plan(plan);
                batched.begin_sequence();
                let outs: Vec<Matrix> = inputs
                    .iter()
                    .enumerate()
                    .map(|(layer, input)| {
                        batched.normalize_matrix(site(layer, kind(layer)), input, &gamma, &beta)
                    })
                    .collect();
                per_token.begin_sequence();
                for row in 0..5 {
                    for (layer, input) in inputs.iter().enumerate() {
                        let out = per_token.normalize(
                            site(layer, kind(layer)),
                            input.row(row),
                            &gamma,
                            &beta,
                        );
                        assert_eq!(
                            out.as_slice(),
                            outs[layer].row(row),
                            "{backend:?} {format}: layer {layer} row {row}"
                        );
                    }
                }
                assert_eq!(
                    per_token.telemetry(),
                    batched.telemetry(),
                    "{backend:?} {format}"
                );
                assert_eq!(per_token.telemetry().skipped_isd, 3 * 5);
            }
        }
    }

    #[test]
    fn per_token_anchor_call_replaces_the_per_row_anchors() {
        // A per-token call at the anchor site is the latest anchor observation: a
        // later batched skipped site of another row count must predict from it, not
        // from the per-row anchors of an earlier batched call.
        let plan = SkipPlan {
            start: 0,
            end: 2,
            decay: 0.0, // predicted ISD = anchor ISD
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let mut haan = HaanNormalizer::new(HaanConfig::builder().build()).with_plan(plan);
        haan.begin_sequence();
        // Two rows with identical statistics (one is the other reversed).
        let base = gaussian(64, 5, 1.0);
        let mut data = base.clone();
        data.extend(base.iter().rev());
        let input = Matrix::from_vec(2, 64, data).unwrap();
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        let anchored = haan.normalize_matrix(site(0, NormKind::LayerNorm), &input, &gamma, &beta);
        let scaled: Vec<f32> = base.iter().map(|v| v * 8.0).collect();
        let _ = haan.normalize(site(0, NormKind::LayerNorm), &scaled, &gamma, &beta);
        let skipped = haan.normalize_matrix(site(1, NormKind::LayerNorm), &input, &gamma, &beta);
        for row in 0..2 {
            for (a, s) in anchored.row(row).iter().zip(skipped.row(row)) {
                if a.abs() > 0.1 {
                    assert!((s / a - 0.125).abs() < 1e-3, "row {row}: {s} vs {a}");
                }
            }
        }
    }

    /// The ISD a normalizer with `config` tracks for `z` at an anchor site.
    fn anchor_isd(config: HaanConfig, z: &[f32]) -> f64 {
        let plan = SkipPlan {
            start: 0,
            end: 1,
            decay: 0.0,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        let (gamma, beta) = (vec![1.0f32; z.len()], vec![0.0f32; z.len()]);
        let _ = haan.normalize(site(0, NormKind::LayerNorm), z, &gamma, &beta);
        haan.anchor_state()
            .scalar_log_isd()
            .expect("layer 0 is the anchor site")
            .exp()
    }

    /// Relative error of the tracked anchor ISD against the exact full-row ISD.
    fn isd_relative_error(config: HaanConfig, z: &[f32]) -> f64 {
        let exact = f64::from(haan_numerics::stats::VectorStats::compute(z).isd(DEFAULT_EPS));
        (anchor_isd(config, z) - exact).abs() / exact
    }

    /// Exact FP32 statistics of the first `n_sub` elements: subsampling only.
    fn subsample_only(n_sub: usize) -> HaanConfig {
        HaanConfig::builder()
            .subsample(n_sub)
            .format(Format::Fp32)
            .invsqrt_iterations(None)
            .build()
    }

    #[test]
    fn statistics_read_only_the_prefix() {
        // Elements past Nsub never reach the statistics path, in any format.
        let z = gaussian(128, 4, 1.0);
        let mut tail_changed = z.clone();
        for v in tail_changed.iter_mut().skip(64) {
            *v = 1000.0;
        }
        for format in [Format::Fp32, Format::Fp16, Format::Int8] {
            let config = HaanConfig::builder().subsample(64).format(format).build();
            assert_eq!(
                anchor_isd(config.clone(), &z).to_bits(),
                anchor_isd(config, &tail_changed).to_bits(),
                "{format}"
            );
        }
    }

    #[test]
    fn longer_subsamples_are_more_accurate_on_average() {
        let (mut err_small, mut err_large) = (0.0, 0.0);
        for seed in 0..20 {
            let z = gaussian(4096, seed, 1.0);
            err_small += isd_relative_error(subsample_only(64), &z);
            err_large += isd_relative_error(subsample_only(1024), &z);
        }
        assert!(
            err_large < err_small,
            "large {err_large} vs small {err_small}"
        );
    }

    #[test]
    fn paper_subsample_lengths_keep_error_small() {
        // The LLaMA-7B preset (Nsub = 256 of 4096, INT8 operands, one Newton step)
        // keeps the ISD error in the few-percent range for Gaussian-like activations.
        let mut worst: f64 = 0.0;
        for seed in 0..10 {
            let z = gaussian(4096, 100 + seed, 1.0);
            worst = worst.max(isd_relative_error(HaanConfig::llama_7b_paper(), &z));
        }
        assert!(worst < 0.2, "worst-case relative error {worst}");
    }

    #[test]
    fn subsample_length_clamps_to_the_row() {
        // An Nsub longer than the row reads the whole row, exactly like no Nsub.
        let z = gaussian(256, 8, 1.5);
        assert_eq!(
            anchor_isd(subsample_only(10_000), &z).to_bits(),
            anchor_isd(HaanConfig::unoptimized(), &z).to_bits()
        );
        let mut haan = HaanNormalizer::new(subsample_only(10_000));
        let _ = haan.normalize(site(0, NormKind::LayerNorm), &z, &[1.0; 256], &[0.0; 256]);
        assert_eq!(haan.telemetry().subsampled, 0);
        assert_eq!(haan.telemetry().read_fraction(), 1.0);
        // A zero Nsub is a configuration error.
        assert!(subsample_only(0).validate(1).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_anchor_isd_is_finite_and_positive(
            z in proptest::collection::vec(-100.0f32..100.0, 4..512),
            n_sub in 1usize..600,
        ) {
            let isd = anchor_isd(HaanConfig::builder().subsample(n_sub).build(), &z);
            proptest::prop_assert!(isd.is_finite() && isd > 0.0);
        }
    }

    #[test]
    fn batched_skipping_uses_per_row_anchors() {
        // Two rows with very different scales: with per-row anchors each skipped row
        // must be normalized with its own anchor's ISD, not the other row's.
        let plan = SkipPlan {
            start: 0,
            end: 2,
            decay: 0.0, // predicted ISD = anchor ISD
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let config = HaanConfig::builder().build();
        let mut haan = HaanNormalizer::new(config).with_plan(plan);
        haan.begin_sequence();
        let base = gaussian(64, 5, 1.0);
        let scaled: Vec<f32> = base.iter().map(|v| v * 8.0).collect();
        let mut data = base.clone();
        data.extend_from_slice(&scaled);
        let input = haan_llm::Matrix::from_vec(2, 64, data).unwrap();
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        // Anchor at layer 0, prediction at layer 1 (same decay): outputs of both rows
        // should match the anchor-layer outputs almost exactly, row by row.
        let anchored = haan.normalize_matrix(site(0, NormKind::LayerNorm), &input, &gamma, &beta);
        let skipped = haan.normalize_matrix(site(1, NormKind::LayerNorm), &input, &gamma, &beta);
        assert_eq!(haan.telemetry().skipped_isd, 2);
        for row in 0..2 {
            for (a, b) in anchored.row(row).iter().zip(skipped.row(row)) {
                assert!((a - b).abs() < 1e-4, "row {row}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_model_forward_matches_expectations() {
        // The full model driven through the batched API counts every row of every
        // site and reads only the subsampled prefix.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 3).unwrap();
        let tokens = [4u32, 8, 15, 16, 23, 42];
        let config = HaanConfig::builder()
            .subsample(24)
            .format(Format::Fp16)
            .build();
        let mut haan = HaanNormalizer::new(config);
        let batched = model.logits(&tokens, &mut haan).unwrap();
        assert_eq!(batched.shape(), (6, 64));
        assert!(haan.telemetry().calls >= 6 * 9);
        assert!(haan.telemetry().read_fraction() < 1.0);
    }

    #[test]
    fn site_role_queries_match_the_plan() {
        let plan = SkipPlan {
            start: 2,
            end: 5,
            decay: -0.1,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let haan = HaanNormalizer::new(HaanConfig::builder().build()).with_plan(plan);
        // Layer 2 is the anchor (computes and records); 3..=5 are skipped.
        assert!(haan.is_anchor_site(2));
        assert!(!haan.is_skipped_site(2));
        for layer in 3..=5 {
            assert!(haan.is_skipped_site(layer), "layer {layer}");
            assert!(!haan.is_anchor_site(layer), "layer {layer}");
        }
        assert!(!haan.is_skipped_site(0));
        assert!(!haan.is_anchor_site(0));
        // No plan: every site is a plain computed site.
        let plain = HaanNormalizer::new(HaanConfig::default());
        assert!(!plain.is_skipped_site(2));
        assert!(!plain.is_anchor_site(2));
    }

    #[test]
    fn telemetry_reset_and_empty_input() {
        let mut haan = HaanNormalizer::new(HaanConfig::default());
        assert_eq!(haan.telemetry(), NormalizerTelemetry::default());
        let out = haan.normalize(site(0, NormKind::LayerNorm), &[], &[], &[]);
        assert!(out.is_empty());
        let z = gaussian(32, 3, 1.0);
        let _ = haan.normalize(site(0, NormKind::LayerNorm), &z, &[1.0; 32], &[0.0; 32]);
        assert_eq!(haan.telemetry().calls, 1);
        haan.reset_telemetry();
        assert_eq!(haan.telemetry().calls, 0);
        assert_eq!(NormalizerTelemetry::default().skip_fraction(), 0.0);
        assert_eq!(NormalizerTelemetry::default().read_fraction(), 0.0);
    }
}
