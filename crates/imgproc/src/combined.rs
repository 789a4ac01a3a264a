//! The combined CNN + image-processing application (§7.6, Figure 7).
//!
//! An AlexNet2 classifier routes images: those predicted to belong to one
//! of five "edge" classes are forwarded to the Canny pipeline. The QoS is
//! the *pair* (classification accuracy, PSNR of the edge maps) — the
//! application is tuned against a grid of joint thresholds.

use crate::canny::{build_canny_graph, canny_reference};
use at_core::config::Config;
use at_core::knobs::{KnobId, KnobRegistry, KnobSet};
use at_core::qos;
use at_ir::{execute, ApproxChoice, ExecOptions, Graph};
use at_models::{build, Benchmark, BenchmarkId, ModelScale};
use at_tensor::{Shape, Tensor, TensorError};

/// Hysteresis thresholds used by the reference pipeline.
const HYST_LO: f32 = 0.4;
const HYST_HI: f32 = 1.2;

/// The combined application.
pub struct CombinedApp {
    /// The CNN front half (AlexNet2 on CIFAR-10-like data).
    pub cnn: Benchmark,
    /// The Canny back half.
    pub canny: Graph,
    /// Knob registry shared by both halves.
    pub registry: KnobRegistry,
    /// Classes whose images are forwarded to edge detection (5 of 10).
    pub edge_classes: Vec<usize>,
    /// Image height/width the Canny graph was built for.
    pub image_hw: (usize, usize),
}

/// Pre-computed golden data for QoS measurement.
pub struct CombinedGolden {
    /// Baseline CNN predictions per batch.
    pub base_predictions: Vec<Vec<usize>>,
    /// Indices (batch, row) of images the baseline forwards to Canny.
    pub forwarded: Vec<(usize, usize)>,
    /// Golden edge maps, aligned with `forwarded`.
    pub edge_maps: Vec<Tensor>,
}

fn predictions(out: &Tensor) -> Result<Vec<usize>, TensorError> {
    let (rows, classes) = out.shape().as_mat()?;
    Ok((0..rows)
        .map(|r| qos::argmax(&out.data()[r * classes..(r + 1) * classes]))
        .collect())
}

impl CombinedApp {
    /// Builds the combined application at the given model scale. Fails with
    /// a typed error when the CNN input is not NCHW or the Canny graph
    /// cannot be constructed.
    pub fn new(scale: ModelScale) -> Result<CombinedApp, TensorError> {
        let cnn = build(BenchmarkId::AlexNet2, scale);
        let (_, _, h, w) = cnn.input_shape.as_nchw()?;
        Ok(CombinedApp {
            cnn,
            canny: build_canny_graph(h, w)?,
            registry: KnobRegistry::new(),
            edge_classes: vec![0, 1, 2, 3, 4],
            image_hw: (h, w),
        })
    }

    /// Total nodes across both graphs — the dimension of a combined
    /// configuration (CNN nodes first, then Canny nodes).
    pub fn total_nodes(&self) -> usize {
        self.cnn.graph.len() + self.canny.len()
    }

    /// Per-node knob lists for the combined configuration space.
    pub fn node_knobs(&self, set: KnobSet) -> Vec<Vec<KnobId>> {
        let mut nk = self.registry.node_knobs(&self.cnn.graph, set);
        nk.extend(self.registry.node_knobs(&self.canny, set));
        nk
    }

    /// Splits a combined configuration into (CNN, Canny) halves. Fails when
    /// the configuration does not cover both graphs (instead of panicking
    /// on the slice).
    pub(crate) fn split_config(
        &self,
        config: &Config,
    ) -> Result<(Vec<ApproxChoice>, Vec<ApproxChoice>), TensorError> {
        let n = self.cnn.graph.len();
        let total = self.total_nodes();
        if config.knobs().len() < total {
            return Err(TensorError::ShapeMismatch {
                op: "split_config",
                detail: format!(
                    "combined config has {} knobs, application has {total} nodes",
                    config.knobs().len()
                ),
            });
        }
        let cnn_cfg = Config::from_knobs(config.knobs()[..n].to_vec());
        let canny_cfg = Config::from_knobs(config.knobs()[n..].to_vec());
        Ok((
            cnn_cfg.decode(&self.registry, &self.cnn.graph),
            canny_cfg.decode(&self.registry, &self.canny),
        ))
    }

    /// Extracts image `row` of an NCHW batch as a grayscale `[1,1,H,W]`
    /// tensor (channel mean).
    fn grayscale(&self, batch: &Tensor, row: usize) -> Result<Tensor, TensorError> {
        let (rows, c, h, w) = batch.shape().as_nchw()?;
        if row >= rows {
            return Err(TensorError::ShapeMismatch {
                op: "grayscale",
                detail: format!("row {row} out of range for batch of {rows}"),
            });
        }
        let mut data = vec![0.0f32; h * w];
        for ch in 0..c {
            let plane = &batch.data()[(row * c + ch) * h * w..(row * c + ch + 1) * h * w];
            for (d, p) in data.iter_mut().zip(plane) {
                *d += p;
            }
        }
        for v in &mut data {
            *v /= c as f32;
        }
        Tensor::from_vec(Shape::nchw(1, 1, h, w), data)
    }

    /// Chooses the five forwarded classes as the most frequently predicted
    /// classes of the baseline on the given data. (The paper forwards five
    /// fixed CIFAR-10 classes; with synthetic models the prediction mass is
    /// not uniform across class ids, so the routed half is picked by
    /// frequency to keep the routed fraction comparable.)
    pub fn calibrate_routing(&mut self, batches: &[Tensor]) -> Result<(), TensorError> {
        let mut freq = vec![0usize; self.cnn.classes];
        for batch in batches {
            let out = execute(&self.cnn.graph, batch, &ExecOptions::baseline())?;
            for p in predictions(&out)? {
                if let Some(slot) = freq.get_mut(p) {
                    *slot += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..self.cnn.classes).collect();
        order.sort_by_key(|&c| std::cmp::Reverse(freq[c]));
        self.edge_classes = order[..(self.cnn.classes / 2).max(1)].to_vec();
        Ok(())
    }

    /// Computes the golden data: baseline predictions, the forwarded image
    /// set and exact edge maps.
    pub fn golden(&self, batches: &[Tensor]) -> Result<CombinedGolden, TensorError> {
        let mut base_predictions = Vec::new();
        let mut forwarded = Vec::new();
        let mut edge_maps = Vec::new();
        for (bi, batch) in batches.iter().enumerate() {
            let out = execute(&self.cnn.graph, batch, &ExecOptions::baseline())?;
            let preds = predictions(&out)?;
            for (row, &p) in preds.iter().enumerate() {
                if self.edge_classes.contains(&p) {
                    let gray = self.grayscale(batch, row)?;
                    let edges = canny_reference(
                        &self.canny,
                        &gray,
                        &ExecOptions::baseline(),
                        HYST_LO,
                        HYST_HI,
                    )?;
                    forwarded.push((bi, row));
                    edge_maps.push(edges);
                }
            }
            base_predictions.push(preds);
        }
        Ok(CombinedGolden {
            base_predictions,
            forwarded,
            edge_maps,
        })
    }

    /// Measures the joint QoS `(accuracy %, PSNR dB)` of a combined
    /// configuration.
    ///
    /// Accuracy is computed against `labels`. PSNR is computed over the
    /// *golden* forwarded set: when the approximated CNN fails to forward
    /// an image the baseline forwarded, a zero edge map is charged —
    /// coupling routing errors into image quality, as in the real
    /// application.
    pub fn measure(
        &self,
        config: &Config,
        batches: &[Tensor],
        labels: &[Vec<usize>],
        golden: &CombinedGolden,
        promise_seed: u64,
    ) -> Result<(f64, f64), TensorError> {
        let (cnn_choices, canny_choices) = self.split_config(config)?;
        let cnn_opts = ExecOptions {
            config: cnn_choices,
            promise_seed,
        };
        let canny_opts = ExecOptions {
            config: canny_choices,
            promise_seed,
        };

        // CNN half: outputs + predictions.
        let mut outs = Vec::with_capacity(batches.len());
        for b in batches {
            outs.push(execute(&self.cnn.graph, b, &cnn_opts)?);
        }
        let acc = qos::accuracy(&outs, labels);

        // Image half: edge maps for the golden forwarded set.
        let preds: Vec<Vec<usize>> = outs
            .iter()
            .map(predictions)
            .collect::<Result<Vec<_>, _>>()?;
        let mut mse_sum = 0.0f64;
        let mut count = 0usize;
        for (gi, &(bi, row)) in golden.forwarded.iter().enumerate() {
            let golden_map = &golden.edge_maps[gi];
            let still_forwarded = self.edge_classes.contains(&preds[bi][row]);
            let m = if still_forwarded {
                let gray = self.grayscale(&batches[bi], row)?;
                let edges = canny_reference(&self.canny, &gray, &canny_opts, HYST_LO, HYST_HI)?;
                edges.mse(golden_map)?
            } else {
                // Routing miss: charge a blank edge map.
                Tensor::zeros(golden_map.shape()).mse(golden_map)?
            };
            mse_sum += m;
            count += 1;
        }
        let psnr = if count == 0 {
            qos::psnr_from_mse(0.0)
        } else {
            qos::psnr_from_mse(mse_sum / count as f64)
        };
        Ok((acc, psnr))
    }

    /// Scalar QoS margin for the tuner under a `(accuracy, PSNR)` threshold
    /// pair: the minimum of the two constraint margins (non-negative iff
    /// both constraints hold). Accuracy is in percentage points, PSNR in
    /// dB — comparable magnitudes, as in the paper's grid.
    pub fn margin(acc: f64, psnr: f64, acc_min: f64, psnr_min: f64) -> f64 {
        (acc - acc_min).min(psnr - psnr_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use at_models::data::build_dataset;

    fn app_and_data() -> (CombinedApp, Vec<Tensor>, Vec<Vec<usize>>) {
        let mut app = CombinedApp::new(ModelScale::Tiny).unwrap();
        let ds = build_dataset(&app.cnn, 24, 12, 3);
        app.calibrate_routing(&ds.batches).unwrap();
        (app, ds.batches, ds.labels)
    }

    #[test]
    fn golden_forwards_subset() {
        let (app, batches, _) = app_and_data();
        let golden = app.golden(&batches).unwrap();
        let total: usize = 24;
        assert!(golden.forwarded.len() <= total);
        assert!(
            !golden.forwarded.is_empty(),
            "with 5 of 10 classes forwarded, some images should route to Canny"
        );
        assert_eq!(golden.forwarded.len(), golden.edge_maps.len());
    }

    #[test]
    fn baseline_measurement_has_max_psnr() {
        let (app, batches, labels) = app_and_data();
        let golden = app.golden(&batches).unwrap();
        let base = Config::from_knobs(vec![KnobId::BASELINE; app.total_nodes()]);
        let (acc, psnr) = app.measure(&base, &batches, &labels, &golden, 0).unwrap();
        assert!(acc > 50.0, "calibrated accuracy {acc}");
        assert_eq!(psnr, 150.0, "baseline edge maps match golden exactly");
    }

    #[test]
    fn approximation_degrades_psnr() {
        let (app, batches, labels) = app_and_data();
        let golden = app.golden(&batches).unwrap();
        let mut config = Config::from_knobs(vec![KnobId::BASELINE; app.total_nodes()]);
        // Aggressively perforate the Canny blur conv (first canny node is
        // at index cnn.len() + 1; node 0 of canny is Input).
        let canny_conv = app.cnn.graph.len() + 1;
        let perf_knob = app
            .registry
            .table(at_ir::OpClass::Conv)
            .iter()
            .find(|k| k.label.starts_with("perf-25%-row-o0-fp32"))
            .unwrap()
            .id;
        config.set_knob(canny_conv, perf_knob);
        let (acc, psnr) = app.measure(&config, &batches, &labels, &golden, 0).unwrap();
        let base = Config::from_knobs(vec![KnobId::BASELINE; app.total_nodes()]);
        let (bacc, bpsnr) = app.measure(&base, &batches, &labels, &golden, 0).unwrap();
        assert_eq!(acc, bacc, "CNN untouched → accuracy unchanged");
        assert!(psnr < bpsnr, "perforated blur must reduce PSNR");
    }

    #[test]
    fn margin_semantics() {
        assert!(CombinedApp::margin(85.0, 25.0, 84.0, 24.0) > 0.0);
        assert!(CombinedApp::margin(85.0, 23.0, 84.0, 24.0) < 0.0);
        assert!(CombinedApp::margin(83.0, 25.0, 84.0, 24.0) < 0.0);
        assert_eq!(CombinedApp::margin(85.0, 24.0, 84.0, 24.0), 0.0);
    }
}
