//! The ten CNN benchmarks of Table 1, built at configurable scale.
//!
//! Architectures follow the published layer structure; channel widths and
//! (for the ImageNet variants) input resolution are reduced so the pure-CPU
//! tensor substrate can evaluate thousands of autotuning configurations in
//! reasonable time. Layer counts — the quantity Table 1 reports and the
//! dimension of the tuner's search space — match the paper.

use at_ir::{Graph, GraphBuilder};
use at_tensor::Shape;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Identifier of a Table 1 benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BenchmarkId {
    /// AlexNet on CIFAR-10 (6 layers, 79.16%).
    AlexNetCifar10,
    /// AlexNet on ImageNet (8 layers, 55.86%).
    AlexNetImageNet,
    /// AlexNet2 on CIFAR-10 (7 layers, 85.09%).
    AlexNet2,
    /// ResNet-18 on CIFAR-10 (22 layers, 89.44%).
    ResNet18,
    /// ResNet-50 on ImageNet (54 layers, 74.16%).
    ResNet50,
    /// VGG-16 on CIFAR-10 (15 layers, 89.41%).
    Vgg16Cifar10,
    /// VGG-16 on CIFAR-100 (15 layers; baseline accuracy not listed in
    /// Table 1 — we use the HPVM release's 66.2%).
    Vgg16Cifar100,
    /// VGG-16 on ImageNet (15 layers, 72.88%).
    Vgg16ImageNet,
    /// MobileNet on CIFAR-10 (28 layers, 83.69%).
    MobileNet,
    /// LeNet-5 on MNIST (4 layers, 98.70%).
    LeNet,
}

impl BenchmarkId {
    /// All ten benchmarks in the paper's figure order.
    pub const ALL: [BenchmarkId; 10] = [
        BenchmarkId::AlexNetCifar10,
        BenchmarkId::AlexNetImageNet,
        BenchmarkId::AlexNet2,
        BenchmarkId::ResNet18,
        BenchmarkId::ResNet50,
        BenchmarkId::Vgg16Cifar10,
        BenchmarkId::Vgg16Cifar100,
        BenchmarkId::Vgg16ImageNet,
        BenchmarkId::MobileNet,
        BenchmarkId::LeNet,
    ];

    /// Benchmark name as rendered in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::AlexNetCifar10 => "Alexnet",
            BenchmarkId::AlexNetImageNet => "Alexnet_imagenet",
            BenchmarkId::AlexNet2 => "Alexnet2",
            BenchmarkId::ResNet18 => "Resnet18",
            BenchmarkId::ResNet50 => "Resnet50",
            BenchmarkId::Vgg16Cifar10 => "Vgg16_10",
            BenchmarkId::Vgg16Cifar100 => "Vgg16_100",
            BenchmarkId::Vgg16ImageNet => "Vgg16_imagenet",
            BenchmarkId::MobileNet => "Mobilenet",
            BenchmarkId::LeNet => "Lenet",
        }
    }

    /// The dataset name of Table 1.
    pub fn dataset(self) -> &'static str {
        match self {
            BenchmarkId::LeNet => "MNIST",
            BenchmarkId::AlexNetImageNet | BenchmarkId::ResNet50 | BenchmarkId::Vgg16ImageNet => {
                "ImageNet"
            }
            BenchmarkId::Vgg16Cifar100 => "CIFAR-100",
            _ => "CIFAR-10",
        }
    }

    /// The paper's reported FP32 baseline classification accuracy (%),
    /// which the synthetic datasets are calibrated to reproduce.
    pub fn paper_baseline_accuracy(self) -> f64 {
        match self {
            BenchmarkId::AlexNetCifar10 => 79.16,
            BenchmarkId::AlexNetImageNet => 55.86,
            BenchmarkId::AlexNet2 => 85.09,
            BenchmarkId::ResNet18 => 89.44,
            BenchmarkId::ResNet50 => 74.16,
            BenchmarkId::Vgg16Cifar10 => 89.41,
            BenchmarkId::Vgg16Cifar100 => 66.20,
            BenchmarkId::Vgg16ImageNet => 72.88,
            BenchmarkId::MobileNet => 83.69,
            BenchmarkId::LeNet => 98.70,
        }
    }

    /// The paper's reported conv+dense layer count (Table 1).
    pub fn paper_layers(self) -> usize {
        match self {
            BenchmarkId::AlexNetCifar10 => 6,
            BenchmarkId::AlexNetImageNet => 8,
            BenchmarkId::AlexNet2 => 7,
            BenchmarkId::ResNet18 => 22,
            BenchmarkId::ResNet50 => 54,
            BenchmarkId::Vgg16Cifar10 | BenchmarkId::Vgg16Cifar100 | BenchmarkId::Vgg16ImageNet => {
                15
            }
            BenchmarkId::MobileNet => 28,
            BenchmarkId::LeNet => 4,
        }
    }

    /// Nominal exact-configuration service time of one inference request,
    /// seconds, on the reference (undisturbed, full-frequency) device.
    /// A fixed per-request overhead plus a per-layer cost, anchored to the
    /// paper's layer counts (Table 1) — the fleet simulator's per-tenant
    /// cost model, deliberately simple so fleet runs stay a pure function
    /// of zoo metadata.
    pub fn nominal_service_time_s(self) -> f64 {
        0.004 + 0.0015 * self.paper_layers() as f64
    }

    /// The paper's reported auto-tuning search-space size (Table 1).
    pub fn paper_search_space(self) -> f64 {
        match self {
            BenchmarkId::AlexNetCifar10 | BenchmarkId::AlexNetImageNet => 5e8,
            BenchmarkId::AlexNet2 => 2e10,
            BenchmarkId::ResNet18
            | BenchmarkId::Vgg16Cifar10
            | BenchmarkId::Vgg16Cifar100
            | BenchmarkId::Vgg16ImageNet => 3e22,
            BenchmarkId::ResNet50 => 7e91,
            BenchmarkId::MobileNet => 1e26,
            BenchmarkId::LeNet => 3e3,
        }
    }

    /// Number of classes in the (synthetic) dataset.
    pub(crate) fn classes(self) -> usize {
        match self {
            BenchmarkId::Vgg16Cifar100 => 100,
            // The paper uses 200 randomly selected ImageNet classes; we use
            // 20 to keep dense layers small at reduced scale.
            BenchmarkId::AlexNetImageNet | BenchmarkId::ResNet50 | BenchmarkId::Vgg16ImageNet => 20,
            _ => 10,
        }
    }
}

/// Channel-width scale of a built model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelScale {
    /// Minimal widths: used by unit/integration tests.
    Tiny,
    /// Default widths for the experiment harness.
    Reduced,
}

impl ModelScale {
    fn mul(self, base: usize) -> usize {
        match self {
            ModelScale::Tiny => (base / 4).max(2),
            ModelScale::Reduced => base,
        }
    }
}

/// A Table 1 benchmark instance: the dataflow graph plus metadata.
pub struct Benchmark {
    /// Which benchmark this is.
    pub id: BenchmarkId,
    /// The compiled dataflow graph.
    pub graph: Graph,
    /// Per-sample input shape `[1, C, H, W]` (batching multiplies N).
    pub input_shape: Shape,
    /// Number of classes.
    pub classes: usize,
}

/// Builds a benchmark's graph at the given scale with a deterministic seed.
pub fn build(id: BenchmarkId, scale: ModelScale) -> Benchmark {
    // One fixed weight seed per benchmark keeps every experiment
    // reproducible.
    let seed = 0xA17u64 ^ (id as u64) << 8;
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = id.classes();
    let (graph, input_shape) = match id {
        BenchmarkId::LeNet => lenet(&mut rng, scale, classes),
        BenchmarkId::AlexNetCifar10 => alexnet_cifar(&mut rng, scale, classes),
        BenchmarkId::AlexNetImageNet => alexnet_imagenet(&mut rng, scale, classes),
        BenchmarkId::AlexNet2 => alexnet2(&mut rng, scale, classes),
        BenchmarkId::Vgg16Cifar10 | BenchmarkId::Vgg16Cifar100 | BenchmarkId::Vgg16ImageNet => {
            vgg16(&mut rng, scale, classes, id.name())
        }
        BenchmarkId::ResNet18 => resnet18(&mut rng, scale, classes),
        BenchmarkId::ResNet50 => resnet50(&mut rng, scale, classes),
        BenchmarkId::MobileNet => mobilenet(&mut rng, scale, classes),
    };
    Benchmark {
        id,
        graph,
        input_shape,
        classes,
    }
}

/// Counts conv + dense layers (the paper's "layers").
pub fn conv_dense_layers(graph: &Graph) -> usize {
    graph
        .nodes()
        .iter()
        .filter(|n| {
            matches!(
                n.op,
                at_ir::OpKind::Conv2d { .. } | at_ir::OpKind::Dense { .. }
            )
        })
        .count()
}

fn lenet(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    let input = Shape::nchw(1, 1, 28, 28);
    let mut b = GraphBuilder::new("Lenet", input, rng);
    b.conv(s.mul(8), 5, (2, 2), (1, 1)).tanh().max_pool(2, 2);
    b.conv(s.mul(16), 5, (2, 2), (1, 1)).tanh().max_pool(2, 2);
    b.flatten().dense(s.mul(84)).tanh().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn alexnet_cifar(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // 5 conv + 1 fc = 6 layers.
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new("Alexnet", input, rng);
    b.conv(s.mul(16), 11, (5, 5), (1, 1)).tanh().max_pool(2, 2);
    b.conv(s.mul(32), 5, (2, 2), (1, 1)).tanh().max_pool(2, 2);
    b.conv(s.mul(48), 3, (1, 1), (1, 1)).tanh();
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).tanh();
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).tanh().max_pool(2, 2);
    b.flatten().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn alexnet2(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // 6 conv + 1 fc = 7 layers.
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new("Alexnet2", input, rng);
    b.conv(s.mul(16), 3, (1, 1), (1, 1)).tanh();
    b.conv(s.mul(16), 3, (1, 1), (1, 1)).tanh().max_pool(2, 2);
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).tanh();
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).tanh().max_pool(2, 2);
    b.conv(s.mul(48), 3, (1, 1), (1, 1)).tanh();
    b.conv(s.mul(48), 3, (1, 1), (1, 1)).tanh().max_pool(2, 2);
    b.flatten().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn alexnet_imagenet(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // 5 conv + 3 fc = 8 layers. ImageNet resolution reduced to 64².
    let input = Shape::nchw(1, 3, 64, 64);
    let mut b = GraphBuilder::new("Alexnet_imagenet", input, rng);
    b.conv(s.mul(16), 11, (2, 2), (4, 4)).relu().max_pool(2, 2);
    b.conv(s.mul(32), 5, (2, 2), (1, 1)).relu().max_pool(2, 2);
    b.conv(s.mul(48), 3, (1, 1), (1, 1)).relu();
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).relu();
    b.conv(s.mul(32), 3, (1, 1), (1, 1)).relu();
    b.flatten().dense(s.mul(128)).relu().dense(s.mul(64)).relu();
    b.dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn vgg16(rng: &mut StdRng, s: ModelScale, classes: usize, name: &str) -> (Graph, Shape) {
    // 13 conv + 2 fc = 15 layers (Table 1).
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new(name, input, rng);
    let widths = [16, 16, 32, 32, 48, 48, 48, 64, 64, 64, 64, 64, 64].map(|w| s.mul(w));
    let pool_after = [1usize, 3, 6, 9, 12]; // indices after which to pool
    for (i, &w) in widths.iter().enumerate() {
        b.conv(w, 3, (1, 1), (1, 1)).relu();
        if pool_after.contains(&i) {
            b.max_pool(2, 2);
        }
    }
    b.flatten().dense(s.mul(64)).relu().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn resnet18(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // CIFAR-style ResNet: conv1 + 3 stages × 3 basic blocks × 2 convs
    // (= 18) + 2 strided 1×1 downsample convs + 1 fc = 21 conv + 1 fc = 22
    // layers, matching Table 1 and the §7.2 mention of 21 conv layers.
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new("Resnet18", input, rng);
    let w1 = s.mul(16);
    b.conv(w1, 3, (1, 1), (1, 1)).relu();
    let widths = [w1, s.mul(32), s.mul(64)];
    for (stage, &w) in widths.iter().enumerate() {
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let skip = b.current();
            b.conv(w, 3, (1, 1), (stride, stride)).relu();
            b.conv(w, 3, (1, 1), (1, 1));
            if stride != 1 {
                // Projection shortcut (1×1, stride 2).
                let main = b.current();
                b.rewind(skip);
                b.conv(w, 1, (0, 0), (2, 2));
                let proj = b.current();
                b.rewind(main);
                b.add_from(proj).relu();
            } else {
                b.add_from(skip).relu();
            }
        }
    }
    b.avg_pool(8, 8).flatten().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn resnet50(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // Bottleneck ResNet at CIFAR resolution: conv1 + 16 bottleneck blocks
    // × 3 convs (= 48) + 4 projection convs + 1 fc = 53 conv + 1 fc = 54
    // layers (Table 1).
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new("Resnet50", input, rng);
    let base = s.mul(8);
    b.conv(base * 2, 3, (1, 1), (1, 1)).relu();
    // (blocks, bottleneck width, output width, first-block stride)
    let stages = [
        (3usize, base, base * 2, 1usize),
        (4, base * 2, base * 4, 2),
        (6, base * 4, base * 8, 2),
        (3, base * 8, base * 16, 2),
    ];
    for &(blocks, wid, out, stride0) in &stages {
        for block in 0..blocks {
            let stride = if block == 0 { stride0 } else { 1 };
            let needs_proj = block == 0; // width or stride changes
            let skip = b.current();
            b.conv(wid, 1, (0, 0), (1, 1)).relu();
            b.conv(wid, 3, (1, 1), (stride, stride)).relu();
            b.conv(out, 1, (0, 0), (1, 1));
            if needs_proj {
                let main = b.current();
                b.rewind(skip);
                b.conv(out, 1, (0, 0), (stride, stride));
                let proj = b.current();
                b.rewind(main);
                b.add_from(proj).relu();
            } else {
                b.add_from(skip).relu();
            }
        }
    }
    b.avg_pool(4, 4).flatten().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

fn mobilenet(rng: &mut StdRng, s: ModelScale, classes: usize) -> (Graph, Shape) {
    // conv1 + 13 × (depthwise + pointwise) = 27 conv + 1 fc = 28 layers.
    let input = Shape::nchw(1, 3, 32, 32);
    let mut b = GraphBuilder::new("Mobilenet", input, rng);
    let w = |x: usize| s.mul(x);
    b.conv(w(16), 3, (1, 1), (1, 1)).batchnorm().relu6();
    // (pointwise output width, depthwise stride)
    let blocks = [
        (w(32), 1),
        (w(64), 2),
        (w(64), 1),
        (w(128), 2),
        (w(128), 1),
        (w(128), 2),
        (w(128), 1),
        (w(128), 1),
        (w(128), 1),
        (w(128), 1),
        (w(128), 1),
        (w(256), 2),
        (w(256), 1),
    ];
    for &(out, stride) in &blocks {
        b.depthwise(3, (1, 1), (stride, stride)).batchnorm().relu6();
        b.conv(out, 1, (0, 0), (1, 1)).batchnorm().relu6();
    }
    b.avg_pool(2, 2).flatten().dense(classes).softmax();
    (b.finish().expect("zoo model definitions are valid"), input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_validate() {
        for id in BenchmarkId::ALL {
            let bench = build(id, ModelScale::Tiny);
            bench.graph.validate().unwrap_or_else(|e| {
                panic!("{} failed validation: {e}", id.name());
            });
            assert_eq!(bench.classes, id.classes());
        }
    }

    #[test]
    fn layer_counts_match_table1() {
        for id in BenchmarkId::ALL {
            let bench = build(id, ModelScale::Tiny);
            let layers = conv_dense_layers(&bench.graph);
            assert_eq!(
                layers,
                id.paper_layers(),
                "{}: built {layers} conv+dense layers, Table 1 says {}",
                id.name(),
                id.paper_layers()
            );
        }
    }

    #[test]
    fn deterministic_weights() {
        let a = build(BenchmarkId::LeNet, ModelScale::Tiny);
        let b = build(BenchmarkId::LeNet, ModelScale::Tiny);
        assert_eq!(a.graph.param_count(), b.graph.param_count());
        // Outputs on the same input must be identical.
        let mut rng = StdRng::seed_from_u64(5);
        let x = at_tensor::Tensor::uniform(a.input_shape, 0.0, 1.0, &mut rng);
        let oa = at_ir::execute(&a.graph, &x, &at_ir::ExecOptions::baseline()).unwrap();
        let ob = at_ir::execute(&b.graph, &x, &at_ir::ExecOptions::baseline()).unwrap();
        assert_eq!(oa.data(), ob.data());
    }

    #[test]
    fn forward_pass_shapes() {
        for id in [
            BenchmarkId::LeNet,
            BenchmarkId::ResNet18,
            BenchmarkId::MobileNet,
        ] {
            let bench = build(id, ModelScale::Tiny);
            let mut rng = StdRng::seed_from_u64(6);
            let x = at_tensor::Tensor::uniform(bench.input_shape, 0.0, 1.0, &mut rng);
            let out = at_ir::execute(&bench.graph, &x, &at_ir::ExecOptions::baseline()).unwrap();
            assert_eq!(
                out.shape(),
                Shape::mat(1, bench.classes),
                "{} output shape",
                id.name()
            );
            let sum: f32 = out.data().iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "{} softmax sum {sum}", id.name());
        }
    }
}
