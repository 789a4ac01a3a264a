//! Reference executor: runs a dataflow graph on the tensor substrate,
//! applying each node's approximation choice, and computes the per-node
//! analytical cost descriptors consumed by the timing/energy models.
//!
//! Besides plain execution, the module supports *suffix re-execution*
//! ([`execute_suffix`]): given the cached node outputs of a previous run,
//! only the nodes from a given position onward are recomputed. ApproxTuner's
//! profile collection approximates one operation at a time (Algorithm 1,
//! lines 12–15), so re-running only the perturbed node's suffix makes
//! profile collection dramatically cheaper without changing its result.

use crate::approx::ApproxChoice;
use crate::error::GraphError;
use crate::graph::{Graph, GraphId, Node, NodeId, OpKind};
use crate::shapes::infer_shapes;
use at_promise::inject_noise;
use at_tensor::cost::{self, OpCounts};
use at_tensor::instrument::Counters;
use at_tensor::ops::{self, conv::Conv2dParams, Pooling, PreparedConv, PreparedDense, UnaryOp};
use at_tensor::{ConvApprox, MulApprox, Precision, ReduceApprox, Shape, Tensor, TensorError, View};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Options controlling one execution of a graph.
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Approximation choice per node (indexed by node id). Nodes beyond the
    /// vector's length run at the baseline. Use `vec![]` for a fully exact
    /// run.
    pub config: Vec<ApproxChoice>,
    /// Seed for the PROMISE noise source. Executions with equal seeds and
    /// configs are bit-identical.
    pub promise_seed: u64,
}

impl ExecOptions {
    /// The exact FP32 baseline execution.
    pub fn baseline() -> ExecOptions {
        ExecOptions::default()
    }

    /// The exact (knob-free) counterpart of these options: the same PROMISE
    /// seed with every approximation choice cleared. This is the shadow
    /// re-execution path of the runtime QoS guard — a canaried request runs
    /// once approximated and once through this variant, and the difference
    /// is the true per-request QoS loss.
    pub fn exact_variant(&self) -> ExecOptions {
        ExecOptions {
            config: Vec::new(),
            promise_seed: self.promise_seed,
        }
    }

    /// The choice for a given node.
    pub(crate) fn choice(&self, id: NodeId) -> ApproxChoice {
        self.config
            .get(id.0 as usize)
            .copied()
            .unwrap_or(ApproxChoice::BASELINE)
    }
}

/// The element-wise ops that may overwrite their operand, as the tensor
/// crate's map.
fn unary_op(op: &OpKind) -> Option<UnaryOp> {
    match *op {
        OpKind::Relu => Some(UnaryOp::Relu),
        OpKind::ClippedRelu { lo, hi } => Some(UnaryOp::ClippedRelu(lo, hi)),
        OpKind::Tanh => Some(UnaryOp::Tanh),
        OpKind::Abs => Some(UnaryOp::Abs),
        _ => None,
    }
}

/// Evaluates a single non-`Input` node into `out`, which has the node's
/// output shape and receives every element. `arg(i)` reads operand `i`;
/// with `in_place`, `out` already holds operand 0 (its last read), and an
/// element-wise map overwrites it, `Flatten` leaves it as it is. `fused` is
/// the activation a convolution applies in its epilogue on behalf of its
/// only consumer (see [`Plan`]). Returns the work its kernels did.
/// `prepared` is the node's prepared convolution or dense layer, if its
/// compilation prepared one.
#[allow(clippy::too_many_arguments)]
fn eval_node<'a>(
    graph: &Graph,
    node: &Node,
    arg: impl Fn(usize) -> Result<View<'a>, GraphError>,
    choice: ApproxChoice,
    promise_seed: u64,
    fused: Option<UnaryOp>,
    in_place: bool,
    prepared: Option<&Prepared>,
    out: &mut [f32],
) -> Result<Counters, GraphError> {
    let (_, reduce_approx, precision, mul_approx) = digital_knobs(choice);
    let promise_rng = || StdRng::seed_from_u64(promise_seed ^ ((node.id.0 as u64) << 17));
    match &node.op {
        OpKind::Input => Err(GraphError::Internal {
            detail: format!("Input node {} reached the kernel dispatch", node.id.0),
        }),
        OpKind::Conv2d {
            weight,
            bias,
            groups,
            ..
        } => {
            let (x, w, b) = (arg(0)?, graph.param(*weight), bias.map(|p| graph.param(p)));
            let work = match prepared {
                Some(Prepared::Conv(p)) => p.run(x, w, b, false, out)?,
                _ => {
                    let params = conv_params(&node.op, choice).unwrap_or_default();
                    ops::conv2d_into(x, w, b, params, fused, out)?
                }
            };
            // PROMISE adds its analog noise to the exact result (dense
            // convolutions only; grouped convs run the digital exact kernel).
            if let (ApproxChoice::Promise(level), 1) = (choice, *groups) {
                inject_noise(out, level, &mut promise_rng());
            }
            Ok(work)
        }
        OpKind::Dense { weight, bias } => {
            let (x, w, b) = (arg(0)?, graph.param(*weight), bias.map(|p| graph.param(p)));
            let matmul = |b, out: &mut [f32]| match prepared {
                Some(Prepared::Dense(p)) => p.run(x, b, false, out),
                _ => ops::matmul_into(x, w, b, precision, mul_approx, out),
            };
            let ApproxChoice::Promise(level) = choice else {
                // Fused GEMM+bias epilogue; bit-identical to the unfused
                // matmul → bias-add pair at every precision.
                return Ok(matmul(b, out)?);
            };
            // PROMISE (FP32): the exact product, its analog noise, then the
            // bias, added in the slot.
            let work = matmul(None, out)?;
            inject_noise(out, level, &mut promise_rng());
            if let Some(b) = b {
                let n = w.shape().as_mat()?.1;
                if b.len() != n {
                    return Err(TensorError::ShapeMismatch {
                        op: "bias_add",
                        detail: format!("bias len {} != cols {n}", b.len()),
                    }
                    .into());
                }
                for row in out.chunks_exact_mut(n.max(1)) {
                    row.iter_mut().zip(b.data()).for_each(|(v, &bv)| *v += bv);
                }
            }
            Ok(work)
        }
        OpKind::Relu | OpKind::ClippedRelu { .. } | OpKind::Tanh | OpKind::Abs => {
            let op = unary_op(&node.op).ok_or_else(|| GraphError::Internal {
                detail: format!("node {} is not an element-wise map", node.id.0),
            })?;
            if in_place {
                Ok(ops::map_unary_in_place(out, op, precision)?)
            } else {
                Ok(ops::map_unary_into(arg(0)?, op, precision, out)?)
            }
        }
        OpKind::MaxPool2d {
            window,
            pad,
            stride,
        } => Ok(ops::pool2d_into(
            arg(0)?,
            [*window, *pad, *stride],
            Pooling::Max,
            precision,
            out,
        )?),
        OpKind::AvgPool2d {
            window,
            pad,
            stride,
        } => {
            let pool = Pooling::Avg(reduce_approx);
            Ok(ops::pool2d_into(
                arg(0)?,
                [*window, *pad, *stride],
                pool,
                precision,
                out,
            )?)
        }
        OpKind::BatchNorm {
            gamma,
            beta,
            mean,
            var,
            eps,
        } => {
            let stats = [gamma, beta, mean, var].map(|p| graph.param(*p));
            Ok(ops::batchnorm2d_into(arg(0)?, stats, *eps, precision, out)?)
        }
        OpKind::Softmax => Ok(ops::softmax_rows_into(arg(0)?, precision, out)?),
        OpKind::Add => Ok(ops::add_into(arg(0)?, arg(1)?, precision, out)?),
        OpKind::Flatten if in_place => Ok(Counters::default()),
        OpKind::Flatten => {
            out.copy_from_slice(arg(0)?.data());
            Ok(Counters {
                ew_copy: out.len() as u64,
                ..Counters::default()
            })
        }
        OpKind::Reduce { axis, kind } => Ok(ops::reduce_into(
            arg(0)?,
            *axis,
            *kind,
            reduce_approx,
            precision,
            out,
        )?),
    }
}

/// The digital knobs a choice runs with: a PROMISE choice runs the exact
/// FP32 kernels (its noise is added to their result).
fn digital_knobs(choice: ApproxChoice) -> (ConvApprox, ReduceApprox, Precision, MulApprox) {
    match choice {
        ApproxChoice::Digital {
            conv,
            reduce,
            precision,
            mul,
        } => (conv, reduce, precision, mul),
        ApproxChoice::Promise(_) => (
            ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Exact,
        ),
    }
}

/// The parameters a convolution node runs with under `choice`.
fn conv_params(op: &OpKind, choice: ApproxChoice) -> Option<Conv2dParams> {
    let (approx, _, precision, mul) = digital_knobs(choice);
    match *op {
        OpKind::Conv2d {
            pad,
            stride,
            groups,
            ..
        } => Some(Conv2dParams {
            pad,
            stride,
            groups,
            approx,
            precision,
            mul,
        }),
        _ => None,
    }
}

/// Executes the graph on `input`, returning the output tensor of the final
/// node.
pub fn execute(graph: &Graph, input: &Tensor, opts: &ExecOptions) -> Result<Tensor, GraphError> {
    run_live(graph, input, opts, &[], 0, None)
}

/// Whether a run keeps every node's output or only what is still to be
/// read.
#[derive(Clone, Copy, PartialEq)]
enum Keep {
    /// [`execute_all`]: every output survives the run untouched, so nothing
    /// is released, overwritten, moved or fused, and no two values share a
    /// slot.
    All,
    /// Release each value's slot after its last consumer.
    Live,
}

/// Slot buffers, with the input shape and first node they were last sized
/// for.
type Arena = (Option<(Shape, usize)>, Vec<Vec<f32>>);

thread_local! {
    /// The slot buffers of this thread's live-value runs, kept between
    /// calls. A run takes them and puts them back, so one entered while
    /// another holds them starts from empty ones instead of aliasing.
    static ARENA: Cell<Arena> = Cell::default();
    /// The configuration this thread's last live-value run compiled, taken
    /// and put back like the arena.
    static COMPILED: Cell<Option<Compiled>> = Cell::default();
}

/// Bytes this thread's arena holds between calls.
pub fn arena_bytes() -> usize {
    let arena = ARENA.take();
    let bytes = arena.1.iter().map(|b| b.len() * 4).sum();
    ARENA.set(arena);
    bytes
}

/// What one run may do with each value and where it lives, decided from
/// the graph, the input shape and the configuration before any kernel runs.
struct Plan {
    /// Every node's output shape.
    shapes: Vec<Shape>,
    readers: Readers,
    /// `fused[c]`: the activation convolution `c` applies in its epilogue,
    /// its only consumer then keeping `c`'s slot without running a kernel
    /// ([`Readers::fusion`]).
    fused: Vec<Option<UnaryOp>>,
    /// `in_place[v]`: node `v` takes over its first operand's slot at that
    /// operand's last read — as a fused activation, as an element-wise map
    /// that overwrites it, or as a `Flatten` that renames it.
    in_place: Vec<bool>,
    /// `slot[v]`: the arena slot holding `v` from its producer to its last
    /// reader; `None` for what this run does not produce (the program input
    /// and the caller's cache).
    slot: Vec<Option<usize>>,
    /// Elements of each slot: the largest value it holds.
    slot_len: Vec<usize>,
    /// The most elements live at once.
    peak_live: usize,
}

/// Who reads each value of a run of nodes `start..`.
struct Readers {
    start: usize,
    /// `last[v]` and `count[v]`: the last node that reads value `v`, and how
    /// many do (none under [`Keep::All`]).
    last: Vec<Option<usize>>,
    count: Vec<u32>,
}

impl Readers {
    fn new(graph: &Graph, start: usize, keep: Keep) -> Readers {
        let n = graph.len();
        let (mut last, mut count) = (vec![None; n], vec![0; n]);
        for node in graph.nodes()[start..].iter().filter(|_| keep == Keep::Live) {
            for inp in &node.inputs {
                last[inp.0 as usize] = Some(node.id.0 as usize);
                count[inp.0 as usize] += 1;
            }
        }
        Readers { start, last, count }
    }

    /// The activation convolution `c` applies in its epilogue under
    /// `choices`. Fusion is bit-invisible (the epilogue applies the node's
    /// own scalar function exactly where the standalone FP32 node would), so
    /// it is planned only when that holds: the activation's sole input is a
    /// digitally-executed convolution of this run that nobody else reads,
    /// and the activation itself runs digitally at FP32. Nothing else a plan
    /// decides depends on the configuration.
    fn fusion(&self, graph: &Graph, choices: &[ApproxChoice], c: usize) -> Option<UnaryOp> {
        let r = self.last[c].filter(|_| c >= self.start && self.count[c] == 1)?;
        let reader = &graph.nodes()[r];
        let act = unary_op(&reader.op)?;
        let act_fp32 = matches!(
            choices[r],
            ApproxChoice::Digital {
                precision: Precision::Fp32,
                ..
            }
        );
        let sole_input = reader.inputs.first().is_some_and(|v| v.0 as usize == c);
        (sole_input
            && act_fp32
            && matches!(graph.nodes()[c].op, OpKind::Conv2d { .. })
            && matches!(choices[c], ApproxChoice::Digital { .. }))
        .then_some(act)
    }
}

impl Plan {
    /// Plans the run of nodes `start..` under `choices` (one per node). In
    /// node order, a value that does not take over its operand's slot gets
    /// the smallest free slot that fits it, else the largest free one
    /// (grown), else a new one; a slot is free again once its value's last
    /// reader has run, at once if no node reads it. Under [`Keep::All`] no
    /// slot is ever freed.
    fn new(
        graph: &Graph,
        choices: &[ApproxChoice],
        start: usize,
        keep: Keep,
        shapes: Vec<Shape>,
    ) -> Plan {
        let n = graph.len();
        let readers = Readers::new(graph, start, keep);
        let fused: Vec<_> = (0..n).map(|c| readers.fusion(graph, choices, c)).collect();
        let last_use = &readers.last;
        let nodes = &graph.nodes()[start..];
        let (mut in_place, mut slot) = (vec![false; n], vec![None; n]);
        let (mut slot_len, mut free, mut live, mut peak_live) = (vec![], vec![], 0, 0);
        for node in nodes {
            let (i, len) = (node.id.0 as usize, shapes[node.id.0 as usize].volume());
            let Some(v0) = node.inputs.first().map(|v| v.0 as usize) else {
                continue; // the program input
            };
            let renames = fused[v0].is_some()
                || unary_op(&node.op).is_some()
                || matches!(node.op, OpKind::Flatten);
            in_place[i] = renames && last_use[v0] == Some(i) && slot[v0].is_some();
            if in_place[i] {
                slot[i] = slot[v0];
            } else {
                let fits = free
                    .iter()
                    .filter(|&&s| slot_len[s] >= len)
                    .min_by_key(|&&s| slot_len[s]);
                let s = match fits.or_else(|| free.iter().max_by_key(|&&s| slot_len[s])) {
                    Some(&s) => {
                        free.retain(|&f| f != s);
                        s
                    }
                    None => {
                        slot_len.push(0);
                        slot_len.len() - 1
                    }
                };
                slot_len[s] = slot_len[s].max(len);
                slot[i] = Some(s);
                live += len;
            }
            peak_live = peak_live.max(live);
            let unread = keep == Keep::Live && last_use[i].is_none() && i + 1 < n;
            let dead = node.inputs.iter().map(|v| v.0 as usize);
            let dead = dead.filter(|&v| last_use[v] == Some(i) && !(in_place[i] && v == v0));
            for v in dead.chain(unread.then_some(i)) {
                if let Some(s) = slot[v].filter(|s| !free.contains(s)) {
                    free.push(s);
                    live -= shapes[v].volume();
                }
            }
        }
        Plan {
            shapes,
            readers,
            fused,
            in_place,
            slot,
            slot_len,
            peak_live,
        }
    }

    /// What this plan makes of `node`.
    fn action(&self, node: &Node) -> PlanAction {
        self.action_with(node, |c| self.fused[c])
    }

    /// [`Plan::action`] with `fused` in place of the planned fusion.
    fn action_with(&self, node: &Node, fused: impl Fn(usize) -> Option<UnaryOp>) -> PlanAction {
        let i = node.id.0 as usize;
        let fused_away = |c: &NodeId| fused(c.0 as usize).is_some();
        match (self.slot[i], fused(i), self.in_place[i]) {
            (None, ..) => PlanAction::NotRun,
            _ if node.inputs.first().is_some_and(fused_away) => PlanAction::AppliedByProducer,
            (_, Some(act), _) => PlanAction::KernelFused(act),
            (_, None, false) => PlanAction::Kernel,
            _ if matches!(node.op, OpKind::Flatten) => PlanAction::Rename,
            _ => PlanAction::InPlace,
        }
    }
}

/// Every node's choice under `config` (baseline beyond its end).
fn choices(graph: &Graph, config: &[ApproxChoice]) -> Vec<ApproxChoice> {
    let choice = |i: usize| config.get(i).copied().unwrap_or_default();
    (0..graph.len()).map(choice).collect()
}

/// What one run's plan made of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanAction {
    /// A kernel wrote the node's value into an arena slot.
    Kernel,
    /// A convolution kernel that also applied its only consumer's
    /// activation in its epilogue.
    KernelFused(UnaryOp),
    /// An activation its producing convolution already applied: no kernel
    /// ran.
    AppliedByProducer,
    /// An element-wise map that overwrote its operand in the operand's slot.
    InPlace,
    /// A `Flatten` that took over its operand's slot as it is.
    Rename,
    /// Nothing ran: the program input.
    NotRun,
}

/// What one node of a traced run ([`execute_with_records`]) did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeRecord {
    /// Wall-clock seconds of the node; a convolution's include the
    /// activation fused into it.
    pub seconds: f64,
    /// The work its kernels did (zero where no kernel ran);
    /// [`node_counters`] computes the same value without running it.
    pub counters: Counters,
    /// The approximation applied.
    pub choice: ApproxChoice,
    /// What the plan made of it.
    pub action: PlanAction,
    /// Bytes of its output value.
    pub bytes_out: usize,
}

/// The bytes of the values a whole-graph [`execute`] holds at once at its
/// fullest: what [`arena_bytes`] reads after that run on a thread whose
/// previous run had another input shape or first node.
pub fn peak_live_bytes(
    graph: &Graph,
    input: Shape,
    opts: &ExecOptions,
) -> Result<usize, GraphError> {
    let shapes = infer_shapes(graph, input)?;
    Ok(Plan::new(graph, &choices(graph, &opts.config), 0, Keep::Live, shapes).peak_live * 4)
}

/// A node's kernel setup, done at compile time.
enum Prepared {
    Conv(Box<PreparedConv>),
    Dense(PreparedDense),
}

/// One configuration of a graph compiled for inputs of one shape, run from
/// one first node: everything a run derives before its first kernel — the
/// shapes and the `Plan`, and per convolution its lowering with its
/// weights FP16-rounded, LUT-quantised or filter-sampled, per dense layer
/// its weights packed under their quantiser. What depends on the request
/// stays per call: the PROMISE seed and a LUT convolution's input scale.
///
/// [`execute`], [`execute_suffix`] and [`execute_with_records`] keep the
/// last configuration each thread compiled and compile again only when the
/// graph, the input shape, the first node or a node's choice differs. The
/// graph is keyed by an identity that every `&mut` access to it renews, so
/// a changed weight is never run from a stale preparation.
pub struct Compiled {
    graph: GraphId,
    input: Shape,
    /// Every node's choice.
    choices: Vec<ApproxChoice>,
    plan: Plan,
    /// Per node: its prepared kernel, if it has one and preparing it
    /// succeeded (one that fails fails again, in node order, when its node
    /// runs).
    kernels: Vec<Option<Prepared>>,
}

impl Compiled {
    /// Compiles `config` (a choice per node; nodes beyond it run at the
    /// baseline) of `graph` for inputs of shape `input`.
    pub fn new(
        graph: &Graph,
        input: Shape,
        config: &[ApproxChoice],
    ) -> Result<Compiled, GraphError> {
        Compiled::build(graph, input, 0, choices(graph, config), Keep::Live)
    }

    fn build(
        graph: &Graph,
        input: Shape,
        start: usize,
        choices: Vec<ApproxChoice>,
        keep: Keep,
    ) -> Result<Compiled, GraphError> {
        let plan = Plan::new(graph, &choices, start, keep, infer_shapes(graph, input)?);
        // Only what this run computes: no slot, no kernel.
        let prepare = |node: &Node| {
            let i = node.id.0 as usize;
            plan.slot[i]?;
            match node.op {
                OpKind::Conv2d { weight, bias, .. } => {
                    let params = conv_params(&node.op, choices[i])?;
                    let x = plan.shapes[node.inputs[0].0 as usize];
                    let (w, b) = (graph.param(weight), bias.map(|p| graph.param(p)));
                    let p = PreparedConv::new(x, w, b, params, plan.fused[i]);
                    p.ok().map(|p| Prepared::Conv(Box::new(p)))
                }
                OpKind::Dense { weight, .. } => {
                    let (_, _, precision, mul) = digital_knobs(choices[i]);
                    let p = PreparedDense::new(graph.param(weight), precision, mul);
                    p.ok().map(Prepared::Dense)
                }
                _ => None,
            }
        };
        let kernels = graph.nodes().iter().map(prepare).collect();
        Ok(Compiled {
            graph: graph.id,
            input,
            choices,
            plan,
            kernels,
        })
    }

    /// Whether this is `opts` of `graph` for `input` from node `start`.
    fn compiled_for(&self, graph: &Graph, input: Shape, start: usize, opts: &ExecOptions) -> bool {
        let same_choice = |(i, c): (usize, &ApproxChoice)| opts.choice(NodeId(i as u32)) == *c;
        self.graph == graph.id
            && self.input == input
            && self.plan.readers.start == start
            && self.choices.iter().enumerate().all(same_choice)
    }

    /// Runs this configuration of `graph` (the graph it was compiled from,
    /// unchanged since) on `input` with PROMISE seed `promise_seed`, on this
    /// thread's arena, and returns the program output.
    pub fn run(
        &self,
        graph: &Graph,
        input: &Tensor,
        promise_seed: u64,
    ) -> Result<Tensor, GraphError> {
        if self.graph != graph.id || self.input != input.shape() {
            let detail = format!(
                "compiled for another graph or input shape than {:?}",
                input.shape()
            );
            return Err(GraphError::InvalidStructure {
                op: "Compiled::run",
                detail,
            });
        }
        self.run_live(graph, input, &[], promise_seed, None)
    }

    /// [`Compiled::run_into`] under [`Keep::Live`] on this thread's arena,
    /// returning a copy of the program output (the arena's next run
    /// overwrites the original).
    fn run_live(
        &self,
        graph: &Graph,
        input: &Tensor,
        cache: &[Tensor],
        promise_seed: u64,
        records: Option<&mut Vec<NodeRecord>>,
    ) -> Result<Tensor, GraphError> {
        let out = graph.output().ok_or(GraphError::EmptyGraph)?.0 as usize;
        let sized = Some((input.shape(), self.plan.readers.start));
        let (sized_for, mut arena) = ARENA.take();
        // Slots only grow while the thread keeps running inputs of one shape
        // from one first node; another model, batch size or suffix start
        // begins from its own plan's slots instead of keeping the largest any
        // earlier plan needed.
        if sized_for != sized {
            arena.clear();
        }
        let done = self.run_into(graph, input, cache, promise_seed, &mut arena, records);
        let t = done.and_then(|()| {
            let start = self.plan.readers.start;
            Ok(read(&self.plan, input, cache, start, &arena, out)?.to_tensor())
        });
        ARENA.set((sized, arena));
        t
    }

    /// The one node-evaluation loop behind every entry point: runs nodes
    /// `start..` in order, reading earlier nodes from `cache`. With
    /// `records`, one [`NodeRecord`] per node is pushed; without, the run
    /// reads no clock.
    ///
    /// Every value produced here is written into its plan slot of `arena`
    /// (grown first where the plan needs more), so a run whose plan fits the
    /// arena allocates no output and fills none twice. `input` and `cache`
    /// are only ever read.
    fn run_into(
        &self,
        graph: &Graph,
        input: &Tensor,
        cache: &[Tensor],
        promise_seed: u64,
        arena: &mut Vec<Vec<f32>>,
        mut records: Option<&mut Vec<NodeRecord>>,
    ) -> Result<(), GraphError> {
        let (plan, start) = (&self.plan, self.plan.readers.start);
        arena.resize_with(arena.len().max(plan.slot_len.len()), Vec::new);
        for (buf, &len) in arena.iter_mut().zip(&plan.slot_len) {
            if buf.len() < len {
                *buf = Vec::new();
                buf.resize(len, 0.0);
            }
        }
        for node in &graph.nodes()[start..] {
            let started = records.is_some().then(std::time::Instant::now);
            let idx = node.id.0 as usize;
            let action = plan.action(node);
            let mut counters = Counters::default();
            if let (Some(s), false) = (plan.slot[idx], action == PlanAction::AppliedByProducer) {
                let mut out = std::mem::take(&mut arena[s]);
                let operand = |i: usize| match node.inputs.get(i) {
                    Some(v) => read(plan, input, cache, start, arena, v.0 as usize),
                    None => Err(internal(format!("node {idx} has no input #{i}"))),
                };
                let done = match out.get_mut(..plan.shapes[idx].volume()) {
                    Some(dst) => eval_node(
                        graph,
                        node,
                        operand,
                        self.choices[idx],
                        promise_seed,
                        plan.fused[idx],
                        plan.in_place[idx],
                        self.kernels[idx].as_ref(),
                        dst,
                    ),
                    None => Err(internal(format!("slot {s} is too short for node {idx}"))),
                };
                arena[s] = out;
                counters = done?;
            }
            if let (Some(records), Some(started)) = (records.as_deref_mut(), started) {
                records.push(NodeRecord {
                    seconds: started.elapsed().as_secs_f64(),
                    counters,
                    choice: self.choices[idx],
                    action,
                    bytes_out: plan.shapes[idx].volume() * 4,
                });
            }
        }
        Ok(())
    }
}

fn internal(detail: String) -> GraphError {
    GraphError::Internal { detail }
}

/// Value `v` of a run that followed `plan`: in its arena slot, or, if the
/// run did not produce it, the program input or the cache entry.
fn read<'a>(
    plan: &Plan,
    input: &'a Tensor,
    cache: &'a [Tensor],
    start: usize,
    arena: &'a [Vec<f32>],
    v: usize,
) -> Result<View<'a>, GraphError> {
    match plan.slot.get(v) {
        Some(&Some(s)) => {
            let data = arena[s].get(..plan.shapes[v].volume());
            Ok(View::new(
                plan.shapes[v],
                data.ok_or_else(|| internal(format!("value {v} is not in its slot")))?,
            )?)
        }
        Some(None) if v < start => Ok(cache[v].view()),
        Some(None) => Ok(input.view()),
        None => Err(internal(format!("no value {v}"))),
    }
}

/// Runs `opts` of `graph` on `input` from node `start` under [`Keep::Live`]:
/// from this thread's last compiled configuration if it is this one, else
/// compiled first (and kept in its place).
fn run_live(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
    cache: &[Tensor],
    start: usize,
    records: Option<&mut Vec<NodeRecord>>,
) -> Result<Tensor, GraphError> {
    // A miss drops the previous configuration before the next is built: a
    // thread holds one at a time.
    let kept = COMPILED
        .take()
        .filter(|c| c.compiled_for(graph, input.shape(), start, opts));
    let compiled = match kept {
        Some(c) => c,
        None => {
            let choices = choices(graph, &opts.config);
            Compiled::build(graph, input.shape(), start, choices, Keep::Live)?
        }
    };
    let t = compiled.run_live(graph, input, cache, opts.promise_seed, records);
    COMPILED.set(Some(compiled));
    t
}

/// Executes the graph and additionally returns one [`NodeRecord`] per node,
/// in node order: its wall-clock seconds (host measurements), the
/// work its kernels did, the knob applied, what the plan made of it
/// and its output bytes.
pub fn execute_with_records(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<(Tensor, Vec<NodeRecord>), GraphError> {
    let mut records = Vec::with_capacity(graph.len());
    let out = run_live(graph, input, opts, &[], 0, Some(&mut records))?;
    Ok((out, records))
}

/// The seconds of [`execute_with_records`] alone. Kept only for
/// `benchmark/`; ROADMAP item 4 deletes it.
pub fn execute_with_trace(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<(Tensor, Vec<f64>), GraphError> {
    let (out, records) = execute_with_records(graph, input, opts)?;
    Ok((out, records.iter().map(|r| r.seconds).collect()))
}

/// Executes the graph and returns *all* node outputs — the cache consumed by
/// [`execute_suffix`]. They outlive the call, so this run writes into a
/// fresh arena with a slot per value, and each slot becomes a tensor.
pub fn execute_all(
    graph: &Graph,
    input: &Tensor,
    opts: &ExecOptions,
) -> Result<Vec<Tensor>, GraphError> {
    let mut arena = Vec::new();
    let compiled = Compiled::build(
        graph,
        input.shape(),
        0,
        choices(graph, &opts.config),
        Keep::All,
    )?;
    compiled.run_into(graph, input, &[], opts.promise_seed, &mut arena, None)?;
    let plan = &compiled.plan;
    let tensor = |(v, slot): (usize, &Option<usize>)| match slot {
        Some(s) => Ok(Tensor::from_vec(
            plan.shapes[v],
            std::mem::take(&mut arena[*s]),
        )?),
        None => Ok(input.clone()),
    };
    plan.slot.iter().enumerate().map(tensor).collect()
}

/// Recomputes only the nodes at positions `from..` of the graph, reading
/// earlier nodes' outputs from `cache` (a previous [`execute_all`] result),
/// which is left untouched. Returns the program output.
///
/// Used by profile collection: approximating a single op leaves its prefix
/// unchanged, so only the suffix needs re-execution.
pub fn execute_suffix(
    graph: &Graph,
    input: &Tensor,
    cache: &[Tensor],
    from: NodeId,
    opts: &ExecOptions,
) -> Result<Tensor, GraphError> {
    if cache.len() != graph.len() {
        return Err(GraphError::CacheMismatch {
            expected: graph.len(),
            got: cache.len(),
        });
    }
    let start = (from.0 as usize).min(graph.len());
    run_live(graph, input, opts, cache, start, None)
}

/// Baseline analytical cost of every node (paper §3.4), given the program
/// input shape. Indexed by node id; the `Input` node costs zero.
pub fn node_costs(graph: &Graph, input: Shape) -> Result<Vec<OpCounts>, GraphError> {
    let shapes = infer_shapes(graph, input)?;
    let mut counts = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let in_shape = |i: usize| shapes[node.inputs[i].0 as usize];
        let c = match &node.op {
            OpKind::Input => OpCounts::ZERO,
            OpKind::Conv2d {
                weight,
                pad,
                stride,
                ..
            } => cost::conv2d_counts(in_shape(0), graph.param(*weight).shape(), *pad, *stride),
            OpKind::Dense { weight, .. } => {
                let (m, k) = in_shape(0).as_mat()?;
                let (_, n) = graph.param(*weight).shape().as_mat()?;
                cost::matmul_counts(m, k, n)
            }
            OpKind::Relu | OpKind::ClippedRelu { .. } | OpKind::Abs => {
                cost::map_counts(in_shape(0).volume(), 1.0)
            }
            // 8 is the hardware-agnostic charge for one transcendental, not a
            // count of this CPU's kernel: `at-tensor`'s rational `tanh` runs
            // 29 flops per element (11 FMAs, 3 multiplies, a divide, 4
            // min/max/selects) and measures ≈ 13 GEMM-flop times. Left at 8
            // so Eq. 3's prices (`Pricing::OpCount`, `Pricing::Device`) do
            // not move with a kernel change; this CPU's price of a `tanh` is
            // the `ew_tanh`/`epi_tanh` weight of the CPU cost model
            // (`at_core::perf`, fitted by `repro cost_fit`) over
            // [`node_counters`].
            OpKind::Tanh => cost::map_counts(in_shape(0).volume(), 8.0),
            OpKind::MaxPool2d {
                window,
                pad,
                stride,
            }
            | OpKind::AvgPool2d {
                window,
                pad,
                stride,
            } => cost::pool2d_counts(in_shape(0), *window, *pad, *stride),
            OpKind::BatchNorm { .. } => cost::batchnorm_counts(in_shape(0)),
            OpKind::Softmax => {
                let (m, n) = in_shape(0).as_mat()?;
                cost::softmax_counts(m, n)
            }
            OpKind::Add => cost::map_counts(in_shape(0).volume(), 1.0),
            OpKind::Flatten => OpCounts::ZERO,
            OpKind::Reduce { axis, .. } => {
                let s = in_shape(0);
                let len = s.dim(*axis)?;
                cost::reduce_counts(s.volume() / len.max(1), len)
            }
        };
        counts.push(c);
    }
    Ok(counts)
}

/// The [`Counters`] each node of a whole-graph [`execute`] of an input of
/// shape `input` under `opts` returns in its [`NodeRecord`], computed from
/// shapes and knobs without running a kernel: the executed counts' analytic
/// twin. Indexed by node id; a node no kernel runs for (the input, an
/// activation its convolution applied, a renaming `Flatten`) counts zero.
pub fn node_counters(
    graph: &Graph,
    input: Shape,
    opts: &ExecOptions,
) -> Result<Vec<Counters>, GraphError> {
    let all: Vec<usize> = (0..graph.len()).collect();
    CounterTwin::new(graph, input)?.counters_of(opts, &all)
}

/// [`node_counters`] for many configurations of one graph and input shape:
/// the shapes and the baseline plan are worked out once, and a
/// configuration re-plans only the fusions of the nodes it asks about — the
/// rest of a plan does not depend on the configuration.
pub struct CounterTwin<'g> {
    graph: &'g Graph,
    plan: Plan,
}

impl<'g> CounterTwin<'g> {
    /// The shapes and the baseline plan of `graph` on inputs of shape
    /// `input`.
    pub fn new(graph: &'g Graph, input: Shape) -> Result<CounterTwin<'g>, GraphError> {
        let baseline = vec![ApproxChoice::BASELINE; graph.len()];
        let shapes = infer_shapes(graph, input)?;
        let plan = Plan::new(graph, &baseline, 0, Keep::Live, shapes);
        Ok(CounterTwin { graph, plan })
    }

    /// [`node_counters`] under `opts` of the nodes `ids` only, in that
    /// order: what a cost model needs for the few nodes one knob touches.
    pub fn counters_of(
        &self,
        opts: &ExecOptions,
        ids: &[usize],
    ) -> Result<Vec<Counters>, GraphError> {
        let (graph, plan) = (self.graph, &self.plan);
        let choices = choices(graph, &opts.config);
        let fused = |c: usize| plan.readers.fusion(graph, &choices, c);
        let elementwise = |n: usize, per_fp16: u64, precision| {
            let rounded = if precision == Precision::Fp16 {
                per_fp16 * n as u64
            } else {
                0
            };
            (n as u64, rounded)
        };
        let mut all = Vec::with_capacity(ids.len());
        for &idx in ids {
            let node = graph.node(NodeId(idx as u32));
            let runs = matches!(
                plan.action_with(node, fused),
                PlanAction::Kernel | PlanAction::KernelFused(_) | PlanAction::InPlace
            );
            if !runs {
                all.push(Counters::default());
                continue;
            }
            let choice = choices[idx];
            let (_, reduce, precision, mul) = digital_knobs(choice);
            let in_shape = |i: usize| plan.shapes[node.inputs[i].0 as usize];
            let n = plan.shapes[idx].volume();
            let mut c = Counters::default();
            match &node.op {
                OpKind::Input => {}
                OpKind::Conv2d { weight, bias, .. } => {
                    let params = conv_params(&node.op, choice).unwrap_or_default();
                    let w = graph.param(*weight).shape();
                    c = ops::conv2d_work(in_shape(0), w, bias.is_some(), params, fused(idx))?;
                }
                OpKind::Dense { weight, bias } => {
                    let (m, k) = in_shape(0).as_mat()?;
                    let (_, cols) = graph.param(*weight).shape().as_mat()?;
                    // PROMISE adds its bias after the noise, outside the kernel.
                    let bias = bias.is_some() && matches!(choice, ApproxChoice::Digital { .. });
                    c = ops::matmul_work((m, k, cols), bias, precision, mul);
                }
                OpKind::Relu | OpKind::ClippedRelu { .. } | OpKind::Tanh | OpKind::Abs => {
                    if let Some(op) = unary_op(&node.op) {
                        c = ops::map_unary_work(op, n, precision);
                    }
                }
                OpKind::MaxPool2d {
                    window,
                    pad,
                    stride,
                }
                | OpKind::AvgPool2d {
                    window,
                    pad,
                    stride,
                } => c = ops::pool2d_work(in_shape(0), [*window, *pad, *stride], precision)?,
                OpKind::BatchNorm { .. } => (c.ew_norm, c.ew_fp16) = elementwise(n, 2, precision),
                OpKind::Softmax => (c.ew_softmax, c.ew_fp16) = elementwise(n, 2, precision),
                OpKind::Add => (c.ew_add, c.ew_fp16) = elementwise(n, 1, precision),
                OpKind::Flatten => c.ew_copy = n as u64,
                OpKind::Reduce { axis, .. } => {
                    let s = in_shape(0);
                    let len = s.dim(*axis)?;
                    let visited = match reduce {
                        ReduceApprox::Exact => len,
                        ReduceApprox::Sampling { num, den } => {
                            (0..len).filter(|i| i % den < num).count()
                        }
                    };
                    c.ew_reduce = (n * visited) as u64;
                    if precision == Precision::Fp16 {
                        c.ew_fp16 = (s.volume() + n) as u64;
                    }
                }
            }
            all.push(c);
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use at_tensor::ConvApprox;

    fn tiny_cnn() -> (Graph, Tensor) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new("tiny", Shape::nchw(2, 3, 8, 8), &mut rng);
        b.conv(4, 3, (1, 1), (1, 1))
            .relu()
            .max_pool(2, 2)
            .flatten()
            .dense(10)
            .softmax();
        let g = b.finish().unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        let x = Tensor::uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, &mut rng2);
        (g, x)
    }

    #[test]
    fn baseline_execution_produces_probabilities() {
        let (g, x) = tiny_cnn();
        let out = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        assert_eq!(out.shape(), Shape::mat(2, 10));
        for r in 0..2 {
            let s: f32 = out.data()[r * 10..(r + 1) * 10].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn approximation_changes_output() {
        let (g, x) = tiny_cnn();
        let base = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        // Node 1 is the conv.
        config[1] = ApproxChoice::digital(
            ConvApprox::FilterSampling { k: 2, offset: 0 },
            ReduceApprox::Exact,
            Precision::Fp32,
        );
        let approx = execute(
            &g,
            &x,
            &ExecOptions {
                config,
                promise_seed: 0,
            },
        )
        .unwrap();
        assert!(base.mse(&approx).unwrap() > 0.0);
    }

    #[test]
    fn wrong_length_dense_bias_is_rejected_under_every_choice() {
        let (mut g, x) = tiny_cnn();
        let (dense, bias) = g
            .nodes()
            .iter()
            .find_map(|n| match n.op {
                OpKind::Dense { bias, .. } => Some((n.id.0 as usize, bias.unwrap())),
                _ => None,
            })
            .unwrap();
        // The dense layer has 10 columns; a short bias and an empty one.
        for len in [3, 0] {
            *g.param_mut(bias) = Tensor::zeros(Shape::vec(len));
            for choice in [
                ApproxChoice::BASELINE,
                ApproxChoice::Promise(at_promise::VoltageLevel::P4),
            ] {
                let mut config = vec![ApproxChoice::BASELINE; g.len()];
                config[dense] = choice;
                let opts = ExecOptions {
                    config,
                    promise_seed: 1,
                };
                match execute(&g, &x, &opts) {
                    Err(GraphError::Tensor(TensorError::ShapeMismatch { op, .. })) => {
                        assert_eq!(op, "bias_add", "{choice:?}, bias len {len}")
                    }
                    other => {
                        panic!("{choice:?}, bias len {len}: expected a mismatch, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn promise_execution_deterministic_per_seed() {
        let (g, x) = tiny_cnn();
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[1] = ApproxChoice::Promise(at_promise::VoltageLevel::P4);
        let o1 = execute(
            &g,
            &x,
            &ExecOptions {
                config: config.clone(),
                promise_seed: 42,
            },
        )
        .unwrap();
        let o2 = execute(
            &g,
            &x,
            &ExecOptions {
                config: config.clone(),
                promise_seed: 42,
            },
        )
        .unwrap();
        let o3 = execute(
            &g,
            &x,
            &ExecOptions {
                config,
                promise_seed: 43,
            },
        )
        .unwrap();
        assert_eq!(o1.data(), o2.data());
        assert!(o1.mse(&o3).unwrap() > 0.0);
    }

    #[test]
    fn costs_positive_for_compute_nodes() {
        let (g, _) = tiny_cnn();
        let costs = node_costs(&g, Shape::nchw(2, 3, 8, 8)).unwrap();
        assert_eq!(costs[0], OpCounts::ZERO); // input
        assert!(costs[1].compute > 0.0); // conv
    }

    #[test]
    fn conv_relu_fusion_is_bit_invisible() {
        let (g, x) = tiny_cnn();
        // execute() fuses conv→relu; execute_all() never does. The program
        // output must stay bitwise identical under every digital conv knob.
        assert_eq!(
            Plan::new(&g, &choices(&g, &[]), 0, Keep::Live, shapes(&g, &x)).fused[1],
            Some(UnaryOp::Relu)
        );
        let conv_choices = [
            ApproxChoice::BASELINE,
            ApproxChoice::FP16,
            ApproxChoice::digital(
                ConvApprox::Perforation {
                    dim: at_tensor::PerforationDim::Col,
                    k: 2,
                    offset: 1,
                },
                ReduceApprox::Exact,
                Precision::Fp32,
            ),
            ApproxChoice::digital_mul(
                ConvApprox::Exact,
                ReduceApprox::Exact,
                Precision::Fp32,
                MulApprox::Lut { bits: 8 },
            ),
        ];
        for choice in conv_choices {
            let mut config = vec![ApproxChoice::BASELINE; g.len()];
            config[1] = choice; // node 1 is the conv
            let opts = ExecOptions {
                config,
                promise_seed: 0,
            };
            let fused = execute(&g, &x, &opts).unwrap();
            let unfused = execute_all(&g, &x, &opts).unwrap();
            let last = unfused.last().unwrap();
            assert_eq!(
                fused.data(),
                last.data(),
                "fusion changed bits under {choice:?}"
            );
        }
    }

    #[test]
    fn fusion_skipped_when_relu_not_fp32() {
        let (g, x) = tiny_cnn();
        // FP16 ReLU re-quantises its input; the fused kernel must not be
        // used there, and the unfused path must agree with execute_all.
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[2] = ApproxChoice::FP16; // node 2 is the relu
        let opts = ExecOptions {
            config,
            promise_seed: 0,
        };
        let out = execute(&g, &x, &opts).unwrap();
        let all = execute_all(&g, &x, &opts).unwrap();
        assert_eq!(out.data(), all.last().unwrap().data());
    }

    #[test]
    fn lut_multiplier_executes_on_conv_and_dense() {
        let (g, x) = tiny_cnn();
        let base = execute(&g, &x, &ExecOptions::baseline()).unwrap();
        let lut = ApproxChoice::digital_mul(
            ConvApprox::Exact,
            ReduceApprox::Exact,
            Precision::Fp32,
            MulApprox::Lut { bits: 4 },
        );
        for node in [1usize, 5] {
            // conv, dense
            let mut config = vec![ApproxChoice::BASELINE; g.len()];
            config[node] = lut;
            let opts = ExecOptions {
                config,
                promise_seed: 0,
            };
            let out = execute(&g, &x, &opts).unwrap();
            assert!(
                base.mse(&out).unwrap() > 0.0,
                "LUT multiplier on node {node} should perturb the output"
            );
            // Deterministic across runs (integer accumulation).
            let again = execute(&g, &x, &opts).unwrap();
            assert_eq!(out.data(), again.data());
        }
    }

    #[test]
    fn trace_times_populated() {
        let (g, x) = tiny_cnn();
        let (_, times) = execute_with_trace(&g, &x, &ExecOptions::baseline()).unwrap();
        assert_eq!(times.len(), g.len());
        assert!(times.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn records_name_each_plan_action_and_the_multiplies_run() {
        use PlanAction::*;
        let (g, x) = tiny_cnn();
        let (out, records) = execute_with_records(&g, &x, &ExecOptions::baseline()).unwrap();
        assert_eq!(out, execute(&g, &x, &ExecOptions::baseline()).unwrap());
        let actions: Vec<_> = records.iter().map(|r| r.action).collect();
        let fused = KernelFused(UnaryOp::Relu);
        let want = [
            NotRun,
            fused,
            AppliedByProducer,
            Kernel,
            Rename,
            Kernel,
            Kernel,
        ];
        assert_eq!(actions, want);
        // Conv: 2 images × (4 filters × 27 taps × 64 pixels); dense: 2 × 64 × 10.
        let muls: Vec<_> = records.iter().map(|r| r.counters.muls).collect();
        assert_eq!(muls, [0, 2 * 4 * 27 * 64, 0, 0, 0, 2 * 64 * 10, 0]);
        for (r, s) in records.iter().zip(shapes(&g, &x)) {
            assert_eq!(r.bytes_out, s.volume() * 4);
            assert_eq!(r.choice, ApproxChoice::BASELINE);
        }

        // An FP16 ReLU is not fused: it overwrites the conv's value instead.
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[2] = ApproxChoice::FP16;
        let opts = ExecOptions {
            config,
            promise_seed: 0,
        };
        let (_, records) = execute_with_records(&g, &x, &opts).unwrap();
        assert_eq!((records[1].action, records[2].action), (Kernel, InPlace));
        assert_eq!(records[2].choice, ApproxChoice::FP16);
    }

    #[test]
    fn suffix_matches_full_execution() {
        let (g, x) = tiny_cnn();
        let cache = execute_all(&g, &x, &ExecOptions::baseline()).unwrap();
        // Perturb node 1 (conv) and compare suffix vs full execution.
        let mut config = vec![ApproxChoice::BASELINE; g.len()];
        config[1] = ApproxChoice::FP16;
        let opts = ExecOptions {
            config,
            promise_seed: 0,
        };
        let full = execute(&g, &x, &opts).unwrap();
        let suffix = execute_suffix(&g, &x, &cache, NodeId(1), &opts).unwrap();
        assert_eq!(full.data(), suffix.data());
    }

    #[test]
    fn suffix_from_last_node() {
        let (g, x) = tiny_cnn();
        let cache = execute_all(&g, &x, &ExecOptions::baseline()).unwrap();
        let last = g.output().unwrap();
        let out = execute_suffix(&g, &x, &cache, last, &ExecOptions::baseline()).unwrap();
        assert_eq!(out.data(), cache[last.0 as usize].data());
    }

    fn shapes(g: &Graph, x: &Tensor) -> Vec<Shape> {
        infer_shapes(g, x.shape()).unwrap()
    }

    /// A random DAG over one `[2, 8]` value: element-wise maps, `Flatten`
    /// (a no-op reshape here) and `Add`, each reading any earlier node —
    /// so values fan out, die at different times, and some are never read.
    fn random_dag(seed: u64, nodes: usize) -> (Graph, Tensor) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new("dag");
        g.add_node(OpKind::Input, vec![], "in");
        for i in 1..=nodes {
            let a = NodeId(rng.gen_range(0..i as u32));
            let (op, inputs) = match rng.gen_range(0..7) {
                0 => (OpKind::Tanh, vec![a]),
                1 => (OpKind::Abs, vec![a]),
                2 => (OpKind::Relu, vec![a]),
                3 => (OpKind::ClippedRelu { lo: -0.3, hi: 0.4 }, vec![a]),
                4 => (OpKind::Flatten, vec![a]),
                _ => (OpKind::Add, vec![a, NodeId(rng.gen_range(0..i as u32))]),
            };
            g.add_node(op, inputs, "");
        }
        let x = Tensor::uniform(Shape::mat(2, 8), -1.0, 1.0, &mut rng);
        (g, x)
    }

    proptest::proptest! {
        /// No node takes (overwrites or moves) its operand while another
        /// consumer of it is still pending, from any suffix start; and with
        /// every value's lifetime decided that way, the run still computes
        /// what the keep-everything run computes.
        #[test]
        fn in_place_never_races_a_pending_consumer(
            seed in 0u64..1 << 32,
            nodes in 1usize..16,
            fp16_every in 2usize..5,
        ) {
            let (g, x) = random_dag(seed, nodes);
            g.validate().unwrap();
            let config = (0..g.len())
                .map(|i| if i > 0 && i % fp16_every == 0 { ApproxChoice::FP16 } else { ApproxChoice::BASELINE })
                .collect();
            let opts = ExecOptions { config, promise_seed: 0 };
            let all = execute_all(&g, &x, &opts).unwrap();
            let want: Vec<u32> = all.last().unwrap().data().iter().map(|v| v.to_bits()).collect();
            for start in 0..g.len() {
                let plan = Plan::new(&g, &choices(&g, &opts.config), start, Keep::Live, shapes(&g, &x));
                // `v` is live from its producer to its last reader (to the
                // end for the program output, only while it is produced if
                // nothing reads it).
                let end = |v: usize| {
                    let last = (v + 1..g.len()).rev().find(|&i| g.nodes()[i].inputs.contains(&NodeId(v as u32)));
                    last.unwrap_or(if v + 1 == g.len() { g.len() } else { v })
                };
                for v in start..g.len() {
                    let Some(sv) = plan.slot[v] else { continue };
                    proptest::prop_assert!(plan.slot_len[sv] >= plan.shapes[v].volume());
                    let v0 = g.nodes()[v].inputs[0].0 as usize;
                    if plan.in_place[v] {
                        proptest::prop_assert!(end(v0) == v, "node {v} takes {v0}, read again later");
                    }
                    // Two values share a slot only if one is dead before the
                    // other is produced, or the later one takes the slot
                    // over at the earlier one's last read.
                    for u in (start..v).filter(|&u| plan.slot[u] == Some(sv)) {
                        let handoff = plan.in_place[v] && v0 == u;
                        proptest::prop_assert!(
                            end(u) < v || (end(u) == v && handoff),
                            "from {start}: {u} (live to {}) and {v} share slot {sv}", end(u)
                        );
                    }
                }
                let out = execute_suffix(&g, &x, &all, NodeId(start as u32), &opts).unwrap();
                let got: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(&got, &want, "suffix from {}", start);
            }
            let got: Vec<u32> = execute(&g, &x, &opts).unwrap().data().iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
