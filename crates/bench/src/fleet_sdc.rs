//! Silent-data-corruption campaign — the `fleet_sdc` experiment and the
//! writer of `BENCH_sdc.json`.
//!
//! Three experiments in one artifact:
//!
//! 1. **Kernel detection coverage**: seeded single-bit flips injected into
//!    a GEMM's weight panel, activation buffer, and output accumulator
//!    (after checksum capture, modelling corruption landing post-pack),
//!    verified with [`verify_gemm_f32`] against the golden operands. The
//!    acceptance bar is ≥ 99% *coverage* across all targets and bits ≥ 16:
//!    each flip either trips the checksum or is ruled harmless by an f64
//!    ground-truth referee (its column perturbations all sit inside the
//!    checker's tolerance contract — e.g. a flip on a near-zero element,
//!    indistinguishable from rounding noise and within the approximation
//!    envelope the runtime already promises). Materially corrupting
//!    escapes must be zero.
//! 2. **ABFT overhead**: wall-clock of the checksummed GEMM vs the
//!    unprotected kernel at `AT_BENCH_ABFT_DIM`³ (default 512³), plus a
//!    bit-identity check of the protected output — the checksums must
//!    cost ≤ 10% and change nothing.
//! 3. **Fleet campaign**: the [`FleetStorm`] roster on a steady device
//!    under a sweep of bit-flip windows — a clean baseline, two protected
//!    campaigns at increasing flip rates, and a *stealth* phase whose flips
//!    land below the modelled detection floor so escapes stay measurable.
//!    Detected results never feed the QoS guard's residual window, so guard
//!    quarantine convictions must not grow with the flip rate; every phase
//!    must keep `requests_unaccounted = 0`, and the chaotic report must be
//!    bit-identical across rayon thread counts.

use crate::env::Sizing;
use crate::fleet_storm::{FleetStorm, LIAR};
use crate::report::{fx, pct, Artifact, Table};
use at_core::chaos::{ChaosPlan, FlipTarget};
use at_core::fleet::{FleetReport, RouterPolicy, SdcParams};
use at_core::guard::{mix64, unit_interval};
use at_hw::{FrequencyLadder, Scenario};
use at_tensor::ops::gemm::{gemm_f32, Epilogue};
use at_tensor::ops::{flip_bit, gemm_f32_abft, verify_gemm_f32, AbftTol};

/// Kernel-level injection campaign results.
///
/// A flip whose ground-truth effect on the output is smaller than the
/// checker's tolerance contract (e.g. a mantissa flip on a near-zero
/// element) is indistinguishable from the kernel's own rounding noise —
/// no sound detector can flag it, and the result it produces is still
/// within the approximation envelope the runtime already promises. The
/// headline number is therefore *coverage*: every injected flip must be
/// either detected or proven (against f64 ground truth) to perturb each
/// output column by less than twice its checksum limit.
#[derive(serde::Serialize)]
struct KernelStats {
    /// GEMM shape used for injection, `MxKxN`.
    dims: String,
    /// Total flips injected (targets × bits 16..32 × trials).
    injected: usize,
    /// Flips caught by checksum verification.
    detected: usize,
    /// Escapes whose f64 ground-truth column perturbations are all within
    /// 2× the checksum limit — inside the approximation contract, so
    /// harmless by construction.
    bounded_escapes: usize,
    /// Escapes that materially corrupted the output (perturbation beyond
    /// the contract) — real detector failures. Must be zero.
    unbounded_escapes: usize,
    /// `100 · detected / injected` — raw detection rate, for reference.
    detection_pct: f64,
    /// `100 · (detected + bounded_escapes) / injected` — the headline
    /// coverage (bar: ≥ 99%).
    covered_pct: f64,
    /// Verification passes on *clean* outputs that wrongly tripped.
    clean_false_alarms: usize,
}

/// ABFT wall-clock overhead at the benchmark dimension.
#[derive(serde::Serialize)]
struct OverheadStats {
    /// Cubic GEMM dimension.
    dim: usize,
    /// Best-of-three unprotected GEMM time, milliseconds.
    plain_ms: f64,
    /// Best-of-three checksummed GEMM time, milliseconds.
    abft_ms: f64,
    /// `100 · (abft − plain) / plain`; the bar is ≤ 10%.
    overhead_pct: f64,
    /// Protected and unprotected outputs compared byte-for-byte.
    bit_identical: bool,
}

/// One phase of the fleet flip-rate sweep.
#[derive(serde::Serialize)]
struct PhaseStats {
    phase: String,
    /// Per-request flip probability inside active windows.
    flip_rate: f64,
    /// Lowest bit position the injector draws (the modelled ABFT floor is
    /// [`SdcParams::detect_bit_floor`]; below it flips escape).
    min_bit: u32,
    arrivals: usize,
    admitted: usize,
    on_time_pct: f64,
    sdc_detected: usize,
    sdc_reexecuted: usize,
    sdc_escaped: usize,
    sdc_ejections: usize,
    /// Guard quarantine convictions of the roster's one *lying* tenant —
    /// these are honest guard work (the lie is real) and may grow as SDC
    /// ejections shift load between replicas.
    quarantined_points_liar: usize,
    /// Guard quarantine convictions of honest tenants — injected
    /// corruption must never inflate this beyond the baseline phase,
    /// because detected results are discarded before the residual window.
    quarantined_points_honest: usize,
    /// |arrivals − (admitted + shed)|; must be zero in every phase.
    requests_unaccounted: usize,
    mean_latency_ms: f64,
    /// Wall-clock seconds the simulation took (not simulated time).
    wall_s: f64,
    /// Simulated arrivals processed per wall-clock second.
    sim_rps: f64,
}

/// What `BENCH_sdc.json` holds after the fleet header.
#[derive(serde::Serialize)]
pub struct Body {
    /// Kernel-level injection coverage.
    kernel: KernelStats,
    /// ABFT wall-clock cost.
    overhead: OverheadStats,
    /// Fleet-level detection coverage over the protected campaign phases
    /// (flips at or above the detection floor).
    fleet_detection_pct: f64,
    /// On-time percentage under the heaviest protected campaign.
    availability_pct: f64,
    /// Baseline on-time percentage minus the heaviest campaign's.
    availability_drop_pct: f64,
    /// Highest honest-tenant quarantine count across campaign phases
    /// minus the baseline's (clamped at zero) — nonzero would mean
    /// injected corruption leaked into the guard's residual evidence and
    /// convicted an honest curve point.
    honest_convictions_over_baseline: usize,
    /// Campaign accounting gap; the experiment refuses to ship non-zero.
    requests_unaccounted: usize,
    /// 1-thread vs 8-thread campaign reports compared byte-for-byte.
    bit_identical_across_threads: bool,
    phases: Vec<PhaseStats>,
}

/// Deterministic value stream for operand buffers (splitmix64 bits mapped
/// into `[-1, 1)`), so the kernel campaign needs no RNG dependency.
fn unit_stream(seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let z = mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 2)));
            (unit_interval(z) * 2.0 - 1.0) as f32
        })
        .collect()
}

fn pick(seed: u64, len: usize) -> usize {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize % len.max(1)
}

/// f64 ground-truth referee for an escaped flip: recomputes the column
/// perturbation `|Σ_i corrupt[i,j] − Σ_i golden[i,j]|` and the checker's
/// column limits in double precision, and rules the escape *bounded*
/// (harmless, inside the approximation contract) when every column sits
/// within twice its limit.
#[allow(clippy::too_many_arguments)]
fn escape_is_bounded(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    golden: &[f32],
    corrupt: &[f32],
    tol: &AbftTol,
) -> bool {
    let mut colsum_a = vec![0.0f64; k];
    let mut colmag_a = vec![0.0f64; k];
    for i in 0..m {
        for (kk, &v) in a[i * k..(i + 1) * k].iter().enumerate() {
            let v = f64::from(v);
            colsum_a[kk] += v;
            colmag_a[kk] += v * v;
        }
    }
    let mut limit = vec![tol.abs; n];
    let mut mag = vec![0.0f64; n];
    for kk in 0..k {
        let w = colsum_a[kk] * colsum_a[kk] + colmag_a[kk];
        for (j, &v) in b[kk * n..(kk + 1) * n].iter().enumerate() {
            let v = f64::from(v);
            mag[j] += w * v * v;
        }
    }
    for j in 0..n {
        limit[j] += tol.rel * mag[j].sqrt();
    }
    let mut delta = vec![0.0f64; n];
    for i in 0..m {
        for j in 0..n {
            delta[j] += f64::from(corrupt[i * n + j]) - f64::from(golden[i * n + j]);
        }
    }
    (0..n).all(|j| delta[j].abs() <= 2.0 * limit[j])
}

/// Injects `trials` flips per (target, bit ≥ 16) pair into a small GEMM
/// and counts checksum detections against the golden operands.
fn kernel_campaign(seed: u64, trials: usize) -> KernelStats {
    let (m, k, n) = (24, 40, 28);
    let tol = AbftTol::exact(m, k, n);
    let a = unit_stream(seed ^ 0xA0, m * k);
    let b = unit_stream(seed ^ 0xB0, k * n);
    let mut golden = vec![0.0f32; m * n];
    gemm_f32(m, k, n, &a, &b, &mut golden, &Epilogue::Raw);
    let clean_false_alarms = usize::from(verify_gemm_f32(m, k, n, &a, &b, &golden, &tol).is_err());

    let mut injected = 0usize;
    let mut detected = 0usize;
    let mut bounded_escapes = 0usize;
    let mut unbounded_escapes = 0usize;
    let mut c = vec![0.0f32; m * n];
    for trial in 0..trials {
        for (ti, target) in FlipTarget::ALL.into_iter().enumerate() {
            for bit in 16..32u32 {
                let fseed = seed ^ ((trial * 48 + ti * 16) as u64) ^ (u64::from(bit) << 40);
                injected += 1;
                let caught = match target {
                    // Operand flips land *after* checksum capture: the
                    // multiply runs over the corrupted panel while
                    // verification holds checksums of the golden one.
                    FlipTarget::WeightPanel => {
                        let mut bc = b.clone();
                        let idx = pick(fseed, bc.len());
                        flip_bit(&mut bc, idx, bit);
                        gemm_f32(m, k, n, &a, &bc, &mut c, &Epilogue::Raw);
                        verify_gemm_f32(m, k, n, &a, &b, &c, &tol).is_err()
                    }
                    FlipTarget::ActivationBuffer => {
                        let mut ac = a.clone();
                        let idx = pick(fseed, ac.len());
                        flip_bit(&mut ac, idx, bit);
                        gemm_f32(m, k, n, &ac, &b, &mut c, &Epilogue::Raw);
                        verify_gemm_f32(m, k, n, &a, &b, &c, &tol).is_err()
                    }
                    FlipTarget::Accumulator => {
                        c.copy_from_slice(&golden);
                        let idx = pick(fseed, c.len());
                        flip_bit(&mut c, idx, bit);
                        verify_gemm_f32(m, k, n, &a, &b, &c, &tol).is_err()
                    }
                };
                if caught {
                    detected += 1;
                } else if escape_is_bounded(m, k, n, &a, &b, &golden, &c, &tol) {
                    bounded_escapes += 1;
                } else {
                    unbounded_escapes += 1;
                }
            }
        }
    }
    let pct_of = |x: usize| {
        if injected > 0 {
            100.0 * x as f64 / injected as f64
        } else {
            100.0
        }
    };
    KernelStats {
        dims: format!("{m}x{k}x{n}"),
        injected,
        detected,
        bounded_escapes,
        unbounded_escapes,
        detection_pct: pct_of(detected),
        covered_pct: pct_of(detected + bounded_escapes),
        clean_false_alarms,
    }
}

/// Times the unprotected vs checksummed GEMM at `dim`³ and checks the
/// protected output is bit-identical. The two calls take turns within each
/// of five rounds and each keeps its minimum, so a slow spell of the
/// machine (or a mode switch of the GEMM) hits both alike instead of one
/// block of three.
fn overhead_campaign(seed: u64, dim: usize) -> OverheadStats {
    let (m, k, n) = (dim, dim, dim);
    let a = unit_stream(seed ^ 0xA1, m * k);
    let b = unit_stream(seed ^ 0xB1, k * n);
    let tol = AbftTol::exact(m, k, n);
    let mut plain = vec![0.0f32; m * n];
    let mut abft = vec![0.0f32; m * n];
    let timed = |f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut plain_s, mut abft_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        plain_s = plain_s.min(timed(&mut || {
            gemm_f32(m, k, n, &a, &b, &mut plain, &Epilogue::Raw);
        }));
        abft_s = abft_s.min(timed(&mut || {
            let _ = gemm_f32_abft(m, k, n, &a, &b, &mut abft, &Epilogue::Raw, &tol);
        }));
    }
    OverheadStats {
        dim,
        plain_ms: 1e3 * plain_s,
        abft_ms: 1e3 * abft_s,
        overhead_pct: if plain_s > 0.0 {
            100.0 * (abft_s - plain_s) / plain_s
        } else {
            0.0
        },
        bit_identical: plain
            .iter()
            .zip(&abft)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
    }
}

fn phase_stats(
    phase: &str,
    flip_rate: f64,
    min_bit: u32,
    (report, wall_s, sim_rps): (FleetReport, f64, f64),
) -> PhaseStats {
    PhaseStats {
        phase: phase.to_string(),
        flip_rate,
        min_bit,
        arrivals: report.arrivals,
        admitted: report.admitted,
        on_time_pct: 100.0 * report.on_time_rate(),
        sdc_detected: report.sdc_detected,
        sdc_reexecuted: report.sdc_reexecuted,
        sdc_escaped: report.sdc_escaped,
        sdc_ejections: report.sdc_ejections,
        quarantined_points_liar: report
            .tenants
            .iter()
            .filter(|t| t.name == LIAR.name())
            .map(|t| t.quarantined_points)
            .sum(),
        quarantined_points_honest: report
            .tenants
            .iter()
            .filter(|t| t.name != LIAR.name())
            .map(|t| t.quarantined_points)
            .sum(),
        requests_unaccounted: report.requests_unaccounted,
        mean_latency_ms: 1e3 * report.mean_latency_s,
        wall_s,
        sim_rps,
    }
}

/// Runs the kernel coverage and ABFT overhead campaigns at `sizing`'s
/// trial count and GEMM dimension, then the fleet flip-rate sweep.
pub fn build(storm: &FleetStorm, sizing: &Sizing) -> Body {
    let (seed, replicas, horizon_s) = (storm.seed, storm.replicas, storm.horizon_s);
    let kernel = kernel_campaign(seed, sizing.sdc_trials);
    println!(
        "kernel: {}/{} flips detected ({}), {} bounded + {} material escapes \
         (coverage {}) over {} GEMM, clean false alarms {}",
        kernel.detected,
        kernel.injected,
        pct(kernel.detection_pct),
        kernel.bounded_escapes,
        kernel.unbounded_escapes,
        pct(kernel.covered_pct),
        kernel.dims,
        kernel.clean_false_alarms
    );
    let overhead = overhead_campaign(seed, sizing.abft_dim);
    println!(
        "abft overhead @ {}^3: plain {:.1}ms, abft {:.1}ms ({} overhead, outputs {})",
        overhead.dim,
        overhead.plain_ms,
        overhead.abft_ms,
        fx(1.0 + overhead.overhead_pct / 100.0),
        if overhead.bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let floor = SdcParams::default().detect_bit_floor;
    // (name, rate, min_bit): baseline → two protected campaigns → a
    // stealth phase whose flips land below the modelled detection floor.
    let sweep: [(&str, f64, u32); 4] = [
        ("baseline", 0.0, floor),
        ("flips-2pct", 0.02, floor),
        ("flips-10pct", 0.10, floor),
        ("stealth-low-bits", 0.05, 8),
    ];
    let plan_for = |rate: f64, min_bit: u32| {
        if rate <= 0.0 {
            ChaosPlan::none()
        } else {
            ChaosPlan::none().with_bitflip_campaign(
                seed ^ 0x5DC,
                horizon_s,
                replicas,
                replicas.max(2),
                rate,
                min_bit,
            )
        }
    };
    let policy = RouterPolicy::PowerOfTwoChoices;

    let mut table = Table::new(&[
        "phase", "rate", "arrivals", "on-time", "detect", "reexec", "escape", "eject", "quar",
        "sim-rps",
    ]);
    let mut phases = Vec::new();
    for (name, rate, min_bit) in sweep {
        let run = storm.run(policy, &plan_for(rate, min_bit));
        let stats = phase_stats(name, rate, min_bit, run);
        table.row(vec![
            stats.phase.clone(),
            format!("{:.0}%", 100.0 * rate),
            stats.arrivals.to_string(),
            pct(stats.on_time_pct),
            stats.sdc_detected.to_string(),
            stats.sdc_reexecuted.to_string(),
            stats.sdc_escaped.to_string(),
            stats.sdc_ejections.to_string(),
            format!(
                "{}+{}",
                stats.quarantined_points_liar, stats.quarantined_points_honest
            ),
            format!("{:.0}", stats.sim_rps),
        ]);
        phases.push(stats);
    }
    table.print();

    // Fleet-level detection coverage over the phases whose flips all land
    // at or above the modelled floor (the stealth phase measures escapes).
    let (det, esc) = phases
        .iter()
        .filter(|p| p.flip_rate > 0.0 && p.min_bit >= floor)
        .fold((0usize, 0usize), |(d, e), p| {
            (d + p.sdc_detected, e + p.sdc_escaped)
        });
    let fleet_detection_pct = if det + esc > 0 {
        100.0 * det as f64 / (det + esc) as f64
    } else {
        100.0
    };
    let baseline_q = phases[0].quarantined_points_honest;
    let campaign_q_max = phases[1..]
        .iter()
        .map(|p| p.quarantined_points_honest)
        .max()
        .unwrap_or(0);
    Body {
        kernel,
        overhead,
        fleet_detection_pct,
        availability_pct: phases[2].on_time_pct,
        availability_drop_pct: phases[0].on_time_pct - phases[2].on_time_pct,
        honest_convictions_over_baseline: campaign_q_max.saturating_sub(baseline_q),
        requests_unaccounted: phases.iter().map(|p| p.requests_unaccounted).sum(),
        // Determinism self-check on the heaviest protected campaign.
        bit_identical_across_threads: storm
            .bit_identical_across_threads(policy, &plan_for(sweep[2].1, sweep[2].2)),
        phases,
    }
}

/// The campaign's fixture: the fleet roster on an undisturbed device, so
/// every anomaly in the sweep is an injected flip.
pub fn storm(sizing: &Sizing) -> FleetStorm {
    let steady = Scenario::new("steady", FrequencyLadder::tx2_gpu(), usize::MAX / 2, 0);
    FleetStorm::new(sizing, steady)
}

/// The `fleet_sdc` experiment.
pub(crate) fn run(sizing: &Sizing) -> Artifact {
    let storm = storm(sizing);
    let artifact = build(&storm, sizing);
    assert!(
        artifact.kernel.covered_pct >= 99.0,
        "kernel fault coverage {:.2}% below the 99% bar",
        artifact.kernel.covered_pct
    );
    assert_eq!(
        artifact.kernel.unbounded_escapes, 0,
        "a flip escaped detection AND materially corrupted the output"
    );
    assert_eq!(
        artifact.kernel.clean_false_alarms, 0,
        "checksum verification tripped on a clean output"
    );
    assert!(
        artifact.overhead.bit_identical,
        "ABFT epilogue changed the protected output"
    );
    assert!(
        artifact.fleet_detection_pct >= 99.0,
        "fleet detection coverage {:.2}% below the 99% bar",
        artifact.fleet_detection_pct
    );
    assert_eq!(
        artifact.requests_unaccounted, 0,
        "an SDC phase lost requests silently — accounting regression"
    );
    assert_eq!(
        artifact.honest_convictions_over_baseline, 0,
        "injected corruption convicted an honest tenant's curve points"
    );
    assert!(
        artifact.bit_identical_across_threads,
        "SDC fleet report depends on thread count — determinism regression"
    );
    if artifact.overhead.dim >= 512 && artifact.overhead.overhead_pct > 10.0 {
        eprintln!(
            "WARNING: ABFT overhead {:.2}% exceeds the 10% bar at {}^3",
            artifact.overhead.overhead_pct, artifact.overhead.dim
        );
        std::process::exit(1);
    }
    println!(
        "sdc: kernel coverage {}, fleet coverage {}, abft overhead {}, availability {} \
         (drop {} vs baseline)",
        pct(artifact.kernel.covered_pct),
        pct(artifact.fleet_detection_pct),
        pct(artifact.overhead.overhead_pct),
        pct(artifact.availability_pct),
        pct(artifact.availability_drop_pct)
    );
    Artifact::bench("sdc", &storm.artifact("fleet_sdc", &artifact))
}
