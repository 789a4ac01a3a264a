//! PROMISE hardware geometry (paper Table 2).

use serde::{Deserialize, Serialize};

/// Physical configuration of the PROMISE chip modelled on the SoC.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PromiseGeometry {
    /// Number of in-memory compute banks.
    pub banks: usize,
    /// Capacity of each bank in bytes.
    pub bank_bytes: usize,
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
    /// Vector width processed per bank per cycle (elements).
    pub lane_width: usize,
}

impl PromiseGeometry {
    /// The paper's Table 2 configuration: 256 banks × 16 KB at 1 GHz.
    pub(crate) fn paper() -> PromiseGeometry {
        PromiseGeometry {
            banks: 256,
            bank_bytes: 16 * 1024,
            frequency_hz: 1.0e9,
            lane_width: 128,
        }
    }
}
