//! Point-to-point link model.

/// A network link with fixed bandwidth and one-way latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
}

impl Link {
    /// The paper's emulated client link: 13.7 Mbps (FedScale's average
    /// mobile network condition) with a typical WAN latency.
    pub fn fedscale_client() -> Self {
        Link { bandwidth_mbps: 13.7, latency_ms: 50.0 }
    }

    /// Seconds to transfer `bytes` over this link (latency + serialization).
    ///
    /// Zero bytes still pay the latency (a control message), except that a
    /// fully-skipped transfer should be modelled by not calling this at all.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        self.latency_ms / 1e3 + (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = Link { bandwidth_mbps: 8.0, latency_ms: 0.0 };
        // 8 Mbps = 1 MB/s; 2 MB takes 2 s.
        assert!((l.transfer_secs(2_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_applies_to_small_messages() {
        let l = Link { bandwidth_mbps: 1000.0, latency_ms: 100.0 };
        assert!(l.transfer_secs(0) >= 0.1);
    }

    #[test]
    fn fedscale_default() {
        assert!((Link::fedscale_client().bandwidth_mbps - 13.7).abs() < f64::EPSILON);
    }
}
