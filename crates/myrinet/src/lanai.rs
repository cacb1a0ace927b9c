//! Timing model of the prototype's host + adapter send/forward paths.
//!
//! All times are in byte-times of the 640 Mb/s link (1 byte-time = 12.5 ns).
//!
//! Calibration targets (from the paper's Figure 12): a single sender
//! reaches roughly 40–50 Mb/s at 1 KB packets and ~120 Mb/s at 8 KB. That
//! shape — linear-ish rise flattening towards a bandwidth asymptote — is
//! produced by a fixed per-packet cost plus a per-byte cost several times
//! the link's, which matches the hardware: the SPARCstation-5's SBus DMA
//! moves data at roughly 15–20 MB/s while the link moves 80 MB/s, and the
//! application/driver path costs on the order of 100 µs per packet.
use wormcast_sim::time::SimTime;

/// Adapter and host timing/capacity parameters.
#[derive(Clone, Copy, Debug)]
pub struct LanaiModel {
    /// Fixed host-side cost per originated packet (system-call-free
    /// application-space interface, but still driver queue manipulation and
    /// LANai doorbells), in byte-times.
    pub send_overhead: SimTime,
    /// Host→adapter DMA cost per payload byte, in byte-times per byte.
    /// 3.0 ≈ a 27 MB/s SBus burst against the 80 MB/s link.
    pub dma_byte_times_per_byte: f64,
    /// Adapter→host delivery cost per payload byte (DMA plus the driver's
    /// copy/checksum on the 70 MHz host), in byte-times per byte. Shares
    /// the single host bus with the transmit path.
    pub rx_dma_byte_times_per_byte: f64,
    /// Fixed host-side cost per received packet (interrupt, driver entry,
    /// descriptor handling), in byte-times. On the 70 MHz SPARCstation 5
    /// this dominates small-packet reception.
    pub rx_overhead: SimTime,
    /// LANai processing between fully receiving a worm and starting its
    /// retransmission (store-and-forward; the LANai cannot cut through).
    pub forward_overhead: SimTime,
    /// Worm-buffer budget in the adapter SRAM ("about 25 Kbytes").
    pub rx_buffer_bytes: u32,
}

impl Default for LanaiModel {
    fn default() -> Self {
        LanaiModel {
            send_overhead: 10_000,            // 125 µs
            dma_byte_times_per_byte: 3.0,     // ~27 MB/s host bus
            rx_dma_byte_times_per_byte: 3.5,  // ~23 MB/s delivery path
            rx_overhead: 10_000,              // 125 µs per received packet
            forward_overhead: 1_600,          // 20 µs of LANai work
            rx_buffer_bytes: 25 * 1024,
        }
    }
}

impl LanaiModel {
    /// Time from one originated packet's transmit completion to the next
    /// packet being ready to transmit (the saturating-source period minus
    /// the wire time).
    pub fn pump_gap(&self, payload: u32) -> SimTime {
        self.send_overhead + (payload as f64 * self.dma_byte_times_per_byte) as SimTime
    }

    /// Delivery (adapter→host) cost for one worm, in byte-times: fixed
    /// per-packet host work plus the bus transfer.
    pub fn delivery_cost(&self, payload: u32) -> SimTime {
        self.rx_overhead + (payload as f64 * self.rx_dma_byte_times_per_byte) as SimTime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_shape_matches_figure12() {
        // Closed-form single-sender goodput in Mb/s: wire time plus pump
        // gap per packet.
        let m = LanaiModel::default();
        let mbps = |payload: u32| {
            let per_packet = payload as f64 + m.pump_gap(payload) as f64;
            payload as f64 / per_packet * 640.0
        };
        let (at_1k, at_4k, at_8k) = (mbps(1024), mbps(4096), mbps(8192));
        assert!(at_1k < at_4k && at_4k < at_8k, "monotone rise");
        // Paper ballpark: tens of Mb/s at 1 KB, low hundreds at 8 KB.
        assert!((20.0..=80.0).contains(&at_1k), "1KB: {at_1k}");
        assert!((80.0..=180.0).contains(&at_8k), "8KB: {at_8k}");
    }

    #[test]
    fn pump_gap_grows_with_size() {
        let m = LanaiModel::default();
        assert!(m.pump_gap(8192) > m.pump_gap(1024));
        assert_eq!(m.pump_gap(0), m.send_overhead);
    }
}
