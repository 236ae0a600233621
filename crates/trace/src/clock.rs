//! Cross-process clock-offset estimation (NTP-style, minimum-RTT).
//!
//! Every process stamps spans on its own trace-epoch clock
//! ([`crate::span::now_ns`]), which starts at that process's first
//! instrumented call — worker timelines are therefore shifted against
//! the coordinator's by an unknown per-process offset. The shard
//! coordinator runs a short probe exchange at connect time: it sends
//! its clock reading `t0`, the worker replies with its own reading
//! `tw`, and the coordinator notes the arrival time `t1`. Assuming the
//! request and reply halves of the round trip are symmetric, the worker
//! read its clock at coordinator time `(t0 + t1) / 2`, so
//!
//! ```text
//! offset = tw − (t0 + t1) / 2        (worker clock − coordinator clock)
//! ```
//!
//! Each exchange's error is bounded by its round-trip time, so of the
//! handful of samples taken the one with the smallest RTT wins — the
//! classic NTP filter. Mapping a worker timestamp onto the
//! coordinator's timeline is then `t_coord = tw − offset`
//! ([`OffsetEstimate::to_coordinator_ns`]).
//!
//! Always compiled: the math operates on exchanged numbers, not on live
//! instrumentation, and the exporter needs it to merge archived traces.

/// `d` in whole nanoseconds, saturating at `u64::MAX` (about 584 years).
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One probe exchange: coordinator send time, worker clock reading,
/// coordinator receive time (all nanoseconds on the respective epoch
/// clocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSample {
    /// Coordinator clock when the probe was sent.
    pub t_send_ns: u64,
    /// Worker clock when it answered.
    pub t_worker_ns: u64,
    /// Coordinator clock when the reply arrived.
    pub t_recv_ns: u64,
}

impl ClockSample {
    /// Round-trip time of this exchange (0 if the clock misbehaved).
    pub fn rtt_ns(&self) -> u64 {
        self.t_recv_ns.saturating_sub(self.t_send_ns)
    }

    /// Offset estimate from this single exchange.
    pub fn offset_ns(&self) -> i64 {
        let midpoint = (self.t_send_ns as i128 + self.t_recv_ns as i128) / 2;
        (self.t_worker_ns as i128 - midpoint) as i64
    }
}

/// The selected offset for one worker process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffsetEstimate {
    /// Worker clock minus coordinator clock, nanoseconds.
    pub offset_ns: i64,
    /// RTT of the winning exchange — an upper bound on the error.
    pub rtt_ns: u64,
    /// Number of exchanges the estimate was selected from.
    pub samples: u32,
}

impl OffsetEstimate {
    /// Map a worker-clock timestamp onto the coordinator timeline,
    /// clamped at zero (a worker event can appear to predate the
    /// coordinator epoch by up to one RTT).
    pub fn to_coordinator_ns(&self, t_worker_ns: u64) -> u64 {
        (t_worker_ns as i128 - self.offset_ns as i128).max(0) as u64
    }
}

/// Select the minimum-RTT estimate from `samples`. Empty input yields
/// the identity estimate (offset 0), which merges traces unshifted.
pub fn estimate(samples: &[ClockSample]) -> OffsetEstimate {
    let best = samples.iter().min_by_key(|s| s.rtt_ns());
    match best {
        Some(s) => OffsetEstimate {
            offset_ns: s.offset_ns(),
            rtt_ns: s.rtt_ns(),
            samples: samples.len() as u32,
        },
        None => OffsetEstimate::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_ns_saturates() {
        use std::time::Duration;
        assert_eq!(duration_ns(Duration::from_micros(3)), 3_000);
        assert_eq!(duration_ns(Duration::MAX), u64::MAX);
    }

    #[test]
    fn single_symmetric_exchange_recovers_offset() {
        // Worker clock runs 500 ns ahead; 100 ns each way on the wire.
        let s = ClockSample {
            t_send_ns: 1_000,
            t_worker_ns: 1_100 + 500,
            t_recv_ns: 1_200,
        };
        assert_eq!(s.rtt_ns(), 200);
        assert_eq!(s.offset_ns(), 500);
        let est = estimate(&[s]);
        assert_eq!(est.offset_ns, 500);
        assert_eq!(est.rtt_ns, 200);
        assert_eq!(est.samples, 1);
        assert_eq!(est.to_coordinator_ns(1_600), 1_100);
    }

    #[test]
    fn minimum_rtt_sample_wins() {
        let noisy = ClockSample {
            t_send_ns: 0,
            t_worker_ns: 9_000, // wildly wrong: queued behind a stall
            t_recv_ns: 10_000,
        };
        let clean = ClockSample {
            t_send_ns: 20_000,
            t_worker_ns: 20_050 + 300,
            t_recv_ns: 20_100,
        };
        let est = estimate(&[noisy, clean, noisy]);
        assert_eq!(est.offset_ns, 300);
        assert_eq!(est.rtt_ns, 100);
        assert_eq!(est.samples, 3);
    }

    #[test]
    fn negative_offset_and_clamping() {
        // Worker epoch started *after* the coordinator's: worker clock
        // reads lower, offset is negative, mapping shifts forward.
        let s = ClockSample {
            t_send_ns: 5_000,
            t_worker_ns: 100,
            t_recv_ns: 5_200,
        };
        let est = estimate(&[s]);
        assert_eq!(est.offset_ns, 100 - 5_100);
        assert_eq!(est.to_coordinator_ns(100), 5_100);
        // Clamp: a mapped time can never go below the epoch.
        let ahead = estimate(&[ClockSample {
            t_send_ns: 0,
            t_worker_ns: 1_000_000,
            t_recv_ns: 100,
        }]);
        assert_eq!(ahead.to_coordinator_ns(0), 0);
    }

    #[test]
    fn empty_samples_are_identity() {
        let est = estimate(&[]);
        assert_eq!(est, OffsetEstimate::default());
        assert_eq!(est.to_coordinator_ns(42), 42);
    }

    #[test]
    fn asymmetric_rtt_error_is_bounded_by_rtt() {
        // True offset 500, but the request leg took 180 ns and the
        // reply leg 20 ns — the midpoint assumption misattributes the
        // asymmetry. The estimate error must stay within the RTT bound.
        let true_offset = 500i64;
        let s = ClockSample {
            t_send_ns: 1_000,
            t_worker_ns: (1_180i64 + true_offset) as u64, // read after the slow leg
            t_recv_ns: 1_200,
        };
        let est = estimate(&[s]);
        let err = (est.offset_ns - true_offset).abs();
        assert!(err > 0, "asymmetry must show up, or this test is vacuous");
        assert!(
            err as u64 <= est.rtt_ns,
            "error {err} exceeds the RTT bound {}",
            est.rtt_ns
        );
    }

    #[test]
    fn min_rtt_selection_among_negative_offsets() {
        // All offsets negative (worker epochs start late); the filter
        // must still pick by RTT, not by offset magnitude.
        let wide = ClockSample {
            t_send_ns: 10_000,
            t_worker_ns: 2_000,
            t_recv_ns: 11_000,
        };
        let tight = ClockSample {
            t_send_ns: 30_000,
            t_worker_ns: 22_040,
            t_recv_ns: 30_080,
        };
        let est = estimate(&[wide, tight]);
        assert_eq!(est.rtt_ns, 80);
        assert_eq!(est.offset_ns, 22_040 - 30_040);
        assert!(est.offset_ns < 0);
        // Mapping a worker stamp forward onto the coordinator timeline.
        assert_eq!(est.to_coordinator_ns(22_040), 30_040);
    }

    #[test]
    fn single_probe_zero_rtt_is_exact() {
        // Degenerate handshake: reply arrives on the same coordinator
        // tick it was sent (loopback, coarse clock). RTT 0 means the
        // error bound is zero and the offset is taken verbatim.
        let s = ClockSample {
            t_send_ns: 7_000,
            t_worker_ns: 7_123,
            t_recv_ns: 7_000,
        };
        let est = estimate(&[s]);
        assert_eq!(est.rtt_ns, 0);
        assert_eq!(est.offset_ns, 123);
        assert_eq!(est.samples, 1);
    }

    #[test]
    fn backwards_clock_sample_saturates_rtt() {
        // t_recv < t_send (the coordinator clock misbehaved): rtt_ns
        // saturates to 0 rather than wrapping, so the sample claims a
        // perfect error bound and wins the filter — callers are expected
        // to feed monotonic readings. This pins the documented behavior.
        let broken = ClockSample {
            t_send_ns: 5_000,
            t_worker_ns: 9_999,
            t_recv_ns: 4_000,
        };
        assert_eq!(broken.rtt_ns(), 0);
        let honest = ClockSample {
            t_send_ns: 6_000,
            t_worker_ns: 6_150,
            t_recv_ns: 6_200,
        };
        let est = estimate(&[honest, broken]);
        assert_eq!(est.rtt_ns, 0);
        assert_eq!(est.samples, 2);
    }
}
