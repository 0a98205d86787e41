//! Lightweight tracing spans: RAII guards recording a call count and a
//! wall-clock duration histogram per pipeline stage.
//!
//! A [`SpanTimer`] is the per-stage handle — two `Arc`s resolved from the
//! registry once (`{name}.calls` counter, `{name}.micros` histogram) — and
//! [`SpanTimer::start`] returns a guard whose `Drop` records the elapsed
//! microseconds.  Hot paths cache the timer at construction; the
//! [`span!`](crate::span!) macro is the inline convenience form for cold
//! paths.
//!
//! Wall-clock span durations are **observability-only**: nothing derived
//! from them may feed a replay digest (logical-timeline metrics use
//! explicitly recorded histograms instead), which is what keeps
//! instrumented replays bit-identical across worker counts.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::LogHistogram;
use crate::registry::{Counter, MetricsRegistry};

/// The cached instruments of one span stage (`{name}.calls`,
/// `{name}.micros`).
#[derive(Clone, Debug)]
pub struct SpanTimer {
    calls: Arc<Counter>,
    micros: Arc<LogHistogram>,
}

impl SpanTimer {
    /// Resolves (or creates) the stage's instruments in `registry`.
    pub fn new(registry: &MetricsRegistry, name: &str) -> Self {
        SpanTimer {
            calls: registry.counter(&format!("{name}.calls")),
            micros: registry.histogram(&format!("{name}.micros")),
        }
    }

    /// Starts one span; the returned guard records on drop.
    pub fn start(&self) -> SpanGuard {
        SpanGuard {
            calls: Some(self.calls.clone()),
            micros: self.micros.clone(),
            started: Instant::now(),
        }
    }

    /// Counts one call unconditionally but opens a timed guard for only
    /// one call in [`SAMPLE_EVERY`]: saturated per-request paths pay a
    /// single atomic increment per call instead of two clock reads plus a
    /// histogram record, keeping instrumentation overhead inside the
    /// replay overhead budget.  `{name}.calls` stays an exact call count;
    /// `{name}.micros` holds the deterministic 1-in-[`SAMPLE_EVERY`]
    /// sample (by call ordinal, so replays sample identically).
    #[inline]
    pub fn start_sampled(&self) -> Option<SpanGuard> {
        let ordinal = self.calls.inc_ordinal();
        if !ordinal.is_multiple_of(SAMPLE_EVERY) {
            return None;
        }
        Some(SpanGuard {
            calls: None,
            micros: self.micros.clone(),
            started: Instant::now(),
        })
    }

    /// Number of completed spans so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl MetricsRegistry {
    /// The span timer for stage `name` (get-or-create; cache the result
    /// on hot paths).
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::new(self, name)
    }
}

/// Sampled spans ([`SpanTimer::start_sampled`]) time one call in this
/// many (by call ordinal — deterministic across replays).
pub const SAMPLE_EVERY: u64 = 64;

/// An in-flight span; dropping it records its wall duration in
/// microseconds (plus one call, unless the call was already counted by
/// [`SpanTimer::start_sampled`]).
#[derive(Debug)]
pub struct SpanGuard {
    calls: Option<Arc<Counter>>,
    micros: Arc<LogHistogram>,
    started: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(calls) = &self.calls {
            calls.inc();
        }
        self.micros
            .record(self.started.elapsed().as_micros() as u64);
    }
}

/// Opens a span guard on `registry` for the named stage:
///
/// ```
/// use fsw_obs::MetricsRegistry;
/// let registry = MetricsRegistry::new();
/// {
///     let _span = fsw_obs::span!(registry, "solve.stream");
///     // … stage body …
/// }
/// assert_eq!(registry.snapshot().counter("solve.stream.calls"), Some(1));
/// ```
///
/// The guard must be bound (`let _span = …`), not discarded (`let _ = …`),
/// or it records immediately.  On hot paths prefer a cached
/// [`SpanTimer`].
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.span($name).start()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_calls_and_durations() {
        let registry = MetricsRegistry::new();
        let timer = registry.span("stage.x");
        for _ in 0..3 {
            let _guard = timer.start();
        }
        {
            let _guard = crate::span!(registry, "stage.x");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stage.x.calls"), Some(4));
        assert_eq!(snap.histogram("stage.x.micros").unwrap().count, 4);
    }

    #[test]
    fn sampled_spans_count_every_call_but_time_one_in_the_sample() {
        let registry = MetricsRegistry::new();
        let timer = registry.span("stage.hot");
        let calls = 3 * SAMPLE_EVERY + 1;
        for _ in 0..calls {
            let _guard = timer.start_sampled();
        }
        let snap = registry.snapshot();
        // Exact call count, deterministically sampled durations (call
        // ordinals 0, 64, 128, 192 → 4 samples).
        assert_eq!(snap.counter("stage.hot.calls"), Some(calls));
        assert_eq!(snap.histogram("stage.hot.micros").unwrap().count, 4);
    }
}
