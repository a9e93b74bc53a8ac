//! Operation modes: Normal, Write-Intensive (§2.3), Get-Protect (§2.4).

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;
use pmem_sim::Histogram;

/// One GPM evaluation window: the sample histogram and its count live
/// under a single mutex so recording a sample, hitting the window
/// boundary, and resetting for the next window are one atomic step.
#[derive(Debug, Default)]
struct Window {
    hist: Histogram,
    count: u64,
}

/// The store's current operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full LSM maintenance: flushes and compactions run as needed.
    Normal,
    /// Write-Intensive Mode: MemTables merge straight into the ABI and no
    /// upper-level structure is maintained; only a full ABI forces a
    /// last-level compaction. Restart after a crash must replay the log.
    WriteIntensive,
    /// Get-Protect Mode: like Write-Intensive, but entered automatically on
    /// a tail-latency spike, and a full ABI is *dumped* to Pmem unmerged
    /// (up to a configured number of dump tables) instead of paying a
    /// last-level merge.
    GetProtect,
}

impl Mode {
    /// Stable snake_case name used in observability exports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Normal => "normal",
            Mode::WriteIntensive => "write_intensive",
            Mode::GetProtect => "get_protect",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Mode::Normal => 0,
            Mode::WriteIntensive => 1,
            Mode::GetProtect => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => Mode::WriteIntensive,
            2 => Mode::GetProtect,
            _ => Mode::Normal,
        }
    }
}

/// Configuration of the dynamic Get-Protect Mode.
#[derive(Debug, Clone)]
pub struct GpmConfig {
    /// Master switch (the paper reports headline numbers with GPM off).
    pub enabled: bool,
    /// Enter GPM when windowed p99 get latency exceeds this (paper: 2000ns).
    pub enter_threshold_ns: u64,
    /// Leave GPM when windowed p99 falls below this.
    pub exit_threshold_ns: u64,
    /// Number of gets per evaluation window.
    pub window_ops: u64,
}

impl Default for GpmConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            enter_threshold_ns: 2000,
            exit_threshold_ns: 1800,
            window_ops: 2048,
        }
    }
}

/// Tracks the operating mode and the windowed tail-latency monitor that
/// drives Get-Protect Mode transitions.
#[derive(Debug)]
pub struct ModeController {
    /// Mode requested by configuration/API (Normal or WriteIntensive).
    base: AtomicU8,
    /// Effective mode (may be GetProtect while the monitor holds it there).
    current: AtomicU8,
    gpm: GpmConfig,
    window: Mutex<Window>,
    /// Most recently computed windowed p99 (ns), 0 before the first window.
    last_p99: AtomicU64,
}

impl ModeController {
    /// Creates a controller starting in `base` mode.
    pub fn new(base: Mode, gpm: GpmConfig) -> Self {
        debug_assert!(base != Mode::GetProtect, "GPM is entered dynamically");
        Self {
            base: AtomicU8::new(base.as_u8()),
            current: AtomicU8::new(base.as_u8()),
            gpm,
            window: Mutex::new(Window::default()),
            last_p99: AtomicU64::new(0),
        }
    }

    /// Effective mode right now.
    pub fn mode(&self) -> Mode {
        Mode::from_u8(self.current.load(Ordering::Relaxed))
    }

    /// Switches the configured base mode (user option, §2.3). Does not
    /// override an active Get-Protect episode.
    pub fn set_base(&self, mode: Mode) {
        debug_assert!(mode != Mode::GetProtect);
        self.base.store(mode.as_u8(), Ordering::Relaxed);
        if self.mode() != Mode::GetProtect {
            self.current.store(mode.as_u8(), Ordering::Relaxed);
        }
    }

    /// Whether MemTable flushes to L0 (and upper compactions) are
    /// suspended.
    pub fn suspend_upper_maintenance(&self) -> bool {
        self.mode() != Mode::Normal
    }

    /// Whether a full ABI should be dumped unmerged rather than merged into
    /// the last level.
    pub fn prefer_abi_dump(&self) -> bool {
        self.mode() == Mode::GetProtect
    }

    /// Most recent windowed p99 get latency.
    pub fn last_p99(&self) -> u64 {
        self.last_p99.load(Ordering::Relaxed)
    }

    /// Records one get latency sample; at each window boundary evaluates
    /// the GPM thresholds. Returns the transition (with the windowed p99
    /// that drove it) when the mode changed.
    pub fn record_get_latency(&self, ns: u64) -> Option<ModeChange> {
        if !self.gpm.enabled {
            return None;
        }
        // Record, count, and (at the boundary) evaluate + reset under ONE
        // lock acquisition. Splitting these steps lets samples recorded
        // between a boundary hit and the reset fold into the wrong window
        // — in the worst case the boundary thread evaluates a p99 over a
        // freshly-reset (empty) window, reads 0, and spuriously exits GPM.
        let p99 = {
            let mut w = self.window.lock();
            w.hist.record(ns);
            w.count += 1;
            if w.count < self.gpm.window_ops {
                return None;
            }
            let p = w.hist.quantile(0.99);
            w.hist.reset();
            w.count = 0;
            p
        };
        self.last_p99.store(p99, Ordering::Relaxed);
        match self.mode() {
            Mode::GetProtect if p99 < self.gpm.exit_threshold_ns => {
                let base = Mode::from_u8(self.base.load(Ordering::Relaxed));
                self.current.store(base.as_u8(), Ordering::Relaxed);
                Some(ModeChange {
                    from: Mode::GetProtect,
                    to: base,
                    p99_ns: p99,
                })
            }
            m if m != Mode::GetProtect && p99 > self.gpm.enter_threshold_ns => {
                self.current
                    .store(Mode::GetProtect.as_u8(), Ordering::Relaxed);
                Some(ModeChange {
                    from: m,
                    to: Mode::GetProtect,
                    p99_ns: p99,
                })
            }
            _ => None,
        }
    }
}

/// A Get-Protect Mode transition reported by
/// `ModeController::record_get_latency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeChange {
    pub from: Mode,
    pub to: Mode,
    /// The windowed p99 get latency that drove the transition.
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpm(window: u64) -> GpmConfig {
        GpmConfig {
            enabled: true,
            enter_threshold_ns: 2000,
            exit_threshold_ns: 1800,
            window_ops: window,
        }
    }

    #[test]
    fn disabled_gpm_never_transitions() {
        let c = ModeController::new(Mode::Normal, GpmConfig::default());
        for _ in 0..10_000 {
            assert_eq!(c.record_get_latency(1_000_000), None);
        }
        assert_eq!(c.mode(), Mode::Normal);
    }

    #[test]
    fn enters_gpm_on_latency_spike_and_exits_after() {
        let c = ModeController::new(Mode::Normal, gpm(100));
        // 100 fast gets: no transition.
        for _ in 0..100 {
            c.record_get_latency(500);
        }
        assert_eq!(c.mode(), Mode::Normal);
        // A window dominated by slow gets: p99 > 2000.
        let mut changed = None;
        for _ in 0..100 {
            if let Some(m) = c.record_get_latency(5000) {
                changed = Some(m);
            }
        }
        let enter = changed.expect("entered GPM");
        assert_eq!(enter.from, Mode::Normal);
        assert_eq!(enter.to, Mode::GetProtect);
        assert!(enter.p99_ns > 2000);
        assert!(c.suspend_upper_maintenance());
        assert!(c.prefer_abi_dump());
        // Latency subsides: exits back to Normal.
        let mut changed = None;
        for _ in 0..100 {
            if let Some(m) = c.record_get_latency(400) {
                changed = Some(m);
            }
        }
        let exit = changed.expect("exited GPM");
        assert_eq!(exit.from, Mode::GetProtect);
        assert_eq!(exit.to, Mode::Normal);
        assert!(exit.p99_ns < 1800);
        assert!(!c.suspend_upper_maintenance());
    }

    #[test]
    fn write_intensive_base_suspends_flushes_without_dumping() {
        let c = ModeController::new(Mode::WriteIntensive, GpmConfig::default());
        assert!(c.suspend_upper_maintenance());
        assert!(!c.prefer_abi_dump());
    }

    #[test]
    fn gpm_exit_returns_to_configured_base() {
        let c = ModeController::new(Mode::WriteIntensive, gpm(10));
        for _ in 0..10 {
            c.record_get_latency(9999);
        }
        assert_eq!(c.mode(), Mode::GetProtect);
        for _ in 0..10 {
            c.record_get_latency(100);
        }
        assert_eq!(c.mode(), Mode::WriteIntensive);
    }

    /// Regression: sample recording and window-boundary evaluation must
    /// be one atomic step. Every sample here is exactly 5000ns, so every
    /// correctly evaluated window has p99 == 5000 (`quantile` clamps to
    /// the exact max) — the controller must enter GPM at the first
    /// boundary and never leave. The old two-step scheme (`record` under
    /// one lock acquisition, count bumped via a separate atomic, then a
    /// re-lock to evaluate and reset) let a thread hit the boundary just
    /// after another thread's reset and evaluate an empty window: p99 0,
    /// below the exit threshold, spurious exit from GPM.
    #[test]
    fn window_boundary_is_atomic_under_concurrent_recording() {
        let c = ModeController::new(Mode::Normal, gpm(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..400_000 {
                        if let Some(ch) = c.record_get_latency(5000) {
                            assert_eq!(
                                ch.p99_ns, 5000,
                                "window evaluated with missing/foreign samples"
                            );
                            assert_eq!(
                                ch.to,
                                Mode::GetProtect,
                                "spurious exit driven by a half-reset window"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(c.mode(), Mode::GetProtect);
        assert_eq!(c.last_p99(), 5000);
    }

    #[test]
    fn set_base_respects_active_gpm() {
        let c = ModeController::new(Mode::Normal, gpm(10));
        for _ in 0..10 {
            c.record_get_latency(9999);
        }
        assert_eq!(c.mode(), Mode::GetProtect);
        c.set_base(Mode::WriteIntensive);
        assert_eq!(c.mode(), Mode::GetProtect, "GPM episode not overridden");
        for _ in 0..10 {
            c.record_get_latency(100);
        }
        assert_eq!(c.mode(), Mode::WriteIntensive);
    }
}
