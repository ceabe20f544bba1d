//! The traced run: the benchmark's own copy of the event-kernel loop.
//!
//! [`TracedSystem`] drives the simulator's public layer types — [`Frontend`],
//! [`Backend`], [`FillQueue`] and [`ClockCrossing`] — in exactly the order
//! `System`'s event kernel does, and times each call into them with a span
//! of two `Instant` reads. The program itself is not changed. When the window
//! ends, the copy's state must equal the untraced `System`'s bit for bit
//! (see [`EndState::check_against`]); otherwise its timings describe some
//! other computation and are not reported.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cloudmc_memctrl::{AccessKind, CompletedRequest, MemoryRequest, RequestId};
use cloudmc_sim::{Backend, ClockCrossing, FillQueue, Frontend, FrontendEvent, SystemConfig};

use crate::harness::{timed_run, EndState, RunTimes};

/// A timed call site: each call into it is one span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Frontend::advance_to`: cores + L1, shared L2, workload generator.
    AdvanceTo,
    /// `Frontend::fill_at`: delivering a block to a waiting core.
    FillAt,
    /// `Frontend::next_action_cycle`: the per-iteration O(cores) scan.
    NextActionCycle,
    /// `Backend::cached_next_due`: the backend's posted next-due cycle.
    CachedNextDue,
    /// Every `FillQueue` call (next due, pop, push).
    FillQueue,
    /// `Backend::submit`: routing and enqueueing a memory request.
    Submit,
    /// `Backend::tick_event`: queues, scheduler pick, page/power/QoS
    /// policy, DRAM timing.
    TickEvent,
    /// `Backend::skip_dram_cycles`: closed-form accounting of jumped cycles.
    SkipDramCycles,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::AdvanceTo,
        Layer::FillAt,
        Layer::NextActionCycle,
        Layer::CachedNextDue,
        Layer::FillQueue,
        Layer::Submit,
        Layer::TickEvent,
        Layer::SkipDramCycles,
    ];

    /// Metric prefix of the layer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::AdvanceTo => "frontend.advance_to",
            Layer::FillAt => "frontend.fill_at",
            Layer::NextActionCycle => "frontend.next_action_cycle",
            Layer::CachedNextDue => "backend.cached_next_due",
            Layer::FillQueue => "kernel.fill_queue",
            Layer::Submit => "backend.submit",
            Layer::TickEvent => "backend.tick_event",
            Layer::SkipDramCycles => "backend.skip_dram_cycles",
        }
    }
}

/// Span counts and gross host time per layer, plus kernel loop counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Calls per layer, indexed like [`Layer::ALL`].
    pub calls: [u64; Layer::ALL.len()],
    /// Gross span nanoseconds per layer (span cost included).
    pub nanos: [u64; Layer::ALL.len()],
    /// Event-kernel loop iterations.
    pub iterations: u64,
    /// CPU cycles jumped over as provably eventless.
    pub skipped_cycles: u64,
    /// CPU cycles executed one by one.
    pub stepped_cycles: u64,
}

impl LayerTimes {
    /// Adds `other`'s counters to `self`.
    pub fn merge(&mut self, other: &LayerTimes) {
        for i in 0..Layer::ALL.len() {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
        self.iterations += other.iterations;
        self.skipped_cycles += other.skipped_cycles;
        self.stepped_cycles += other.stepped_cycles;
    }
}

/// Runs `f`, and with `TRACE` records it as one span of `layer`.
#[inline(always)]
fn span<const TRACE: bool, R>(times: &mut LayerTimes, layer: Layer, f: impl FnOnce() -> R) -> R {
    if !TRACE {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    times.calls[layer as usize] += 1;
    times.nanos[layer as usize] += nanos;
    out
}

/// The host time one empty span measures, in nanoseconds: the median over
/// several batches. It is subtracted from every layer's mean span.
#[must_use]
pub fn span_cost_ns() -> f64 {
    const BATCHES: usize = 9;
    const SPANS: u64 = 200_000;
    let mut per_span: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut times = LayerTimes::default();
            for i in 0..SPANS {
                span::<true, _>(&mut times, Layer::FillQueue, || black_box(i));
            }
            times.nanos[Layer::FillQueue as usize] as f64 / SPANS as f64
        })
        .collect();
    per_span.sort_by(f64::total_cmp);
    per_span[BATCHES / 2]
}

/// The event kernel rebuilt from the public layer types, with a span around
/// every call into a layer.
#[derive(Debug)]
pub struct TracedSystem {
    frontend: Frontend,
    backend: Backend,
    clock: ClockCrossing,
    fills: FillQueue,
    crossbar_latency: u64,
    next_request_id: RequestId,
    /// Outstanding off-chip reads: request id to (core, block address).
    outstanding_reads: HashMap<RequestId, (usize, u64)>,
    reads_sent: u64,
    writes_sent: u64,
    events: Vec<FrontendEvent>,
    completions: Vec<CompletedRequest>,
    /// What the traced parts of the run recorded.
    pub times: LayerTimes,
}

impl TracedSystem {
    /// Builds the layers for `cfg` as `System::new` does, prewarm included.
    ///
    /// # Errors
    ///
    /// Returns the layer's message if `cfg` is invalid.
    pub fn new(cfg: &SystemConfig) -> Result<Self, String> {
        cfg.validate()?;
        let backend = Backend::new(cfg)?;
        let mut frontend = Frontend::new(cfg)?;
        if cfg.functional_warmup {
            frontend.prewarm();
        }
        Ok(Self {
            frontend,
            backend,
            clock: ClockCrossing::new(),
            fills: FillQueue::new(),
            crossbar_latency: cfg.l2.crossbar_latency,
            next_request_id: 0,
            outstanding_reads: HashMap::new(),
            reads_sent: 0,
            writes_sent: 0,
            events: Vec::new(),
            completions: Vec::new(),
            times: LayerTimes::default(),
        })
    }

    /// Runs `cycles` CPU cycles on the event kernel; with `TRACE` every call
    /// into a layer is timed.
    pub fn run_cycles<const TRACE: bool>(&mut self, cycles: u64) {
        let end = self.clock.cpu_cycle().saturating_add(cycles);
        while self.clock.cpu_cycle() < end {
            let now = self.clock.cpu_cycle();
            let t = &mut self.times;
            let fills = span::<TRACE, _>(t, Layer::FillQueue, || self.fills.next_due_cycle())
                .unwrap_or(u64::MAX);
            let frontend = span::<TRACE, _>(t, Layer::NextActionCycle, || {
                self.frontend.next_action_cycle()
            });
            let dram_now = self.clock.dram_cycle();
            let backend_dram = span::<TRACE, _>(t, Layer::CachedNextDue, || {
                self.backend.cached_next_due(dram_now)
            });
            let backend = self.clock.cpu_cycle_of_dram_tick(backend_dram);
            let target = fills.min(frontend).min(backend).min(end).max(now);
            if TRACE {
                t.iterations += 1;
            }
            if target > now {
                let cycles = target - now;
                let dram_ticks = self.clock.dram_ticks_within(cycles);
                if dram_ticks > 0 {
                    span::<TRACE, _>(t, Layer::SkipDramCycles, || {
                        self.backend.skip_dram_cycles(dram_ticks);
                    });
                }
                self.clock.fast_forward(cycles);
                if TRACE {
                    t.skipped_cycles += cycles;
                }
            } else {
                self.step::<TRACE>();
                if TRACE {
                    self.times.stepped_cycles += 1;
                }
            }
        }
        self.frontend.sync_to(end);
    }

    /// Executes the one CPU cycle the loop proved non-empty: fills, then the
    /// frontend, then the DRAM ticks the clock ratio owes.
    fn step<const TRACE: bool>(&mut self) {
        let now_cpu = self.clock.cpu_cycle();
        while let Some((core, addr)) = span::<TRACE, _>(&mut self.times, Layer::FillQueue, || {
            self.fills.pop_due(now_cpu)
        }) {
            span::<TRACE, _>(&mut self.times, Layer::FillAt, || {
                self.frontend.fill_at(core, addr, now_cpu);
            });
        }

        let mut events = std::mem::take(&mut self.events);
        events.clear();
        span::<TRACE, _>(&mut self.times, Layer::AdvanceTo, || {
            self.frontend.advance_to(now_cpu, &mut events);
        });
        for event in events.drain(..) {
            self.dispatch::<TRACE>(event);
        }
        self.events = events;

        for _ in 0..self.clock.accrue_cpu_cycle() {
            let now_dram = self.clock.dram_cycle();
            let mut completions = std::mem::take(&mut self.completions);
            completions.clear();
            span::<TRACE, _>(&mut self.times, Layer::TickEvent, || {
                self.backend.tick_event(now_dram, &mut completions);
            });
            for done in completions.drain(..) {
                if done.request.kind.is_read() {
                    if let Some((core, addr)) = self.outstanding_reads.remove(&done.request.id) {
                        let due = now_cpu + self.crossbar_latency;
                        span::<TRACE, _>(&mut self.times, Layer::FillQueue, || {
                            self.fills.push(due, core, addr);
                        });
                    }
                }
            }
            self.completions = completions;
            self.clock.complete_dram_tick();
        }
        self.clock.complete_cpu_cycle();
    }

    /// Routes one frontend event: L2 hits into the fill queue, off-chip
    /// traffic into the backend.
    fn dispatch<const TRACE: bool>(&mut self, event: FrontendEvent) {
        let now_dram = self.clock.dram_cycle();
        let request = match event {
            FrontendEvent::L2Hit {
                core,
                addr,
                ready_in,
            } => {
                let due = self.clock.cpu_cycle() + ready_in;
                span::<TRACE, _>(&mut self.times, Layer::FillQueue, || {
                    self.fills.push(due, core, addr);
                });
                return;
            }
            FrontendEvent::Read { core, tenant, addr } => {
                let id = self.alloc_request_id();
                self.reads_sent += 1;
                self.outstanding_reads.insert(id, (core, addr));
                MemoryRequest::new(id, AccessKind::Read, addr, core, now_dram).with_tenant(tenant)
            }
            FrontendEvent::Write {
                core,
                tenant,
                addr,
                dma,
            } => {
                let id = self.alloc_request_id();
                self.writes_sent += 1;
                let request = if dma {
                    MemoryRequest::dma(id, AccessKind::Write, addr, core, now_dram)
                } else {
                    MemoryRequest::new(id, AccessKind::Write, addr, core, now_dram)
                };
                request.with_tenant(tenant)
            }
            FrontendEvent::DmaRead { core, tenant, addr } => {
                let id = self.alloc_request_id();
                self.reads_sent += 1;
                MemoryRequest::dma(id, AccessKind::Read, addr, core, now_dram).with_tenant(tenant)
            }
        };
        span::<TRACE, _>(&mut self.times, Layer::Submit, || {
            self.backend.submit(request, now_dram);
        });
    }

    fn alloc_request_id(&mut self) -> RequestId {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// The state to compare against the untraced `System`.
    #[must_use]
    pub fn end_state(&self) -> EndState {
        EndState {
            cpu_cycle: self.clock.cpu_cycle(),
            committed: self.frontend.committed_per_core(),
            controller: self.backend.stats(),
            l2: self.frontend.l2_stats(),
            reads_sent: self.reads_sent,
            writes_sent: self.writes_sent,
        }
    }
}

/// Everything the traced reps and the untraced runs between them recorded.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Layer counters summed over every agreeing traced rep.
    pub times: LayerTimes,
    /// Host seconds of each agreeing traced rep's window.
    pub window_s: Vec<f64>,
    /// Timings of each untraced `System` run.
    pub untraced: Vec<RunTimes>,
    /// Size of the warm system's snapshot image.
    pub image_bytes: usize,
    /// Runs attempted, traced and untraced.
    pub attempted: u64,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

/// Alternates untraced `System` runs (checked against the oracle's
/// `oracle` digest) with traced reps until `budget` is spent and at least
/// `min_reps` traced reps were made, so that both see the same host
/// conditions. Each traced rep builds the layers, warms them up on the
/// untraced copy of the loop, times the measured window, and must end in
/// `reference`'s state.
#[must_use]
pub fn run_traced(
    cfg: &SystemConfig,
    reference: &EndState,
    oracle: u64,
    budget: Duration,
    min_reps: usize,
) -> Traced {
    let mut out = Traced::default();
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps.max(1) || start.elapsed() < budget {
        reps += 1;
        out.attempted += 2;
        match timed_run(cfg) {
            Ok((times, image_bytes, digest)) => {
                out.untraced.push(times);
                out.image_bytes = image_bytes;
                if digest != oracle {
                    out.failures
                        .push("SimStats differ from the naive oracle".to_owned());
                }
            }
            Err(why) => out.failures.push(why),
        }

        let mut sys = match TracedSystem::new(cfg) {
            Ok(sys) => sys,
            Err(err) => {
                out.failures.push(format!("traced build failed: {err}"));
                break;
            }
        };
        sys.run_cycles::<false>(cfg.warmup_cpu_cycles);
        let window = Instant::now();
        sys.run_cycles::<true>(cfg.measure_cpu_cycles);
        let window_s = window.elapsed().as_secs_f64();
        match sys.end_state().check_against(reference) {
            Ok(()) => {
                out.times.merge(&sys.times);
                out.window_s.push(window_s);
            }
            Err(why) => out.failures.push(format!("traced run: {why}")),
        }
    }
    out
}
