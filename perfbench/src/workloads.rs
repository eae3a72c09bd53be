//! The three workloads: set-up (tables plus reference outputs) and one
//! measured pass each. Everything goes through the public qsr API; the
//! only timing is the benchmark's own, around the calls it makes.

use crate::stats::{ByPlan, Tally};
use crate::trace::{self, span, timed};
use qsr_core::{SuspendOptimizer, SuspendPolicy};
use qsr_exec::{AggFn, PlanSpec, Predicate, QueryExecution, Rung, SuspendOptions};
use qsr_server::{QsrServer, ServerConfig, SessionId};
use qsr_storage::{CostModel, CostSnapshot, Database, Phase, Result, Tuple};
use qsr_workload::{generate_table, TableSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["scan", "suspend-resume", "server-open"];

/// Share of each slice (see [`SLICES`]) that `scan` and `server-open`
/// spend on their own loop; the rest is the probe.
pub const MAIN_SHARE: f64 = 0.75;
/// A cycled query suspends every `1 / CYCLE_PARTS` of the work units its
/// uninterrupted run ticks, so every plan suspends about as often.
pub const CYCLE_PARTS: u64 = 3;
/// A cycled query runs to completion untriggered after this many suspends.
const MAX_CYCLES: u64 = 64;
/// Interactive arrivals per second in `server-open`.
pub const OPEN_RATE: f64 = 45.0;

/// One table of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    pub name: &'static str,
    pub rows: u64,
    pub payload: usize,
}

/// Sizes and knobs of one workload (the values `design.json` records).
#[derive(Debug, Clone)]
pub struct Shape {
    /// The fact table first.
    pub tables: Vec<Table>,
    /// Buffer-pool frames (0: the default uncached passthrough).
    pub pool_pages: usize,
}

pub fn shape(workload: &str) -> Shape {
    let t = |name, rows, payload| Table { name, rows, payload };
    match workload {
        "scan" => Shape { tables: vec![t("facts", 40_000, 64)], pool_pages: 64 },
        "suspend-resume" => {
            Shape { tables: vec![t("facts", 12_000, 32), t("dim", 400, 32)], pool_pages: 0 }
        }
        "server-open" => {
            Shape { tables: vec![t("facts", 20_000, 32), t("dim", 800, 32)], pool_pages: 0 }
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// A query plan with its reference output.
pub struct Plan {
    pub name: &'static str,
    pub spec: PlanSpec,
    /// Base-table rows one completed query consumes (a per-query constant,
    /// so re-reads after a GoBack resume never inflate throughput).
    pub rows: u64,
    pub reference: Vec<Tuple>,
    /// Work units of the uninterrupted reference run.
    pub units: u64,
}

fn scan(table: &str) -> Box<PlanSpec> {
    Box::new(PlanSpec::TableScan { table: table.into() })
}

fn filter(table: &str, below: i64) -> Box<PlanSpec> {
    Box::new(PlanSpec::Filter {
        input: scan(table),
        predicate: Predicate::IntLt { col: 1, value: below },
    })
}

fn hash_agg(input: Box<PlanSpec>, func: AggFn, partitions: usize) -> PlanSpec {
    PlanSpec::HashAgg { input, group_col: 1, agg_col: 0, func, partitions }
}

fn bnlj(outer: Box<PlanSpec>, inner: &str, buffer_tuples: usize) -> PlanSpec {
    PlanSpec::BlockNlj { outer, inner: scan(inner), outer_key: 0, inner_key: 0, buffer_tuples }
}

/// The plans of a workload, by role, with the rows each consumes.
fn plan_specs(workload: &str, sh: &Shape) -> Vec<(&'static str, PlanSpec, u64)> {
    let (facts, dim) = (sh.tables[0].rows, sh.tables.get(1).map_or(0, |t| t.rows));
    match workload {
        "scan" => vec![
            ("filter-agg", hash_agg(filter("facts", 500), AggFn::Count, 4), facts),
            ("project", PlanSpec::Project { input: scan("facts"), columns: vec![0, 1] }, facts),
        ],
        "suspend-resume" => vec![
            ("sort", PlanSpec::Sort { input: scan("facts"), key: 0, buffer_tuples: 1_000 }, facts),
            (
                "hybrid-hash-join",
                PlanSpec::HashJoin {
                    build: scan("dim"),
                    probe: scan("facts"),
                    build_key: 0,
                    probe_key: 0,
                    partitions: 4,
                    hybrid: true,
                },
                facts + dim,
            ),
            ("hash-agg", hash_agg(scan("facts"), AggFn::Sum, 4), facts),
            ("block-nlj", bnlj(filter("facts", 100), "dim", 200), facts + dim),
        ],
        "server-open" => vec![
            ("background-agg", hash_agg(scan("facts"), AggFn::Count, 4), facts),
            ("background-join", bnlj(filter("facts", 50), "dim", 500), facts + dim),
            ("interactive", hash_agg(filter("dim", 200), AggFn::Sum, 1), dim),
        ],
        other => unreachable!("unknown workload {other}"),
    }
}

/// A set-up database. Its directory stays until the run's directory is
/// removed at the end, so no deletion runs while a later set-up is timed.
pub struct Setup {
    pub db: Arc<Database>,
    /// Where the suspend/resume probe runs (every workload but
    /// `suspend-resume`): a copy of the tables with no buffer pool, so
    /// resumes read suspended state from disk as in `suspend-resume`, and
    /// nothing the workload's own loop left behind (files, cached pages)
    /// reaches the probe's timings.
    pub probe_db: Option<Arc<Database>>,
    pub plans: Vec<Plan>,
    pub load_rows_per_s: f64,
    pub table_pages: u64,
}

impl Setup {
    pub fn plan(&self, name: &str) -> &Plan {
        self.plans.iter().find(|p| p.name == name).expect("plan of this workload")
    }
}

/// Build a workload's database from `seed` and compute its reference
/// outputs: one uninterrupted run of each plan.
pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<Setup> {
    let sh = shape(workload);
    let load = Instant::now();
    let db = load_tables(&sh, seed, &dir.join("main"), sh.pool_pages)?;
    let load_rows_per_s =
        sh.tables.iter().map(|t| t.rows).sum::<u64>() as f64 / load.elapsed().as_secs_f64();
    let probe_db = (workload != "suspend-resume")
        .then(|| load_tables(&sh, seed, &dir.join("probe"), 0))
        .transpose()?;
    let table_pages = db.pool().num_pages(db.table("facts")?.file)?;
    let mut plans = Vec::new();
    for (name, spec, rows) in plan_specs(workload, &sh) {
        let mut exec = QueryExecution::start(db.clone(), spec.clone())?;
        let reference = exec.run_to_completion()?;
        plans.push(Plan { name, units: exec.work_units(), spec, rows, reference });
    }
    let s = Setup { db, probe_db, plans, load_rows_per_s, table_pages };
    s.db.ledger().reset();
    if let Some(p) = &s.probe_db {
        p.ledger().reset();
    }
    Ok(s)
}

/// Create a database in `dir` with a `pool_pages` buffer pool and load
/// the workload's tables into it from `seed`.
fn load_tables(sh: &Shape, seed: u64, dir: &Path, pool_pages: usize) -> Result<Arc<Database>> {
    std::fs::create_dir_all(dir)?;
    let db = Database::open_with_pool(dir, CostModel::default(), pool_pages)?;
    for (i, t) in sh.tables.iter().enumerate() {
        let spec = TableSpec::new(t.name, t.rows)
            .payload(t.payload)
            .seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
        generate_table(&db, &spec)?;
    }
    db.pool().flush_all()?;
    Ok(db)
}

/// Everything one pass measures.
#[derive(Default)]
pub struct Pass {
    /// Seconds of the pass's own loop (the window `rows` are counted in).
    pub main_secs: f64,
    /// Seconds of the suspend/resume probe.
    pub probe_secs: f64,
    pub rows: u64,
    pub query_ms: ByPlan,
    pub suspend_ms: ByPlan,
    pub resume_ms: ByPlan,
    pub tally: Tally,
    /// Per completed cycled query: its ledger and counters.
    pub cycled: Vec<CycledQuery>,
    /// Per query of the pass's own loop, in order: the ledger it charged.
    /// Compared between the traced and the untraced pass.
    pub ledgers: Vec<(&'static str, CostSnapshot)>,
    /// The same for the queries of the suspend/resume probe.
    pub probe_ledgers: Vec<(&'static str, CostSnapshot)>,
    pub window: (f64, f64),
    /// Ledger of the main database over the window.
    pub window_ledger: CostSnapshot,
    /// Ledger of the probe database over the window.
    pub probe_ledger: CostSnapshot,
    pub start_us: Vec<f64>,
    pub solve_us: Vec<f64>,
    pub victim_us: Vec<f64>,
    pub suspends_degraded: u64,
    pub suspends_exhausted: u64,
    pub server: ServerStats,
}

/// One completed query that went through run → suspend → resume cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct CycledQuery {
    pub plan: &'static str,
    pub suspends: u64,
    pub suspend_cost: f64,
    pub resume_cost: f64,
    pub pages_read: u64,
    pub pages_written: u64,
    pub mip_nodes: u64,
    pub mip_pivots: u64,
    /// Work units ticked over all segments.
    pub units: u64,
}

#[derive(Default)]
pub struct ServerStats {
    pub slice_ms: Vec<f64>,
    pub round_ms: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub wait_ms: Vec<f64>,
    /// (due, done) of each finished interactive query, on the loop clock.
    pub interactive: Vec<(f64, f64)>,
    pub finished: u64,
    pub suspends: u64,
    pub resumes: u64,
    pub resume_retries: u64,
    pub late_ms_max: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn suspend_phases(s: &CostSnapshot) -> f64 {
    s.phase_cost(Phase::Suspend) + s.phase_cost(Phase::Fallback)
}

/// Run `plan` through run → `suspend_with(Optimized)` → `resume` cycles,
/// suspending every `plan.units / CYCLE_PARTS` work units, and check its
/// output.
fn cycled_query(db: &Arc<Database>, plan: &Plan, pass: &mut Pass, traced: bool) -> Result<bool> {
    let _q = span("query");
    let ledger = db.ledger();
    let before = ledger.snapshot();
    let t = Instant::now();
    let mut exec = timed("exec.start", || QueryExecution::start(db.clone(), plan.spec.clone()))?;
    pass.start_us.push(t.elapsed().as_secs_f64() * 1e6);
    let every = (plan.units / CYCLE_PARTS).max(1);
    let observe = |exec: &mut QueryExecution| {
        exec.set_work_unit_observer(Some(Box::new(move |_op, seq| seq >= every)));
    };
    observe(&mut exec);
    let policy = SuspendPolicy::Optimized { budget: None };
    let options = SuspendOptions::default();
    let mut q = CycledQuery {
        plan: plan.name,
        suspends: 0,
        suspend_cost: 0.0,
        resume_cost: 0.0,
        pages_read: 0,
        pages_written: 0,
        mip_nodes: 0,
        mip_pivots: 0,
        units: 0,
    };
    let mut out = Vec::new();
    loop {
        let (tuples, done) = timed("exec.run", || exec.run())?;
        out.extend(tuples);
        q.units += exec.work_units();
        if done {
            break;
        }
        if traced {
            // Out of band: price this execution as a preemption victim.
            let t = Instant::now();
            let _ = timed("optimizer.victim_signal", || {
                SuspendOptimizer::victim_signal(&exec.suspend_problem(), &exec.ctx().graph)
            });
            pass.victim_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let s0 = ledger.snapshot();
        let t = Instant::now();
        let handle = timed("exec.suspend", || exec.suspend_with(&policy, &options))?;
        pass.suspend_ms.push(plan.name, ms(t));
        let s1 = ledger.snapshot();
        let t = Instant::now();
        exec = timed("exec.resume", || QueryExecution::resume(db.clone(), &handle))?;
        pass.resume_ms.push(plan.name, ms(t));
        let s2 = ledger.snapshot();
        q.suspends += 1;
        q.suspend_cost += suspend_phases(&s1) - suspend_phases(&s0);
        q.resume_cost += s2.phase_cost(Phase::Resume) - s1.phase_cost(Phase::Resume);
        q.mip_nodes += handle.report.stats.nodes as u64;
        q.mip_pivots += handle.report.stats.pivots as u64;
        pass.solve_us.push(handle.report.elapsed.as_secs_f64() * 1e6);
        pass.suspends_degraded += u64::from(handle.rung != Rung::Requested);
        pass.suspends_exhausted += u64::from(handle.report.stats.budget_exhausted);
        if q.suspends < MAX_CYCLES {
            observe(&mut exec);
        }
    }
    timed("exec.retire", || QueryExecution::retire_generation(db))?;
    let spent = ledger.snapshot().since(&before);
    q.pages_read = spent.total_pages_read();
    q.pages_written = spent.total_pages_written();
    pass.ledgers.push((plan.name, spent));
    pass.cycled.push(q);
    Ok(timed("bench.check", || out == plan.reference))
}

/// Cycle `plans` round-robin until `secs` have passed, starting at plan
/// `next` (which the rotation leaves where it stopped).
fn cycle_phase(
    db: &Arc<Database>,
    plans: &[&Plan],
    secs: f64,
    pass: &mut Pass,
    traced: bool,
    next: &mut usize,
) -> f64 {
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < secs {
        let plan = plans[*next % plans.len()];
        *next += 1;
        trace::set_tag(*next as u64);
        let q = Instant::now();
        let r = cycled_query(db, plan, pass, traced);
        if matches!(r, Ok(true)) {
            pass.query_ms.push(plan.name, ms(q));
            pass.rows += plan.rows;
        }
        pass.tally.record(plan.name, r);
    }
    t.elapsed().as_secs_f64()
}

/// `scan`: a closed loop of read-only queries with no suspends.
fn scan_loop(s: &Setup, secs: f64, pass: &mut Pass) -> f64 {
    let t = Instant::now();
    let ledger = s.db.ledger();
    while t.elapsed().as_secs_f64() < secs {
        // The rotation continues across slices, so the n-th query of a
        // pass is the same plan after the same predecessors in every pass.
        let i = pass.ledgers.len();
        let plan = &s.plans[i % s.plans.len()];
        trace::set_tag(i as u64 + 1);
        let before = ledger.snapshot();
        let q = Instant::now();
        let r = (|| -> Result<bool> {
            let _q = span("query");
            let t = Instant::now();
            let mut exec =
                timed("exec.start", || QueryExecution::start(s.db.clone(), plan.spec.clone()))?;
            pass.start_us.push(t.elapsed().as_secs_f64() * 1e6);
            let out = timed("exec.run", || exec.run_to_completion())?;
            Ok(timed("bench.check", || out == plan.reference))
        })();
        if matches!(r, Ok(true)) {
            pass.query_ms.push(plan.name, ms(q));
            pass.rows += plan.rows;
        }
        pass.ledgers.push((plan.name, ledger.snapshot().since(&before)));
        pass.tally.record(plan.name, r);
    }
    t.elapsed().as_secs_f64()
}

/// Seeded exponential inter-arrival gaps (a Poisson schedule) covering
/// `secs`, as offsets in seconds from the start of the loop.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - next()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// Fold finished-session statistics into `st`.
fn session_stats(server: &QsrServer, id: SessionId, st: &mut ServerStats) {
    let f = &server.session(id).expect("admitted session").fairness;
    st.slice_ms.extend(f.slice_nanos.iter().map(|&n| n as f64 / 1e6));
    st.suspends += f.suspends;
    st.resumes += f.resumes;
    st.resume_retries += f.resume_retries;
    st.finished += 1;
}

fn slice_ms_of(server: &QsrServer, id: SessionId) -> f64 {
    let f = &server.session(id).expect("admitted session").fairness;
    f.slice_nanos.iter().sum::<u64>() as f64 / 1e6
}

/// `server-open`: the serial scheduler's `run_round` loop with long
/// background sessions, and interactive queries admitted between rounds on
/// a seeded Poisson schedule, each timed from when it was due. The loop
/// runs in slices ([`OpenLoop::run_for`]); its clock, which the schedule
/// and the latencies are measured on, stops between slices.
struct OpenLoop<'a> {
    s: &'a Setup,
    server: QsrServer,
    schedule: Vec<f64>,
    next: usize,
    /// Sessions not yet finished: (session, plan, due time for interactive
    /// queries, admission time), times on the loop clock.
    live: Vec<(SessionId, &'a Plan, Option<f64>, f64)>,
    /// Loop time run so far, in seconds.
    clock: f64,
    /// Arrivals stop, and finished background sessions are no longer
    /// replaced, at this loop time.
    horizon: f64,
}

impl<'a> OpenLoop<'a> {
    fn new(s: &'a Setup, seed: u64, horizon: f64, pass: &mut Pass) -> Result<Self> {
        let mut open = Self {
            s,
            server: QsrServer::new(s.db.clone(), ServerConfig::default()),
            schedule: poisson_schedule(seed, OPEN_RATE, horizon),
            next: 0,
            live: Vec::new(),
            clock: 0.0,
            horizon,
        };
        for p in s.plans.iter().filter(|p| p.name != "interactive") {
            open.admit(p, None, 0.0, pass)?;
        }
        Ok(open)
    }

    /// Admit `plan` at loop time `now`.
    fn admit(&mut self, plan: &'a Plan, due: Option<f64>, now: f64, pass: &mut Pass) -> Result<()> {
        let t = Instant::now();
        let id = timed("server.admit", || self.server.admit("bench", 1, &plan.spec))?;
        pass.server.admit_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.live.push((id, plan, due, now));
        Ok(())
    }

    /// Run rounds for `secs` of loop time; with `drain`, instead run until
    /// no interactive query is pending. Returns the loop time spent.
    fn run_for(&mut self, secs: f64, drain: bool, pass: &mut Pass) -> Result<f64> {
        let start = Instant::now();
        let base = self.clock;
        let interactive = self.s.plan("interactive");
        loop {
            let now = base + start.elapsed().as_secs_f64();
            let pending = self.live.iter().any(|l| l.2.is_some());
            if if drain { !pending } else { now >= base + secs } {
                break;
            }
            while self.next < self.schedule.len() && self.schedule[self.next] <= now {
                let due = self.schedule[self.next];
                let st = &mut pass.server;
                st.late_ms_max = st.late_ms_max.max((now - due) * 1e3);
                self.admit(interactive, Some(due), now, pass)?;
                self.next += 1;
            }
            let t = Instant::now();
            timed("server.round", || self.server.run_round())?;
            pass.server.round_ms.push(ms(t));
            let done = base + start.elapsed().as_secs_f64();
            let mut k = 0;
            while k < self.live.len() {
                let (id, plan, due, admitted) = self.live[k];
                let sess = self.server.session(id).expect("admitted session");
                if sess.is_runnable() {
                    k += 1;
                    continue;
                }
                self.live.swap_remove(k);
                let ok =
                    sess.is_finished() && timed("bench.check", || sess.collected == plan.reference);
                pass.tally.record::<String>(plan.name, Ok(ok));
                session_stats(&self.server, id, &mut pass.server);
                let busy_ms = slice_ms_of(&self.server, id);
                pass.server.wait_ms.push((done - admitted) * 1e3 - busy_ms);
                if ok {
                    pass.rows += plan.rows;
                }
                match due {
                    Some(due) => {
                        pass.query_ms.push(plan.name, (done - due) * 1e3);
                        pass.server.interactive.push((due, done));
                    }
                    None if done < self.horizon => self.admit(plan, None, done, pass)?,
                    None => {}
                }
            }
        }
        let spent = start.elapsed().as_secs_f64();
        self.clock = base + spent;
        Ok(spent)
    }
}

impl Pass {
    /// Take over what the suspend/resume probe measured; the probe's
    /// queries, rows and time stay out of the workload's own figures.
    fn absorb_probe(&mut self, probe: Pass) {
        for (plan, xs) in probe.suspend_ms.0 {
            self.suspend_ms.0.entry(plan).or_default().extend(xs);
        }
        for (plan, xs) in probe.resume_ms.0 {
            self.resume_ms.0.entry(plan).or_default().extend(xs);
        }
        self.tally.absorb(&probe.tally);
        self.cycled.extend(probe.cycled);
        self.probe_ledgers.extend(probe.ledgers);
        self.start_us.extend(probe.start_us);
        self.solve_us.extend(probe.solve_us);
        self.victim_us.extend(probe.victim_us);
        self.suspends_degraded += probe.suspends_degraded;
        self.suspends_exhausted += probe.suspends_exhausted;
    }
}

/// A pass runs in this many slices; between two slices the runner may do
/// work of its own (a timed set-up) while every loop clock is stopped, so
/// the set-ups of a run sample the host over the whole run.
pub const SLICES: usize = 6;

/// One measured pass of `workload` over `s` lasting about `secs`; calls
/// `between` after each slice.
pub fn run_pass(
    workload: &str,
    s: &Setup,
    seed: u64,
    secs: f64,
    traced: bool,
    between: &mut dyn FnMut(),
) -> Pass {
    let mut pass = Pass::default();
    let ledger0 = s.db.ledger().snapshot();
    let probe0 = s.probe_db.as_ref().map(|p| p.ledger().snapshot());
    let t0 = trace::now();
    if let Err(e) = sliced(workload, s, seed, secs, traced, &mut pass, between) {
        pass.tally.record::<String>(workload, Err(e.to_string()));
    }
    pass.window = (t0, trace::now());
    pass.window_ledger = s.db.ledger().snapshot().since(&ledger0);
    if let (Some(p), Some(before)) = (&s.probe_db, probe0) {
        pass.probe_ledger = p.ledger().snapshot().since(&before);
    }
    pass
}

/// Each slice runs the workload's own loop. `suspend-resume` spends the
/// whole slice on it; the others spend [`MAIN_SHARE`] of it there and the
/// rest on the probe: the workload's plans cycled through suspend and
/// resume on the probe database.
fn sliced(
    workload: &str,
    s: &Setup,
    seed: u64,
    secs: f64,
    traced: bool,
    pass: &mut Pass,
    between: &mut dyn FnMut(),
) -> Result<()> {
    let plans: Vec<&Plan> = s.plans.iter().collect();
    let slice = secs / SLICES as f64;
    let main = match s.probe_db {
        Some(_) => slice * MAIN_SHARE,
        None => slice,
    };
    let (mut main_next, mut probe_next) = (0, 0);
    let mut open = match workload {
        "server-open" => Some(OpenLoop::new(s, seed, main * SLICES as f64, pass)?),
        _ => None,
    };
    for _ in 0..SLICES {
        pass.main_secs += match (workload, open.as_mut()) {
            ("scan", _) => scan_loop(s, main, pass),
            (_, Some(open)) => open.run_for(main, false, pass)?,
            _ => cycle_phase(&s.db, &plans, main, pass, traced, &mut main_next),
        };
        if let Some(probe_db) = &s.probe_db {
            let mut probe = Pass::default();
            pass.probe_secs +=
                cycle_phase(probe_db, &plans, slice - main, &mut probe, traced, &mut probe_next);
            pass.absorb_probe(probe);
        }
        between();
    }
    if let Some(open) = open.as_mut() {
        pass.main_secs += open.run_for(0.0, true, pass)?;
    }
    Ok(())
}
