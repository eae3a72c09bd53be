//! perfbench: one measured run of one qsr workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>
//! ```
//!
//! Prints one JSON object on its last line of standard output: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! pass (`--trace 1`), with sample counts, checks and failures. Normally
//! started by `run.py`, which builds it and adds the host descriptor.

mod stats;
mod trace;
mod workloads;

use qsr_storage::CostSnapshot;
use stats::{covered, exclusive_time, mean, median, tail_percentile, ByPlan, Tally};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Pass, Setup};

/// End-to-end metrics that `--trace 1` reports among the per-layer ones.
const UNGATED: [&str; 5] =
    ["rows_per_s", "query_ms_p50", "query_ms_p90", "suspend_ms_p50", "suspend_ms_p90"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The traced pass's exclusive times, less the time no span covers, must
/// come within this share of the loop time the pass measured on its own.
pub const EXCLUSIVE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.trim_start_matches("--").to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {:?})",
            workloads::WORKLOADS
        ));
    }
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace: get("trace")? == "1",
        data_dir: PathBuf::from(get("data-dir")?),
    })
}

/// `QSR_*` variables silently change the program under test.
fn refuse_qsr_env() -> Result<(), String> {
    match std::env::vars().map(|(k, _)| k).find(|k| k.starts_with("QSR_")) {
        Some(k) => Err(format!(
            "refusing to run: environment variable {k} is set, and QSR_* variables change \
             the program under test; unset it"
        )),
        None => Ok(()),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Files this process has open (0 where `/proc` is not available).
fn open_files() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

/// Metrics of one run, in report order: name → (value, unit, samples).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str, usize)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push((name.to_string(), value, unit, samples));
    }
    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Mean over plans of `num / den` summed per plan, over cycled queries.
fn per_plan_ratio(pass: &Pass, num: impl Fn(&workloads::CycledQuery) -> f64) -> f64 {
    let mut by: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for q in pass.cycled.iter().filter(|q| q.suspends > 0) {
        let e = by.entry(q.plan).or_default();
        e.0 += num(q);
        e.1 += q.suspends as f64;
    }
    mean(&by.values().map(|(n, d)| n / d).collect::<Vec<_>>())
}

/// A per-plan percentile under the tail rule; a missing one fails the run.
fn pct(samples: &ByPlan, p: f64, what: &str, tally: &mut Tally) -> f64 {
    samples.percentile(p).unwrap_or_else(|| {
        let counts: Vec<String> =
            samples.0.iter().map(|(k, v)| format!("{k} {}", v.len())).collect();
        tally.fail(format!(
            "{what}: samples per plan [{}] are too few to report p{}",
            counts.join(", "),
            (p * 100.0) as u32
        ));
        0.0
    })
}

fn end_to_end(pass: &Pass, setup_s: f64, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let rows_per_s = pass.rows as f64 / pass.main_secs.max(1e-9);
    m.put("setup_s", setup_s, "s", SETUPS);
    m.put("rows_per_s", rows_per_s, "1/s", pass.query_ms.len());
    for (name, xs) in [
        ("query_ms", &pass.query_ms),
        ("suspend_ms", &pass.suspend_ms),
        ("resume_ms", &pass.resume_ms),
    ] {
        for p in [50, 90] {
            let v = pct(xs, f64::from(p) / 100.0, name, tally);
            m.put(&format!("{name}_p{p}"), v, "ms", xs.len());
        }
    }
    let n = pass.suspend_ms.len();
    m.put("suspend_cost", per_plan_ratio(pass, |q| q.suspend_cost), "cost", n);
    m.put("resume_cost", per_plan_ratio(pass, |q| q.resume_cost), "cost", n);
    m
}

/// Every repetition of a plan in `suspend-resume` must charge the same
/// ledger and count the same MIP nodes as the first, bit for bit.
fn check_exact(pass: &Pass, tally: &mut Tally) {
    let mut first: BTreeMap<&str, &workloads::CycledQuery> = BTreeMap::new();
    for q in &pass.cycled {
        match first.get(q.plan) {
            None => {
                first.insert(q.plan, q);
            }
            Some(f) if *f == q => {}
            Some(f) => tally.fail(format!(
                "exact counts of {} did not repeat: first {:?}, now {:?}",
                q.plan, f, q
            )),
        }
    }
}

/// Ledgers of the traced pass must equal the untraced pass's, query for
/// query, over the queries both completed.
fn check_ledgers(
    what: &str,
    a: &[(&'static str, CostSnapshot)],
    b: &[(&'static str, CostSnapshot)],
    tally: &mut Tally,
) -> usize {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            tally.fail(format!(
                "{what} query {i} ({}) charged a different ledger when traced: {:?} vs {:?}",
                x.0, x.1, y.1
            ));
            break;
        }
    }
    a.len().min(b.len())
}

fn per_layer(
    s: &Setup,
    setups: &[(f64, f64)],
    pass: &Pass,
    plain: &Metrics,
    traced_m: &Metrics,
    counters: &trace::BackendCounters,
    excl: &BTreeMap<&'static str, f64>,
) -> Metrics {
    let load: Vec<f64> = setups.iter().map(|x| x.1).collect();

    // Out of band, after the traced pass: raw page reads, then a cursor
    // scan of the same table through the workload's buffer pool, less the
    // raw reads of the pages it missed.
    let facts = s.db.table("facts").expect("facts table");
    let pages = s.table_pages;
    let (mut raw, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        for p in 0..pages {
            s.db.disk().read_page(facts.file, p).expect("read_page");
        }
        let read_us = t.elapsed().as_secs_f64() * 1e6 / pages as f64;
        raw.push(read_us);
        let before = s.db.ledger().snapshot();
        let heap = s.db.open_table_heap("facts").expect("heap");
        let t = Instant::now();
        let mut cursor = heap.cursor();
        while cursor.next().expect("cursor").is_some() {}
        let scan_us = t.elapsed().as_secs_f64() * 1e6;
        let misses = match s.db.pool().capacity() {
            0 => pages,
            _ => s.db.ledger().snapshot().since(&before).cache.misses,
        };
        decode.push((scan_us - misses as f64 * read_us) / pages as f64);
    }

    let done = (pass.tally.attempted - pass.tally.failed).max(1);
    let (wl, pl) = (&pass.window_ledger, &pass.probe_ledger);
    let read = wl.total_pages_read() + pl.total_pages_read();
    let written = wl.total_pages_written() + pl.total_pages_written();
    let lookups = (wl.cache.hits + wl.cache.misses) as usize;

    let c = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let suspends = (pass.suspend_ms.len() as u64 + pass.server.suspends).max(1);
    let resumes = (pass.resume_ms.len() as u64 + pass.server.resumes).max(1);
    let per_op = |n: u64, ops: u64| n as f64 / ops as f64;
    let per_call_us = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64 / 1e3;
    let b = counters;

    let own = pass.suspend_ms.len();
    let own_ops = own.max(1) as u64;
    let cycled_suspends = pass.cycled.iter().map(|q| q.suspends).sum::<u64>().max(1);
    let nodes: u64 = pass.cycled.iter().map(|q| q.mip_nodes).sum();
    let pivots: u64 = pass.cycled.iter().map(|q| q.mip_pivots).sum();
    let ideal: u64 = pass.cycled.iter().map(|q| s.plan(q.plan).units).sum();
    let ticked = pass.cycled.iter().map(|q| q.units).sum::<u64>().max(1);
    // `excl` already has the solver's time moved out of exec.suspend.
    let self_us =
        |name: &str, ops: usize| excl.get(name).copied().unwrap_or(0.0) * 1e6 / ops.max(1) as f64;
    let resumed = pass.resume_ms.len();

    let st = &pass.server;
    let pct = |xs: &[f64], p| tail_percentile(xs, p).unwrap_or(0.0);
    let window = pass.window.1 - pass.window.0;
    let unattributed = excl.get("unattributed").copied().unwrap_or(0.0) / window;
    let interactive_busy = covered(&st.interactive) / pass.main_secs.max(1e-9);

    #[rustfmt::skip]
    let rows = [
        ("workload.load_rows_per_s", median(&load), "1/s", load.len()),
        ("storage.disk.read_us_per_page", median(&raw), "us", raw.len()),
        ("storage.disk.pages_read", per_op(read, done), "pages", done as usize),
        ("storage.disk.pages_written", per_op(written, done), "pages", done as usize),
        ("storage.heap.decode_us_per_page", median(&decode), "us", decode.len()),
        ("storage.bufpool.hit_rate", wl.cache.hit_rate().unwrap_or(0.0), "ratio", lookups),
        ("storage.bufpool.evictions", per_op(wl.cache.evictions, done), "count", done as usize),
        ("storage.backend.puts", per_op(c(&b.puts), suspends), "count", suspends as usize),
        ("storage.backend.put_bytes", per_op(c(&b.put_bytes), suspends), "bytes", suspends as usize),
        ("storage.backend.put_us", per_call_us(c(&b.put_ns), c(&b.puts)), "us", c(&b.puts) as usize),
        ("storage.backend.syncs", per_op(c(&b.syncs), suspends), "count", suspends as usize),
        ("storage.backend.sync_us", per_call_us(c(&b.sync_ns), c(&b.syncs)), "us", c(&b.syncs) as usize),
        ("storage.backend.gets", per_op(c(&b.gets), resumes), "count", resumes as usize),
        ("storage.backend.get_bytes", per_op(c(&b.get_bytes), resumes), "bytes", resumes as usize),
        ("storage.backend.get_us", per_call_us(c(&b.get_ns), c(&b.gets)), "us", c(&b.gets) as usize),
        ("storage.backend.commit_us", per_call_us(c(&b.commit_ns), c(&b.commits)), "us", c(&b.commits) as usize),
        ("storage.backend.deletes", per_op(c(&b.deletes), suspends), "count", suspends as usize),
        ("optimizer.solve_us", mean(&pass.solve_us), "us", pass.solve_us.len()),
        ("mip.nodes", per_op(nodes, cycled_suspends), "count", cycled_suspends as usize),
        ("mip.pivots", per_op(pivots, cycled_suspends), "count", cycled_suspends as usize),
        ("optimizer.budget_exhausted_share", per_op(pass.suspends_exhausted, own_ops), "ratio", own),
        ("optimizer.victim_signal_us", mean(&pass.victim_us), "us", pass.victim_us.len()),
        ("exec.start_us", mean(&pass.start_us), "us", pass.start_us.len()),
        ("exec.suspend_self_us", self_us("exec.suspend", own), "us", own),
        ("exec.resume_self_us", self_us("exec.resume", resumed), "us", resumed),
        ("exec.rung_degraded_share", per_op(pass.suspends_degraded, own_ops), "ratio", own),
        ("exec.work_efficiency", per_op(ideal, ticked), "ratio", pass.cycled.len()),
        ("server.slice_ms_p50", pct(&st.slice_ms, 0.5), "ms", st.slice_ms.len()),
        ("server.slice_ms_p90", pct(&st.slice_ms, 0.9), "ms", st.slice_ms.len()),
        ("server.round_ms", mean(&st.round_ms), "ms", st.round_ms.len()),
        ("server.admit_us", mean(&st.admit_us), "us", st.admit_us.len()),
        ("server.wait_ms", mean(&st.wait_ms), "ms", st.wait_ms.len()),
        ("server.suspends_per_query", per_op(st.suspends, st.finished.max(1)), "count", st.finished as usize),
        ("server.resume_retries", st.resume_retries as f64, "count", st.finished as usize),
        ("server.interactive_busy_share", interactive_busy, "ratio", st.finished as usize),
        ("gen.late_ms_max", st.late_ms_max, "ms", st.round_ms.len()),
        ("trace.unattributed_share", unattributed, "ratio", 1),
    ];
    let mut m = Metrics::default();
    for (name, value, unit, n) in rows {
        m.put(name, value, unit, n);
    }
    // These end-to-end timings follow the host's state too closely to gate
    // (design.json, run.gated_metrics); they are reported here, ungated,
    // from the untraced pass.
    for (name, v, unit, n) in plain.0.iter().filter(|x| UNGATED.contains(&x.0.as_str())) {
        m.put(name, *v, unit, *n);
    }
    for (name, v, unit, n) in &plain.0 {
        if name == "setup_s" || name == "peak_rss_mb" {
            continue;
        }
        let traced = traced_m.get(name).unwrap_or(0.0);
        m.put(&format!("overhead.{name}"), traced - v, unit, *n);
    }
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn report(
    args: &Args,
    tally: &Tally,
    metrics: &Metrics,
    excl: &BTreeMap<&'static str, f64>,
    checks: &[(&str, String)],
) -> String {
    let mut o = String::from("{");
    let _ = write!(
        o,
        "\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    let _ = write!(o, "\"error_rate\":{},", json_num(tally.error_rate()));
    let errs: Vec<String> = tally.errors.iter().map(|e| json_str(e)).collect();
    let _ = write!(o, "\"errors\":[{}],", errs.join(","));
    let ms: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u, k)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{k}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let _ = write!(o, "\"metrics\":{{{}}},", ms.join(","));
    let ex: Vec<String> =
        excl.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_num(v * 1e3))).collect();
    let _ = write!(o, "\"exclusive_ms\":{{{}}},", ex.join(","));
    let ck: Vec<String> =
        checks.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let sh = workloads::shape(&args.workload);
    let tables: Vec<String> = sh
        .tables
        .iter()
        .map(|t| {
            format!(
                "{{\"name\":{},\"rows\":{},\"payload_bytes\":{}}}",
                json_str(t.name),
                t.rows,
                t.payload
            )
        })
        .collect();
    let _ = write!(
        o,
        "\"checks\":{{{}}},\"config\":{{\"tables\":[{}],\"pool_pages\":{},\"main_share\":{},\"cycle_parts\":{},\"open_rate_per_s\":{},\"setups\":{},\"exclusive_tolerance\":{}}}}}",
        ck.join(","),
        tables.join(","),
        sh.pool_pages,
        workloads::MAIN_SHARE,
        workloads::CYCLE_PARTS,
        workloads::OPEN_RATE,
        SETUPS,
        EXCLUSIVE_TOLERANCE
    );
    o
}

fn write_spans(path: &std::path::Path, raw: &[trace::RawSpan]) {
    let mut text = String::from("id\tparent\tname\tstart_us\tend_us\ttag\n");
    for s in raw {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{:.1}\t{:.1}\t{}",
            s.id,
            s.parent,
            s.name,
            s.start * 1e6,
            s.end * 1e6,
            s.tag
        );
    }
    let _ = std::fs::write(path, text);
}

/// Where a run keeps its databases; removed when the run ends.
fn run_dir(args: &Args) -> PathBuf {
    let w = &args.workload;
    args.data_dir.join(format!("{w}-{}-{}", args.seed, std::process::id()))
}

/// Set the workload up once more and record how long it took.
fn timed_setup(args: &Args, times: &mut Vec<(f64, f64)>) -> Result<Setup, String> {
    let i = times.len();
    let dir = run_dir(args).join(format!("setup-{i}"));
    let t = Instant::now();
    let s = workloads::setup(&args.workload, args.seed, &dir)
        .map_err(|e| format!("set-up {i} failed: {e}"))?;
    times.push((t.elapsed().as_secs_f64(), s.load_rows_per_s));
    Ok(s)
}

fn run(args: &Args) -> Result<(Tally, String), String> {
    let w = args.workload.as_str();
    // A traced run makes an untraced and then a traced pass, each on a
    // set-up of its own made before either starts, so both passes start
    // from identical state.
    let passes = if args.trace { 2 } else { 1 };
    let mut times: Vec<(f64, f64)> = Vec::new();
    let mut setups =
        (0..passes).map(|_| timed_setup(args, &mut times)).collect::<Result<Vec<_>, _>>()?;
    let sh = workloads::shape(w);
    let mut tally = Tally::default();
    let mut checks: Vec<(&str, String)> = Vec::new();
    if w == "scan" && setups[0].table_pages < 4 * sh.pool_pages as u64 {
        tally.fail(format!(
            "scan table has {} pages, under 4x the {}-page pool",
            setups[0].table_pages, sh.pool_pages
        ));
    }

    // The other set-ups run between the slices of the untraced pass; each
    // is dropped at once, and its files stay until the run ends.
    let mut setup_err = None;
    let mut between = || {
        if times.len() < SETUPS && setup_err.is_none() {
            setup_err = timed_setup(args, &mut times).err();
        }
    };
    let plain = workloads::run_pass(w, &setups[0], args.seed, args.seconds, false, &mut between);
    if let Some(e) = setup_err {
        return Err(e);
    }
    checks.push(("open_files_after_untraced_pass", open_files().to_string()));
    let setup_s = median(&times.iter().map(|x| x.0).collect::<Vec<_>>());
    let mut plain_m = end_to_end(&plain, setup_s, &mut tally);
    plain_m.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if w == "suspend-resume" {
        check_exact(&plain, &mut tally);
        checks.push(("exact_counts", format!("{} cycled queries", plain.cycled.len())));
    }
    tally.absorb(&plain.tally);
    if !args.trace {
        let line = report(args, &tally, &plain_m, &BTreeMap::new(), &checks);
        return Ok((tally, line));
    }

    // The traced pass, on an identically set-up second database. The
    // untraced pass's database is closed first: every completed query
    // leaves files open behind it (design.json, findings), and the two
    // passes' files together could reach the open-file limit.
    let traced_setup = setups.pop().expect("a traced run sets up twice");
    drop(setups);
    let s = &traced_setup;
    let counters = Arc::new(trace::BackendCounters::default());
    s.db.set_backend(Arc::new(trace::TimingBackend::new(s.db.backend(), counters.clone())));
    if let Some(p) = &s.probe_db {
        p.set_backend(Arc::new(trace::TimingBackend::new(p.backend(), counters.clone())));
    }
    let files_before = open_files();
    trace::enable();
    let traced = workloads::run_pass(w, s, args.seed, args.seconds, true, &mut || {});
    trace::disable();
    let raw = trace::take();
    let files_after = open_files();
    checks.push(("open_files_after_traced_pass", files_after.to_string()));
    tally.absorb(&traced.tally);
    let mut traced_m = end_to_end(&traced, setup_s, &mut Tally::default());
    traced_m.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    if w == "suspend-resume" {
        check_exact(&traced, &mut tally);
    }
    // The open loop's ledger depends on when arrivals land, so only its
    // probe is compared.
    if w != "server-open" {
        let n = check_ledgers("main", &plain.ledgers, &traced.ledgers, &mut tally);
        checks.push(("ledger_equal_queries", n.to_string()));
    }
    let n = check_ledgers("probe", &plain.probe_ledgers, &traced.probe_ledgers, &mut tally);
    checks.push(("ledger_equal_probe_queries", n.to_string()));
    let spans = trace::link(&raw);
    let mut excl = exclusive_time(&spans, traced.window.0, traced.window.1);
    let solve_s: f64 = traced.solve_us.iter().sum::<f64>() / 1e6;
    if let Some(v) = excl.get_mut("exec.suspend") {
        *v -= solve_s;
        excl.insert("optimizer.solve", solve_s);
    }
    // Every instant of the window is charged to some entry, so the entries
    // always add up to the window; the check is that the attributed ones
    // add up to the loop time the pass timed for itself, apart from the
    // benchmark's own bookkeeping between spans.
    let attributed: f64 = excl.iter().filter(|(k, _)| **k != "unattributed").map(|(_, v)| v).sum();
    let timed = traced.main_secs + traced.probe_secs;
    if (attributed - timed).abs() > EXCLUSIVE_TOLERANCE * timed {
        tally.fail(format!(
            "exclusive times of the layers add to {attributed:.6} s, not within {}% of the \
             {timed:.6} s the traced loops took",
            EXCLUSIVE_TOLERANCE * 100.0
        ));
    }
    checks.push(("exclusive_sum_s", format!("{attributed:.6} of {timed:.6} timed")));
    let mut m = per_layer(s, &times, &traced, &plain_m, &traced_m, &counters, &excl);
    let done = (traced.tally.attempted - traced.tally.failed).max(1);
    let left_open = files_after.saturating_sub(files_before) as f64 / done as f64;
    m.put("storage.disk.files_left_open", left_open, "count", done as usize);
    let spans_path = args.data_dir.join(format!("spans-{w}-{}.tsv", args.seed));
    write_spans(&spans_path, &raw);
    checks.push(("spans", format!("{} spans in {}", raw.len(), spans_path.display())));
    let line = report(args, &tally, &m, &excl, &checks);
    Ok((tally, line))
}

fn main() {
    if let Err(e) = refuse_qsr_env() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(run_dir(&args));
    match outcome {
        Ok((tally, line)) => {
            println!("{line}");
            if tally.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
