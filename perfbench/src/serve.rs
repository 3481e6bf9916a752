//! `serve-mixed`: `fedval-serve` on the §4.1 scenario under a seeded
//! open-loop Poisson load, one process, at most `nproc` connections, at
//! a fixed ladder of offered rates. The mix is mostly pre-rendered kinds
//! (`shapley`, `nucleolus`, `coalition-value`), what-ifs from a small hot
//! pool that the what-if LRU keeps, and fresh `what-if-join` keys that
//! are never repeated — each a 4-player re-solve under the what-if mutex.
//!
//! Every latency runs from the request's due time, so a stalled server
//! is charged for the requests queued behind the stall.
//!
//! Op: one request at the reference rate.

use crate::cal;
use crate::out::Outcome;
use crate::probe::{self, Delta};
use crate::stats::{fnv, median, nearest_rank, Rng, Summary, FNV_OFFSET};
use crate::timed::Timed;
use crate::{Ctx, Phase};
use fedval_coalition::{shapley, TableGame};
use fedval_core::FederationGame;
use fedval_serve::protocol::render_ok;
use fedval_serve::{parse_request, ScenarioSpec, ServeState, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mixed";
/// Server worker threads, pinned.
const WORKERS: usize = 2;
/// The what-if LRU capacity `fedval-serve` uses by default.
const WHATIF_LRU: usize = 64;
/// Offered rates, requests per second across all connections.
const LADDER: [f64; 4] = [500.0, 1000.0, 2000.0, 4000.0];
/// The rung the per-kind latencies are reported at.
const REFERENCE_RATE: f64 = 1000.0;
/// Latency limit on the p99 of all requests.
const SLO_MS: f64 = 5.0;
/// Set-ups timed per run (the median is reported).
const SETUP_REPS: usize = 15;
/// Fresh what-if joins re-solved through the timing adapter (traced run).
const ADAPTER_SOLVES: usize = 40;

/// What a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A pre-rendered kind.
    Cheap,
    /// A what-if from the hot pool (LRU hits after the first).
    WhatIfHot,
    /// A what-if-join key never sent before (an LRU miss).
    WhatIfFresh,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
struct Req {
    /// Due time, ns after the rung starts.
    due_ns: u64,
    /// The request's fields after the id, e.g. `"kind":"shapley"`.
    body: String,
    /// What it exercises.
    class: Class,
}

impl Req {
    fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}}}", self.body)
    }
}

/// The hot what-if pool: five joins and the three leaves.
fn hot(i: u64) -> String {
    if i < 5 {
        format!(
            "\"kind\":\"what-if-join\",\"locations\":{},\"capacity\":1",
            100 * (i + 1)
        )
    } else {
        format!("\"kind\":\"what-if-leave\",\"player\":{}", i - 5)
    }
}

/// Fresh join `k`: capacity ≥ 2 keeps it apart from the hot pool, and
/// no two `k` below 8000 share a key.
fn fresh(k: u64) -> String {
    format!(
        "\"kind\":\"what-if-join\",\"locations\":{},\"capacity\":{}",
        100 + k % 1000,
        2 + k / 1000
    )
}

/// Request generator of one run: the seed fixes every stream.
struct Generator {
    seed: u64,
    next_fresh: u64,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            seed,
            next_fresh: Rng::new(seed, 0xF5E5).below(1000),
        }
    }

    /// Poisson arrivals at `rate` for `seconds`, split over `conns`
    /// connections; `phase` separates the streams of one run.
    fn streams(&mut self, phase: u64, rate: f64, seconds: f64, conns: usize) -> Vec<Vec<Req>> {
        (0..conns)
            .map(|c| {
                let mut rng = Rng::new(self.seed, phase * 64 + c as u64 + 1);
                let per_conn = rate / conns as f64;
                let (mut t, mut reqs) = (0.0f64, Vec::new());
                loop {
                    t += -(1.0 - rng.unit()).ln() / per_conn;
                    if t >= seconds {
                        break reqs;
                    }
                    reqs.push(self.draw(&mut rng, (t * 1e9) as u64));
                }
            })
            .collect()
    }

    /// One request of the mix: 3 % fresh joins, 12 % hot what-ifs, 30 %
    /// `shapley`, 20 % `nucleolus`, 35 % `coalition-value`.
    fn draw(&mut self, rng: &mut Rng, due_ns: u64) -> Req {
        let roll = rng.below(1000);
        let (body, class) = if roll < 30 {
            self.next_fresh += 1;
            (fresh(self.next_fresh), Class::WhatIfFresh)
        } else if roll < 150 {
            (hot(rng.below(8)), Class::WhatIfHot)
        } else if roll < 450 {
            ("\"kind\":\"shapley\"".to_string(), Class::Cheap)
        } else if roll < 650 {
            ("\"kind\":\"nucleolus\"".to_string(), Class::Cheap)
        } else {
            let mask = 1 + rng.below(7);
            let members: Vec<String> = (0..3)
                .filter(|p| mask & (1 << p) != 0)
                .map(|p| p.to_string())
                .collect();
            (
                format!(
                    "\"kind\":\"coalition-value\",\"coalition\":[{}]",
                    members.join(",")
                ),
                Class::Cheap,
            )
        };
        Req {
            due_ns,
            body,
            class,
        }
    }
}

/// One request's fate, times in ns after the rung's origin.
struct Done<'a> {
    req: &'a Req,
    id: u64,
    sent_ns: u64,
    /// Arrival time and the FNV hash of the reply line, without its
    /// trace tag (hashes keep a run's memory independent of reply sizes).
    reply: Option<(u64, u64)>,
}

/// Drives one connection: sends each request at its due time without
/// waiting for replies, while a collector thread reads the replies.
fn drive_conn(addr: SocketAddr, reqs: &[Req], origin: Instant) -> Result<Vec<Done<'_>>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut writer = stream;
    let since = |origin: Instant| probe::ns(Instant::now().saturating_duration_since(origin));
    std::thread::scope(|s| {
        let expected = reqs.len();
        let collector = s.spawn(move || {
            let mut replies: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            let mut reader = BufReader::new(reader);
            let mut line = String::new();
            while replies.len() < expected {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = since(origin);
                let trimmed = line.trim_end();
                if let Some(id) = reply_id(trimmed) {
                    replies.insert(id, (at, reply_hash(trimmed)));
                }
            }
            replies
        });
        let mut sent = Vec::with_capacity(reqs.len());
        let mut failure = None;
        for (i, req) in reqs.iter().enumerate() {
            let due = origin + Duration::from_nanos(req.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let line = format!("{}\n", req.line(i as u64));
            if let Err(e) = writer.write_all(line.as_bytes()) {
                failure = Some(format!("send: {e}"));
                break;
            }
            sent.push(since(origin));
        }
        let mut replies = collector
            .join()
            .map_err(|_| "collector panicked".to_string())?;
        let _ = writer.shutdown(std::net::Shutdown::Both);
        if let Some(f) = failure {
            return Err(f);
        }
        Ok(reqs
            .iter()
            .zip(sent)
            .enumerate()
            .map(|(i, (req, sent_ns))| Done {
                req,
                id: i as u64,
                sent_ns,
                reply: replies.remove(&(i as u64)),
            })
            .collect())
    })
}

fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Removes the `"trace_id"` tag slow replies carry.
fn without_trace_id(line: &str) -> String {
    match line.find(",\"trace_id\":") {
        Some(pos) => format!("{}}}", &line[..pos]),
        None => line.to_string(),
    }
}

/// The hash a reply is compared by.
fn reply_hash(line: &str) -> u64 {
    fnv(FNV_OFFSET, without_trace_id(line).as_bytes())
}

/// Runs all connections of one rung; requests of a failed connection
/// come back without replies.
fn drive(addr: SocketAddr, streams: &[Vec<Req>]) -> Vec<Done<'_>> {
    let origin = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|reqs| s.spawn(move || drive_conn(addr, reqs, origin)))
            .collect();
        handles
            .into_iter()
            .zip(streams)
            .flat_map(|(h, reqs)| match h.join() {
                Ok(Ok(done)) => done,
                _ => reqs
                    .iter()
                    .enumerate()
                    .map(|(i, req)| Done {
                        req,
                        id: i as u64,
                        sent_ns: req.due_ns,
                        reply: None,
                    })
                    .collect(),
            })
            .collect()
    })
}

/// The reference answers: `ServeState::execute` in this process, on a
/// state of its own.
struct Reference {
    state: ServeState,
    payloads: BTreeMap<String, Option<String>>,
}

impl Reference {
    fn new() -> Reference {
        let state = ServeState::new(ScenarioSpec::paper_4_1(), WHATIF_LRU);
        state.warm(1);
        Reference {
            state,
            payloads: BTreeMap::new(),
        }
    }

    /// Executes one request in-process; `None` when it does not parse
    /// or the state answers with an error.
    fn execute(&self, body: &str) -> Option<String> {
        let request = parse_request(format!("{{{body}}}").as_bytes()).ok()?;
        self.state.execute(&request.kind).ok()
    }

    fn payload(&mut self, req: &Req) -> Option<String> {
        if let Some(p) = self.payloads.get(&req.body) {
            return p.clone();
        }
        let payload = self.execute(&req.body);
        self.payloads.insert(req.body.clone(), payload.clone());
        payload
    }

    /// Whether a reply is exactly what the state answers in-process.
    fn matches(&mut self, done: &Done) -> bool {
        let Some((_, hash)) = done.reply else {
            return false;
        };
        self.payload(done.req)
            .is_some_and(|p| reply_hash(&render_ok(Some(done.id), &p)) == hash)
    }
}

/// One rung, reduced.
struct Rung {
    all_ms: Vec<f64>,
    cheap_us: Vec<f64>,
    whatif_us: Vec<f64>,
    cheap_rtt_us: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    realized: f64,
    hit_ratio: f64,
    meets_slo: bool,
}

fn run_rung(addr: SocketAddr, streams: &[Vec<Req>], reference: &mut Reference) -> Rung {
    let before = fedval_obs::metrics_fold();
    let mut done = drive(addr, streams);
    let after = fedval_obs::metrics_fold();
    let d = Delta::new(&before, &after);
    let (hits, misses) = (
        d.counter("serve.whatif.hits"),
        d.counter("serve.whatif.misses"),
    );
    done.sort_by_key(|x| x.req.due_ns);
    let mut rung = Rung {
        all_ms: Vec::new(),
        cheap_us: Vec::new(),
        whatif_us: Vec::new(),
        cheap_rtt_us: Vec::new(),
        late_ms: Vec::new(),
        attempted: done.len() as u64,
        failed: 0,
        realized: 0.0,
        hit_ratio: probe::ratio(hits as f64, (hits + misses) as f64),
        meets_slo: false,
    };
    for x in &done {
        rung.late_ms
            .push(x.sent_ns.saturating_sub(x.req.due_ns) as f64 / 1e6);
        if !reference.matches(x) {
            rung.failed += 1;
        }
        let Some((at, _)) = &x.reply else {
            continue;
        };
        let latency_ns = at.saturating_sub(x.req.due_ns) as f64;
        rung.all_ms.push(latency_ns / 1e6);
        match x.req.class {
            Class::Cheap => {
                rung.cheap_us.push(latency_ns / 1e3);
                rung.cheap_rtt_us
                    .push(at.saturating_sub(x.sent_ns) as f64 / 1e3);
            }
            _ => rung.whatif_us.push(latency_ns / 1e3),
        }
    }
    let span_s = done.last().map_or(0.0, |x| x.req.due_ns as f64 / 1e9);
    rung.realized = probe::ratio(rung.all_ms.len() as f64, span_s);
    // A growing backlog shows as late requests at the end of the rung.
    let tail_start = done.len() - done.len() / 10;
    let last_decile: Vec<f64> = done[tail_start..]
        .iter()
        .filter_map(|x| {
            x.reply
                .as_ref()
                .map(|(at, _)| at.saturating_sub(x.req.due_ns) as f64 / 1e6)
        })
        .collect();
    let p99 = {
        let mut sorted = rung.all_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            f64::INFINITY
        } else {
            nearest_rank(&sorted, 99_000)
        }
    };
    rung.meets_slo = rung.failed == 0 && p99 <= SLO_MS && median(&last_decile) <= SLO_MS;
    rung
}

fn describe(s: &Option<Summary>, unit: &str) -> String {
    match s {
        Some(s) => format!(
            "p50 {:.3} {unit}, {} {:.3} {unit}, n={}",
            s.p50,
            s.tail_label(),
            s.tail,
            s.n
        ),
        None => "no samples".to_string(),
    }
}

fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(WORKERS)
}

fn start_server() -> Result<Server, String> {
    let state = ServeState::new(ScenarioSpec::paper_4_1(), WHATIF_LRU);
    state.warm(WORKERS);
    let config = ServerConfig {
        threads: WORKERS,
        ..ServerConfig::default()
    };
    Server::start(state, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let conns = connections();
    out.line(format!(
        "threads: server workers={WORKERS} connections={conns}"
    ));
    let ((setups, server), _, factor) = cal::scaled(3, || {
        let (mut setups, mut server) = (Vec::new(), None);
        for _ in 0..SETUP_REPS {
            let (started, t) = probe::timed(start_server);
            setups.push(probe::secs(t));
            if let Some(Ok(previous)) = server.replace(started) {
                previous.shutdown();
            }
        }
        (setups, server)
    });
    let setup_raw = median(&setups);
    let server = match server.unwrap_or_else(|| Err("no set-up ran".to_string())) {
        Ok(server) => server,
        Err(e) => {
            out.line(format!("server did not start: {e}"));
            out.checked("server start", 1, 1);
            return;
        }
    };
    let addr = server.local_addr();
    let mut gen = Generator::new(ctx.seed);
    let mut reference = Reference::new();
    match ctx.phase {
        Phase::Untraced => {
            out.set("setup_s", setup_raw * factor);
            out.line(format!(
                "e2e setup_s = {:.6} s scaled ({setup_raw:.6} s raw, median of {SETUP_REPS} set-ups)",
                setup_raw * factor
            ));
            untraced(ctx, out, addr, conns, &mut gen, &mut reference);
        }
        Phase::Traced => traced(ctx, out, addr, conns, &mut gen, &mut reference),
    }
    let drained = server.shutdown();
    out.line(format!(
        "server drained: answered={} busy={} deadline={} abandoned={}",
        drained.answered, drained.busy, drained.deadline_expired, drained.abandoned
    ));
}

fn untraced(
    ctx: &Ctx,
    out: &mut Outcome,
    addr: SocketAddr,
    conns: usize,
    gen: &mut Generator,
    reference: &mut Reference,
) {
    let rung_s = ctx.seconds.as_secs_f64() / LADDER.len() as f64;
    let mut best: Option<f64> = None;
    for (i, &rate) in LADDER.iter().enumerate() {
        let streams = gen.streams(i as u64, rate, rung_s, conns);
        let (rung, _, factor) = cal::scaled(3, || run_rung(addr, &streams, reference));
        out.checked(
            &format!("replies at {rate} req/s"),
            rung.attempted,
            rung.failed,
        );
        let all = Summary::of(&rung.all_ms);
        let late = Summary::of(&rung.late_ms);
        out.line(format!(
            "rung {rate:>6} req/s: realized {:.1} req/s, all {}, cheap rtt p50 {:.1} us, generator late {}, \
             what-if hit ratio {:.3}, failed {}, slo {}",
            rung.realized,
            describe(&all, "ms"),
            median(&rung.cheap_rtt_us),
            describe(&late, "ms"),
            rung.hit_ratio,
            rung.failed,
            if rung.meets_slo { "met" } else { "missed" }
        ));
        if rung.meets_slo {
            best = Some(rung.realized);
        }
        if rate == REFERENCE_RATE {
            let cheap = Summary::of(&rung.cheap_us);
            let whatif = Summary::of(&rung.whatif_us);
            let (c, w) = (
                cheap.map(|s| (s.p50, s.tail)),
                whatif.map(|s| (s.p50, s.tail)),
            );
            out.line(format!(
                "e2e cheap_p50_us = {:.1} us; cheap_p99_us = {:.1} us ({})",
                c.map_or(0.0, |x| x.0),
                c.map_or(0.0, |x| x.1),
                describe(&cheap, "us")
            ));
            out.line(format!(
                "e2e whatif_p50_us = {:.1} us; whatif_p99_us = {:.1} us ({})",
                w.map_or(0.0, |x| x.0),
                w.map_or(0.0, |x| x.1),
                describe(&whatif, "us")
            ));
            if let Some(s) = all {
                out.set("op_p50_ms", s.p50 * factor);
                out.line(format!("op p50 = {:.4} ms scaled", s.p50 * factor));
            }
        }
    }
    let max_rps = best.unwrap_or(0.0);
    out.line(format!(
        "e2e max_rps_at_slo = {max_rps:.1} 1/s (realized rate of the highest rung with p99 <= {SLO_MS} ms)"
    ));
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    addr: SocketAddr,
    conns: usize,
    gen: &mut Generator,
    reference: &mut Reference,
) {
    let half = ctx.seconds.as_secs_f64() / 2.0;
    let streams = gen.streams(0, REFERENCE_RATE, half, conns);
    let plain = run_rung(addr, &streams, reference);
    out.checked("replies untraced", plain.attempted, plain.failed);

    probe::record(&fedval_obs::RecordingSink::new());
    let streams = gen.streams(1, REFERENCE_RATE, half, conns);
    let before = fedval_obs::metrics_fold();
    let rung = run_rung(addr, &streams, reference);
    let after = fedval_obs::metrics_fold();
    let d = Delta::new(&before, &after);
    out.checked("replies traced", rung.attempted, rung.failed);
    out.set(
        "obs.trace_overhead_ratio",
        probe::ratio(median(&rung.all_ms), median(&plain.all_ms)),
    );
    let reqs: Vec<&Req> = streams.iter().flatten().collect();
    let cheap_exec = execution_layers(ctx.seed, out);
    let (hits, misses) = (
        d.counter("serve.whatif.hits"),
        d.counter("serve.whatif.misses"),
    );
    let mut late = rung.late_ms.clone();
    late.sort_by(f64::total_cmp);
    // Network-side layers are printed, not listed in BENCHMARK.json:
    // no workload there runs the server.
    out.line(format!(
        "layer serve.transport_queue_us = {} us (median cheap round trip minus median cheap execute)",
        median(&rung.cheap_rtt_us) - cheap_exec
    ));
    out.line(format!(
        "layer serve.whatif.hit_ratio = {} ratio",
        probe::ratio(hits as f64, (hits + misses) as f64)
    ));
    out.line(format!(
        "layer serve.busy = {} count; serve.deadline_expired = {} count",
        d.counter("serve.busy"),
        d.counter("serve.deadline_expired")
    ));
    if !late.is_empty() {
        out.line(format!(
            "layer serve.generator_late_ms = {} ms (p99 of send time minus due time)",
            nearest_rank(&late, 99_000)
        ));
    }

    // A what-if miss re-solves a 4-player table: build it through the
    // timing adapter and take its exact Shapley, per fresh key.
    let (mut calls, mut busy, mut per_member, mut build, mut exact) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in reqs
        .iter()
        .filter(|r| r.class == Class::WhatIfFresh)
        .take(ADAPTER_SOLVES)
    {
        let Some((locations, capacity)) = join_key(&r.body) else {
            continue;
        };
        let Ok(spec) = ScenarioSpec::paper_4_1().join(locations, capacity) else {
            continue;
        };
        let (facilities, demand) = (spec.facilities(), spec.demand());
        let game = Timed::new(FederationGame::new(&facilities, &demand));
        let (table, t) = probe::timed(|| TableGame::try_from_game(&game));
        let Ok(table) = table else {
            continue;
        };
        build.push(probe::secs(t));
        exact.push(probe::secs(probe::timed(|| shapley(&table)).1));
        let vs = game.totals();
        calls.push(vs.calls as f64);
        busy.push(vs.busy_ns as f64 / 1e9);
        per_member.push(vs.ns_per_member());
    }
    out.set("core.vs.calls", median(&calls));
    out.set("core.vs.busy_s", median(&busy));
    out.set("core.vs.ns_per_member", median(&per_member));
    out.set("core.table.build_s", median(&build));
    out.set("coalition.shapley_exact.busy_s", median(&exact));
}

/// The serve layer in-process, from outside: `parse_request` over the
/// lines of a seeded request stream, then `ServeState::execute` of each
/// request on a fresh warm state, timed by class. A hot what-if's first
/// execution is a miss, its later ones hits. Returns the cheap kinds'
/// median execute time in µs.
pub fn execution_layers(seed: u64, out: &mut Outcome) -> f64 {
    let stream = Generator::new(seed).streams(0x5E, REFERENCE_RATE, 2.0, 1);
    let lines: Vec<String> = stream[0]
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i as u64))
        .collect();
    let (parsed, t) = probe::timed(|| {
        lines
            .iter()
            .filter(|l| parse_request(l.as_bytes()).is_ok())
            .count()
    });
    out.checked("parse", lines.len() as u64, (lines.len() - parsed) as u64);
    out.set(
        "serve.parse_ns",
        probe::ratio(probe::ns(t) as f64, lines.len() as f64),
    );
    let reference = Reference::new();
    let mut seen = std::collections::BTreeSet::new();
    let (mut cheap, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new());
    for req in &stream[0] {
        let (payload, t) = probe::timed(|| reference.execute(&req.body));
        out.checked("in-process execute", 1, u64::from(payload.is_none()));
        let us = probe::secs(t) * 1e6;
        match req.class {
            Class::Cheap => cheap.push(us),
            _ if seen.insert(req.body.as_str()) => miss.push(us),
            _ => hit.push(us),
        }
    }
    let cheap_us = median(&cheap);
    out.set("serve.execute_us.cheap", cheap_us);
    out.set("serve.execute_us.whatif_hit", median(&hit));
    out.set("serve.execute_us.whatif_miss", median(&miss));
    cheap_us
}

/// `(locations, capacity)` of a what-if-join body.
fn join_key(body: &str) -> Option<(u32, u64)> {
    let field = |name: &str| -> Option<u64> {
        let rest = &body[body.find(&format!("\"{name}\":"))? + name.len() + 3..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some((u32::try_from(field("locations")?).ok()?, field("capacity")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_repeat_per_seed_and_change_across_seeds() {
        let streams = |seed| Generator::new(seed).streams(1, 1000.0, 2.0, 2);
        let a = streams(11);
        assert_eq!(a, streams(11));
        assert_ne!(a, streams(12));
        let all: Vec<&Req> = a.iter().flatten().collect();
        assert!(
            all.len() > 1500 && all.len() < 2500,
            "{} requests",
            all.len()
        );
        let fresh: Vec<&str> = all
            .iter()
            .filter(|r| r.class == Class::WhatIfFresh)
            .map(|r| r.body.as_str())
            .collect();
        let distinct: std::collections::BTreeSet<&str> = fresh.iter().copied().collect();
        assert!(!fresh.is_empty());
        assert_eq!(distinct.len(), fresh.len(), "fresh what-if keys repeat");
        for r in &all {
            assert!(parse_request(r.line(7).as_bytes()).is_ok(), "{}", r.body);
        }
    }

    #[test]
    fn replies_compare_without_their_trace_tag() {
        assert_eq!(
            without_trace_id("{\"id\":3,\"ok\":true,\"kind\":\"shapley\",\"trace_id\":9}"),
            "{\"id\":3,\"ok\":true,\"kind\":\"shapley\"}"
        );
        assert_eq!(reply_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(join_key(&fresh(1234)), Some((334, 3)));
    }
}
