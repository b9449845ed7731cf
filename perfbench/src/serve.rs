//! `serve_small`: an in-process `Server` with one solver worker on an
//! ephemeral localhost port, driven by two closed-loop connections.
//!
//! Each connection takes the next small single-root instance and sends
//! it twice in a row, so the engine cache answers exactly half of the
//! requests. Every request goes through one client path, [`Conn`], which
//! speaks the newline-delimited JSON protocol over a plain socket; a
//! traced run wraps every other input's client-side encode, wire round
//! trip and decode in spans, and reads the server's layers from its
//! `stats` registry snapshot before and after the run.

use crate::layers::{overhead_share, Tally};
use crate::spans::{self, Spans};
use crate::{check, input_seed, Budget, Opts, Phase, Report, Rng, SETUP_REPS};
use atsched_core::instance::Instance;
use atsched_core::solver::SolverOptions;
use atsched_engine::{Engine, EngineConfig};
use atsched_obs::RegistrySnapshot;
use atsched_serve::{Client, Request, Response, Server, ServerConfig, ServerHandle, SolveReply};
use atsched_workloads::generators::{random_laminar, LaminarConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Inputs each connection sends (twice each) during set-up.
const WARMUP_INPUTS: u64 = 192;
/// Safety net against a hung server; the run limit ends the process
/// well before a request could wait this long.
const READ_TIMEOUT: Duration = Duration::from_secs(300);
/// One input in this many is re-solved locally and compared.
const LOCAL_CHECK_EVERY: u64 = 32;
const MEASURED: u64 = 0;
const WARMUP: u64 = 1;

fn instance(seed: u64, stream: u64, i: u64) -> Instance {
    random_laminar(&LaminarConfig::default(), input_seed(seed, stream, i))
}

/// A running in-process server, drained and joined on drop.
struct Running {
    addr: SocketAddr,
    handle: Option<ServerHandle>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let cfg = ServerConfig::default().addr("127.0.0.1:0").workers(1);
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        Ok(Running { addr, handle: Some(server.spawn()) })
    }

    fn conn(&self) -> Result<Conn, String> {
        Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    fn stats(&self) -> Result<RegistrySnapshot, String> {
        Ok(self.client()?.stats().map_err(|e| format!("stats: {e}"))?.registry)
    }

    /// Ask the server to drain, then join its thread.
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        let asked =
            self.client().and_then(|mut c| c.shutdown().map_err(|e| format!("shutdown: {e}")));
        let joined = handle.join().map_err(|e| format!("server exited with {e}"));
        asked.and(joined.map(drop))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: stopping the server: {e}");
        }
    }
}

fn request(inst: &Instance) -> Request {
    Request::solve(inst).with_schedule()
}

/// Check one reply against its instance; the active slots on success.
fn check_reply(inst: &Instance, reply: &SolveReply) -> Result<usize, String> {
    let schedule = reply.schedule.as_ref().ok_or("reply carries no schedule")?;
    check::schedule(inst, schedule, reply.active_slots as usize)?;
    check::certified_ratio(reply.certified_ratio)?;
    Ok(reply.active_slots as usize)
}

/// What one connection loop saw.
#[derive(Default)]
struct ConnLog {
    /// Requests sent without spans.
    plain: Phase,
    /// Requests sent with spans.
    traced: Phase,
    /// Inputs picked for the local re-solve check, with the served slots.
    sampled: Vec<(u64, usize)>,
    tally: Tally,
}

/// Set up: bind and start the server, open the connections and warm
/// them up (distinct warm-up inputs per connection, each sent twice).
fn setup(seed: u64) -> Result<(Running, Vec<Conn>), String> {
    let server = Running::start()?;
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS as u64 {
        let mut conn = server.conn()?;
        for w in 0..WARMUP_INPUTS {
            let i = c * WARMUP_INPUTS + w;
            let inst = instance(seed, WARMUP, i);
            for rep in 0..2 {
                let reply =
                    conn.solve(None, 2 * i + rep, &inst).map_err(|e| format!("warm-up: {e}"))?;
                check_reply(&inst, &reply)?;
            }
        }
        conns.push(conn);
    }
    Ok((server, conns))
}

pub fn run(opts: &Opts) -> Report {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's server drains before the next one starts.
        drop(ready.take());
        let start = Instant::now();
        let s = setup(opts.seed).unwrap_or_else(|e| crate::fatal(&format!("serve set-up: {e}")));
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let (mut server, conns) = ready.expect("at least one set-up");
    let next_input = AtomicU64::new(0);
    let spans = Spans::new();
    let before = opts.trace.then(|| server.stats());

    let budget = Budget::new(opts.seconds, opts.smoke);
    let logs: Vec<ConnLog> = thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (next_input, spans) = (&next_input, &spans);
                scope.spawn(move || conn_loop(opts, c, conn, next_input, budget, spans))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });

    let mut tally = Tally::default();
    let local = Engine::new(EngineConfig::default().cache(false));
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    plain.set_callers(CONNECTIONS);
    traced.set_callers(CONNECTIONS);
    for log in logs {
        for (i, served) in log.sampled {
            if let Err(e) = local_check(&local, opts.seed, i, served) {
                plain.fail(e);
            }
        }
        plain.absorb(log.plain);
        traced.absorb(log.traced);
        let t = log.tally;
        tally.server_ms += t.server_ms;
        tally.outside_server_ms += t.outside_server_ms;
        tally.hit_rtt_ms.extend(t.hit_rtt_ms);
        tally.miss_rtt_ms.extend(t.miss_rtt_ms);
        tally.cache_hits += t.cache_hits;
        tally.cache_lookups += t.cache_lookups;
    }

    let layers = before.map(|before| {
        match before.and_then(|before| Ok((before, server.stats()?))) {
            Ok((before, after)) => {
                tally.add_counters(&before, &after);
                tally.add_span_sums(&before, &after);
            }
            Err(e) => traced.fail(e),
        }
        // Server-side sums cover every request of the run; the client-side
        // sums only the traced ones, so they are scaled to the same base.
        tally.ops = plain.completed() + traced.completed();
        let scale = crate::stats::ratio(tally.ops as f64, traced.completed() as f64);
        let recs = spans.records();
        tally.encode_us = spans::total_ms(&recs, "serve.encode") * 1e3 * scale;
        tally.decode_us = spans::total_ms(&recs, "serve.decode") * 1e3 * scale;
        tally.server_ms *= scale;
        tally.outside_server_ms *= scale;
        let overhead = overhead_share(plain.ops_per_s(), traced.ops_per_s());
        let metrics = tally.metrics(spans::unattributed_share(&recs), overhead);
        plain.absorb(std::mem::take(&mut traced));
        metrics
    });
    if let Err(e) = server.stop() {
        plain.fail(format!("server did not drain cleanly: {e}"));
    }
    Report { setup_s, phase: plain, layers }
}

/// A served input's active slots against a local solve of it.
fn local_check(local: &Engine, seed: u64, i: u64, served: usize) -> Result<(), String> {
    let inst = instance(seed, MEASURED, i);
    let outcome = local.solve_one(&inst, &SolverOptions::default());
    let r = check::outcome(&inst, &outcome)?;
    if r.stats.active_slots != served {
        return Err(format!(
            "input {i}: served {served} active slots, local solve {}",
            r.stats.active_slots
        ));
    }
    Ok(())
}

/// One connection's closed loop. Each input goes out twice in a row;
/// traced runs wrap every other input's requests in spans.
fn conn_loop(
    opts: &Opts,
    c: usize,
    mut conn: Conn,
    next: &AtomicU64,
    budget: Budget,
    spans: &Spans,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut rng = Rng::new(opts.seed ^ (0xc0 + c as u64));
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if !budget.more(2 * i) {
            break;
        }
        let inst = instance(opts.seed, MEASURED, i);
        let sample = rng.below(LOCAL_CHECK_EVERY) == 0;
        let traced = opts.trace && i % 2 == 1;
        for rep in 0..2u64 {
            let start = Instant::now();
            let reply = conn.solve(traced.then_some(spans), 2 * i + rep, &inst);
            let dt = start.elapsed();
            let checked = reply.and_then(|reply| {
                if traced {
                    let rtt_ms = dt.as_secs_f64() * 1e3;
                    let t = &mut log.tally;
                    t.server_ms += reply.elapsed_ms;
                    t.outside_server_ms += rtt_ms - reply.elapsed_ms;
                    t.cache_lookups += 1;
                    if reply.cached {
                        t.cache_hits += 1;
                        t.hit_rtt_ms.push(rtt_ms);
                    } else {
                        t.miss_rtt_ms.push(rtt_ms);
                    }
                }
                check_reply(&inst, &reply)
            });
            if let (true, 0, Ok(slots)) = (sample, rep, &checked) {
                log.sampled.push((i, *slots));
            }
            let phase = if traced { &mut log.traced } else { &mut log.plain };
            phase.record(i, dt, checked);
        }
    }
    log
}

/// The client side of one connection: a plain socket speaking the serve
/// protocol. Traced and untraced requests take this same path; the
/// traced ones only add spans around its steps.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Run `f`, inside a span named `name` under `parent` when traced.
fn step<R>(parent: Option<(&Spans, u64, usize)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match parent {
        Some((spans, op, root)) => spans.time(name, op, Some(root), |_| f()),
        None => f(),
    }
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// One `solve` round trip as op `op`, with spans when `spans` is set.
    fn solve(
        &mut self,
        spans: Option<&Spans>,
        op: u64,
        inst: &Instance,
    ) -> Result<SolveReply, String> {
        let req = request(inst).with_id(op + 1);
        let resp = match spans {
            Some(spans) => spans
                .time("request", op, None, |root| self.round_trip(&req, Some((spans, op, root)))),
            None => self.round_trip(&req, None),
        }?;
        if resp.id.is_some_and(|echoed| echoed != op + 1) {
            return Err(format!("response id {:?} does not match request id {}", resp.id, op + 1));
        }
        match (resp.solve, resp.error) {
            (Some(reply), None) => Ok(reply),
            (_, Some(err)) => Err(format!("server error {}: {}", err.kind, err.message)),
            (None, None) => Err("ok response without solve payload".into()),
        }
    }

    /// Encode, send, receive and decode one request.
    fn round_trip(
        &mut self,
        req: &Request,
        parent: Option<(&Spans, u64, usize)>,
    ) -> Result<Response, String> {
        let line = step(parent, "serve.encode", || serde_json::to_string(req));
        let mut line = line.map_err(|e| format!("encode: {e}"))?;
        line.push('\n');
        let reply = step(parent, "serve.wire", || {
            self.writer.write_all(line.as_bytes())?;
            let mut reply = String::new();
            let n = self.reader.read_line(&mut reply)?;
            Ok::<_, std::io::Error>((n, reply))
        });
        let (n, reply) = reply.map_err(|e| format!("wire: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        step(parent, "serve.decode", || serde_json::from_str::<Response>(reply.trim_end()))
            .map_err(|e| format!("decode: {e}"))
    }
}
