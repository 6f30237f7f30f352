//! `serve-read` and `serve-mixed`: the profile-serving daemon under
//! closed-loop load.
//!
//! Once per invocation the store is seeded directly through
//! `ProfileStore::put` (no JSON, `fdatasync` per put as always); every
//! daemon then opens its own fresh copy, so no run sees a store grown by
//! the runs before it. The daemon runs in-process (`Server::spawn`, 2
//! workers, Unix socket) and two client threads each keep one request in
//! flight.
//!
//! * `serve-read`: gets and `query_tradeoff` over 4,096 keys with
//!   Zipf-skewed popularity; 100-point profiles (~19 KB frames), more keys
//!   than the read cache's `DEFAULT_CACHE_CAP`.
//! * `serve-mixed`: the `LoadMix::Mixed` blend (50% get / 30% put / 20%
//!   query) over 128 keys that fit the cache, 12-point profiles; each
//!   client owns its keys, so every sequence number is predictable.
//!
//! Checks: every answer equals what was seeded or last put for its key
//! (`sample_profile` is pure), every query answer holds exactly the points
//! that pass its predicates, cheapest first, per-key sequence numbers are
//! exactly the expected ones, no request is refused, and the measured
//! daemon shuts down gracefully with zero quarantined records.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use smokescreen_bench::serve_client::{client_camera, sample_profile};
use smokescreen_core::{Profile, ProfilePoint};
use smokescreen_rt::journal::checksum64;
use smokescreen_rt::json::Json;
use smokescreen_serve::store::DEFAULT_CACHE_CAP;
use smokescreen_serve::{
    Connection, ProfileStore, Request, Response, RunningServer, ServeAddr, Server, ServerConfig,
    StoreKey,
};

use crate::common::{self, Options, Outcome, Rng, Size, WorkDir};

/// Daemon workers (the machine's core count).
const WORKERS: usize = 2;
/// Client connections on serve-mixed; each owns its own keys.
const MIXED_CLIENTS: usize = 2;
/// Sub-windows a run's window is split into; each still holds hundreds
/// of requests beyond its p95, which the report lines print.
const SUB_WINDOWS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Read,
    Mixed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get,
    Put,
    Query,
}

/// The key space and payloads of one workload.
struct Plan {
    mix: Mix,
    /// Client connections, each with one request in flight.
    clients: usize,
    /// All keys; for `Mixed`, client `c` owns `keys[c * per_client..]`.
    keys: Vec<StoreKey>,
    per_client: usize,
    points: usize,
    /// Query predicates: each drops exactly one point of every profile
    /// (the widest bound and the largest fraction), so both filters are
    /// checked while a query answer stays about as large as a get answer
    /// and the two ops form one latency mode, not two.
    max_err: f64,
    max_fraction: f64,
    /// Puts per key while seeding (the log the daemon replays on open).
    versions: u64,
    /// Popularity CDF over `keys` (read mix), in a seeded rank order.
    cdf: Vec<f64>,
    /// Stored profile and expected tradeoff matches per grid id. The
    /// stored profile is `sample_profile` with its points in a seeded
    /// order, as a generated profile's cell order is not cost order, so
    /// the daemon's cheapest-first sort is checked too.
    expected: HashMap<u64, (Profile, Vec<ProfilePoint>)>,
}

impl Plan {
    fn new(mix: Mix, seed: u64, size: Size) -> Plan {
        let (keys, per_client, points, versions) = match (mix, size) {
            (Mix::Read, Size::Full) => (read_keys(64, 64), 0, 100, 1),
            (Mix::Read, Size::Small) => (read_keys(8, 64), 0, 24, 1),
            (Mix::Mixed, Size::Full) => (owned_keys(64), 64, 12, 96),
            (Mix::Mixed, Size::Small) => (owned_keys(16), 16, 12, 4),
        };
        let mut cdf = Vec::new();
        if mix == Mix::Read {
            // Zipf(1) popularity over a seeded permutation of the keys.
            let mut order: Vec<usize> = (0..keys.len()).collect();
            let mut rng = Rng::new(seed, 0x21bf);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut weight = vec![0.0; keys.len()];
            for (rank, &k) in order.iter().enumerate() {
                weight[k] = 1.0 / (rank + 1) as f64;
            }
            let total: f64 = weight.iter().sum();
            let mut acc = 0.0;
            for w in weight {
                acc += w / total;
                cdf.push(acc);
            }
        }
        // `sample_profile` points ascend in fraction and descend in bound.
        let ladder = sample_profile(0, points).points;
        let max_err = ladder[1].err_b;
        let max_fraction = ladder[points - 2].set.sample_fraction;
        let expected = keys
            .iter()
            .map(|k| {
                let mut profile = sample_profile(k.grid, points);
                let mut rng = Rng::new(seed ^ k.grid, 0x0dde);
                for i in (1..profile.points.len()).rev() {
                    profile.points.swap(i, rng.below(i + 1));
                }
                let matches = expected_matches(&profile, max_err, max_fraction);
                (k.grid, (profile, matches))
            })
            .collect();
        Plan {
            mix,
            // One reader: two CPU-bound parsers on two cores saturate the
            // machine, and the daemon's share of it then depends on
            // scheduling luck rather than on the program.
            clients: if mix == Mix::Read { 1 } else { MIXED_CLIENTS },
            keys,
            per_client,
            points,
            max_err,
            max_fraction,
            versions,
            cdf,
            expected,
        }
    }

    /// Next `(op, key)` for client `client`.
    fn step(&self, rng: &mut Rng, client: usize) -> (Op, StoreKey) {
        match self.mix {
            Mix::Read => {
                let u = rng.unit();
                let i = self
                    .cdf
                    .partition_point(|&c| c < u)
                    .min(self.keys.len() - 1);
                let op = if rng.below(7) < 5 { Op::Get } else { Op::Query };
                (op, self.keys[i])
            }
            Mix::Mixed => {
                let key = self.keys[client * self.per_client + rng.below(self.per_client)];
                let op = match rng.below(10) {
                    0..=4 => Op::Get,
                    5..=7 => Op::Put,
                    _ => Op::Query,
                };
                (op, key)
            }
        }
    }

    fn request(&self, op: Op, key: StoreKey) -> Request {
        match op {
            Op::Get => Request::GetProfile { key },
            Op::Put => Request::PutProfile {
                key,
                profile: self.expected[&key.grid].0.clone(),
                expected_seq: None,
            },
            Op::Query => Request::QueryTradeoff {
                key,
                max_err: self.max_err,
                max_fraction: Some(self.max_fraction),
                max_bytes: None,
                max_energy_j: None,
            },
        }
    }
}

fn read_keys(cameras: usize, grids: u64) -> Vec<StoreKey> {
    let mut keys = Vec::new();
    for c in 0..cameras {
        let camera = checksum64(format!("read-camera-{c}").as_bytes());
        for g in 1..=grids {
            keys.push(StoreKey::new(camera, g));
        }
    }
    keys
}

fn owned_keys(per_client: u64) -> Vec<StoreKey> {
    let mut keys = Vec::new();
    for c in 0..MIXED_CLIENTS {
        for g in 1..=per_client {
            keys.push(StoreKey::new(client_camera(c), g));
        }
    }
    keys
}

/// What the daemon must answer to the benchmark's `query_tradeoff`:
/// points within both predicates, by ascending fraction then bound.
fn expected_matches(profile: &Profile, max_err: f64, max_fraction: f64) -> Vec<ProfilePoint> {
    let mut m: Vec<ProfilePoint> = profile
        .points
        .iter()
        .filter(|p| p.err_b <= max_err && p.set.sample_fraction <= max_fraction)
        .cloned()
        .collect();
    m.sort_by(|a, b| {
        a.set
            .sample_fraction
            .total_cmp(&b.set.sample_fraction)
            .then(a.err_b.total_cmp(&b.err_b))
    });
    m
}

fn server_config(dir: &Path, sock: &Path) -> ServerConfig {
    ServerConfig::new(ServeAddr::Unix(sock.to_path_buf()), dir)
        .with_threads(WORKERS)
        .with_disk_faults(None)
        .with_net_faults(None)
}

/// Seeds the store once, directly through `ProfileStore::put`. Returns the
/// per-put latencies in µs.
fn seed_store(plan: &Plan, dir: &Path, identity: &str) -> Result<Vec<f64>, String> {
    let (mut store, _) =
        ProfileStore::open(dir, identity).map_err(|e| format!("seed open: {e}"))?;
    let mut put_us = Vec::new();
    for _ in 0..plan.versions {
        for key in &plan.keys {
            let profile = &plan.expected[&key.grid].0;
            let t0 = Instant::now();
            store
                .put(*key, profile)
                .map_err(|e| format!("seed put: {e}"))?;
            put_us.push(common::secs(t0) * 1e6);
        }
    }
    Ok(put_us)
}

/// Fresh store copy → daemon spawn → first reply. Returns the daemon and
/// the span in seconds (the copy is not timed).
fn start_daemon(
    seed_dir: &Path,
    run_dir: &Path,
    sock: &Path,
) -> Result<(RunningServer, f64), String> {
    common::copy_dir(seed_dir, run_dir).map_err(|e| format!("copying store: {e}"))?;
    let _ = std::fs::remove_file(sock);
    let t0 = Instant::now();
    let server = Server::new(server_config(run_dir, sock))
        .spawn()
        .map_err(|e| format!("spawning daemon: {e}"))?;
    let mut conn = server.connect().map_err(|e| format!("connecting: {e}"))?;
    match conn.request(&Request::Stats) {
        Ok(Response::Stats(_)) => {}
        other => return Err(format!("first reply was {other:?}")),
    }
    Ok((server, common::secs(t0)))
}

/// Graceful shutdown of the measured daemon, with its checks.
fn stop_daemon(server: RunningServer, out: &mut Outcome) {
    match server.shutdown() {
        Ok(report) => {
            if !report.graceful {
                out.fail("daemon did not shut down gracefully");
            }
            if report.stats.quarantined_records != 0 {
                out.fail(format!(
                    "daemon quarantined {} records",
                    report.stats.quarantined_records
                ));
            }
        }
        Err(e) => out.fail(format!("daemon shutdown failed: {e}")),
    }
}

/// Protocol spans of a traced client, in ns, summed over requests.
#[derive(Debug, Default, Clone)]
struct ProtoSpans {
    req_bytes: u64,
    resp_bytes: u64,
    encode: u64,
    parse: u64,
    decode: u64,
}

impl ProtoSpans {
    fn add(&mut self, o: &ProtoSpans) {
        self.req_bytes += o.req_bytes;
        self.resp_bytes += o.resp_bytes;
        self.encode += o.encode;
        self.parse += o.parse;
        self.decode += o.decode;
    }

    /// Both halves of one round trip's protocol work, replayed on the same
    /// messages after the request completed (so outside its latency): the
    /// client's request encode, the daemon's request parse and decode, the
    /// daemon's response encode, and the client's response parse and
    /// decode.
    fn replay(&mut self, request: &Request, response: &Response) -> Result<(), String> {
        let t0 = Instant::now();
        let req = request.to_json().encode();
        self.encode += ns(t0);
        let t0 = Instant::now();
        let json = Json::parse(&req).map_err(|e| e.to_string())?;
        self.parse += ns(t0);
        let t0 = Instant::now();
        Request::from_json(&json)?;
        self.decode += ns(t0);
        let t0 = Instant::now();
        let resp = response.to_json().encode();
        self.encode += ns(t0);
        let t0 = Instant::now();
        let json = Json::parse(&resp).map_err(|e| e.to_string())?;
        self.parse += ns(t0);
        let t0 = Instant::now();
        std::hint::black_box(Response::from_json(&json)?);
        self.decode += ns(t0);
        self.req_bytes += req.len() as u64;
        self.resp_bytes += resp.len() as u64;
        Ok(())
    }
}

/// One client's results.
#[derive(Default)]
struct ClientRun {
    /// `(op, completion time in s since the window opened, latency µs)`
    /// per answered request.
    latencies: Vec<(Op, f64, f64)>,
    attempted: u64,
    errors: Vec<String>,
    proto: ProtoSpans,
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Closed loop: issue, wait, verify, repeat, until `deadline`.
fn client_loop(
    plan: &Plan,
    conn: &mut Connection,
    client: usize,
    seed: u64,
    traced: bool,
    start: &Barrier,
    deadline_after: Duration,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut rng = Rng::new(seed, 0x5e7e + client as u64);
    // Expected per-key sequence numbers (what seeding left behind).
    let mut seqs: HashMap<StoreKey, u64> = HashMap::new();
    start.wait();
    let opened = Instant::now();
    let deadline = opened + deadline_after;
    while Instant::now() < deadline {
        let (op, key) = plan.step(&mut rng, client);
        let request = plan.request(op, key);
        run.attempted += 1;
        let t0 = Instant::now();
        let response = conn.request(&request);
        let latency_us = common::secs(t0) * 1e6;
        let mut spans = ProtoSpans::default();
        let response = match response {
            Ok(r) if traced => spans.replay(&request, &r).map(|()| r),
            other => other,
        };
        let (profile, matches) = &plan.expected[&key.grid];
        let expected_seq = seqs.entry(key).or_insert(plan.versions);
        let verdict = match (op, response) {
            (
                Op::Get,
                Ok(Response::Profile {
                    key: k,
                    seq,
                    profile: p,
                    degraded,
                    ..
                }),
            ) => {
                if k != key || &p != profile {
                    Err("get answered a different profile".to_string())
                } else if seq != *expected_seq {
                    Err(format!("get seq {seq}, expected {expected_seq}"))
                } else if degraded {
                    Err("get answered in degraded mode".to_string())
                } else {
                    Ok(())
                }
            }
            (Op::Put, Ok(Response::Ok { seq })) => {
                if seq != *expected_seq + 1 {
                    Err(format!(
                        "put acked seq {seq}, expected {}",
                        *expected_seq + 1
                    ))
                } else {
                    *expected_seq = seq;
                    Ok(())
                }
            }
            (Op::Query, Ok(Response::Tradeoff { matches: m })) => {
                if &m != matches {
                    Err(format!(
                        "query answered {} matches, expected {}",
                        m.len(),
                        matches.len()
                    ))
                } else {
                    Ok(())
                }
            }
            (_, Ok(other)) => Err(format!("unexpected response {other:?}")),
            (_, Err(e)) => Err(format!("transport: {e}")),
        };
        match verdict {
            Ok(()) => {
                run.latencies.push((op, common::secs(opened), latency_us));
                run.proto.add(&spans);
            }
            Err(e) => {
                run.errors
                    .push(format!("client {client} {op:?} {key:?}: {e}"));
                // A desynchronized or dead connection cannot continue.
                break;
            }
        }
    }
    run
}

/// Runs both clients against `addr` for `seconds`. Returns the clients'
/// results and the measured window in seconds.
fn drive(
    plan: &Plan,
    addr: &ServeAddr,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Vec<ClientRun>, f64), String> {
    let mut conns = Vec::new();
    for _ in 0..plan.clients {
        conns.push(addr.connect().map_err(|e| format!("connect: {e}"))?);
    }
    let start = Barrier::new(plan.clients + 1);
    let window = Duration::from_secs_f64(seconds);
    let (runs, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let start = &start;
                s.spawn(move || client_loop(plan, conn, c, seed, traced, start, window))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (runs, common::secs(t0))
    });
    Ok((runs, elapsed))
}

fn setup_reps(size: Size) -> usize {
    match size {
        Size::Full => 7,
        Size::Small => 2,
    }
}

pub fn run(opts: &Options, work: &WorkDir, mix: Mix) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = Plan::new(mix, opts.seed, opts.size);
    let seed_dir = work.sub("seeded").map_err(|e| e.to_string())?;
    let identity = server_config(&seed_dir, Path::new("unused")).identity;
    let seed_put_us = seed_store(&plan, &seed_dir, &identity)?;
    let store_bytes: u64 = std::fs::read_dir(&seed_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let name = match mix {
        Mix::Read => "serve-read",
        Mix::Mixed => "serve-mixed",
    };
    out.note(format!(
        "{name}: {} keys, {}-point profiles, {} seeded puts ({} store bytes) on {} with fdatasync per acked put; cache cap {}; {} clients, {} workers, seed {}",
        plan.keys.len(),
        plan.points,
        seed_put_us.len(),
        store_bytes,
        common::fs_type(&seed_dir),
        DEFAULT_CACHE_CAP,
        plan.clients,
        WORKERS,
        opts.seed
    ));

    common::warm_pool(WORKERS + 2);
    let run_dir = work.path.join("store");
    let sock = work.path.join("d.sock");
    let mut setups = Vec::new();
    let mut daemon: Option<RunningServer> = None;
    for _ in 0..setup_reps(opts.size) {
        if let Some(server) = daemon.take() {
            // The set-up daemons' store copies are thrown away: stop them
            // without the shutdown compaction, whose full-log buffer would
            // otherwise set the peak RSS read below.
            server
                .kill()
                .map_err(|e| format!("stopping a set-up daemon: {e}"))?;
        }
        let (server, secs) = start_daemon(&seed_dir, &run_dir, &sock)?;
        setups.push(secs);
        daemon = Some(server);
    }
    let server = daemon.expect("at least one set-up");
    let setup_rss_mb = common::peak_rss_mb();

    let (runs, window) = drive(&plan, server.addr(), opts.seed, opts.seconds, opts.trace)?;
    // Read before the shutdown: its compaction loads the whole log, whose
    // size depends on how many puts the window managed.
    let window_rss_mb = common::peak_rss_mb();
    let stats = match server
        .connect()
        .map_err(|e| e.to_string())?
        .request(&Request::Stats)
    {
        Ok(Response::Stats(s)) => *s,
        other => return Err(format!("stats reply was {other:?}")),
    };
    stop_daemon(server, &mut out);
    if stats.overload_rejections != 0 {
        out.fail(format!(
            "daemon refused {} connections",
            stats.overload_rejections
        ));
    }

    let mut all = Vec::new();
    // (completion time in s since the window opened, latency in ms)
    let mut timed = Vec::new();
    let mut reads = Vec::new();
    let mut puts = Vec::new();
    let mut proto = ProtoSpans::default();
    for run in &runs {
        out.attempted += run.attempted;
        for e in &run.errors {
            out.fail(e.clone());
        }
        for &(op, t, us) in &run.latencies {
            all.push(us / 1e3);
            timed.push((t, us / 1e3));
            match op {
                Op::Put => puts.push(us / 1e3),
                Op::Get | Op::Query => reads.push(us / 1e3),
            }
        }
        proto.add(&run.proto);
    }
    let answered = all.len();
    let lat = common::Latency::of(&mut all);
    let read_p50 = common::median(&reads);
    let put_p50 = if puts.is_empty() {
        0.0
    } else {
        common::median(&puts)
    };
    out.note(format!(
        "{name}: {answered} answered in {window:.3} s ({} gets+queries, {} puts); per request {}",
        reads.len(),
        puts.len(),
        lat.describe()
    ));
    out.note(format!(
        "{name}: read_p50_ms {read_p50:.4} ms, put_p50_ms {put_p50:.4} ms, daemon cache hits {} / misses {}",
        stats.cache_hits, stats.cache_misses
    ));
    out.note(format!(
        "{name}: peak RSS {setup_rss_mb:.1} MB through set-up, {window_rss_mb:.1} MB through the window"
    ));
    for op in [Op::Get, Op::Query, Op::Put] {
        let mut v: Vec<f64> = runs
            .iter()
            .flat_map(|r| {
                r.latencies
                    .iter()
                    .filter(|(o, _, _)| *o == op)
                    .map(|(_, _, us)| us / 1e3)
            })
            .collect();
        if !v.is_empty() {
            out.note(format!(
                "{name}: {op:?} {}",
                common::Latency::of(&mut v).describe()
            ));
        }
    }

    if !opts.trace {
        // Per sub-window: answered requests per second, p50.
        let (mut thr, mut p50) = (Vec::new(), Vec::new());
        for w in common::sub_windows(&timed, window, SUB_WINDOWS) {
            thr.push(w.len() as f64 / (window / SUB_WINDOWS as f64));
            p50.push(common::median(&w));
        }
        out.metric("setup_s", common::median(&setups), "s");
        out.metric("throughput_per_s", common::median(&thr), "1/s");
        out.metric("p50_ms", common::median(&p50), "ms");
        out.metric("peak_rss_mb", setup_rss_mb, "MB");
        return Ok(out);
    }

    // Traced run: direct store replay on a fresh copy for the store
    // spans, then the split of the mean request latency.
    let store = replay_store(&plan, &seed_dir, &work.path.join("replay"), &identity, opts)?;
    let fsync_us =
        common::fsync_probe_us(&work.path, 64).map_err(|e| format!("fsync probe: {e}"))?;
    let per = answered.max(1) as f64;
    let request_us = common::mean(&all) * 1e3;
    let hit_ratio = stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;
    let read_store_us = hit_ratio * store.get_hit_us + (1.0 - hit_ratio) * store.get_miss_us;
    let store_us = (reads.len() as f64 * read_store_us
        + puts.len() as f64 * common::mean(&store.puts_us))
        / per;
    let proto_us = (proto.encode + proto.parse + proto.decode) as f64 / 1e3 / per;
    let residual_us = request_us - proto_us - store_us;
    out.note(format!(
        "{name} trace: request {request_us:.1} us = protocol {proto_us:.1} + store {store_us:.1} + residual {residual_us:.1}"
    ));
    out.metric("protocol.req_bytes", proto.req_bytes as f64 / per, "bytes");
    out.metric(
        "protocol.resp_bytes",
        proto.resp_bytes as f64 / per,
        "bytes",
    );
    out.metric("protocol.encode_us", proto.encode as f64 / 1e3 / per, "us");
    out.metric("protocol.parse_us", proto.parse as f64 / 1e3 / per, "us");
    out.metric("protocol.decode_us", proto.decode as f64 / 1e3 / per, "us");
    out.metric("store.open_ms", store.open_ms, "ms");
    out.metric("store.get_hit_us", store.get_hit_us, "us");
    out.metric("store.get_miss_us", store.get_miss_us, "us");
    out.metric("store.cache_hit_ratio", hit_ratio, "ratio");
    // Every direct put: the seeding puts and, on serve-mixed, the replay's.
    let direct_puts: Vec<f64> = seed_put_us.iter().chain(&store.puts_us).copied().collect();
    out.metric("store.put_us", common::mean(&direct_puts), "us");
    out.metric("store.fsync_probe_us", fsync_us, "us");
    out.metric("store.scrubbed_per_s", store.scrubbed_per_s, "1/s");
    out.metric("server.request_us", request_us, "us");
    out.metric("server.residual_us", residual_us, "us");
    out.metric("server.refused", stats.overload_rejections as f64, "count");
    out.metric("serve.read_p50_ms", read_p50, "ms");
    out.metric("serve.put_p50_ms", put_p50, "ms");
    Ok(out)
}

/// Store-layer spans from a direct replay of the workload's op stream.
struct StoreSpans {
    open_ms: f64,
    get_hit_us: f64,
    get_miss_us: f64,
    puts_us: Vec<f64>,
    scrubbed_per_s: f64,
}

fn replay_store(
    plan: &Plan,
    seed_dir: &Path,
    dir: &PathBuf,
    identity: &str,
    opts: &Options,
) -> Result<StoreSpans, String> {
    let mut opens = Vec::new();
    for _ in 0..setup_reps(opts.size) {
        common::copy_dir(seed_dir, dir).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let opened = ProfileStore::open(dir, identity).map_err(|e| format!("replay open: {e}"))?;
        opens.push(common::secs(t0) * 1e3);
        drop(opened);
    }
    let (mut store, _) =
        ProfileStore::open(dir, identity).map_err(|e| format!("replay open: {e}"))?;
    let mut rng = Rng::new(opts.seed, 0x5707e);
    let (mut hits, mut misses, mut puts) = (Vec::new(), Vec::new(), Vec::new());
    let ops = match opts.size {
        Size::Full => 8_000,
        Size::Small => 500,
    };
    for i in 0..ops {
        let (op, key) = plan.step(&mut rng, i % plan.clients);
        let before = store.stats().cache_hits;
        let t0 = Instant::now();
        match op {
            Op::Put => {
                store
                    .put(key, &plan.expected[&key.grid].0)
                    .map_err(|e| format!("replay put: {e}"))?;
                puts.push(common::secs(t0) * 1e6);
            }
            Op::Get | Op::Query => {
                let got = store.get(key).map_err(|e| format!("replay get: {e}"))?;
                let us = common::secs(t0) * 1e6;
                if got.is_none() {
                    return Err(format!("replay get of {key:?} found nothing"));
                }
                if store.stats().cache_hits > before {
                    hits.push(us);
                } else {
                    misses.push(us);
                }
            }
        }
    }
    let t0 = Instant::now();
    let scrub = store
        .scrub_pass()
        .map_err(|e| format!("replay scrub: {e}"))?;
    let scrub_s = common::secs(t0);
    Ok(StoreSpans {
        open_ms: common::median(&opens),
        get_hit_us: common::mean(&hits),
        get_miss_us: common::mean(&misses),
        puts_us: puts,
        scrubbed_per_s: scrub.verified as f64 / scrub_s.max(1e-9),
    })
}
