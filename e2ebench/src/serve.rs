//! `serve_golden_inline`: `rtl_serve::serve` with the default
//! `ServeConfig` (inline single worker, telemetry armed) answering the
//! 17 single-goal golden netlists, each sent as inline `netlist` text:
//! a round sends each handwritten netlist twice and each ITC'99
//! unrolling once. One client, closed loop: the next request line is
//! handed to the server only after the previous answer's record was
//! written.
//!
//! The 15 handwritten requests are small and bound by record writing
//! and telemetry; the two ITC'99 unrollings spend most of their time in
//! `rtl_serve::parse_line`. The serve-side layers run in no other
//! workload.

use std::io::{self, BufRead, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rtl_hdpll::{ObsConfig, ObsHandle};
use rtl_ir::{text, Netlist, SignalId};
use rtl_obs::json::{self, Value};
use rtl_serve::{NetlistSource, RequestLine, ServeConfig, ServeMetrics, SolveMeta};

use crate::hostspeed;
use crate::pipeline::{self, Verdict};
use crate::stats::{fnv1a, SplitMix};
use crate::trace::{Counts, Layers, Tracer};
use crate::{another_round, Tally, Workload};

/// The server's default engine (`ServeConfig::default().engine`).
const ENGINE: &str = "hdpll-sp";

/// The single-goal golden corpus: file, goal, pinned verdict and the
/// FNV-1a hash of the file, so an edit to the corpus stops the
/// benchmark instead of silently changing the workload.
const CORPUS: [(&str, &str, Verdict, u64); 17] = [
    (
        "mux_tree_sat.rtl",
        "goal",
        Verdict::Sat,
        0x6271_13b3_08cc_e4ed,
    ),
    (
        "mux_tree_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0xf9cc_cb1a_d76b_1ada,
    ),
    (
        "mux_chain_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0xb708_d43c_f253_7a00,
    ),
    ("adder_sat.rtl", "goal", Verdict::Sat, 0x5b4a_19cc_3cdb_1a7c),
    (
        "adder_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x6416_20db_c90c_8792,
    ),
    (
        "adder_even_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x56e7_eed6_d043_0416,
    ),
    (
        "adder_wide_sat.rtl",
        "goal",
        Verdict::Sat,
        0x4fe2_717a_ddeb_6ac5,
    ),
    (
        "cmp_ladder_sat.rtl",
        "goal",
        Verdict::Sat,
        0x026c_2c48_d809_2eff,
    ),
    (
        "cmp_cycle_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x8795_1490_9d11_035d,
    ),
    (
        "cmp_ladder_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x1aa6_cd29_7ba8_b100,
    ),
    (
        "range_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0xb305_2cb7_113b_2df7,
    ),
    (
        "ite_const_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x6413_a7d2_b81d_0c72,
    ),
    (
        "minmax_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0xfec1_d143_99f5_d413,
    ),
    (
        "parity_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x009b_d021_21a7_1713,
    ),
    (
        "extract_unsat.rtl",
        "goal",
        Verdict::Unsat,
        0x092a_f570_1df3_bd43,
    ),
    (
        "b01_p1_20.rtl",
        "bad_p1",
        Verdict::Unsat,
        0x6d8b_4338_45df_d0da,
    ),
    (
        "b02_p1_10.rtl",
        "bad_p1",
        Verdict::Unsat,
        0xf1a6_879b_0833_e475,
    ),
];

/// The ITC'99 unrollings of the corpus: each is sent once per round.
const ITC99: [&str; 2] = ["b01_p1_20.rtl", "b02_p1_10.rtl"];

/// Copies of each handwritten request per round. With one copy, p90
/// fell at the 30th percentile of the b02 request's latency, on the
/// boundary between the host's quiet and contended states, and moved by
/// 25–34% between runs; with two, p90 lies in the small requests' tail.
/// The ITC'99 requests still take over 90% of a round's time.
const SMALL_COPIES: usize = 2;

/// Where the corpus lives, relative to this package.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden");

/// Answers with their request index, latency and the host-speed scale
/// when each ended, in order.
type Answers = Vec<(usize, Duration, f64, Record)>;

struct Request {
    id: &'static str,
    goal: &'static str,
    expected: Verdict,
    netlist: String,
    line: String,
}

pub struct ServeGolden {
    requests: Vec<Request>,
    /// One round of request indices, before shuffling.
    round: Vec<usize>,
    order: SplitMix,
}

/// State shared by the request feed and the record sink.
#[derive(Default)]
struct Shared {
    /// The request in flight and when its line was handed over.
    pending: Option<(usize, Instant)>,
    answers: Answers,
    /// Partial record line.
    buf: Vec<u8>,
}

fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The client side of the closed loop: hands the server one request
/// line at a time, in a seeded order per round, and ends the stream at
/// a round boundary once [`another_round`] says so.
struct Feed<'a> {
    shared: Arc<Mutex<Shared>>,
    requests: &'a [Request],
    round: &'a [usize],
    order: &'a mut SplitMix,
    queue: Vec<usize>,
    line: Vec<u8>,
    pos: usize,
    start: Instant,
    share: Duration,
    rounds: u32,
    max_rounds: u32,
}

impl Feed<'_> {
    fn next_line(&mut self) -> io::Result<bool> {
        if lock(&self.shared).pending.is_some() {
            return Err(io::Error::other(
                "closed loop broken: a request was read before the previous answer",
            ));
        }
        if self.queue.is_empty() {
            if self.rounds > 0 {
                let elapsed = self.start.elapsed();
                if self.rounds >= self.max_rounds
                    || !another_round(elapsed, self.rounds, self.share)
                {
                    return Ok(false);
                }
            }
            self.queue = self.round.to_vec();
            self.order.shuffle(&mut self.queue);
            self.rounds += 1;
        }
        hostspeed::tick();
        let idx = self.queue.pop().expect("refilled above");
        self.line.clear();
        self.line
            .extend_from_slice(self.requests[idx].line.as_bytes());
        self.line.push(b'\n');
        self.pos = 0;
        lock(&self.shared).pending = Some((idx, Instant::now()));
        Ok(true)
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let available = self.fill_buf()?;
            let n = available.len().min(out.len());
            out[..n].copy_from_slice(&available[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.line.len() && !self.next_line()? {
            return Ok(&[]);
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line.len());
    }
}

/// The server's output: each complete record line answers the request
/// in flight (the final summary answers none). The client reads each
/// record as it arrives, after the answer's latency is taken, so only
/// its verdict stays in memory.
struct Sink<'a> {
    shared: Arc<Mutex<Shared>>,
    requests: &'a [Request],
}

impl Write for Sink<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut shared = lock(&self.shared);
        shared.buf.extend_from_slice(data);
        while let Some(nl) = shared.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = shared.buf.drain(..=nl).collect();
            if let Some((idx, sent)) = shared.pending.take() {
                let latency = sent.elapsed();
                let record =
                    read_record(&self.requests[idx], &String::from_utf8_lossy(&line[..nl]));
                shared
                    .answers
                    .push((idx, latency, hostspeed::scale(), record));
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a result record says about its answer.
struct Record {
    verdict: Verdict,
    certified: bool,
    counts: Counts,
    attempts: u64,
    trace_events: u64,
}

fn read_record(req: &Request, record: &str) -> Record {
    let failed = Record {
        verdict: Verdict::Unknown,
        certified: false,
        counts: Counts::default(),
        attempts: 1,
        trace_events: 0,
    };
    let Ok(v) = json::parse(record) else {
        return failed;
    };
    let field = |key: &str| v.get(key).and_then(Value::as_str);
    if field("type") != Some("result") || field("id") != Some(req.id) {
        return failed;
    }
    let verdict = match field("verdict") {
        Some("SAT") => Verdict::Sat,
        Some("UNSAT") => Verdict::Unsat,
        _ => Verdict::Unknown,
    };
    let certified = match verdict {
        Verdict::Sat => field("certification") == Some("model certified"),
        Verdict::Unsat => field("certification") == Some("proof checked"),
        Verdict::Unknown => false,
    };
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    Record {
        verdict,
        certified,
        counts: Counts {
            conflicts: counter("conflicts"),
            decisions: counter("decisions"),
            propagations: counter("propagations"),
        },
        attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(1),
        trace_events: v
            .get("trace")
            .and_then(|t| t.get("events"))
            .and_then(Value::as_u64)
            .unwrap_or(0),
    }
}

impl ServeGolden {
    /// Serves rounds of the corpus for about `share` (at most
    /// `max_rounds`); returns the answers and the time taken.
    fn serve(&mut self, share: Duration, max_rounds: u32) -> Result<(Answers, Duration), String> {
        let shared = Arc::new(Mutex::new(Shared::default()));
        let start = Instant::now();
        let feed = Feed {
            shared: Arc::clone(&shared),
            requests: &self.requests,
            round: &self.round,
            order: &mut self.order,
            queue: Vec::new(),
            line: Vec::new(),
            pos: 0,
            start,
            share,
            rounds: 0,
            max_rounds,
        };
        let sink = Sink {
            shared: Arc::clone(&shared),
            requests: &self.requests,
        };
        let summary = rtl_serve::serve(feed, sink, &ServeConfig::default())
            .map_err(|e| format!("serve failed: {e}"))?;
        let elapsed = start.elapsed();
        let answers = std::mem::take(&mut lock(&shared).answers);
        if summary.tally.requests != answers.len() as u64 {
            return Err(format!(
                "{} requests but {} answer records",
                summary.tally.requests,
                answers.len()
            ));
        }
        Ok((answers, elapsed))
    }

    fn tally(&self, tally: &mut Tally, answers: &Answers) {
        for (idx, latency, scale, r) in answers {
            let req = &self.requests[*idx];
            tally.answer_at(*latency, *scale, r.verdict, req.expected, r.certified);
        }
    }
}

fn parse_netlist(text: &str, goal: &str) -> Result<(Netlist, SignalId), String> {
    let netlist = text::parse(text).map_err(|e| e.to_string())?;
    let goal = rtl_proof::resolve_goal(&netlist, goal).ok_or("no goal signal")?;
    Ok((netlist, goal))
}

impl ServeGolden {
    /// Reads and checks the pinned corpus, builds the request lines,
    /// seeds the request order and serves one warm-up round.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut requests = Vec::with_capacity(CORPUS.len());
        let mut round = Vec::new();
        for (file, goal, expected, hash) in CORPUS {
            let copies = if ITC99.contains(&file) {
                1
            } else {
                SMALL_COPIES
            };
            round.extend(std::iter::repeat_n(requests.len(), copies));
            let path = format!("{CORPUS_DIR}/{file}");
            let netlist =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            if fnv1a(netlist.as_bytes()) != hash {
                return Err(format!("`{path}` differs from the pinned corpus"));
            }
            let id = file.strip_suffix(".rtl").unwrap_or(file);
            let line = format!(
                "{{\"id\":\"{id}\",\"netlist\":\"{}\",\"goal\":\"{goal}\"}}",
                json::escape(&netlist)
            );
            requests.push(Request {
                id,
                goal,
                expected,
                netlist,
                line,
            });
        }
        let mut w = ServeGolden {
            requests,
            round,
            order: SplitMix::new(seed),
        };
        let (answers, _) = w.serve(Duration::ZERO, 1)?;
        let mut warm = Tally::default();
        w.tally(&mut warm, &answers);
        if warm.failed > 0 {
            return Err(format!("{} warm-up answers failed", warm.failed));
        }
        Ok(w)
    }
}

impl Workload for ServeGolden {
    fn run_for(&mut self, tally: &mut Tally, share: Duration) -> Result<Duration, String> {
        let (answers, elapsed) = self.serve(share, u32::MAX)?;
        self.tally(tally, &answers);
        Ok(elapsed)
    }

    fn traced_round(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let (answers, _) = self.serve(Duration::ZERO, 1)?;
        self.tally(tally, &answers);
        let metrics = ServeMetrics::new();
        for (seq, (idx, latency, _, served)) in answers.iter().enumerate() {
            let req = &self.requests[*idx];

            // The supervised call the serve loop makes, with its
            // telemetry armed: its result and sink feed the record.
            let handle = ObsHandle::armed(ObsConfig::default());
            let (netlist, goal) = parse_netlist(&req.netlist, req.goal)?;
            let result = pipeline::supervised(ENGINE, &netlist, goal, Some(handle.clone()))?;
            let reference = pipeline::outcome(&result, &netlist, goal);
            if reference.verdict != served.verdict || reference.counts != Some(served.counts) {
                return Err(format!(
                    "`{}`: served {:?} {:?}, supervised {:?} {:?}",
                    req.id, served.verdict, served.counts, reference.verdict, reference.counts
                ));
            }

            let profiled = ObsHandle::armed(ObsConfig::profiled());
            tracer.begin_answer();
            let (parsed, _) =
                tracer.span("serve.request_parse", || rtl_serve::parse_line(&req.line));
            let sreq = match parsed {
                Ok(RequestLine::Solve(r)) => r,
                _ => return Err(format!("`{}`: request line does not parse", req.id)),
            };
            let NetlistSource::Inline(text) = &sreq.source else {
                return Err(format!("`{}`: request is not inline", req.id));
            };
            let (parsed, _) = tracer.span("ir.parse", || parse_netlist(text, &sreq.goal));
            let (netlist, goal) = parsed?;
            let pending = pipeline::traced_solve(tracer, ENGINE, &netlist, goal, profiled)?;
            tracer.span("serve.record", || {
                let meta = SolveMeta {
                    case: sreq.id.clone(),
                    file: "<inline>".to_string(),
                    goal: sreq.goal.clone(),
                    engine: ENGINE.to_string(),
                };
                let prefix = rtl_serve::record::result_prefix(&sreq.id, seq as u64 + 1, 1);
                let line = rtl_serve::stats_json_record(&meta, &result, &handle, &prefix);
                metrics.observe_record(0, &line, *latency);
            });
            tracer.end_answer();
            pending.finish(tracer, layers, &reference)?;

            layers.answers += 1;
            layers.untraced_ns += i64::try_from(latency.as_nanos()).unwrap_or(i64::MAX);
            layers.request_bytes += req.line.len() as u64;
            layers.retries += served.attempts.saturating_sub(1);
            layers.trace_events += served.trace_events;
        }
        Ok(())
    }
}
