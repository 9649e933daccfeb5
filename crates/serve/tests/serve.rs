//! Loopback integration tests of the tune service: bit-parity against
//! local tunes, generated C emitted once and only on request,
//! coalesced-miss single-tune accounting, eviction under a bytes budget,
//! client-death robustness, and graceful drain.

use hbar_core::codegen::{c_source, compile_schedule};
use hbar_core::compose::tune_hybrid_costs;
use hbar_serve::cache::CacheConfig;
use hbar_serve::client::{TuneClient, TuneReply};
use hbar_serve::proto::{TuneRequest, FRAME_TUNE_REQ, REQ_WANT_CODE};
use hbar_serve::server::{ServeConfig, ServerHandle, SERVED_BARRIER_NAME};
use hbar_serve::workload::synthetic_topologies;
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use hbar_topo::profile::TopologyProfile;
use std::io::Write;
use std::net::TcpStream;

fn small_server(cache: CacheConfig, workers: usize) -> ServerHandle {
    ServerHandle::spawn("127.0.0.1:0", &ServeConfig { cache, workers }).expect("spawn server")
}

fn default_server() -> ServerHandle {
    small_server(CacheConfig::default(), 2)
}

/// The canonical local answer a served schedule must match bit for bit.
fn local_schedule_json(req: &TuneRequest) -> String {
    let members: Vec<usize> = (0..req.cost.p()).collect();
    let tuned = tune_hybrid_costs(&req.cost, &members, &req.tuner_config());
    serde_json::to_string(&tuned.schedule).expect("schedule serializes")
}

/// The C a client that asks for code must receive: the local tune's
/// schedule, compiled and emitted under the served name.
fn local_code(req: &TuneRequest) -> String {
    let members: Vec<usize> = (0..req.cost.p()).collect();
    let tuned = tune_hybrid_costs(&req.cost, &members, &req.tuner_config());
    let programs = compile_schedule(&tuned.schedule).expect("schedule compiles");
    c_source(SERVED_BARRIER_NAME, &programs).expect("schedule emits")
}

fn wanting_code(mut req: TuneRequest) -> TuneRequest {
    req.flags |= REQ_WANT_CODE;
    req
}

/// `cache_bytes` of a fresh server after one code-less miss per request:
/// what the entries weigh before any C is emitted.
fn code_less_bytes(reqs: &[&TuneRequest]) -> u64 {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    for req in reqs {
        let mut req = (*req).clone();
        req.flags &= !REQ_WANT_CODE;
        assert!(client.request(&req).expect("tune").code_c.is_empty());
    }
    let bytes = client.stats().expect("stats").cache_bytes;
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
    bytes
}

#[test]
fn a_miss_that_wants_code_gets_the_local_c_once() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let cost = synthetic_topologies(3, 41).pop().expect("third shape");
    let req = wanting_code(TuneRequest::new(1, cost));
    let code = local_code(&req);
    let miss = client.request(&req).expect("tune");
    assert!(!miss.cache_hit);
    assert_eq!(miss.schedule_json, local_schedule_json(&req));
    assert_eq!(miss.code_c, code);
    let bytes = client.stats().expect("stats").cache_bytes;
    assert_eq!(bytes, code_less_bytes(&[&req]) + code.len() as u64);
    let hit = client.request(&req).expect("hit");
    assert!(hit.cache_hit);
    assert_eq!(hit.code_c, code);
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache_bytes, stats.tunes), (bytes, 1), "{stats:?}");
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn a_hit_that_wants_code_after_a_code_less_miss_gets_the_local_c_once() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let cost = synthetic_topologies(2, 43).pop().expect("second shape");
    let plain = TuneRequest::new(1, cost);
    let with = wanting_code(plain.clone());
    let code = local_code(&plain);
    assert!(client.request(&plain).expect("miss").code_c.is_empty());
    let before = client.stats().expect("stats").cache_bytes;
    for _ in 0..2 {
        let hit = client.request(&with).expect("hit");
        assert!(hit.cache_hit);
        assert_eq!(hit.code_c, code);
        assert_eq!(
            client.stats().expect("stats").cache_bytes,
            before + code.len() as u64,
            "the code is charged once"
        );
    }
    let hit = client.request(&plain).expect("code-less hit");
    assert!(hit.code_c.is_empty(), "only a client that asks gets code");
    assert_eq!(hit.schedule_json, local_schedule_json(&plain));
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

/// One worker, busy with a P = 128 tune, while four requests for one key
/// arrive: the first opens a flight and the other three join it, two of
/// the four wanting code.
#[test]
fn a_coalesced_flight_serves_code_only_to_waiters_that_want_it() {
    let server = small_server(CacheConfig::default(), 1);
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let slow_cost =
        TopologyProfile::from_ground_truth(&MachineSpec::new(8, 2, 8), &RankMapping::Block).cost;
    let slow = TuneRequest::new(0, slow_cost);
    let cost = synthetic_topologies(1, 47).pop().expect("one topology");
    let plain = TuneRequest::new(0, cost);
    let code = local_code(&plain);
    let json = local_schedule_json(&plain);
    client.send(&slow).expect("send slow");
    for id in 1..=4 {
        let mut req = plain.clone();
        req.id = id;
        if id % 2 == 0 {
            req.flags |= REQ_WANT_CODE;
        }
        client.send(&req).expect("send");
    }
    for _ in 0..5 {
        let resp = match client.recv().expect("recv") {
            TuneReply::Ok(resp) => resp,
            TuneReply::Err { id, reason } => panic!("request {id} failed: {reason}"),
        };
        if resp.id == 0 {
            continue;
        }
        assert!(!resp.cache_hit, "request {} waited on the flight", resp.id);
        assert_eq!(resp.schedule_json, json);
        let want = if resp.id % 2 == 0 { code.as_str() } else { "" };
        assert_eq!(resp.code_c, want, "request {}", resp.id);
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.tunes, stats.coalesced), (2, 3), "{stats:?}");
    assert_eq!(
        stats.cache_bytes,
        code_less_bytes(&[&slow, &plain]) + code.len() as u64
    );
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn eight_threads_wanting_code_after_a_code_less_miss_emit_it_once() {
    let server = default_server();
    let addr = server.addr();
    let cost = synthetic_topologies(3, 53).pop().expect("third shape");
    let plain = TuneRequest::new(0, cost);
    let code = local_code(&plain);
    let mut client = TuneClient::connect(addr).expect("connect");
    assert!(client.request(&plain).expect("miss").code_c.is_empty());
    let before = client.stats().expect("stats").cache_bytes;
    let threads: Vec<_> = (1..=8)
        .map(|t| {
            let mut req = wanting_code(plain.clone());
            req.id = t;
            let code = code.clone();
            std::thread::spawn(move || {
                let mut client = TuneClient::connect(addr).expect("connect");
                let hit = client.request(&req).expect("hit");
                assert!(hit.cache_hit);
                assert_eq!(hit.code_c, code, "thread {t}");
                client.drain().expect("drain");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_bytes, before + code.len() as u64, "{stats:?}");
    assert_eq!((stats.hits, stats.tunes), (8, 1), "{stats:?}");
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

/// `O[0][1] = O[1][0] = f64::MAX` once overflowed the clustering
/// distance and panicked the tune; it is now an ordinary request, and
/// the connection goes on serving.
#[test]
fn a_pair_at_f64_max_is_answered_without_a_panic() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let cost = synthetic_topologies(3, 21).pop().expect("third shape");
    let mut extreme = cost.clone();
    extreme.o[(0, 1)] = f64::MAX;
    extreme.o[(1, 0)] = f64::MAX;
    let req = TuneRequest::new(1, extreme);
    let resp = client.request(&req).expect("answered Ok");
    assert_eq!(resp.schedule_json, local_schedule_json(&req));
    let next = TuneRequest::new(2, cost);
    let resp = client.request(&next).expect("the next request");
    assert_eq!(resp.schedule_json, local_schedule_json(&next));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.errors, stats.tunes), (0, 2), "{stats:?}");
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn served_schedules_are_bit_identical_to_local_tunes() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    for (k, cost) in synthetic_topologies(6, 21).into_iter().enumerate() {
        let mut req = TuneRequest::new(k as u64, cost);
        if k % 2 == 1 {
            req.flags |= REQ_WANT_CODE;
        }
        let expected = local_schedule_json(&req);
        // Twice per topology: the first answer is a fresh tune, the
        // second a cache hit — both must be the same bytes.
        let miss = client.request(&req).expect("tune");
        assert!(!miss.cache_hit);
        assert_eq!(miss.schedule_json, expected, "fresh tune parity, k={k}");
        assert_eq!(
            !miss.code_c.is_empty(),
            k % 2 == 1,
            "code only when requested"
        );
        let hit = client.request(&req).expect("tune again");
        assert!(hit.cache_hit, "second request must hit the cache");
        assert_eq!(hit.schedule_json, expected, "cached parity, k={k}");
        assert_eq!(
            hit.predicted_cost.to_bits(),
            miss.predicted_cost.to_bits(),
            "prediction must be bit-stable across hit and miss"
        );
    }
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn concurrent_misses_on_one_key_tune_exactly_once() {
    let server = small_server(CacheConfig::default(), 3);
    let addr = server.addr();
    let cost = synthetic_topologies(1, 77).pop().expect("one topology");
    let expected = local_schedule_json(&TuneRequest::new(0, cost.clone()));
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let cost = cost.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = TuneClient::connect(addr).expect("connect");
                let resp = client.request(&TuneRequest::new(t, cost)).expect("tune");
                assert_eq!(resp.schedule_json, expected, "thread {t}");
                client.drain().expect("drain");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut client = TuneClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.tunes, 1,
        "8 concurrent requests for one key must coalesce into one tune: {stats:?}"
    );
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.hits + stats.misses, 8);
    assert_eq!(stats.errors, 0);
    server.shutdown().expect("shutdown");
}

#[test]
fn concurrent_mixed_workload_tunes_each_key_once_and_stays_deterministic() {
    let server = small_server(CacheConfig::default(), 4);
    let addr = server.addr();
    let topologies = synthetic_topologies(10, 5);
    let expected: Vec<String> = topologies
        .iter()
        .map(|c| local_schedule_json(&TuneRequest::new(0, c.clone())))
        .collect();
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let topologies = topologies.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = TuneClient::connect(addr).expect("connect");
                // Every thread walks all keys from a different offset,
                // so hits, misses, and coalesced misses all interleave.
                for step in 0..topologies.len() * 2 {
                    let k = (t + step) % topologies.len();
                    let resp = client
                        .request(&TuneRequest::new(k as u64, topologies[k].clone()))
                        .expect("tune");
                    assert_eq!(resp.schedule_json, expected[k], "thread {t} key {k}");
                }
                client.drain().expect("drain");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let mut client = TuneClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.tunes,
        topologies.len() as u64,
        "each distinct key must tune exactly once: {stats:?}"
    );
    assert_eq!(stats.requests, 6 * 20);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.cache_entries, topologies.len() as u64);
    server.shutdown().expect("shutdown");
}

#[test]
fn bytes_budget_evicts_and_evicted_keys_retune_identically() {
    // A budget that holds only a few schedules: walking 8 topologies
    // twice must evict, and a re-request after eviction must re-tune to
    // the same bytes.
    let server = small_server(
        CacheConfig {
            shards: 1,
            capacity: 1024,
            bytes_budget: 3 * 1024,
        },
        2,
    );
    let topologies = synthetic_topologies(8, 13);
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let mut first_pass = Vec::new();
    for (k, cost) in topologies.iter().enumerate() {
        let resp = client
            .request(&TuneRequest::new(k as u64, cost.clone()))
            .expect("tune");
        first_pass.push(resp.schedule_json);
    }
    let stats = client.stats().expect("stats");
    assert!(
        stats.cache_evictions > 0,
        "the bytes budget must force evictions: {stats:?}"
    );
    assert!(stats.cache_bytes <= 3 * 4096 + 4096, "budget respected");
    for (k, cost) in topologies.iter().enumerate() {
        let resp = client
            .request(&TuneRequest::new(100 + k as u64, cost.clone()))
            .expect("re-tune");
        assert_eq!(
            resp.schedule_json, first_pass[k],
            "evicted key {k} must re-tune bit-identically"
        );
    }
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn dying_clients_do_not_take_the_server_down() {
    let server = small_server(CacheConfig::default(), 2);
    let addr = server.addr();
    let cost = synthetic_topologies(1, 3).pop().expect("one topology");

    // Client 1: opens a frame header promising a payload, then dies.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&[FRAME_TUNE_REQ, 0xFF, 0xFF, 0x00, 0x00])
            .expect("partial header");
        // Dropped here mid-frame.
    }
    // Client 2: sends a full request and disconnects without reading
    // the answer (the pool's write will fail; the server must shrug).
    {
        let mut client = TuneClient::connect(addr).expect("connect");
        client
            .send(&TuneRequest::new(7, cost.clone()))
            .expect("send");
        // recv() never called; connection dropped with a tune in flight.
    }
    // Client 3: garbage tag.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(&[0x7F, 0x00, 0x00, 0x00, 0x00])
            .expect("garbage tag");
    }

    // The server must still answer correctly afterwards.
    let mut client = TuneClient::connect(addr).expect("connect");
    let req = TuneRequest::new(8, cost);
    let resp = client.request(&req).expect("tune after client deaths");
    assert_eq!(resp.schedule_json, local_schedule_json(&req));
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn malformed_requests_get_error_replies_not_disconnects() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    // A request whose advertised p disagrees with its payload length.
    let cost = synthetic_topologies(1, 1).pop().expect("one topology");
    let mut bad_len = Vec::new();
    TuneRequest::new(3, cost.clone()).encode_into(&mut bad_len);
    bad_len[8..12].copy_from_slice(&64u32.to_le_bytes());
    // A well-formed request that sets the retired flag bit 1.
    let mut retired_bit = Vec::new();
    TuneRequest::new(5, cost.clone()).encode_into(&mut retired_bit);
    retired_bit[24] |= 1 << 1;
    // Bit 0, which asked for the extended candidate set, is retired too.
    let mut retired_extended = Vec::new();
    TuneRequest::new(6, cost.clone()).encode_into(&mut retired_extended);
    retired_extended[24] |= 1 << 0;
    for (want_id, buf) in [(3, &bad_len), (5, &retired_bit), (6, &retired_extended)] {
        use hbar_serve::frame::write_frame;
        // Reach under the client to send the corrupt frame verbatim.
        let mut raw = TcpStream::connect(server.addr()).expect("connect raw");
        write_frame(&mut raw, FRAME_TUNE_REQ, buf).expect("send corrupt");
        let (tag, payload) = hbar_serve::frame::read_frame(&mut raw).expect("read err");
        assert_eq!(tag, hbar_serve::proto::FRAME_TUNE_ERR);
        let (id, reason) = hbar_serve::proto::decode_tune_error(&payload).expect("decode err");
        assert_eq!(
            id, want_id,
            "the salvaged id must survive the malformed body"
        );
        assert!(!reason.is_empty());
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 3, "{stats:?}");
    assert_eq!(
        (stats.tunes, stats.cache_entries),
        (0, 0),
        "nothing cached: {stats:?}"
    );
    // The same connection-independent server still tunes fine.
    let req = TuneRequest::new(4, cost);
    match client
        .send(&req)
        .and_then(|()| client.recv())
        .expect("tune")
    {
        TuneReply::Ok(resp) => assert_eq!(resp.schedule_json, local_schedule_json(&req)),
        TuneReply::Err { reason, .. } => panic!("unexpected failure: {reason}"),
    }
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

/// A cached key does not let a corrupt copy of its request through: a
/// NaN in `L` and a negative entry in `O` are refused with their own ids
/// and reasons, caching and tuning nothing, and the intact request
/// still hits with the same bytes.
#[test]
fn the_hit_path_never_answers_before_it_validates() {
    use hbar_serve::frame::{read_frame, write_frame};
    use hbar_serve::proto::{decode_tune_error, FRAME_TUNE_ERR, REQ_HEADER_LEN};
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let cost = synthetic_topologies(1, 31).pop().expect("one topology");
    let p = cost.p();
    let req = TuneRequest::new(1, cost);
    let first = client.request(&req).expect("tune");
    assert!(!first.cache_hit);

    let mut raw = TcpStream::connect(server.addr()).expect("connect raw");
    let l_entry = REQ_HEADER_LEN + (p * p + 3) * 8;
    let o_entry = REQ_HEADER_LEN + 7 * 8;
    for (id, at, value, reason) in [
        (
            2,
            l_entry,
            f64::NAN,
            "non-finite cost entry at flat index 3",
        ),
        (3, o_entry, -1.0, "negative cost entry at flat index 7"),
    ] {
        let mut corrupt = req.clone();
        corrupt.id = id;
        let mut buf = Vec::new();
        corrupt.encode_into(&mut buf);
        buf[at..at + 8].copy_from_slice(&value.to_le_bytes());
        write_frame(&mut raw, FRAME_TUNE_REQ, &buf).expect("send corrupt");
        let (tag, payload) = read_frame(&mut raw).expect("read answer");
        assert_eq!(tag, FRAME_TUNE_ERR, "request {id} must be refused");
        let answer = decode_tune_error(&payload).expect("decode err");
        assert_eq!(answer, (id, reason.to_string()));
    }

    let mut again = req.clone();
    again.id = 4;
    let hit = client.request(&again).expect("hit");
    assert!(hit.cache_hit, "the intact request still hits");
    assert_eq!(hit.id, 4);
    assert_eq!(hit.schedule_json, first.schedule_json);
    assert_eq!(hit.predicted_cost.to_bits(), first.predicted_cost.to_bits());
    let stats = client.stats().expect("stats");
    assert_eq!((stats.errors, stats.tunes), (2, 1), "{stats:?}");
    assert_eq!((stats.hits, stats.cache_entries), (1, 1), "{stats:?}");
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}

#[test]
fn drain_waits_for_pipelined_work_then_acknowledges() {
    let server = small_server(CacheConfig::default(), 2);
    let topologies = synthetic_topologies(5, 99);
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    // Pipeline five misses without reading a single answer…
    for (k, cost) in topologies.iter().enumerate() {
        client
            .send(&TuneRequest::new(k as u64, cost.clone()))
            .expect("send");
    }
    // …then read them all back; ids must cover the full set.
    let mut seen: Vec<u64> = (0..topologies.len())
        .map(|_| match client.recv().expect("recv") {
            TuneReply::Ok(resp) => resp.id,
            TuneReply::Err { id, reason } => panic!("request {id} failed: {reason}"),
        })
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..topologies.len() as u64).collect::<Vec<_>>());
    // Drain with nothing outstanding must ack immediately; the server
    // connection closes cleanly afterwards.
    client.drain().expect("drain ack");
    server.shutdown().expect("server exits")
}

/// The served JSON is the dense image of the stages, byte for byte what
/// the bitset stages serialised to: length and FNV-1a of one P = 16
/// answer, captured at d084464 (the last commit whose stages were
/// bitsets).
#[test]
fn served_schedule_json_keeps_the_bitset_era_bytes() {
    let server = default_server();
    let mut client = TuneClient::connect(server.addr()).expect("connect");
    let cost = synthetic_topologies(3, 21).pop().expect("third shape");
    assert_eq!(cost.p(), 16);
    let resp = client.request(&TuneRequest::new(9, cost)).expect("tune");
    let fnv1a = resp
        .schedule_json
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        (resp.schedule_json.len(), fnv1a),
        (555, 8248802691339815755),
        "{}",
        resp.schedule_json
    );
    client.drain().expect("drain");
    server.shutdown().expect("shutdown");
}
