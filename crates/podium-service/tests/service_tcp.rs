//! Seeded TCP chaos soak for constrained selection.
//!
//! A multi-worker `TcpServer` and a single-threaded mirror service are
//! built from the same repository and fed the same update stream. Each
//! round applies a batch of profile updates to both, then three
//! concurrent TCP clients fire seeded constrained-select requests
//! (quota mixes and anneal schedules drawn from a `splitmix64` stream)
//! while the mirror answers the same lines sequentially. The soak
//! asserts that
//!
//! * every TCP response is **bit-identical** to the mirror's (after
//!   stripping the wall-clock `elapsed_us` field, the only
//!   nondeterministic byte in a select response), and
//! * every quota window holds on every ok response, re-checked from
//!   the mirror's own group set rather than trusting the server.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use podium_core::bucket::BucketingConfig;
use podium_core::engine::{Quota, QuotaBound, QuotaSet};
use podium_core::ids::UserId;
use podium_core::profile::UserRepository;
use podium_core::rng::splitmix64;
use podium_service::service::{PodiumService, ServiceConfig};
use podium_service::tcp::{TcpServer, TcpServerConfig};
use serde_json::Value;

const USERS: usize = 12;
const PROPERTIES: [&str; 3] = ["avgRating Mexican", "avgRating Thai", "livesIn Tokyo"];
const ROUNDS: usize = 5;
const CLIENTS: usize = 3;
const SELECTS_PER_CLIENT: usize = 4;

fn seed_repo() -> UserRepository {
    let mut repo = UserRepository::new();
    let pids: Vec<_> = PROPERTIES
        .iter()
        .map(|p| repo.intern_property(*p))
        .collect();
    for i in 0..USERS {
        let u = repo.add_user(format!("u{i}"));
        for (j, &pid) in pids.iter().enumerate() {
            // A sparse, varied profile; leave some (user, property)
            // pairs unset so group membership actually differs.
            if (i + j) % 4 != 3 {
                let score = ((7 * i + 3 * j) % 11) as f64 / 10.0;
                repo.set_score(u, pid, score).unwrap();
            }
        }
    }
    repo
}

fn make_service(workers: usize) -> Arc<PodiumService> {
    let repo = seed_repo();
    let buckets = BucketingConfig::paper_default().bucketize(&repo);
    Arc::new(PodiumService::new(
        repo,
        &buckets,
        ServiceConfig {
            workers,
            queue_capacity: 32,
            default_deadline_ms: 5000,
            ..ServiceConfig::default()
        },
    ))
}

/// Drops the `,"elapsed_us":<n>` pair — the only wall-clock-dependent
/// bytes in a select response — leaving everything else for an exact
/// string comparison.
fn strip_elapsed(line: &str) -> String {
    let Some(start) = line.find(",\"elapsed_us\":") else {
        return line.to_owned();
    };
    let tail = &line[start + ",\"elapsed_us\":".len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(tail.len());
    format!("{}{}", &line[..start], &tail[end..])
}

/// One seeded constrained-select request: the wire line plus the quota
/// set it carries (kept for the independent quota re-check).
struct SoakRequest {
    line: String,
    budget: usize,
    quotas: Vec<Quota>,
}

/// Derives the round's request batch from a `splitmix64` stream. Group
/// ids are drawn against the epoch's real group universe so the quotas
/// are valid (the interesting failures are infeasibility and quota
/// violations, not `bad_request`).
fn seeded_requests(seed: u64, group_count: usize) -> Vec<Vec<SoakRequest>> {
    let mut state = seed;
    let mut next = move || splitmix64(&mut state);
    (0..CLIENTS)
        .map(|_| {
            (0..SELECTS_PER_CLIENT)
                .map(|_| {
                    let budget = 2 + usize::try_from(next() % 3).unwrap();
                    let g1 = u32::try_from(next() % group_count as u64).unwrap();
                    let g2 = u32::try_from(next() % group_count as u64).unwrap();
                    let mut quotas = vec![Quota {
                        group: g1,
                        min: QuotaBound::Count(u32::try_from(next() % 2).unwrap()),
                        max: None,
                    }];
                    if g2 != g1 {
                        quotas.push(Quota {
                            group: g2,
                            min: QuotaBound::Count(0),
                            max: Some(QuotaBound::Count(
                                1 + u32::try_from(next() % budget as u64).unwrap(),
                            )),
                        });
                    }
                    let quota_json: Vec<String> = quotas
                        .iter()
                        .map(|q| {
                            let mut obj = format!("{{\"group\":{}", q.group);
                            if let QuotaBound::Count(n) = q.min {
                                if n > 0 {
                                    obj.push_str(&format!(",\"min_count\":{n}"));
                                }
                            }
                            if let Some(QuotaBound::Count(n)) = q.max {
                                obj.push_str(&format!(",\"max_count\":{n}"));
                            }
                            obj.push('}');
                            obj
                        })
                        .collect();
                    let anneal = if next() % 2 == 0 {
                        format!(
                            ",\"anneal\":{{\"seed\":{},\"steps\":{},\"t0\":0.5,\"cooling\":0.9}}",
                            next(),
                            64 + next() % 192
                        )
                    } else {
                        String::new()
                    };
                    let line = format!(
                        "{{\"op\":\"select\",\"budget\":{budget},\"constraints\":{{\"quotas\":[{}]{anneal}}}}}",
                        quota_json.join(",")
                    );
                    SoakRequest {
                        line,
                        budget,
                        quotas,
                    }
                })
                .collect()
        })
        .collect()
}

/// Re-checks every quota window against the mirror's group set: the
/// selected names are mapped back to users and counted per quota'd
/// group, independently of anything the server computed.
fn assert_quotas_hold(
    response: &Value,
    request: &SoakRequest,
    groups: &podium_core::group::GroupSet,
    context: &str,
) {
    let names: Vec<&str> = response
        .get("users")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{context}: ok response without users"))
        .iter()
        .filter_map(Value::as_str)
        .collect();
    let quota_set = QuotaSet::build(request.quotas.clone(), groups.len(), request.budget)
        .expect("soak quotas are valid by construction");
    for (group, min, max) in quota_set.windows() {
        let count = names
            .iter()
            .map(|name| {
                let index: usize = name
                    .strip_prefix('u')
                    .and_then(|i| i.parse().ok())
                    .unwrap_or_else(|| panic!("{context}: unexpected user name {name}"));
                let member = groups
                    .groups_of(UserId::from_index(index))
                    .iter()
                    .any(|g| g.0 == group);
                usize::from(member)
            })
            .sum::<usize>();
        let count = u32::try_from(count).unwrap();
        assert!(
            count >= min && count <= max,
            "{context}: group {group} occupancy {count} outside [{min}, {max}] in {response:?}"
        );
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim().to_owned()
}

#[test]
fn constrained_select_soak_matches_single_threaded_mirror() {
    let seed: u64 = 0x0901_2026_0000_0009;
    let server_svc = make_service(3);
    let mirror = make_service(1);
    let server = TcpServer::bind(server_svc, "127.0.0.1:0", TcpServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (mut update_stream, mut update_reader) = connect(addr);
    let mut ok_responses = 0usize;
    let mut infeasible_responses = 0usize;
    for round in 0..ROUNDS {
        // Drift phase: the same seeded update batch hits the TCP server
        // and the mirror; epochs must stay in lockstep.
        for k in 0..3 {
            let mut draw_state = seed ^ ((round as u64) << 8) ^ k;
            let draw = splitmix64(&mut draw_state);
            let user = draw % USERS as u64;
            let property = PROPERTIES[usize::try_from(draw % 3).unwrap()];
            let score = (draw % 101) as f64 / 100.0;
            let line = format!(
                "{{\"op\":\"update-profile\",\"user\":\"u{user}\",\"property\":\"{property}\",\"score\":{score}}}"
            );
            let via_tcp = round_trip(&mut update_stream, &mut update_reader, &line);
            let via_mirror = mirror.handle_line(&line);
            assert_eq!(
                strip_elapsed(&via_tcp),
                strip_elapsed(&via_mirror),
                "round {round}: update responses diverged"
            );
        }

        // Select phase: precompute the mirror's answers sequentially
        // (it is the single-threaded referee), then let concurrent TCP
        // clients race the same lines against the server.
        let snapshot = mirror.store().load();
        let batches = seeded_requests(seed ^ (round as u64) << 32, snapshot.groups().len());
        let expected: Vec<Vec<String>> = batches
            .iter()
            .map(|batch| batch.iter().map(|r| mirror.handle_line(&r.line)).collect())
            .collect();

        let lines: Vec<Vec<String>> = batches
            .iter()
            .map(|batch| batch.iter().map(|r| r.line.clone()).collect())
            .collect();
        let workers: Vec<_> = lines
            .into_iter()
            .map(|batch| {
                std::thread::spawn(move || -> Vec<String> {
                    let (mut stream, mut reader) = connect(addr);
                    batch
                        .iter()
                        .map(|line| round_trip(&mut stream, &mut reader, line))
                        .collect()
                })
            })
            .collect();
        let got: Vec<Vec<String>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        for (client, (responses, batch)) in got.iter().zip(batches.iter()).enumerate() {
            for (i, (response, request)) in responses.iter().zip(batch.iter()).enumerate() {
                let context = format!("round {round} client {client} request {i}");
                assert_eq!(
                    strip_elapsed(response),
                    strip_elapsed(&expected[client][i]),
                    "{context}: TCP response diverged from the mirror"
                );
                let parsed: Value = serde_json::from_str(response).unwrap();
                if parsed.get("ok").and_then(Value::as_bool) == Some(true) {
                    ok_responses += 1;
                    assert_quotas_hold(&parsed, request, snapshot.groups(), &context);
                } else {
                    let code = parsed.get("error").and_then(Value::as_str);
                    assert_eq!(
                        code,
                        Some("infeasible"),
                        "{context}: the only expected failure is infeasibility: {response}"
                    );
                    infeasible_responses += 1;
                }
            }
        }
    }

    assert!(
        ok_responses > 0,
        "the soak must exercise satisfiable constrained selects \
         (got {ok_responses} ok / {infeasible_responses} infeasible)"
    );
    server.shutdown();
}
