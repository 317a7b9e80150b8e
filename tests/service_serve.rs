//! End-to-end test of `podium-cli serve`: spawn the real binary on a Unix
//! socket, drive it with concurrent `select` clients while another client
//! streams `update-profile` writes, then verify that
//!
//! * every client observes monotonically non-decreasing epochs,
//! * every served selection is bit-identical to a single-threaded re-run
//!   against an in-process mirror of that epoch's snapshot.
//!
//! The mirror is exact because the protocol pins everything the selection
//! depends on: the `paper` bucketing strategy is value-independent, the
//! update stream is applied serially (one publish per update, so epoch
//! `e` = initial repository + the first `e` updates), and lazy greedy
//! breaks ties deterministically.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use podium::core::bucket::BucketingConfig;
use podium::data::synth::synthetic_repository;
use podium::service::snapshot::{ProfileUpdate, RepositoryWriter, SelectParams, Snapshot};

const USERS: usize = 300;
const PROPERTIES: usize = 12;
const SCORES_PER_USER: usize = 4;
const BUDGET: usize = 6;
const CLIENTS: usize = 3;
const SELECTS_PER_CLIENT: usize = 30;
const UPDATES: usize = 25;
const SEED: u64 = 0xD1CE_2020;

/// Kills the served child on drop so a failed assertion cannot leak a
/// process (or its socket).
struct ServerGuard {
    child: Child,
    dir: PathBuf,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spawn_server_with(
    profiles_path: &Path,
    socket_path: &Path,
    dir: PathBuf,
    extra: &[&str],
) -> ServerGuard {
    let child = Command::new(env!("CARGO_BIN_EXE_podium-cli"))
        .args([
            "serve",
            "--profiles",
            profiles_path.to_str().unwrap(),
            "--strategy",
            "paper",
            "--socket",
            socket_path.to_str().unwrap(),
            "--workers",
            "2",
            "--queue",
            "128",
        ])
        .args(extra)
        .spawn()
        .expect("spawn podium-cli serve");
    ServerGuard { child, dir }
}

fn spawn_server(profiles_path: &Path, socket_path: &Path, dir: PathBuf) -> ServerGuard {
    spawn_server_with(profiles_path, socket_path, dir, &[])
}

fn await_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "server socket never appeared at {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One request/response round trip over an established connection.
fn round_trip(
    stream: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    request: &str,
) -> serde_json::Value {
    writeln!(stream, "{request}").expect("write request");
    stream.flush().expect("flush request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad response '{line}': {e}"))
}

fn connect(path: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(path).expect("connect to server socket");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// The deterministic update stream: each tick nudges one existing user's
/// score on one existing property (never creating users or properties, so
/// group membership churns but the universe is stable).
fn update_stream() -> Vec<ProfileUpdate> {
    (0..UPDATES)
        .map(|i| ProfileUpdate {
            user: format!("user-{}", (i * 37) % USERS),
            property: format!("topic-{}", (i * 5) % PROPERTIES),
            score: Some(((i * 13) % 97) as f64 / 100.0),
        })
        .collect()
}

#[test]
fn served_selections_match_single_threaded_mirror_per_epoch() {
    let dir = std::env::temp_dir().join(format!("podium-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repo = synthetic_repository(USERS, PROPERTIES, SCORES_PER_USER, SEED);
    let profiles_json = podium::data::json::profiles_to_json(&repo).unwrap();
    let profiles_path = dir.join("profiles.json");
    std::fs::write(&profiles_path, &profiles_json).unwrap();
    let socket_path = dir.join("serve.sock");

    let guard = spawn_server(&profiles_path, &socket_path, dir.clone());
    await_socket(&socket_path);

    // Writer client: applies the update stream serially; response `epoch`
    // must be exactly 1, 2, 3, ... because only this client publishes.
    let updates = update_stream();
    let writer_updates = updates.clone();
    let writer_socket = socket_path.clone();
    let writer = std::thread::spawn(move || {
        let (mut stream, mut reader) = connect(&writer_socket);
        for (i, u) in writer_updates.iter().enumerate() {
            let request = format!(
                r#"{{"op":"update-profile","user":"{}","property":"{}","score":{}}}"#,
                u.user,
                u.property,
                u.score.unwrap()
            );
            let v = round_trip(&mut stream, &mut reader, &request);
            assert_eq!(v["ok"].as_bool(), Some(true), "update {i}: {v:?}");
            assert_eq!(
                v["epoch"].as_u64(),
                Some(i as u64 + 1),
                "serial writer publishes one epoch per update"
            );
            // Spread the updates across the select burst.
            std::thread::sleep(Duration::from_millis(3));
        }
    });

    // Select clients: each records (epoch, users) per response.
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let client_socket = socket_path.clone();
        clients.push(std::thread::spawn(move || {
            let (mut stream, mut reader) = connect(&client_socket);
            let mut observations: Vec<(u64, Vec<String>)> = Vec::new();
            let mut last_epoch = 0u64;
            for i in 0..SELECTS_PER_CLIENT {
                let v = round_trip(
                    &mut stream,
                    &mut reader,
                    &format!(r#"{{"op":"select","budget":{BUDGET}}}"#),
                );
                assert_eq!(v["ok"].as_bool(), Some(true), "client {c} req {i}: {v:?}");
                let epoch = v["epoch"].as_u64().expect("epoch in response");
                assert!(
                    epoch >= last_epoch,
                    "client {c}: epoch went backwards ({last_epoch} -> {epoch})"
                );
                last_epoch = epoch;
                let users: Vec<String> = v["users"]
                    .as_array()
                    .expect("users array")
                    .iter()
                    .map(|u| u.as_str().expect("user name").to_owned())
                    .collect();
                assert_eq!(users.len(), BUDGET, "client {c} req {i}");
                observations.push((epoch, users));
            }
            observations
        }));
    }

    let mut observations: Vec<(u64, Vec<String>)> = Vec::new();
    for client in clients {
        observations.extend(client.join().expect("select client panicked"));
    }
    writer.join().expect("writer client panicked");
    drop(guard);

    // Mirror: same initial repository, same bucketing, same serial update
    // stream — snapshot `e` is the state the server served epoch `e` from.
    let mirror_repo = podium::data::json::profiles_from_json(&profiles_json).unwrap();
    let buckets = BucketingConfig::paper_default().bucketize(&mirror_repo);
    let (store, mut writer) = RepositoryWriter::new(mirror_repo, &buckets);
    let mut per_epoch: Vec<std::sync::Arc<Snapshot>> = vec![store.load()];
    for u in &updates {
        writer.apply(u).expect("mirror update applies");
        writer.publish();
        per_epoch.push(store.load());
    }

    let params = SelectParams {
        budget: BUDGET,
        weight: podium::core::weights::WeightScheme::LinearBySize,
        cov: podium::core::weights::CovScheme::Single,
        quota_hash: 0,
    };
    let mut checked_epochs = std::collections::BTreeSet::new();
    for (epoch, users) in &observations {
        let snapshot = per_epoch
            .get(*epoch as usize)
            .unwrap_or_else(|| panic!("served epoch {epoch} beyond the update stream"));
        let expected = snapshot.select(&params, None).expect("mirror select");
        assert_eq!(
            users, &expected.names,
            "epoch {epoch}: served selection diverges from single-threaded re-run"
        );
        checked_epochs.insert(*epoch);
    }
    assert!(
        !observations.is_empty() && !checked_epochs.is_empty(),
        "the load actually exercised the server"
    );
}

/// Writes a tiny profiles file and returns `(dir, profiles, socket)` for
/// the lifecycle tests (they need a server, not a large repository).
fn small_fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("podium-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let repo = synthetic_repository(60, 6, 3, SEED);
    let profiles_json = podium::data::json::profiles_to_json(&repo).unwrap();
    let profiles_path = dir.join("profiles.json");
    std::fs::write(&profiles_path, &profiles_json).unwrap();
    let socket_path = dir.join("serve.sock");
    (dir, profiles_path, socket_path)
}

/// Sessions live in server memory: a session id minted before a restart
/// must be rejected with the typed `unknown_session` error afterwards —
/// never silently re-created, never a crash.
#[test]
fn refine_after_server_restart_is_a_typed_unknown_session() {
    let (dir, profiles_path, socket_path) = small_fixture("restart");

    let mut first = spawn_server(&profiles_path, &socket_path, dir.clone());
    await_socket(&socket_path);
    let session = {
        let (mut stream, mut reader) = connect(&socket_path);
        let v = round_trip(&mut stream, &mut reader, r#"{"op":"open-session"}"#);
        assert_eq!(v["ok"].as_bool(), Some(true), "{v:?}");
        v["session"].as_u64().expect("session id")
    };

    // Restart: kill the first server, then bind a fresh one on the same
    // socket path (the listener removes the stale socket file).
    first.child.kill().expect("kill first server");
    first.child.wait().expect("reap first server");
    let _ = std::fs::remove_file(&socket_path);
    let second = spawn_server(&profiles_path, &socket_path, dir.clone());
    await_socket(&socket_path);

    let (mut stream, mut reader) = connect(&socket_path);
    let v = round_trip(
        &mut stream,
        &mut reader,
        &format!(r#"{{"op":"refine","session":{session},"budget":3}}"#),
    );
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"].as_str(), Some("unknown_session"), "{v:?}");
    drop(second);
}

/// Closing a session that never existed, and refining a session whose
/// pinned epoch fell behind the configured `--session-lag`, both surface
/// as typed errors over the wire.
#[test]
fn unknown_close_and_retired_refine_are_typed_errors() {
    let (dir, profiles_path, socket_path) = small_fixture("retire");
    let guard = spawn_server_with(&profiles_path, &socket_path, dir, &["--session-lag", "2"]);
    await_socket(&socket_path);
    let (mut stream, mut reader) = connect(&socket_path);

    // Close of an unknown session: typed, not fatal.
    let v = round_trip(
        &mut stream,
        &mut reader,
        r#"{"op":"close-session","session":424242}"#,
    );
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"].as_str(), Some("unknown_session"), "{v:?}");

    // Pin a session at epoch 0, then advance the store past the lag bound.
    let opened = round_trip(&mut stream, &mut reader, r#"{"op":"open-session"}"#);
    assert_eq!(opened["ok"].as_bool(), Some(true), "{opened:?}");
    let session = opened["session"].as_u64().unwrap();
    assert_eq!(opened["epoch"].as_u64(), Some(0));
    for i in 0..3u64 {
        let v = round_trip(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"op":"update-profile","user":"user-1","property":"topic-1","score":0.{i}1}}"#
            ),
        );
        assert_eq!(v["ok"].as_bool(), Some(true), "update {i}: {v:?}");
        assert_eq!(v["epoch"].as_u64(), Some(i + 1));
    }

    // Epoch 3, pinned 0, lag 2: the refine must report retirement (and
    // retire the session — a second refine finds it gone).
    let refine = format!(r#"{{"op":"refine","session":{session},"budget":3}}"#);
    let v = round_trip(&mut stream, &mut reader, &refine);
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"].as_str(), Some("session_retired"), "{v:?}");
    let v = round_trip(&mut stream, &mut reader, &refine);
    assert_eq!(v["ok"].as_bool(), Some(false), "{v:?}");
    assert_eq!(v["error"].as_str(), Some("unknown_session"), "{v:?}");
    drop(guard);
}
