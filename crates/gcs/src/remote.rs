//! The remote-GCS protocol: multi-process workers talk to the driver's
//! authoritative [`KvStore`] over TCP.
//!
//! In the paper's deployment the GCS is a Redis instance on the head node
//! and every TaskManager process talks to it over the network. This module
//! reproduces that shape for process-mode clusters: the driver process owns
//! the one real `KvStore`; worker processes construct their `KvStore` with
//! [`KvStore::remote`], which routes every operation through a pooled TCP
//! connection as one request/response frame. The typed GCS tables layer
//! ([`Gcs`](crate::Gcs)) is completely unaware of which backend it runs on.
//!
//! Transactions keep their optimistic-concurrency semantics: reads record
//! the versions they observed client-side, and the commit ships the whole
//! `(read set, write set, delete set)` to the driver, which validates the
//! versions and applies the writes atomically ([`KvStore::commit_sets`]) —
//! the same `WATCH`/`MULTI`/`EXEC` discipline as the local path.
//!
//! Framing is the transport's length-prefixed style: `u32` length, then a
//! payload built with [`quokka_batch::wire`] primitives. The first payload
//! byte is the opcode. Responses start with a status byte (0 = ok, 1 =
//! typed error). The opcode space is shared with the engine's control
//! server (durable-store access, sink forwarding, heartbeats), which
//! delegates the `OP_KV_*` range to [`apply_kv`] here.

use crate::kv::KvStore;
use bytes::Bytes;
use quokka_batch::wire::{self, WireReader};
use quokka_common::{QuokkaError, Result};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;

// --- opcodes -------------------------------------------------------------

pub const OP_KV_GET: u8 = 1;
pub const OP_KV_PUT: u8 = 2;
pub const OP_KV_DELETE: u8 = 3;
pub const OP_KV_CONTAINS: u8 = 4;
pub const OP_KV_SCAN_PREFIX: u8 = 5;
pub const OP_KV_COUNT_PREFIX: u8 = 6;
pub const OP_KV_COMMIT: u8 = 7;
pub const OP_KV_LEN: u8 = 8;
pub const OP_KV_BYTE_SIZE: u8 = 9;
pub const OP_KV_CLEAR: u8 = 10;
/// Durable-object-store access (served by the engine's control server).
pub const OP_DURABLE_GET: u8 = 20;
pub const OP_DURABLE_PUT: u8 = 21;
pub const OP_DURABLE_CONTAINS: u8 = 22;
pub const OP_DURABLE_LIST: u8 = 23;
/// Read one base-table split, projected to the requested columns.
pub const OP_DURABLE_READ_SPLIT: u8 = 24;
/// Forward one committed sink partition to the driver's result stream.
pub const OP_SINK_EMIT: u8 = 30;
/// Report the liveness counters of a process's hosted workers.
pub const OP_HEARTBEAT: u8 = 31;
/// Report per-peer wire statistics when a worker process exits.
pub const OP_WIRE_STATS: u8 = 32;

/// Error kinds carried in error responses (status byte 1).
const ERR_GENERIC: u8 = 0;
const ERR_ABORTED: u8 = 1;
const ERR_NOT_FOUND: u8 = 2;

/// Largest accepted control frame (a corruption guard, far above any real
/// GCS value or table split).
const MAX_CONTROL_FRAME: u32 = 1 << 30;

// --- framing -------------------------------------------------------------

/// Write one length-prefixed frame.
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF before the
/// length prefix (the peer closed the connection).
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_CONTROL_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("control frame length {len} exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Build an ok response: status byte then `build`'s payload.
pub fn ok_frame(build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8];
    build(&mut out);
    out
}

/// Build an error response carrying a typed error.
pub fn err_frame(error: &QuokkaError) -> Vec<u8> {
    let mut out = vec![1u8];
    let kind = match error {
        QuokkaError::TransactionAborted(_) => ERR_ABORTED,
        QuokkaError::NotFound(_) => ERR_NOT_FOUND,
        _ => ERR_GENERIC,
    };
    wire::put_u8(&mut out, kind);
    wire::put_str(&mut out, &error.to_string());
    out
}

fn decode_response(resp: Vec<u8>) -> Result<Vec<u8>> {
    let mut r = WireReader::new(&resp);
    match r.u8()? {
        0 => {
            let at = r.position();
            Ok(resp[at..].to_vec())
        }
        1 => {
            let kind = r.u8()?;
            let message = r.str()?;
            Err(match kind {
                ERR_ABORTED => QuokkaError::TransactionAborted(message),
                ERR_NOT_FOUND => QuokkaError::NotFound(message),
                _ => QuokkaError::Transient(format!("gcs rpc: {message}")),
            })
        }
        other => Err(QuokkaError::Transient(format!("gcs rpc: bad status byte {other}"))),
    }
}

// --- client --------------------------------------------------------------

/// A pooled synchronous TCP client for the driver's control server. One
/// request occupies one connection; concurrent callers each draw their own
/// connection from the pool (dialing a fresh one when empty), so worker
/// threads never serialize behind each other.
pub struct ControlClient {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
}

impl std::fmt::Debug for ControlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlClient").field("addr", &self.addr).finish()
    }
}

impl ControlClient {
    /// Connect to the driver's control server, failing fast if it is not
    /// reachable.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let probe = TcpStream::connect(addr)
            .map_err(|e| QuokkaError::Transient(format!("control connect to {addr}: {e}")))?;
        let _ = probe.set_nodelay(true);
        Ok(ControlClient { addr, pool: Mutex::new(vec![probe]) })
    }

    /// The driver address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn checkout(&self) -> Result<TcpStream> {
        if let Some(conn) = self.pool.lock().expect("control pool poisoned").pop() {
            return Ok(conn);
        }
        let conn = TcpStream::connect(self.addr).map_err(|e| {
            QuokkaError::Transient(format!("control connect to {}: {e}", self.addr))
        })?;
        let _ = conn.set_nodelay(true);
        Ok(conn)
    }

    /// Send one request frame and await its response frame. The opcode is
    /// the first payload byte.
    pub fn request(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut conn = self.checkout()?;
        let io = |e: std::io::Error| QuokkaError::Transient(format!("control rpc: {e}"));
        write_frame(&mut conn, payload).map_err(io)?;
        let resp = read_frame(&mut conn)
            .map_err(io)?
            .ok_or_else(|| QuokkaError::Transient("control rpc: server closed".to_string()))?;
        self.pool.lock().expect("control pool poisoned").push(conn);
        decode_response(resp)
    }
}

// --- remote KvStore operations (client side) -----------------------------

pub(crate) fn remote_get(c: &ControlClient, key: &str) -> Result<Option<(Bytes, u64)>> {
    let mut req = vec![OP_KV_GET];
    wire::put_str(&mut req, key);
    let resp = c.request(&req)?;
    let mut r = WireReader::new(&resp);
    if r.u8()? == 0 {
        return Ok(None);
    }
    let value = Bytes::from(r.bytes()?.to_vec());
    let version = r.u64()?;
    Ok(Some((value, version)))
}

pub(crate) fn remote_put(c: &ControlClient, key: &str, value: &[u8]) -> Result<()> {
    let mut req = vec![OP_KV_PUT];
    wire::put_str(&mut req, key);
    wire::put_bytes(&mut req, value);
    c.request(&req).map(|_| ())
}

pub(crate) fn remote_delete(c: &ControlClient, key: &str) -> Result<bool> {
    let mut req = vec![OP_KV_DELETE];
    wire::put_str(&mut req, key);
    let resp = c.request(&req)?;
    Ok(WireReader::new(&resp).u8()? == 1)
}

pub(crate) fn remote_contains(c: &ControlClient, key: &str) -> Result<bool> {
    let mut req = vec![OP_KV_CONTAINS];
    wire::put_str(&mut req, key);
    let resp = c.request(&req)?;
    Ok(WireReader::new(&resp).u8()? == 1)
}

pub(crate) fn remote_scan_prefix(c: &ControlClient, prefix: &str) -> Result<Vec<(String, Bytes)>> {
    let mut req = vec![OP_KV_SCAN_PREFIX];
    wire::put_str(&mut req, prefix);
    let resp = c.request(&req)?;
    let mut r = WireReader::new(&resp);
    let count = r.u32()? as usize;
    let mut rows = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let key = r.str()?.to_string();
        let value = Bytes::from(r.bytes()?.to_vec());
        rows.push((key, value));
    }
    Ok(rows)
}

pub(crate) fn remote_count_prefix(c: &ControlClient, prefix: &str) -> Result<usize> {
    let mut req = vec![OP_KV_COUNT_PREFIX];
    wire::put_str(&mut req, prefix);
    let resp = c.request(&req)?;
    Ok(WireReader::new(&resp).u64()? as usize)
}

pub(crate) fn remote_commit(
    c: &ControlClient,
    read_set: &[(String, u64)],
    write_set: &[(String, Bytes)],
    delete_set: &[String],
) -> Result<()> {
    let mut req = vec![OP_KV_COMMIT];
    wire::put_u32(&mut req, read_set.len() as u32);
    for (key, version) in read_set {
        wire::put_str(&mut req, key);
        wire::put_u64(&mut req, *version);
    }
    wire::put_u32(&mut req, write_set.len() as u32);
    for (key, value) in write_set {
        wire::put_str(&mut req, key);
        wire::put_bytes(&mut req, value);
    }
    wire::put_u32(&mut req, delete_set.len() as u32);
    for key in delete_set {
        wire::put_str(&mut req, key);
    }
    c.request(&req).map(|_| ())
}

pub(crate) fn remote_u64(c: &ControlClient, op: u8) -> Result<u64> {
    let resp = c.request(&[op])?;
    WireReader::new(&resp).u64()
}

pub(crate) fn remote_clear(c: &ControlClient) -> Result<()> {
    c.request(&[OP_KV_CLEAR]).map(|_| ())
}

// --- server-side dispatch ------------------------------------------------

/// Apply one `OP_KV_*` request against the authoritative local store and
/// return the response frame. Opcodes outside the KV range return `None`
/// so the caller (the engine's control server) can handle them.
pub fn apply_kv(payload: &[u8], kv: &KvStore) -> Option<Vec<u8>> {
    let mut r = WireReader::new(payload);
    let op = r.u8().ok()?;
    let result: Result<Vec<u8>> = (|| match op {
        OP_KV_GET => {
            let key = r.str()?;
            Ok(ok_frame(|out| match kv.get(&key) {
                Some((value, version)) => {
                    wire::put_u8(out, 1);
                    wire::put_bytes(out, &value);
                    wire::put_u64(out, version);
                }
                None => wire::put_u8(out, 0),
            }))
        }
        OP_KV_PUT => {
            let key = r.str()?;
            let value = r.bytes()?.to_vec();
            kv.put(key, Bytes::from(value));
            Ok(ok_frame(|_| {}))
        }
        OP_KV_DELETE => {
            let key = r.str()?;
            let removed = kv.delete(&key);
            Ok(ok_frame(|out| wire::put_u8(out, removed as u8)))
        }
        OP_KV_CONTAINS => {
            let key = r.str()?;
            let present = kv.contains(&key);
            Ok(ok_frame(|out| wire::put_u8(out, present as u8)))
        }
        OP_KV_SCAN_PREFIX => {
            let prefix = r.str()?;
            let rows = kv.scan_prefix(&prefix);
            Ok(ok_frame(|out| {
                wire::put_u32(out, rows.len() as u32);
                for (key, value) in rows {
                    wire::put_str(out, &key);
                    wire::put_bytes(out, &value);
                }
            }))
        }
        OP_KV_COUNT_PREFIX => {
            let prefix = r.str()?;
            let count = kv.count_prefix(&prefix) as u64;
            Ok(ok_frame(|out| wire::put_u64(out, count)))
        }
        OP_KV_COMMIT => {
            let reads = r.u32()? as usize;
            let mut read_set = Vec::with_capacity(reads.min(1024));
            for _ in 0..reads {
                let key = r.str()?.to_string();
                let version = r.u64()?;
                read_set.push((key, version));
            }
            let writes = r.u32()? as usize;
            let mut write_set = Vec::with_capacity(writes.min(1024));
            for _ in 0..writes {
                let key = r.str()?.to_string();
                let value = r.bytes()?.to_vec();
                write_set.push((key, Bytes::from(value)));
            }
            let deletes = r.u32()? as usize;
            let mut delete_set = Vec::with_capacity(deletes.min(1024));
            for _ in 0..deletes {
                delete_set.push(r.str()?.to_string());
            }
            kv.commit_sets(read_set, write_set, delete_set)?;
            Ok(ok_frame(|_| {}))
        }
        OP_KV_LEN => Ok(ok_frame(|out| wire::put_u64(out, kv.len() as u64))),
        OP_KV_BYTE_SIZE => Ok(ok_frame(|out| wire::put_u64(out, kv.byte_size() as u64))),
        OP_KV_CLEAR => {
            kv.clear();
            Ok(ok_frame(|_| {}))
        }
        _ => Err(QuokkaError::Internal(format!("not a kv opcode: {op}"))),
    })();
    match op {
        OP_KV_GET..=OP_KV_CLEAR => Some(result.unwrap_or_else(|e| err_frame(&e))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// A minimal driver: accept connections, answer `OP_KV_*` frames against
    /// one authoritative local store. This is the same dispatch the engine's
    /// control server uses.
    fn spawn_server(kv: Arc<KvStore>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || {
                    while let Ok(Some(req)) = read_frame(&mut conn) {
                        let resp = apply_kv(&req, &kv)
                            .unwrap_or_else(|| err_frame(&QuokkaError::Internal("bad op".into())));
                        if write_frame(&mut conn, &resp).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn remote_store_mirrors_local_semantics() {
        let authority = Arc::new(KvStore::default());
        let addr = spawn_server(Arc::clone(&authority));
        let client = Arc::new(ControlClient::connect(addr).expect("connect"));
        let kv = KvStore::remote(client);
        assert!(kv.is_remote());

        // Point ops round-trip and are visible on the authority.
        kv.put("a", Bytes::from_static(b"1"));
        kv.put("lineage/1", Bytes::from_static(b"x"));
        kv.put("lineage/2", Bytes::from_static(b"y"));
        assert_eq!(kv.get_value("a").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(authority.get_value("a").unwrap(), Bytes::from_static(b"1"));
        assert!(kv.contains("a"));
        assert!(!kv.contains("missing"));
        assert_eq!(kv.count_prefix("lineage/"), 2);
        let rows = kv.scan_prefix("lineage/");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "lineage/1");
        assert_eq!(kv.len(), 3);
        assert_eq!(kv.byte_size(), authority.byte_size());
        assert!(kv.delete("a"));
        assert!(!kv.delete("a"));

        // Versions travel with reads.
        let (_, v1) = kv.get("lineage/1").unwrap();
        kv.put("lineage/1", Bytes::from_static(b"x2"));
        let (_, v2) = kv.get("lineage/1").unwrap();
        assert!(v2 > v1);

        kv.clear();
        assert!(authority.is_empty());
        assert!(kv.is_empty());
    }

    #[test]
    fn remote_transactions_validate_versions_on_the_driver() {
        let authority = Arc::new(KvStore::default());
        let addr = spawn_server(Arc::clone(&authority));
        let client = Arc::new(ControlClient::connect(addr).expect("connect"));
        let kv = KvStore::remote(client);

        authority.put("counter", Bytes::from_static(b"0"));

        // A clean commit applies the write set atomically on the driver.
        kv.with_transaction(0, |txn| {
            let _ = txn.get("counter");
            txn.put("counter", Bytes::from_static(b"1"));
            txn.put("extra", Bytes::from_static(b"e"));
            Ok(())
        })
        .expect("commit");
        assert_eq!(authority.get_value("counter").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(authority.get_value("extra").unwrap(), Bytes::from_static(b"e"));

        // A conflicting write on the authority aborts the proxy's commit.
        let mut txn = kv.begin();
        let _ = txn.get("counter");
        authority.put("counter", Bytes::from_static(b"9"));
        txn.put("counter", Bytes::from_static(b"2"));
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, QuokkaError::TransactionAborted(_)));
        assert_eq!(authority.get_value("counter").unwrap(), Bytes::from_static(b"9"));

        // Deletes ride in the same commit.
        kv.with_transaction(4, |txn| {
            let _ = txn.get("counter");
            txn.delete("extra");
            Ok(())
        })
        .expect("commit with delete");
        assert!(!authority.contains("extra"));
    }

    #[test]
    fn concurrent_remote_writers_serialize_through_commits() {
        let authority = Arc::new(KvStore::default());
        let addr = spawn_server(Arc::clone(&authority));
        authority.put("n", Bytes::from_static(b"0"));
        // 4 proxy stores (one per simulated worker process) increment a
        // shared counter with CAS semantics; every increment must land.
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let client = Arc::new(ControlClient::connect(addr).expect("connect"));
                std::thread::spawn(move || {
                    let kv = KvStore::remote(client);
                    for _ in 0..25 {
                        kv.with_transaction(1000, |txn| {
                            let current = txn.get("n").unwrap();
                            let value: u64 =
                                std::str::from_utf8(&current).unwrap().parse().unwrap();
                            txn.put("n", Bytes::from((value + 1).to_string()));
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 =
            std::str::from_utf8(&authority.get_value("n").unwrap()).unwrap().parse().unwrap();
        assert_eq!(total, 100);
    }
}
