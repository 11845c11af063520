//! Loopback TCP server: thread per connection, every request routed
//! through one shared [`FrontDoor`].

use crate::frontdoor::{FrontDoor, ServeError};
use crate::proto::{read_frame, write_frame, Response, Status};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::{Catalog, XmlView};

/// Shared server state: one front door, one catalog, a set of named views
/// requests may address.
pub struct Server {
    door: Arc<FrontDoor>,
    catalog: Arc<Catalog>,
    views: HashMap<String, XmlView>,
    opts: RewriteOptions,
}

impl Server {
    pub fn new(door: FrontDoor, catalog: Catalog) -> Server {
        Server {
            door: Arc::new(door),
            catalog: Arc::new(catalog),
            views: HashMap::new(),
            opts: RewriteOptions::default(),
        }
    }

    /// Register a view under the name requests address it by.
    pub fn register_view(&mut self, name: impl Into<String>, view: XmlView) -> &mut Server {
        self.views.insert(name.into(), view);
        self
    }

    pub fn door(&self) -> &Arc<FrontDoor> {
        &self.door
    }

    /// Bind `127.0.0.1:port` (0 picks an ephemeral port) and serve until
    /// the returned handle shuts the listener down. Connections get one
    /// OS thread each — the admission queue, not the thread count, is the
    /// concurrency bound that matters.
    pub fn serve(self, port: u16) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(self);
        let accept_stop = Arc::clone(&stop);
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                let mut acceptor = Acceptor { server: accept_shared, workers: Vec::new() };
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match conn {
                        Ok(stream) => acceptor.spawn(stream),
                        Err(_) => break,
                    }
                }
                for w in acceptor.workers {
                    let _ = w.join();
                }
            })?;
        Ok(ServerHandle { addr, stop, accept: Some(accept) })
    }

    /// Requests are read through a buffer (a whole small frame in one
    /// `read`); each response goes out in one write, unbuffered and with
    /// `TCP_NODELAY`, so nothing waits on the peer's delayed ACK.
    fn handle_connection(&self, stream: TcpStream) {
        if stream.set_nodelay(true).is_err() {
            return;
        }
        let mut reader = BufReader::new(&stream);
        let mut writer = &stream;
        loop {
            let req = match read_frame(&mut reader) {
                Ok(Some(r)) => r,
                Ok(None) | Err(_) => return,
            };
            let resp = self.respond(&req.view, &req.stylesheet);
            if write_frame(&mut writer, &resp).is_err() {
                return;
            }
        }
    }

    fn respond(&self, view_name: &str, stylesheet: &str) -> Response {
        let Some(view) = self.views.get(view_name) else {
            return Response {
                status: Status::Error,
                body: format!("no view named {view_name:?}").into_bytes(),
            };
        };
        match self.door.transform(&self.catalog, view, stylesheet, &self.opts) {
            Ok(out) => Response { status: Status::Ok, body: out.bytes },
            Err(ServeError::Rejected(r)) => {
                Response { status: Status::Rejected, body: r.to_string().into_bytes() }
            }
            Err(e @ ServeError::Pipeline { .. }) => {
                Response { status: Status::Error, body: e.to_string().into_bytes() }
            }
        }
    }
}

/// The accept loop's connection threads. A finished thread's handle is
/// dropped at the next accept, which releases its stack, so a long-lived
/// server holds a handle per open connection, not per connection served.
struct Acceptor {
    server: Arc<Server>,
    workers: Vec<JoinHandle<()>>,
}

impl Acceptor {
    /// Serve `stream` on a thread of its own.
    fn spawn(&mut self, stream: TcpStream) {
        self.workers.retain(|w| !w.is_finished());
        let server = Arc::clone(&self.server);
        // 64 MiB: recursive suite cases need deep stacks.
        if let Ok(w) = std::thread::Builder::new()
            .name("serve-conn".into())
            .stack_size(64 * 1024 * 1024)
            .spawn(move || server.handle_connection(stream))
        {
            self.workers.push(w);
        }
    }
}

/// Keeps the server alive; [`ServerHandle::shutdown`] stops accepting and
/// joins the accept thread (in-flight connections drain first).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for the accept loop (and its connection
    /// threads) to finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontdoor::FrontDoorConfig;
    use crate::proto::{read_response, write_request, Request};
    use xsltdb_xsltmark::{db_catalog, dbonerow_stylesheet, existing_id};

    fn demo_server() -> (ServerHandle, String) {
        let (catalog, view) = db_catalog(24, 7);
        let mut server = Server::new(FrontDoor::new(FrontDoorConfig::server_default()), catalog);
        server.register_view("db", view);
        let handle = server.serve(0).expect("bind loopback");
        let sheet = dbonerow_stylesheet(existing_id(24));
        (handle, sheet)
    }

    #[test]
    fn round_trips_a_transform_over_the_socket() {
        let (handle, sheet) = demo_server();
        let mut conn = TcpStream::connect(handle.addr()).expect("connect");
        let req = Request { view: "db".into(), stylesheet: sheet };
        write_request(&mut conn, &req).unwrap();
        let resp = read_response(&mut conn).unwrap();
        assert_eq!(resp.status, Status::Ok, "{}", String::from_utf8_lossy(&resp.body));
        assert!(!resp.body.is_empty());
        // Second request on the same connection.
        write_request(&mut conn, &req).unwrap();
        let again = read_response(&mut conn).unwrap();
        assert_eq!(again.body, resp.body, "same request, different bytes");
        drop(conn);
        handle.shutdown();
    }

    /// A frame split across writes costs a delayed-ACK timeout (≈ 40 ms)
    /// per exchange; 100 of them would take seconds. The server must not
    /// depend on the client setting `TCP_NODELAY`.
    #[test]
    fn sequential_round_trips_do_not_wait_on_delayed_acks() {
        let (handle, sheet) = demo_server();
        let req = Request { view: "db".into(), stylesheet: sheet };
        for client_nodelay in [true, false] {
            let mut conn = TcpStream::connect(handle.addr()).expect("connect");
            conn.set_nodelay(client_nodelay).unwrap();
            let started = std::time::Instant::now();
            for _ in 0..100 {
                write_request(&mut conn, &req).unwrap();
                assert_eq!(read_response(&mut conn).unwrap().status, Status::Ok);
            }
            let took = started.elapsed();
            assert!(
                took < std::time::Duration::from_secs(1),
                "100 round trips took {took:?} (client TCP_NODELAY {client_nodelay})"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let (catalog, _) = db_catalog(4, 7);
        let door = FrontDoor::new(FrontDoorConfig::server_default());
        let server = Arc::new(Server::new(door, catalog));
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let mut acceptor = Acceptor { server, workers: Vec::new() };
        for _ in 0..50 {
            // The client hangs up at once, so its thread ends on EOF.
            drop(TcpStream::connect(addr).expect("connect"));
            let (stream, _) = listener.accept().expect("accept");
            acceptor.spawn(stream);
            while !acceptor.workers.iter().all(JoinHandle::is_finished) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        // Each accept dropped the finished handle before it.
        assert_eq!(acceptor.workers.len(), 1, "handles held after 50 closed connections");
    }

    #[test]
    fn unknown_view_is_a_typed_error_not_a_hang() {
        let (handle, sheet) = demo_server();
        let mut conn = TcpStream::connect(handle.addr()).expect("connect");
        write_request(&mut conn, &Request { view: "nope".into(), stylesheet: sheet }).unwrap();
        let resp = read_response(&mut conn).unwrap();
        assert_eq!(resp.status, Status::Error);
        assert!(String::from_utf8_lossy(&resp.body).contains("no view"));
        drop(conn);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_get_identical_bytes() {
        let (handle, sheet) = demo_server();
        let addr = handle.addr();
        let mut expected: Option<Vec<u8>> = None;
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                let sheet = sheet.clone();
                joins.push(s.spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    let req = Request { view: "db".into(), stylesheet: sheet };
                    let mut outs = Vec::new();
                    for _ in 0..3 {
                        write_request(&mut conn, &req).unwrap();
                        let resp = read_response(&mut conn).unwrap();
                        assert_eq!(resp.status, Status::Ok);
                        outs.push(resp.body);
                    }
                    outs
                }));
            }
            for j in joins {
                for bytes in j.join().expect("client thread") {
                    match &expected {
                        None => expected = Some(bytes),
                        Some(want) => assert_eq!(&bytes, want, "divergent bytes across clients"),
                    }
                }
            }
        });
        handle.shutdown();
    }
}
