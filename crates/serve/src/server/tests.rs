//! Unit tests of the accept path: the error classification, `TCP_NODELAY`
//! on both ends, and the loop's survival of failed accepts.

use super::*;
use crate::client::Conn;
use std::collections::VecDeque;

#[test]
fn only_interrupted_and_aborted_accepts_retry_at_once() {
    use std::io::ErrorKind;
    for kind in [ErrorKind::Interrupted, ErrorKind::ConnectionAborted] {
        assert!(accept_error_is_transient(kind), "{kind:?}");
    }
    // EMFILE (24) and ENFILE (23) have no `ErrorKind` of their own; they
    // and everything unforeseen must take the back-off path.
    let exhausted = [24, 23].map(|errno| std::io::Error::from_raw_os_error(errno).kind());
    let others = [
        ErrorKind::OutOfMemory,
        ErrorKind::WouldBlock,
        ErrorKind::PermissionDenied,
        ErrorKind::Other,
    ];
    for kind in exhausted.into_iter().chain(others) {
        assert!(!accept_error_is_transient(kind), "{kind:?}");
    }
}

#[test]
fn both_ends_of_a_tcp_connection_have_nagle_off() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let Conn::Tcp(client) = Conn::connect_timeout(&addr, None).expect("connect") else {
        panic!("a host:port address must give a TCP connection");
    };
    let server = accept_tcp(&listener).expect("accept");
    assert!(client.nodelay().expect("client nodelay"));
    assert!(server.nodelay().expect("server nodelay"));
}

/// The regression behind `accept_errors`: the acceptors used to end on the
/// first error that was not `WouldBlock`, leaving a daemon that analysed
/// but never listened again.
#[test]
fn the_acceptor_counts_failed_accepts_and_keeps_accepting() {
    let (client, server) = UnixStream::pair().expect("socket pair");
    let script: VecDeque<std::io::Result<UnixStream>> = VecDeque::from([
        Err(std::io::Error::from_raw_os_error(24)), // EMFILE
        Err(std::io::ErrorKind::Interrupted.into()),
        Err(std::io::ErrorKind::ConnectionAborted.into()),
        Ok(server),
    ]);
    let script = Mutex::new(script);
    // Once the script is spent, `accept` blocks like a real one until the
    // test "connects" through the gate.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let accept = move || {
        let next = script.lock().expect("script").pop_front();
        next.unwrap_or_else(|| {
            let _ = gate_rx.lock().expect("gate").recv();
            Err(std::io::ErrorKind::Other.into())
        })
    };
    let (req_tx, _req_rx) = mpsc::sync_channel::<Req>(1);
    let ctx = ConnCtx {
        req_tx,
        subscribers: Arc::new(Mutex::new(Vec::new())),
        stats: Arc::new(ServeStats::default()),
        sub_queue_cap: 1,
        write_deadline: Duration::from_secs(5),
        sub_sndbuf: None,
        max_request_line: 1024,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = spawn_acceptor(accept, UnixStream::try_clone, &ctx, &stop);

    // The connection behind the three failures is served.
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    (&client).write_all(b"not json\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(reply.contains("not valid JSON"), "{reply}");
    assert_eq!(ctx.stats.accept_errors(), 3);

    stop.store(true, Ordering::SeqCst);
    gate_tx.send(()).expect("the acceptor is still in accept");
    acceptor.join().expect("acceptor leaves once stop is set");
}
