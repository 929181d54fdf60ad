//! Each accepted connection holds exactly one descriptor in the server:
//! only its poller reads and writes the socket, so nothing duplicates it.
//!
//! The fd table is per process, so this is a test binary of its own: a
//! test running beside it would open descriptors of its own.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use gb_service::proto::Response;
use gb_service::server::{Server, ServerConfig};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn each_accepted_connection_holds_one_descriptor() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("start server");
    let before = open_fds();
    let conns: Vec<TcpStream> = (0..64)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr()).expect("connect");
            // A pong proves the server accepted and registered it.
            (&stream)
                .write_all(b"{\"op\":\"ping\"}\n")
                .expect("send ping");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("read pong");
            assert!(
                matches!(Response::decode(line.trim_end()), Ok(Response::Pong)),
                "got {line:?}"
            );
            stream
        })
        .collect();
    // Each connection: the client's end, plus the server's one end.
    assert_eq!(open_fds() - before, 2 * conns.len());
    drop(conns);
    server.shutdown();
}
