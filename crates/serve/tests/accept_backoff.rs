//! A failed accept backs the event loop off instead of spinning it.
//!
//! The test lowers this process's open-file limit so that the server's
//! next accept fails with EMFILE, which is why it lives alone in its
//! own test binary: the limit is process-wide, and no other test may
//! open files while it is lowered.

use std::fs::File;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use bolt_serve::protocol::{read_frame, write_frame};
use bolt_serve::{Request, Response, ServeCore, Server};
use bolt_store::ContractStore;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, limit: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

fn set_fd_limit(cur: u64, max: u64) {
    let limit = Rlimit { cur, max };
    // SAFETY: `limit` is a live `struct rlimit` (two `rlim_t`s) that
    // setrlimit only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
}

/// User plus system CPU time this process has spent, in clock ticks,
/// read through a file opened before the fd limit drops.
fn cpu_ticks(stat: &File) -> u64 {
    let mut buf = [0u8; 1024];
    let n = stat.read_at(&mut buf, 0).unwrap();
    let text = std::str::from_utf8(&buf[..n]).unwrap();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &text[text.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn a_full_fd_table_backs_the_loop_off_instead_of_spinning_it() {
    let dir = std::env::temp_dir().join(format!("bolt-accept-backoff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("bolt.sock");
    let server = Server::builder()
        .unix(sock.clone())
        .event_workers(1)
        .handler_threads(1)
        .start(ServeCore::new(
            ContractStore::open(dir.join("store")).unwrap(),
        ))
        .unwrap();
    let stat = File::open("/proc/self/stat").unwrap();
    let mut old = Rlimit { cur: 0, max: 0 };
    // SAFETY: `old` is a live, writable `struct rlimit` for getrlimit
    // to fill.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);

    // The lowest free descriptor goes to the client socket; with the
    // limit just above it, the server's accept finds no descriptor.
    let lowest_free = File::open("/dev/null").unwrap().as_raw_fd() as u64;
    set_fd_limit(lowest_free + 1, old.max);
    let client = UnixStream::connect(&sock);
    let before = cpu_ticks(&stat);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks(&stat) - before;
    let accepted = server.core().stats_reply().get("connections").unwrap();
    set_fd_limit(old.cur, old.max);

    let mut client = client.unwrap();
    assert_eq!(accepted, 0, "the accept should have failed with EMFILE");
    // A loop that retried the failed accept at once would burn the
    // whole second (about 100 ticks); one that sits out a poll idles.
    assert!(spent < 30, "{spent} CPU ticks in one second of EMFILE");

    // With descriptors back, the pending connection is served.
    write_frame(&mut client, &Request::Ping.encode_v2(1)).unwrap();
    let payload = read_frame(&mut client).unwrap().expect("ping reply");
    assert!(matches!(
        Response::decode_v2(&payload),
        Ok((1, Response::Pong { .. }))
    ));
    drop(client);
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
