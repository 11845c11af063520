//! Wire protocol for the local serve socket.
//!
//! Minimal length-prefixed frames over a loopback TCP stream; one
//! connection carries any number of request/response pairs in order.
//!
//! ```text
//! request  := u32 view_len  | view bytes (UTF-8 view name)
//!           | u32 sheet_len | sheet bytes (UTF-8 stylesheet source)
//! response := u8 status | u32 body_len | body bytes
//! ```
//!
//! All integers are big-endian. `status` is [`Status`]: `Ok` bodies are
//! the complete transform output (never partial — a failed request's
//! bytes are discarded before the response is framed); `Rejected` and
//! `Error` bodies are UTF-8 diagnostics. No frame exceeds [`MAX_FRAME`]
//! bytes of body: a larger response goes out as an `Error` naming its size.
//!
//! Every frame leaves in one `write` where it can. Split across writes, a
//! small frame's tail waits for the peer to ACK its head (Nagle), and the
//! peer holds that ACK back for its delayed-ACK timer: ≈ 40 ms per
//! exchange against microseconds of work. Only a response body over
//! [`COALESCE_LIMIT`] goes out as a header write and a body write, so a
//! large body is never copied; the server sets `TCP_NODELAY` so that
//! second write is not held back either.

use std::io::{self, Read, Write};

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Admitted and executed; the body is the full result.
    Ok = 0,
    /// Shed at admission (overload or queue timeout); body is the typed
    /// rejection rendered as text.
    Rejected = 1,
    /// Admitted but failed: a guard trip, a planning error or an
    /// exhausted lattice; body is the error rendered as text.
    Error = 2,
}

impl Status {
    fn from_byte(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Rejected),
            2 => Some(Status::Error),
            _ => None,
        }
    }
}

/// One transform request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Name of a view registered with the server.
    pub view: String,
    /// XSLT stylesheet source to apply.
    pub stylesheet: String,
}

/// One transform response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: Status,
    pub body: Vec<u8>,
}

/// Frames larger than this are refused — the door sheds oversized inputs
/// before they allocate.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Response bodies up to this size are copied behind their header and sent
/// in one write; larger ones are written in place after the header.
pub const COALESCE_LIMIT: usize = 64 * 1024;

fn checked_len(b: [u8; 4]) -> io::Result<usize> {
    let n = u32::from_be_bytes(b);
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    Ok(n as usize)
}

fn read_body(r: &mut dyn Read, n: usize) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_chunk(r: &mut dyn Read) -> io::Result<Vec<u8>> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    let n = checked_len(b)?;
    read_body(r, n)
}

fn len_prefix(bytes: &[u8]) -> [u8; 4] {
    (bytes.len() as u32).to_be_bytes()
}

fn utf8(bytes: Vec<u8>, what: &str) -> io::Result<String> {
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("{what} is not UTF-8")))
}

/// Read one request frame. `Ok(None)` means the peer closed cleanly at a
/// frame boundary.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Request>> {
    let mut first = [0u8; 4];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let view = read_body(r, checked_len(first)?)?;
    let sheet = read_chunk(r)?;
    Ok(Some(Request {
        view: utf8(view, "view name")?,
        stylesheet: utf8(sheet, "stylesheet")?,
    }))
}

/// Write one request frame, in one write.
pub fn write_request(w: &mut dyn Write, req: &Request) -> io::Result<()> {
    let (view, sheet) = (req.view.as_bytes(), req.stylesheet.as_bytes());
    let mut frame = Vec::with_capacity(8 + view.len() + sheet.len());
    frame.extend_from_slice(&len_prefix(view));
    frame.extend_from_slice(view);
    frame.extend_from_slice(&len_prefix(sheet));
    frame.extend_from_slice(sheet);
    w.write_all(&frame)?;
    w.flush()
}

/// Write one response frame: one write up to [`COALESCE_LIMIT`] bytes of
/// body, the 5-byte header then the uncopied body above it. A body over
/// [`MAX_FRAME`], which [`read_response`] would refuse, is replaced by an
/// `Error` frame that names its size.
pub fn write_frame(w: &mut dyn Write, resp: &Response) -> io::Result<()> {
    if resp.body.len() > MAX_FRAME as usize {
        let body = format!(
            "response of {} bytes exceeds the {MAX_FRAME}-byte frame bound",
            resp.body.len()
        );
        return write_frame(w, &Response { status: Status::Error, body: body.into_bytes() });
    }
    let mut header = [resp.status as u8, 0, 0, 0, 0];
    header[1..].copy_from_slice(&len_prefix(&resp.body));
    if resp.body.len() <= COALESCE_LIMIT {
        let mut frame = Vec::with_capacity(header.len() + resp.body.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&resp.body);
        w.write_all(&frame)?;
    } else {
        w.write_all(&header)?;
        w.write_all(&resp.body)?;
    }
    w.flush()
}

/// Read one response frame.
pub fn read_response(r: &mut dyn Read) -> io::Result<Response> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let [code, len @ ..] = header;
    let status = Status::from_byte(code).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad status byte {code}"))
    })?;
    let body = read_body(r, checked_len(len)?)?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request { view: "db_vu".into(), stylesheet: "<xsl/>".into() };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap().expect("one frame");
        assert_eq!(got, req);
    }

    #[test]
    fn response_round_trips() {
        for status in [Status::Ok, Status::Rejected, Status::Error] {
            let resp = Response { status, body: b"payload".to_vec() };
            let mut buf = Vec::new();
            write_frame(&mut buf, &resp).unwrap();
            let got = read_response(&mut buf.as_slice()).unwrap();
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }).unwrap().is_none());
        let truncated = [0u8, 0, 0, 5, b'a'];
        assert!(read_frame(&mut truncated.as_slice()).is_err());
    }

    #[test]
    fn oversized_frame_is_refused() {
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }

    /// Records every `write` call: its length and where its buffer lives.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: Vec<(*const u8, usize)>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push((buf.as_ptr(), buf.len()));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The frame bytes the protocol defines, built field by field.
    fn expected_response(resp: &Response) -> Vec<u8> {
        let mut v = vec![resp.status as u8];
        v.extend_from_slice(&(resp.body.len() as u32).to_be_bytes());
        v.extend_from_slice(&resp.body);
        v
    }

    #[test]
    fn small_frames_leave_in_one_write() {
        let req = Request { view: "db".into(), stylesheet: "<xsl/>".repeat(100) };
        let mut w = CountingWriter::default();
        write_request(&mut w, &req).unwrap();
        assert_eq!(w.calls.len(), 1, "request split across writes");
        assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap(), Some(req));

        for len in [0, 36, COALESCE_LIMIT] {
            let resp = Response { status: Status::Ok, body: vec![b'x'; len] };
            let mut w = CountingWriter::default();
            write_frame(&mut w, &resp).unwrap();
            assert_eq!(w.calls.len(), 1, "{len}-byte body split across writes");
            assert_eq!(w.bytes, expected_response(&resp));
            assert_eq!(read_response(&mut w.bytes.as_slice()).unwrap(), resp);
        }
    }

    #[test]
    fn large_body_is_written_in_place() {
        let resp = Response { status: Status::Ok, body: vec![b'y'; COALESCE_LIMIT + 1] };
        let mut w = CountingWriter::default();
        write_frame(&mut w, &resp).unwrap();
        assert_eq!(w.calls.len(), 2, "header, then body");
        assert_eq!(w.calls[0].1, 5);
        assert_eq!(w.calls[1], (resp.body.as_ptr(), resp.body.len()), "body was copied");
        assert_eq!(w.bytes, expected_response(&resp));
        assert_eq!(read_response(&mut w.bytes.as_slice()).unwrap(), resp);
    }

    #[test]
    fn oversized_response_is_written_as_a_readable_error() {
        let resp = Response { status: Status::Ok, body: vec![b'z'; MAX_FRAME as usize + 1] };
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let got = read_response(&mut buf.as_slice()).expect("the peer can read the frame");
        assert_eq!(got.status, Status::Error);
        let msg = String::from_utf8(got.body).unwrap();
        assert!(msg.contains(&resp.body.len().to_string()), "{msg}");
        assert!(msg.contains(&MAX_FRAME.to_string()), "{msg}");
    }

    #[test]
    fn bad_status_and_oversized_body_are_refused() {
        let bad = [7u8, 0, 0, 0, 0];
        assert!(read_response(&mut bad.as_slice()).is_err());
        let mut huge = vec![Status::Ok as u8];
        huge.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_response(&mut huge.as_slice()).is_err());
    }
}
