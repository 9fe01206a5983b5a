//! A minimal wire-protocol client that counts the bytes it moves, so
//! the benchmark can report bytes per job without touching the server.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use icstar_telemetry::{parse_chrome_trace, SpanEvent};
use icstar_wire::{parse_report, WireReport};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    /// Bytes written to and read from the socket for jobs, that is
    /// `SUBMIT` and `RESULT`; `TRACE` traffic is not counted.
    pub bytes: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            bytes: 0,
        })
    }

    fn send(&mut self) -> Result<(), String> {
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.bytes += self.out.len() as u64;
        self.out.clear();
        Ok(())
    }

    fn line(&mut self, into: &mut String) -> Result<(), String> {
        let read = self
            .reader
            .read_line(into)
            .map_err(|e| format!("read: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".into());
        }
        self.bytes += read as u64;
        Ok(())
    }

    /// Reads one response line and returns what follows `OK `.
    fn ok(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.line(&mut line)?;
        let line = line.trim_end();
        match line.strip_prefix("OK") {
            Some(rest) => Ok(rest.trim_start().to_string()),
            None => Err(line.to_string()),
        }
    }

    /// Reads a dot-terminated block.
    fn block(&mut self) -> Result<String, String> {
        let mut block = String::new();
        loop {
            let start = block.len();
            self.line(&mut block)?;
            if block[start..].trim_end() == "." {
                block.truncate(start);
                return Ok(block);
            }
        }
    }

    /// `SUBMIT`s a job's wire text, then `RESULT`s the id it got.
    pub fn submit_result(&mut self, text: &str) -> Result<WireReport, String> {
        self.out.extend_from_slice(b"SUBMIT\n");
        self.out.extend_from_slice(text.as_bytes());
        if !text.ends_with('\n') {
            self.out.push(b'\n');
        }
        self.out.extend_from_slice(b".\n");
        self.send()?;
        let rest = self.ok()?;
        let id: u64 = rest
            .strip_prefix("id ")
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("expected `OK id <n>`: {rest}"))?;
        writeln!(self.out, "RESULT {id}").expect("writing to a Vec");
        self.send()?;
        let rest = self.ok()?;
        if rest != "report" {
            return Err(format!("expected `OK report`: {rest}"));
        }
        let block = self.block()?;
        parse_report(&block).map_err(|e| format!("report: {e}"))
    }

    /// `TRACE <id> chrome`, parsed into span events.
    pub fn trace_chrome(&mut self, id: u64) -> Result<Vec<SpanEvent>, String> {
        let jobs_bytes = self.bytes;
        let spans = self.trace_block(id);
        self.bytes = jobs_bytes;
        spans
    }

    fn trace_block(&mut self, id: u64) -> Result<Vec<SpanEvent>, String> {
        writeln!(self.out, "TRACE {id} chrome").expect("writing to a Vec");
        self.send()?;
        let rest = self.ok()?;
        if rest != "trace" {
            return Err(format!("expected `OK trace`: {rest}"));
        }
        let block = self.block()?;
        parse_chrome_trace(block.trim_end()).map_err(|e| format!("chrome trace: {e}"))
    }
}
