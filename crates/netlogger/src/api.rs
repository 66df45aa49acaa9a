//! The NetLogger client API.
//!
//! Mirrors the paper's §4.4 example:
//!
//! ```text
//! NetLogger eventLog = new NetLogger("testprog");
//! eventLog.open("dolly.lbl.gov", 14830);
//! eventLog.write("WriteIt", "SEND.SZ=" + sz);
//! eventLog.close();
//! ```
//!
//! The Rust API keeps the same shape: create a logger for a program, open a
//! sink (memory buffer, local file, or a channel to a remote collector),
//! `write` events with automatic microsecond timestamps, and flush/close.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use jamm_core::channel::Sender;
use jamm_core::flow::EventSink;
use jamm_ulm::codec::{codec_for, EventCodec};
use jamm_ulm::{keys, Event, Level, SharedEvent, Timestamp, Value};

/// Where a [`NetLogger`] sends its events.
pub enum Sink {
    /// Keep events in an in-memory buffer until flushed to another sink or
    /// read back by the application.
    Memory,
    /// Append frames of the named ULM content type to a local file — the
    /// file-sink analogue of wire codec negotiation: callers pass the
    /// content type the downstream analysis tools asked for (see
    /// [`jamm_ulm::codec`]).  [`jamm_ulm::codec::TEXT`] writes classic
    /// NetLogger logs, one ULM line per event.
    File {
        /// File to append to.
        path: PathBuf,
        /// Negotiated content type, e.g. `application/x-ulm-binary`.
        content_type: &'static str,
    },
    /// Send events to a collector over a channel (the in-process stand-in
    /// for "log to a remote host on port 14830").
    Net(Sender<Event>),
    /// Push events into any local pipeline sink: a gateway or an archive.
    /// Each event is moved into its shared allocation, never copied.
    Pipeline(Arc<dyn EventSink<SharedEvent>>),
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sink::Memory => write!(f, "Sink::Memory"),
            Sink::File { path, content_type } => {
                write!(f, "Sink::File({}, {content_type})", path.display())
            }
            Sink::Net(_) => write!(f, "Sink::Net(..)"),
            Sink::Pipeline(_) => write!(f, "Sink::Pipeline(..)"),
        }
    }
}

/// Errors from the logging API.
#[derive(Debug)]
pub enum LogError {
    /// The file sink could not be opened or written.
    Io(std::io::Error),
    /// The collector channel was closed.
    CollectorGone,
    /// `write` was called before `open`.
    NotOpen,
    /// The requested content type has no codec.
    UnknownContentType(String),
    /// The downstream pipeline sink refused the event.
    SinkRefused(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "i/o error: {e}"),
            LogError::CollectorGone => write!(f, "collector channel closed"),
            LogError::NotOpen => write!(f, "logger not opened"),
            LogError::UnknownContentType(ct) => write!(f, "no codec for content type {ct}"),
            LogError::SinkRefused(why) => write!(f, "pipeline sink refused event: {why}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

enum OpenSink {
    Memory,
    File {
        writer: BufWriter<File>,
        codec: EventCodec,
    },
    Net(Sender<Event>),
    Pipeline(Arc<dyn EventSink<SharedEvent>>),
}

/// The NetLogger instrumentation handle.
pub struct NetLogger {
    program: String,
    host: String,
    sink: Option<OpenSink>,
    buffer: Vec<Event>,
    written: u64,
    /// Fixed timestamp override used by tests and the simulator; `None`
    /// means stamp with wall-clock time.
    clock_override: Option<Timestamp>,
    /// Reused encode scratch for the file sink: one line/frame buffer
    /// amortized over the stream instead of an allocation per write.
    scratch: Vec<u8>,
}

impl std::fmt::Debug for NetLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetLogger")
            .field("program", &self.program)
            .field("host", &self.host)
            .field("buffered", &self.buffer.len())
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl NetLogger {
    /// Create a logger for `program` on the local host.
    pub fn new(program: impl Into<String>) -> Self {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "localhost".to_string());
        NetLogger::with_host(program, host)
    }

    /// Create a logger claiming to run on `host` (simulated applications).
    pub fn with_host(program: impl Into<String>, host: impl Into<String>) -> Self {
        NetLogger {
            program: program.into(),
            host: host.into(),
            sink: None,
            buffer: Vec::new(),
            written: 0,
            clock_override: None,
            scratch: Vec::new(),
        }
    }

    /// Open the logger with a sink.
    pub fn open(&mut self, sink: Sink) -> Result<(), LogError> {
        self.sink = Some(match sink {
            Sink::Memory => OpenSink::Memory,
            Sink::File { path, content_type } => {
                let codec = codec_for(content_type)
                    .ok_or_else(|| LogError::UnknownContentType(content_type.to_string()))?;
                OpenSink::File {
                    writer: BufWriter::new(
                        OpenOptions::new().create(true).append(true).open(path)?,
                    ),
                    codec,
                }
            }
            Sink::Net(tx) => OpenSink::Net(tx),
            Sink::Pipeline(sink) => OpenSink::Pipeline(sink),
        });
        Ok(())
    }

    /// Force timestamps to a fixed value (used by tests / simulation).
    pub fn set_clock_override(&mut self, ts: Option<Timestamp>) {
        self.clock_override = ts;
    }

    /// Number of events written (sent to the sink) so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Number of events currently buffered in memory.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Log an event with the given NetLogger event name and user fields,
    /// automatically timestamped.  This is the `write("WriteIt", ...)` call
    /// from the paper.
    pub fn write(&mut self, event_name: &str, fields: &[(&str, Value)]) -> Result<(), LogError> {
        let mut builder = Event::builder(self.program.clone(), self.host.clone())
            .level(Level::Usage)
            .event_type(event_name);
        if let Some(ts) = self.clock_override {
            builder = builder.timestamp(ts);
        }
        for (k, v) in fields {
            builder = builder.field(jamm_ulm::vocab::resolve(k), v.clone());
        }
        self.write_event(builder.build())
    }

    /// Log an already-constructed event.
    pub fn write_event(&mut self, event: Event) -> Result<(), LogError> {
        match self.sink.as_mut() {
            None => Err(LogError::NotOpen),
            Some(OpenSink::Memory) => {
                self.buffer.push(event);
                self.written += 1;
                Ok(())
            }
            Some(OpenSink::Net(tx)) => {
                tx.send(event).map_err(|_| LogError::CollectorGone)?;
                self.written += 1;
                Ok(())
            }
            Some(OpenSink::File { writer, codec }) => {
                self.scratch.clear();
                codec.encode_to(&mut self.scratch, &event);
                writer.write_all(&self.scratch)?;
                // Binary frames are self-delimiting; the text and JSON
                // formats are one-document-per-line and need the separator
                // (TextCodec::encode emits no trailing newline).
                if codec.content_type() != jamm_ulm::codec::BINARY {
                    writer.write_all(b"\n")?;
                }
                self.written += 1;
                Ok(())
            }
            Some(OpenSink::Pipeline(sink)) => {
                sink.accept(&SharedEvent::new(event))
                    .map_err(|e| LogError::SinkRefused(e.to_string()))?;
                self.written += 1;
                Ok(())
            }
        }
    }

    /// Convenience matching the paper's example: log an event with an object
    /// id so the visualiser can draw its lifeline.
    pub fn write_for_object(
        &mut self,
        event_name: &str,
        object_id: &str,
        fields: &[(&str, Value)],
    ) -> Result<(), LogError> {
        let mut all: Vec<(&str, Value)> = vec![(keys::OBJECT_ID, object_id.to_string().into())];
        all.extend(fields.iter().cloned());
        self.write(event_name, &all)
    }

    /// Drain the memory buffer (memory sink only).
    pub fn drain_buffer(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.buffer)
    }

    /// Flush the underlying sink (meaningful for the file sink).
    pub fn flush(&mut self) -> Result<(), LogError> {
        if let Some(OpenSink::File { writer, .. }) = self.sink.as_mut() {
            writer.flush()?;
        }
        Ok(())
    }

    /// Flush and close the logger; further writes fail with `NotOpen`.
    pub fn close(&mut self) -> Result<(), LogError> {
        self.flush()?;
        self.sink = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jamm_core::channel::unbounded;
    use jamm_core::flow::SinkError;
    use jamm_core::sync::Mutex;
    use jamm_ulm::text;

    #[test]
    fn paper_example_produces_the_expected_ulm_line() {
        let mut log = NetLogger::with_host("testProg", "dpss1.lbl.gov");
        log.open(Sink::Memory).unwrap();
        log.set_clock_override(Some(
            Timestamp::parse_ulm_date("20000330112320.957943").unwrap(),
        ));
        log.write("WriteData", &[("SEND.SZ", Value::UInt(49_332))])
            .unwrap();
        let events = log.drain_buffer();
        assert_eq!(events.len(), 1);
        let line = text::encode(&events[0]);
        assert_eq!(
            line,
            "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg LVL=Usage \
             NL.EVNT=WriteData SEND.SZ=49332"
        );
    }

    #[test]
    fn write_before_open_fails_and_close_disables() {
        let mut log = NetLogger::with_host("p", "h");
        assert!(matches!(log.write("X", &[]), Err(LogError::NotOpen)));
        log.open(Sink::Memory).unwrap();
        log.write("X", &[]).unwrap();
        log.close().unwrap();
        assert!(matches!(log.write("Y", &[]), Err(LogError::NotOpen)));
        assert_eq!(log.events_written(), 1);
    }

    #[test]
    fn file_sink_appends_parseable_ulm() {
        let dir = std::env::temp_dir().join(format!("jamm-netlogger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = NetLogger::with_host("ftpd", "dpss1.lbl.gov");
            log.open(Sink::File {
                path: path.clone(),
                content_type: jamm_ulm::codec::TEXT,
            })
            .unwrap();
            for i in 0..10u64 {
                log.write_for_object(
                    "SEND_BLOCK",
                    &format!("xfer-{}", i % 2),
                    &[("SZ", Value::UInt(i))],
                )
                .unwrap();
            }
            log.close().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events = text::decode_all_lossy(&text);
        assert_eq!(events.len(), 10);
        assert_eq!(events[3].object_id(), Some("xfer-1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn net_sink_delivers_to_collector_channel() {
        let (tx, rx) = unbounded();
        let mut log = NetLogger::with_host("mplay", "mems.cairn.net");
        log.open(Sink::Net(tx)).unwrap();
        log.write("MPLAY_START_READ_FRAME", &[("FRAME.ID", Value::UInt(1))])
            .unwrap();
        log.write("MPLAY_END_READ_FRAME", &[("FRAME.ID", Value::UInt(1))])
            .unwrap();
        let got: Vec<Event> = rx.try_iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].event_type, "MPLAY_END_READ_FRAME");
        // Dropping the receiver turns further writes into CollectorGone.
        drop(rx);
        assert!(matches!(log.write("X", &[]), Err(LogError::CollectorGone)));
    }

    #[test]
    fn timestamps_are_automatic_and_monotone_enough() {
        let mut log = NetLogger::with_host("p", "h");
        log.open(Sink::Memory).unwrap();
        log.write("A", &[]).unwrap();
        log.write("B", &[]).unwrap();
        let events = log.drain_buffer();
        assert!(events[0].timestamp <= events[1].timestamp);
        assert!(events[0].timestamp > Timestamp::from_secs(1_500_000_000));
    }

    #[test]
    fn encoded_file_sink_writes_negotiated_format() {
        let dir = std::env::temp_dir().join(format!("jamm-netlogger-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.bin");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = NetLogger::with_host("dpss", "dpss1.lbl.gov");
            log.open(Sink::File {
                path: path.clone(),
                content_type: jamm_ulm::codec::BINARY,
            })
            .unwrap();
            for i in 0..6u64 {
                log.write("DPSS_SERV_IN", &[("BLOCK.ID", Value::UInt(i))])
                    .unwrap();
            }
            log.close().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let events = jamm_ulm::binary::decode_all(&bytes).unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(events[5].field("BLOCK.ID"), Some(&Value::UInt(5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoded_file_text_frames_are_line_separated() {
        let dir = std::env::temp_dir().join(format!("jamm-netlogger-text-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.ulm");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = NetLogger::with_host("dpss", "dpss1.lbl.gov");
            log.open(Sink::File {
                path: path.clone(),
                content_type: jamm_ulm::codec::TEXT,
            })
            .unwrap();
            for i in 0..4u64 {
                log.write("TICK", &[("N", Value::UInt(i))]).unwrap();
            }
            log.close().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events = jamm_ulm::text::decode_all_lossy(&text);
        assert_eq!(events.len(), 4, "one parseable ULM line per event");
        assert_eq!(events[3].field("N"), Some(&Value::UInt(3)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_content_type_fails_to_open() {
        let mut log = NetLogger::with_host("p", "h");
        assert!(matches!(
            log.open(Sink::File {
                path: std::env::temp_dir().join("never-created.log"),
                content_type: "application/xml",
            }),
            Err(LogError::UnknownContentType(_))
        ));
    }

    #[test]
    fn pipeline_sink_receives_events() {
        struct Probe(Mutex<Vec<SharedEvent>>);
        impl EventSink<SharedEvent> for Probe {
            fn accept(&self, event: &SharedEvent) -> Result<usize, SinkError> {
                self.0.lock().push(SharedEvent::clone(event));
                Ok(1)
            }
        }
        let probe = Arc::new(Probe(Mutex::new(Vec::new())));
        let mut log = NetLogger::with_host("mplay", "mems.cairn.net");
        log.open(Sink::Pipeline(
            Arc::clone(&probe) as Arc<dyn EventSink<SharedEvent>>
        ))
        .unwrap();
        log.write("MPLAY_START_READ_FRAME", &[("FRAME.ID", Value::UInt(1))])
            .unwrap();
        log.write("MPLAY_END_READ_FRAME", &[("FRAME.ID", Value::UInt(1))])
            .unwrap();
        let got = probe.0.lock();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].event_type, "MPLAY_END_READ_FRAME");
        // The sink holds the only handle: the event was moved, not copied.
        assert_eq!(Arc::strong_count(&got[0]), 1);
        assert_eq!(log.events_written(), 2);
    }
}
