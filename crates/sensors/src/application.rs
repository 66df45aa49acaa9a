//! Application sensors.
//!
//! "Autonomous sensors can also be embedded inside of applications. ...
//! These types of sensors would not be directly under JAMM control, but
//! could still feed their results to the JAMM system." (§2.2)
//!
//! [`ApplicationSensor`] is the JAMM-side adapter: the application pushes
//! events into a handle (from any thread), and the sensor drains them into
//! the normal sampling pipeline so they flow through the same gateway,
//! filters and consumers as host sensors.

use jamm_core::channel::{unbounded, Receiver, Sender};
use jamm_ulm::Event;

use crate::{SampleContext, Sensor, SensorKind, SensorSpec};

/// The handle an instrumented application uses to feed events to JAMM.
#[derive(Debug, Clone)]
pub struct ApplicationFeed {
    tx: Sender<Event>,
}

impl ApplicationFeed {
    /// Push one event.  Returns false if the sensor side has been dropped.
    pub fn publish(&self, event: Event) -> bool {
        self.tx.send(event).is_ok()
    }

    /// Push many events.
    pub fn publish_all(&self, events: impl IntoIterator<Item = Event>) -> usize {
        let mut n = 0;
        for e in events {
            if !self.publish(e) {
                break;
            }
            n += 1;
        }
        n
    }
}

/// Collects events produced inside an application.
#[derive(Debug)]
pub struct ApplicationSensor {
    spec: SensorSpec,
    rx: Receiver<Event>,
}

impl ApplicationSensor {
    /// Create the sensor and its application-side feed handle.
    pub fn new(
        name: impl Into<String>,
        host: impl Into<String>,
        event_types: Vec<String>,
    ) -> (Self, ApplicationFeed) {
        let (tx, rx) = unbounded();
        let sensor = ApplicationSensor {
            spec: SensorSpec::new(name, SensorKind::Application, host, event_types, 0.0),
            rx,
        };
        (sensor, ApplicationFeed { tx })
    }

    /// Number of events waiting to be drained.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

impl Sensor for ApplicationSensor {
    fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    fn sample(&mut self, _ctx: &SampleContext<'_>) -> Vec<Event> {
        let mut out = Vec::new();
        self.rx.drain_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostView, IfView, StatsSource};
    use jamm_ulm::{Level, Timestamp};

    struct Nothing;
    impl StatsSource for Nothing {
        fn host_stats(&self, _h: &str) -> Option<HostView> {
            None
        }
        fn device_interfaces(&self, _d: &str) -> Vec<IfView> {
            Vec::new()
        }
        fn process_alive(&self, _h: &str, _p: &str) -> Option<bool> {
            None
        }
    }

    fn app_event(i: u64) -> Event {
        Event::builder("mplay", "mems.cairn.net")
            .level(Level::Usage)
            .event_type("MPLAY_START_READ_FRAME")
            .timestamp(Timestamp::from_secs(i))
            .field("FRAME.ID", i)
            .build()
    }

    #[test]
    fn events_flow_from_feed_to_sample() {
        let (mut sensor, feed) = ApplicationSensor::new(
            "mplay",
            "mems.cairn.net",
            vec!["MPLAY_START_READ_FRAME".into()],
        );
        assert_eq!(feed.publish_all((0..5).map(app_event)), 5);
        assert_eq!(sensor.pending(), 5);
        let ctx = SampleContext {
            timestamp: Timestamp::from_secs(10),
            source: &Nothing,
        };
        let drained = sensor.sample(&ctx);
        assert_eq!(drained.len(), 5);
        assert_eq!(drained[3].field_f64("FRAME.ID"), Some(3.0));
        assert!(sensor.sample(&ctx).is_empty());
        assert_eq!(sensor.spec().kind, SensorKind::Application);
    }

    #[test]
    fn feed_works_across_threads() {
        let (mut sensor, feed) = ApplicationSensor::new("app", "h", vec![]);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let feed = feed.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        feed.publish(app_event(t * 1_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ctx = SampleContext {
            timestamp: Timestamp::from_secs(0),
            source: &Nothing,
        };
        assert_eq!(sensor.sample(&ctx).len(), 400);
    }

    #[test]
    fn publish_fails_after_sensor_dropped() {
        let (sensor, feed) = ApplicationSensor::new("app", "h", vec![]);
        drop(sensor);
        assert!(!feed.publish(app_event(1)));
        assert_eq!(feed.publish_all((0..3).map(app_event)), 0);
    }
}
