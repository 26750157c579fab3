//! Spans recorded by the harness around its calls into each layer.
//!
//! Two levels are enough from outside the program: one *item* span per
//! operation (a sweep item, a kernel, a job) and one *stage* span per
//! public call made for it. Spans stay in memory and are written as
//! Chrome trace events when the run ends. With the tracer off, `stage`
//! is a plain call.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the item span that caused this stage; `None` on items.
    pub parent: Option<usize>,
    /// Shared by an item span and all its stages.
    pub item: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open_item: Option<usize>,
}

/// Name of every item span; its self time is the harness's own share.
pub const ITEM: &str = "item";

/// Layers in the order their `<layer>.share` metrics are reported. A
/// span belongs to the layer with the longest matching name prefix.
pub const LAYERS: [&str; 9] = [
    "sim.timing",
    "sim.func",
    "sim.mem",
    "kernels",
    "sass",
    "regalloc",
    "bound",
    "service.exec",
    "service",
];

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open_item: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run one operation under an item span.
    pub fn item<T>(&mut self, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: ITEM,
            start_ns,
            end_ns: start_ns,
            parent: None,
            item: id,
        });
        self.open_item = Some(index);
        let value = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open_item = None;
        value
    }

    /// Run one public call of the program under a stage span named after
    /// its layer and function, e.g. `sass.assemble`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        self.push_stage(name, start_ns, end_ns);
        value
    }

    /// Record an operation whose intervals were measured elsewhere: a job
    /// runs on the service's threads, and its result reports how long it
    /// queued and ran.
    pub fn record_item(
        &mut self,
        id: u64,
        start_ns: u64,
        end_ns: u64,
        stages: &[(&'static str, u64, u64)],
    ) {
        if !self.enabled {
            return;
        }
        self.open_item = Some(self.spans.len());
        self.spans.push(Span {
            name: ITEM,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: None,
            item: id,
        });
        for &(name, stage_start, stage_end) in stages {
            self.push_stage(name, stage_start, stage_end);
        }
        self.open_item = None;
    }

    fn push_stage(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(parent) = self.open_item {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: Some(parent),
                item: self.spans[parent].item,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Partition of total item time into layer shares plus
    /// `harness.other` (item self time: span minus its stages). The
    /// shares sum to 1 by construction; with no spans they are all 0.
    pub fn shares(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.dur_ns());
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> =
            LAYERS.iter().map(|&layer| (layer, 0)).collect();
        by_layer.insert(HARNESS, 0);
        for (span, &ns) in self.spans.iter().zip(&self_ns) {
            *by_layer.entry(layer_of(span.name)).or_insert(0) += ns;
        }
        let total: u64 = by_layer.values().sum();
        by_layer
            .into_iter()
            .map(|(layer, ns)| {
                (
                    layer,
                    if total == 0 {
                        0.0
                    } else {
                        ns as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Chrome trace-event document (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("item", Json::Num(s.item as f64))];
                if let Some(parent) = s.parent {
                    args.push(("parent", Json::Num(parent as f64)));
                }
                Json::obj([
                    ("name", Json::Str(s.name.to_owned())),
                    ("cat", Json::Str(layer_of(s.name).to_owned())),
                    ("ph", Json::Str("X".to_owned())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

pub const HARNESS: &str = "harness.other";

fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .filter(|layer| {
            name.strip_prefix(**layer)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .max_by_key(|layer| layer.len())
        .copied()
        .unwrap_or(HARNESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabricated() -> Tracer {
        let mut t = Tracer::new(true);
        t.record_item(
            7,
            0,
            2000,
            &[
                ("sass.assemble", 100, 400),
                ("sim.func.launch", 400, 1000),
                ("service.exec.attempts", 1000, 1100),
                ("service.queue", 1100, 1150),
            ],
        );
        t
    }

    #[test]
    fn shares_partition_item_time_and_sum_to_one() {
        let t = fabricated();
        let shares = t.shares();
        assert_eq!(shares["sass"], 300.0 / 2000.0);
        assert_eq!(shares["sim.func"], 600.0 / 2000.0);
        assert_eq!(shares["service.exec"], 100.0 / 2000.0);
        assert_eq!(shares["service"], 50.0 / 2000.0);
        assert_eq!(shares[HARNESS], 950.0 / 2000.0);
        assert_eq!(shares["sim.timing"], 0.0);
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(shares.len(), LAYERS.len() + 1);
    }

    #[test]
    fn stages_carry_parent_and_item_id() {
        let t = fabricated();
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.item == 7));
        assert_eq!(t.durations_ns("sass.assemble"), vec![300.0]);
        let events = t.chrome_trace();
        assert_eq!(
            events.get("traceEvents").unwrap().as_arr().unwrap().len(),
            5
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.item(1, |t| t.stage("sass.print", || 42));
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert!(t.shares().values().all(|&s| s == 0.0));
    }

    #[test]
    fn layer_prefix_matching_respects_name_boundaries() {
        assert_eq!(layer_of("service.exec.attempts"), "service.exec");
        assert_eq!(layer_of("service.submit"), "service");
        assert_eq!(layer_of("sim.timing.time_kernel"), "sim.timing");
        assert_eq!(layer_of("simx.timing"), HARNESS);
        assert_eq!(layer_of(ITEM), HARNESS);
    }
}
