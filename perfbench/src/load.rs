//! The load generator: one closed-loop client per workload. A request is
//! timed from its send to its response; the next request goes out only
//! when fewer than `window` are outstanding.

use crate::fixture;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use xmlta_server::Client;
use xmlta_service::{parse_json, Json};

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Requests refused, errored, timed out, or answered wrongly.
    pub failed: u64,
    pub wall_s: f64,
    /// Every answered request, in completion order.
    pub done: Vec<Done>,
    /// Samples taken at the start, about once per slice, and at the end.
    pub samples: Vec<Sample>,
    /// One line per failed request or item, by name.
    pub misses: Vec<String>,
}

/// A point-in-time reading of the clocks a slice is measured by.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds into the phase.
    pub at_s: f64,
    /// Summed CPU time of the server processes.
    pub cpu_ms: f64,
    /// CPU time the host hypervisor withheld from this machine's CPUs.
    pub steal_ms: f64,
}

impl Sample {
    fn take(at_s: f64, pids: &[u32]) -> Sample {
        Sample {
            at_s,
            cpu_ms: fixture::usage_of(pids).cpu_ms,
            steal_ms: fixture::host_steal_ms(),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub id: u64,
    /// Completion time, seconds into the phase.
    pub at_s: f64,
    pub latency_ms: f64,
    /// Verdicts it served (0 once it is known to have failed).
    pub verdicts: u64,
}

impl Phase {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.misses.len() < 64 {
            self.misses.push(what);
        }
    }

    /// Marks answered request `id` as failed after the fact.
    pub fn void(&mut self, id: u64, what: String) {
        if let Some(d) = self.done.iter_mut().find(|d| d.id == id && d.verdicts > 0) {
            d.verdicts = 0;
            self.fail(what);
        } else if self.misses.len() < 64 {
            self.misses.push(what);
        }
    }

    pub fn verdicts(&self) -> u64 {
        self.done.iter().map(|d| d.verdicts).sum()
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_ms).collect()
    }

    /// The phase cut at its samples. A request's verdicts are spread
    /// evenly over the time it was outstanding, so a slice is credited with
    /// the work done inside it rather than with whichever large frames
    /// happened to complete there.
    pub fn slices(&self) -> Vec<Slice> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.samples
            .windows(2)
            .filter_map(|w| {
                let (t0, t1) = (w[0].at_s, w[1].at_s);
                let verdicts: f64 = self
                    .done
                    .iter()
                    .map(|d| {
                        let sent = d.at_s - d.latency_ms / 1e3;
                        let overlap = d.at_s.min(t1) - sent.max(t0);
                        if overlap <= 0.0 {
                            0.0
                        } else if d.at_s > sent {
                            d.verdicts as f64 * overlap / (d.at_s - sent)
                        } else {
                            d.verdicts as f64
                        }
                    })
                    .sum();
                let latencies: Vec<f64> = self
                    .done
                    .iter()
                    .filter(|d| d.at_s >= t0 && d.at_s < t1)
                    .map(|d| d.latency_ms)
                    .collect();
                if latencies.is_empty() || verdicts <= 0.0 || t1 <= t0 {
                    return None;
                }
                Some(Slice {
                    verdicts_per_s: verdicts / (t1 - t0),
                    cpu_ms_per_kverdict: (w[1].cpu_ms - w[0].cpu_ms) / (verdicts / 1e3),
                    p50_ms: quantile(&latencies, 0.5),
                    p99_ms: quantile(&latencies, 0.99),
                    steal: (w[1].steal_ms - w[0].steal_ms) / ((t1 - t0) * 1e3 * cpus),
                })
            })
            .collect()
    }
}

/// One slice of a phase.
pub struct Slice {
    pub verdicts_per_s: f64,
    /// Server CPU ms per 1000 verdicts.
    pub cpu_ms_per_kverdict: f64,
    /// Latency median and 99th percentile of the requests completed in
    /// the slice.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Share of the machine's CPU time the host withheld during the slice.
    pub steal: f64,
}

/// Samples the servers' CPU time about `SLICES` times over a phase.
pub struct Sampler<'a> {
    pids: &'a [u32],
    start: Instant,
    every: f64,
    next: f64,
}

/// Slices a phase is cut into for its medians.
pub const SLICES: u32 = 20;

impl<'a> Sampler<'a> {
    /// Starts the phase clock and takes the first sample.
    pub fn start(pids: &'a [u32], duration: Duration, phase: &mut Phase) -> Sampler<'a> {
        let every = duration.as_secs_f64() / f64::from(SLICES);
        phase.samples.push(Sample::take(0.0, pids));
        Sampler {
            pids,
            start: Instant::now(),
            every,
            next: every,
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Records a completion, and a CPU sample when a slice has passed.
    pub fn done(&mut self, phase: &mut Phase, id: u64, sent: Instant, verdicts: u64) {
        let now = Instant::now();
        let at_s = (now - self.start).as_secs_f64();
        phase.done.push(Done {
            id,
            at_s,
            latency_ms: (now - sent).as_secs_f64() * 1e3,
            verdicts,
        });
        if at_s >= self.next {
            phase.samples.push(Sample::take(at_s, self.pids));
            self.next += self.every;
        }
    }

    /// Ends the phase with a last sample. The drain of the requests still
    /// in flight at the deadline joins the last slice instead of forming
    /// a sliver of its own.
    pub fn finish(self, phase: &mut Phase) {
        phase.wall_s = self.start.elapsed().as_secs_f64();
        let sample = Sample::take(phase.wall_s, self.pids);
        let n = phase.samples.len();
        if n > 1 && phase.wall_s - phase.samples[n - 1].at_s < self.every / 2.0 {
            phase.samples[n - 1] = sample;
        } else {
            phase.samples.push(sample);
        }
    }
}

/// Runs a closed loop for `duration` with `window` requests in flight.
/// `frame(k)` builds request `k` (id `k`); it is called right after the
/// previous send, so building overlaps the server's work. `check(k, reply)`
/// returns the verdicts the reply carries, or why it is wrong.
pub fn windowed(
    client: &mut Client,
    pids: &[u32],
    window: usize,
    duration: Duration,
    mut frame: impl FnMut(u64) -> String,
    mut check: impl FnMut(u64, &Json) -> Result<u64, String>,
) -> Phase {
    let mut phase = Phase::default();
    let mut inflight: HashMap<u64, Instant> = HashMap::with_capacity(window * 2);
    let mut next_id = 0u64;
    let mut next = frame(0);
    let mut clock = Sampler::start(pids, duration, &mut phase);
    let mut sending = true;
    loop {
        while sending && inflight.len() < window && clock.elapsed() < duration {
            phase.attempted += 1;
            if let Err(e) = client.send(&next) {
                phase.fail(format!("request {next_id}: send failed: {e}"));
                sending = false;
                break;
            }
            inflight.insert(next_id, Instant::now());
            next_id += 1;
            next = frame(next_id);
        }
        if inflight.is_empty() {
            break;
        }
        let line = match client.recv() {
            Ok(Some(line)) => line,
            Ok(None) => {
                phase.misses.push("server closed the connection".into());
                break;
            }
            Err(e) => {
                phase.misses.push(format!("no response: {e}"));
                break;
            }
        };
        let reply = match parse_json(&line) {
            Ok(reply) => reply,
            Err(e) => {
                phase.fail(format!("unparseable reply: {e}"));
                continue;
            }
        };
        let Some(id) = reply.get("id").and_then(Json::as_u64) else {
            phase.fail(format!("reply without a request id: {}", clip(&line)));
            continue;
        };
        let Some(sent) = inflight.remove(&id) else {
            phase.fail(format!("reply for unknown request {id}"));
            continue;
        };
        let verdicts = if reply.get("ok") != Some(&Json::Bool(true)) {
            phase.fail(format!("request {id} refused: {}", clip(&line)));
            0
        } else {
            match check(id, &reply) {
                Ok(n) => n,
                Err(why) => {
                    phase.fail(format!("request {id}: {why}"));
                    0
                }
            }
        };
        clock.done(&mut phase, id, sent, verdicts);
    }
    // Requests still in flight when the loop broke off never answered.
    phase.failed += inflight.len() as u64;
    clock.finish(&mut phase);
    phase
}

/// Sends one frame and reads its single reply, which must be `ok`.
pub fn call(client: &mut Client, frame: &str) -> Result<Json, String> {
    let line = client
        .roundtrip(frame)
        .map_err(|e| format!("no response: {e}"))?;
    let reply = parse_json(&line).map_err(|e| format!("unparseable reply: {e}"))?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("refused: {}", clip(&line)));
    }
    Ok(reply)
}

/// Sends `frames` with `window` in flight and returns the replies by index
/// (ids are the indices). Set-up traffic: every reply must be `ok`.
pub fn pipelined(
    client: &mut Client,
    window: usize,
    frames: &[String],
) -> Result<Vec<Json>, String> {
    let mut replies: Vec<Option<Json>> = vec![None; frames.len()];
    let mut sent = 0;
    let mut received = 0;
    while received < frames.len() {
        while sent < frames.len() && sent - received < window {
            client
                .send(&frames[sent])
                .map_err(|e| format!("send failed: {e}"))?;
            sent += 1;
        }
        let line = client
            .recv()
            .map_err(|e| format!("no response: {e}"))?
            .ok_or("server closed the connection")?;
        let reply = parse_json(&line).map_err(|e| format!("unparseable reply: {e}"))?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("refused: {}", clip(&line)));
        }
        let id = reply
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("reply without id")? as usize;
        *replies.get_mut(id).ok_or("reply id out of range")? = Some(reply);
        received += 1;
    }
    replies
        .into_iter()
        .map(|r| r.ok_or_else(|| "a request got no reply".to_string()))
        .collect()
}

fn clip(line: &str) -> &str {
    match line.char_indices().nth(200) {
        Some((at, _)) => &line[..at],
        None => line,
    }
}

// ---------------------------------------------------------------------
// Summaries

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (`v` need not be sorted).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&(0..101).map(f64::from).collect::<Vec<_>>(), 0.99) - 99.0).abs() < 1e-9);
    }
}
