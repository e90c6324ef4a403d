//! Loopback servers run inside the benchmark process, and the `METRICS`
//! arithmetic the serve workloads share.

use std::net::SocketAddr;
use std::thread::JoinHandle;

use mbe::Histogram;
use serve::{MetricsSnapshot, Server, ServerConfig, ServerHandle, ServerSummary};

/// A server serving on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServerSummary>>>,
}

impl Running {
    pub fn start(cfg: ServerConfig) -> Result<Running, String> {
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Running { addr, handle, thread: Some(thread) })
    }

    /// Shuts the server down and waits for it to drain.
    pub fn stop(mut self) -> Result<ServerSummary, String> {
        self.join()
    }

    fn join(&mut self) -> Result<ServerSummary, String> {
        self.handle.shutdown();
        let thread = self.thread.take().ok_or("server already stopped")?;
        match thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.join();
        }
    }
}

/// `after - before`, bucket by bucket: the distribution of what was
/// recorded in between.
pub fn histogram_delta(before: &Histogram, after: &Histogram) -> Histogram {
    let buckets: Vec<u64> =
        after.buckets().iter().zip(before.buckets()).map(|(a, b)| a.saturating_sub(*b)).collect();
    Histogram::from_parts(&buckets, after.sum().saturating_sub(before.sum()))
}

/// Median of a latency histogram delta, as the lower bound of its
/// power-of-two bucket (0 when nothing was recorded).
pub fn p50_lower_bound(before: &Histogram, after: &Histogram) -> f64 {
    histogram_delta(before, after).quantile_lower_bound(0.5).unwrap_or(0) as f64
}

/// Mean of a latency histogram delta (exact: the histograms keep sums).
pub fn mean_delta(before: &Histogram, after: &Histogram) -> f64 {
    let d = histogram_delta(before, after);
    if d.count() == 0 {
        0.0
    } else {
        d.sum() as f64 / d.count() as f64
    }
}

/// The latency histogram of opcode `op` in a snapshot.
pub fn op_latency(s: &MetricsSnapshot, op: usize) -> Histogram {
    s.ops.get(op).map(|o| o.latency).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_keeps_only_new_samples() {
        let mut before = Histogram::new();
        before.record(3);
        let mut after = before;
        after.record(100);
        after.record(120);
        let d = histogram_delta(&before, &after);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 220);
        assert_eq!(p50_lower_bound(&before, &after), 64.0);
        assert_eq!(mean_delta(&before, &after), 110.0);
    }
}
