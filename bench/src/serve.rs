//! `stackbench serve`: the system under test as a child process — the
//! workload's runtime behind a `chimera-net` server on a loopback port.
//!
//! Prints one line, `READY <port> <recover_s> <tenants_recovered>
//! <jobs_replayed>`, once it accepts connections, and exits when its
//! standard input closes. The parent holds the other end: it closes it
//! after a wire `Shutdown` was acknowledged (the clean stop), and a dead
//! load generator closes it by dying, so no server is ever left behind.
//! The wire `Shutdown` alone does not end the process: the server raises
//! its stop flag before the acknowledgement is written, so a host that
//! tore the server down on that flag could close the socket under it.

use crate::workload::{Layers, Spec};
use chimera_net::{Server, ServerConfig};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn serve(spec: &Spec, dir: Option<&Path>) -> Result<(), String> {
    let started = Instant::now();
    let (runtime, report) = spec.recover(&Layers {
        store: dir,
        cap: true,
        ..Layers::default()
    })?;
    let recover_s = started.elapsed().as_secs_f64();
    let server = Server::bind("127.0.0.1:0", Arc::new(runtime), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    println!(
        "READY {} {recover_s} {} {}",
        server.local_addr().port(),
        report.tenants_recovered,
        report.jobs_replayed
    );
    let mut sink = [0u8; 64];
    while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    Ok(())
}
