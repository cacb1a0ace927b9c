//! Quickstart: build a small wormhole LAN, multicast one message on a
//! Hamiltonian circuit, and print the per-event timeline.
//!
//!     cargo run --example quickstart

use std::collections::HashMap;
use std::sync::Arc;
use wormcast::core::{HcConfig, HcProtocol, Membership};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::trace::{TraceConfig, TraceEvent};
use wormcast::sim::worm::HEADER_LEN;
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::{TopoBuilder, UpDown};
use wormcast::traffic::script::install_one_shot;

fn main() {
    // 1. Describe the fabric: four crossbar switches in a ring, one host
    //    on each (the builder allocates switch ports automatically).
    let mut b = TopoBuilder::new(4);
    b.link(0, 1, 1);
    b.link(1, 2, 1);
    b.link(2, 3, 1);
    b.link(3, 0, 1);
    for s in 0..4 {
        b.host(s);
    }
    let topo = b.build();

    // 2. Compute deadlock-free up/down routes (Autonet/Myrinet style) and
    //    build the byte-level simulator.
    let updown = UpDown::compute(&topo, 0);
    let routes = updown.route_table(&topo, false);
    let cfg = NetworkConfig::builder()
        .trace(TraceConfig::Memory)
        .build()
        .expect("valid config");
    let mut net = Network::build(&topo.to_fabric_spec(), routes, cfg);

    // 3. One multicast group of all four hosts; every host runs the
    //    Hamiltonian-circuit protocol (ascending IDs, store-and-forward).
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members)]);
    for h in 0..4u32 {
        let p = HcProtocol::new(HostId(h), HcConfig::store_and_forward(), Arc::clone(&groups));
        net.set_protocol(HostId(h), Box::new(p));
    }

    // 4. Host 2 multicasts 400 bytes at t = 100 byte-times.
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 400,
    });

    // 5. Run and report. A worm leaves the network's worm window with its
    //    last byte, so the timeline names each worm from the trace alone:
    //    its injector is the top bits of its name, its receiver the host
    //    that took it, and its wire length its route plus header, payload
    //    and tail.
    let outcome = net.run_until(100_000);
    println!("run ended at t={} (drained: {})", outcome.end_time, outcome.drained);
    let injector = |worm: u64| HostId((worm >> 40) as u32);
    let received: Vec<(u64, HostId)> = net
        .trace
        .events()
        .iter()
        .filter_map(|(_, ev)| match ev {
            TraceEvent::WormReceived { worm, host } => Some((*worm, *host)),
            _ => None,
        })
        .collect();
    let payload = net.msgs.created[0].payload_len as u64;
    let mut wire_to = HashMap::new();
    for (worm, to) in received {
        let route = net.routes_mut().get(injector(worm), to).len() as u64;
        wire_to.insert(worm, (to, route + HEADER_LEN as u64 + payload + 1));
    }
    println!("\nper-event timeline (byte-times):");
    for (t, ev) in net.trace.events() {
        match ev {
            TraceEvent::WormInjected { worm, host } => {
                let (to, wire) = wire_to[worm];
                println!(
                    "  t={t:>6}  host {} -> host {}: worm injected ({wire} bytes on the wire)",
                    host.0, to.0
                );
            }
            TraceEvent::WormReceived { worm, host } => {
                println!(
                    "  t={t:>6}  host {}: worm from host {} fully received",
                    host.0,
                    injector(*worm).0
                );
            }
            TraceEvent::Delivered { host, .. } => {
                println!("  t={t:>6}  host {}: message DELIVERED to the application", host.0);
            }
            other => println!("  t={t:>6}  {other:?}"),
        }
    }
    println!("\nmulticast latency per member (from t=100):");
    let mut ds = net.msgs.deliveries.clone();
    ds.sort_by_key(|d| d.at);
    for d in &ds {
        println!("  host {}: {} byte-times ({} ns on 640 Mb/s Myrinet)", d.host.0, d.at - 100, (d.at - 100) * 12);
    }
    net.audit().expect("conservation invariant");
}
