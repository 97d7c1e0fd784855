//! Response-path stall regression: a memoised job whose response is
//! larger than the writer's 8 KiB buffer must come back in well under
//! the 40 ms a delayed ACK costs when a frame's last bytes go out in a
//! separate small write behind Nagle's algorithm.

use std::sync::Arc;
use std::time::{Duration, Instant};

use drmap_cnn::network::Network;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::pool::DsePool;
use drmap_service::proto::{Dialect, Response};
use drmap_service::server::JobServer;
use drmap_service::spec::{EngineSpec, JobOptions, JobSpec};

/// The zoo network with the most layers: the largest response.
fn largest_zoo_network() -> Network {
    Network::zoo()
        .into_iter()
        .map(|(_, build)| build())
        .max_by_key(|network| network.layers().len())
        .expect("the zoo is not empty")
}

#[test]
fn warm_responses_over_the_buffer_size_return_without_a_delayed_ack_stall() {
    let pool = Arc::new(DsePool::new(ServiceState::new().unwrap(), 2));
    let server = JobServer::with_pool("127.0.0.1:0", pool).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(addr).unwrap();

    let spec = JobSpec::network(1, EngineSpec::default(), largest_zoo_network()).with_options(
        JobOptions {
            keep_points: true,
            ..JobOptions::default()
        },
    );
    // Cold run: fills the cache, so every timed run below is a hit.
    let warmed = client.submit(&spec).unwrap();
    let bytes = Response::Job { result: warmed }
        .render(Dialect::Legacy)
        .render()
        .len();
    assert!(
        bytes > 8 * 1024,
        "the response must outgrow the buffer: {bytes} bytes"
    );

    let mut round_trips: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            client.submit(&spec).unwrap();
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median warm round trip {median:?} for a {bytes}-byte response: {round_trips:?}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}
