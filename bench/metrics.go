package main

// metricDef is one metric as BENCHMARK.json declares it. The table here is
// what the program reports; bench_test.go holds it against the file.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the figures a user of the system sees, reported by every
// workload (README.md says what each means on each).
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"wait_mid_us", "us", "lower", 0.25},
	{"ontime_pct", "%", "higher", 0.05},
	{"accuracy_pct", "%", "higher", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the figures of single layers, reported by every traced run.
var perLayer = []metricDef{
	// the workload's own calls, from its spans
	{name: "bench.submit_ns", unit: "ns", better: "lower"},
	{name: "bench.slice_events_per_s", unit: "1/s", better: "higher"},
	{name: "bench.wait_p50_us", unit: "us", better: "lower"},
	{name: "bench.wait_p99_us", unit: "us", better: "lower"},
	{name: "bench.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "bench.answered_pct", unit: "%", better: "higher"},
	{name: "bench.allocs_per_kevent", unit: "count", better: "lower"},
	{name: "bench.slice_self_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "client.reconnects", unit: "count", better: "lower"},
	{name: "client.dropped_events", unit: "count", better: "lower"},
	{name: "client.retry_later", unit: "count", better: "lower"},
	{name: "core.promotions", unit: "count", better: "higher"},
	{name: "core.rollbacks", unit: "count", better: "lower"},
	{name: "core.shadow_epochs", unit: "count", better: "higher"},
	// layer probes
	{name: "events.intern_hit_ns", unit: "ns", better: "lower"},
	{name: "grammar.append_ns.regular", unit: "ns", better: "lower"},
	{name: "grammar.append_ns.irregular", unit: "ns", better: "lower"},
	{name: "grammar.freeze_us", unit: "us", better: "lower"},
	{name: "grammar.rules", unit: "count", better: "lower"},
	{name: "grammar.nodes", unit: "count", better: "lower"},
	{name: "recorder.record_at_ns", unit: "ns", better: "lower"},
	{name: "recorder.clock_ns", unit: "ns", better: "lower"},
	{name: "core.submit_record_ns", unit: "ns", better: "lower"},
	{name: "core.submit_predict_ns", unit: "ns", better: "lower"},
	{name: "core.submit_learn_ns", unit: "ns", better: "lower"},
	{name: "core.learn_extra_ns", unit: "ns", better: "lower"},
	{name: "core.finish_us", unit: "us", better: "lower"},
	{name: "pythia.record_ns", unit: "ns", better: "lower"},
	{name: "pythia.record_unattributed_pct", unit: "%", better: "lower"},
	{name: "predictor.observe_ns.regular", unit: "ns", better: "lower"},
	{name: "predictor.observe_ns.irregular", unit: "ns", better: "lower"},
	{name: "predictor.predict_at_ns.d1", unit: "ns", better: "lower"},
	{name: "predictor.predict_at_ns.d16", unit: "ns", better: "lower"},
	{name: "predictor.predict_at_ns.d64", unit: "ns", better: "lower"},
	{name: "predictor.accuracy_pct.d1", unit: "%", better: "higher"},
	{name: "predictor.accuracy_pct.d16", unit: "%", better: "higher"},
	{name: "predictor.accuracy_pct.d64", unit: "%", better: "higher"},
	{name: "predictor.reanchored_per_kevent", unit: "count", better: "lower"},
	{name: "predictor.unknown_per_kevent", unit: "count", better: "lower"},
	{name: "tracefile.write_ns_per_event", unit: "ns", better: "lower"},
	{name: "tracefile.read_ns_per_event", unit: "ns", better: "lower"},
	{name: "tracefile.bytes_per_kevent", unit: "B", better: "lower"},
	{name: "tracefile.save_ms", unit: "ms", better: "lower"},
	{name: "wire.encode_submit_batch_ns_per_event", unit: "ns", better: "lower"},
	{name: "wire.parse_submit_batch_ns_per_event", unit: "ns", better: "lower"},
	{name: "wire.predict_req_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.prediction_codec_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_io_ns", unit: "ns", better: "lower"},
	{name: "transport.unix_echo_rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp_echo_rtt_us", unit: "us", better: "lower"},
	{name: "transport.ring_push_ns", unit: "ns", better: "lower"},
	{name: "transport.ring_consume_ns_per_event", unit: "ns", better: "lower"},
	{name: "transport.ring_pred_publish_ns", unit: "ns", better: "lower"},
	{name: "transport.ring_pred_read_ns", unit: "ns", better: "lower"},
	{name: "server.pipe_echo_rtt_us", unit: "us", better: "lower"},
	{name: "server.pipe_predict_rtt_us", unit: "us", better: "lower"},
	{name: "server.pipe_submit_ns_per_event", unit: "ns", better: "lower"},
	{name: "client.submit_ns", unit: "ns", better: "lower"},
	{name: "client.shm_submit_ns", unit: "ns", better: "lower"},
	{name: "client.latest_read_ns", unit: "ns", better: "lower"},
	{name: "client.rtt_p50_us.unix", unit: "us", better: "lower"},
	{name: "client.rtt_p50_us.tcp", unit: "us", better: "lower"},
	{name: "client.rtt_unattributed_pct", unit: "%", better: "lower"},
	{name: "harness.lulesh_speedup_pct", unit: "%", better: "higher"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
