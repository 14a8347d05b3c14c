package main

import "strconv"

// The metric catalogue. BENCHMARK.json lists exactly these names, units,
// directions and bounds; benchmark_test.go holds the two together.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// End-to-end metrics only:
	exact bool    // a function of the seed alone: identical in every repetition
	bound float64 // share of the parent's median it may worsen by
}

// Units name the clock. "s", "ns", "us", "ms" are HOST time (what the
// simulator costs to run); "virt_us" is VIRTUAL time (what the modelled FM
// machine would take), bit-exact at a fixed seed.
const (
	unitVirtUS = "virt_us"
	unitCount  = "count"
	unitRatio  = "ratio"
)

// endToEnd is reported by every workload in the timed runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", false, 0.25},
	{"host_ops_per_s", "1/s", "higher", false, 0.25},
	{"host_allocs_per_op", unitCount, "lower", false, 0.02},
	{"host_peak_rss_mb", "MiB", "lower", false, 0.25},
	{"virt_time_us", unitVirtUS, "lower", true, 0.04},
	{"virt_op_p50_us", unitVirtUS, "lower", true, 0.06},
	{"virt_op_p99_us", unitVirtUS, "lower", true, 0.25},
}

// ladderLayers are the rungs of the layer ladder, bottom up. fm1 and fm2 are
// siblings above lanai; the four upper layers are siblings above xport.
var ladderLayers = []string{"sim", "netsim", "lanai", "fm1", "fm2", "xport", "mpifm", "sockfm", "shmem", "garr"}

// rpcRates is the offered-rate ladder of rpc-open, requests per virtual
// second per client.
var rpcRates = []int{2000, 4000, 6000, 8000}

// perLayer is reported by the traced run. A metric reads 0 on a workload
// that does not exercise its layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(name, unit, better string) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better})
	}
	for _, l := range ladderLayers {
		add(l+".self_ns_per_msg", "ns", "lower")
		add(l+".events_per_msg", unitCount, "lower")
		add(l+".allocs_per_msg", unitCount, "lower")
	}
	// Three end-to-end results that exist on some workloads only; every
	// end-to-end metric must exist on all, so they are reported (and guarded
	// for exactness) here.
	add("virt_goodput_mbps", "MB/s", "higher")
	add("virt_max_rate_rps", "1/s", "higher")
	add("model_err_pct", "%", "lower")

	add("sim.events", unitCount, "lower")
	add("sim.events_per_op", unitCount, "lower")
	add("sim.host_ns_per_event", "ns", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("sim.ns_per_event.p1", "ns", "lower")
	add("sim.ns_per_event.p64", "ns", "lower")
	add("sim.ns_per_event.p4096", "ns", "lower")
	add("sim.ns_per_event.gomaxprocs_n", "ns", "lower")
	add("sim.chan_ns_per_handoff", "ns", "lower")
	add("sim.resource_ns_per_acquire", "ns", "lower")
	add("sim.engine.speedup_x", unitRatio, "higher")
	add("sim.engine.certified", "bool", "higher")
	add("sim.engine.cut_stalls", unitCount, "lower")

	add("netsim.link_pkts_per_msg", unitRatio, "lower")
	add("netsim.wire_bytes_per_payload_byte", unitRatio, "lower")
	add("netsim.pool_recycle_ratio", unitRatio, "higher")
	add("netsim.build_s", "s", "lower")
	add("cluster.build_s", "s", "lower")
	add("fmnet.build_s", "s", "lower")
	add("netsim.dropped", unitCount, "lower")
	add("netsim.down_dropped", unitCount, "lower")
	add("netsim.corrupted", unitCount, "lower")
	add("lanai.crc_dropped", unitCount, "lower")
	add("lanai.ring_dropped", unitCount, "lower")
	add("lanai.ctrl_per_data_pkt", unitRatio, "lower")

	add("hostmodel.memcpys_per_msg", unitRatio, "lower")
	add("hostmodel.memcpy_bytes_per_payload_byte", unitRatio, "lower")
	add("hostmodel.bus_bytes_per_payload_byte", unitRatio, "lower")
	add("flowctl.outstanding_at_quiesce", unitCount, "lower")

	add("fm1.pkts_per_msg", unitRatio, "lower")
	add("fm2.pkts_per_msg", unitRatio, "lower")
	add("fm1.extract_useful_ratio", unitRatio, "higher")
	add("fm2.extract_useful_ratio", unitRatio, "higher")
	add("fm1.send_virt_us", unitVirtUS, "lower")
	add("fm2.send_virt_us", unitVirtUS, "lower")
	add("fm2.extract_virt_us", unitVirtUS, "lower")
	add("fm1.virt_bw_mbps.2048", "MB/s", "higher")
	add("fm2.virt_bw_mbps.2048", "MB/s", "higher")
	add("fm1.virt_lat_us", unitVirtUS, "lower")
	add("fm2.virt_lat_us", unitVirtUS, "lower")

	add("mpifm.efficiency_pct.fm1.16", "%", "higher")
	add("mpifm.efficiency_pct.fm1.2048", "%", "higher")
	add("mpifm.efficiency_pct.fm2.16", "%", "higher")
	add("mpifm.efficiency_pct.fm2.2048", "%", "higher")
	add("sockfm.efficiency_pct.fm2.2048", "%", "higher")
	add("shmem.efficiency_pct.fm2.2048", "%", "higher")
	add("garr.efficiency_pct.fm2.2048", "%", "higher")
	add("mpifm.direct_ratio", unitRatio, "higher")
	add("mpifm.unexpected_hwm", unitCount, "lower")
	add("mpifm.barrier_virt_us", unitVirtUS, "lower")
	add("mpifm.allreduce_virt_us", unitVirtUS, "lower")
	add("xport.svc_bytes_share", "%", "higher")

	for _, kind := range [][2]string{
		{"svcload.host_us_per_req", "us"},
		{"svcload.events_per_req", unitCount},
		{"svcload.virt_p99_us", unitVirtUS},
	} {
		for _, r := range rpcRates {
			add(kind[0]+".r"+strconv.Itoa(r), kind[1], "lower")
		}
	}
	add("scenario.host_ms_per_run", "ms", "lower")
	add("scenario.events_per_run", unitCount, "lower")
	add("scenario.watchdog_outcomes", unitCount, "lower")
	add("par.speedup_x", unitRatio, "higher")
	add("trace.overhead_pct", "%", "lower")
	return ms
}
