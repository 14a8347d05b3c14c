package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	fmnet "repro"
	"repro/internal/sim"
	"repro/internal/svcload"
	"repro/internal/trafficgen"
)

// rpc-open: the service-level user's view. Every node of a fat tree runs a
// key-sharded server and an open-loop client: Poisson arrivals, fan-out 2,
// Zipf(1.1) over 1024 keys, 64 B requests and 512 B responses, the latency
// clock starting at the SCHEDULED arrival so queueing lands in the tail. One
// session per rung of a fixed offered-rate ladder; the latency limit is
// p99 <= rpcLimit of virtual time.
//
// The low rungs are idle-dominated (a node with nothing due still polls in
// virtual time, so host time RISES as offered rate falls) and the top rung is
// work-dominated: an idle-path change and a hot-path change separate inside
// this one workload.

type rpcSize struct {
	nodes, requests int
	rates           []int
}

// 115 requests per client and rung, where the issue sized 200 for a 7 s
// phase: the run budget repeats set-up and phase at least three times.
var rpcFull = rpcSize{nodes: 32, requests: 115, rates: rpcRates}

const (
	rpcFanout, rpcKeys = 2, 1024
	rpcZipf            = 1.1
	rpcReqB, rpcRespB  = 64, 512
	rpcLimit           = 200 * sim.Microsecond
)

// rpcSchedule generates one rung's request schedule from the seed — every
// arrival instant and key — and hands it to svcload as a trace, so the
// simulator receives nothing but generated inputs. It returns the trace and
// the last scheduled arrival.
//
// Each client's arrivals are a Poisson process conditioned on its count: the
// requests land at sorted uniform instants over the horizon requests/rate.
// That fixes both the request count and the length of the schedule, which a
// run of exponential gaps lets wander by 10 % from seed to seed.
func rpcSchedule(seed int64, sz rpcSize, rate int) (*svcload.Trace, sim.Time, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"format":%q,"fm":"fm2","nodes":%d,"fat_tree":true,"mode":"open","seed":%d,"requests":%d,"service_ns":%d}`+"\n",
		svcload.TraceFormat, sz.nodes, seed, sz.requests, int64(svcload.DefaultServiceConfig().ServiceTime))
	var last sim.Time
	for c := 0; c < sz.nodes; c++ {
		salt := "rpc-open:" + strconv.Itoa(rate) + ":" + strconv.Itoa(c)
		rng := rand.New(rand.NewSource(seedFor(seed, salt+":arrival")))
		keys := trafficgen.NewZipf(seedFor(seed, salt+":key"), rpcKeys, rpcZipf)
		horizon := float64(sz.requests) * 1e9 / float64(rate)
		at := make([]float64, sz.requests)
		for i := range at {
			at[i] = rng.Float64() * horizon
		}
		sort.Float64s(at)
		for seq, t := range at {
			at := sim.Time(int64(t)) + 1 // an arrival at 0 would mean "closed loop"
			last = max(last, at)
			fmt.Fprintf(&buf, `{"t_ns":%d,"client":%d,"seq":%d,"key":%d,"fanout":%d,"req_b":%d,"resp_b":%d}`+"\n",
				int64(at), c, seq, keys.Next(), rpcFanout, rpcReqB, rpcRespB)
		}
	}
	tr, err := svcload.ReadTrace(&buf)
	return tr, last, err
}

// rpcRung is one rate rung's result.
type rpcRung struct {
	rate        int
	res         svcload.Result
	events      uint64
	host        time.Duration
	lastArrival sim.Time
	fab         fabricCounts
	outstanding int
}

// meetsLimit is the rule for virt_max_rate_rps: p99 within the limit, and the
// last completion within one limit of the last arrival (no growing backlog).
func (r rpcRung) meetsLimit() bool {
	return r.res.P99NS <= int64(rpcLimit) && sim.Time(r.res.LastNS) <= r.lastArrival+rpcLimit
}

func runRPC(sz rpcSize) func(seed int64, rec *recorder) (rep, error) {
	return func(seed int64, rec *recorder) (rep, error) {
		r := rep{exact: map[string]float64{}, host: layerMetrics{}}
		clk := startRep()
		clk.beginPhase()
		var (
			rungs        []rpcRung
			setup, phase time.Duration
		)
		for _, rate := range sz.rates {
			t0 := time.Now()
			tr, last, err := rpcSchedule(seed, sz, rate)
			if err != nil {
				return r, fmt.Errorf("rpc-open: schedule: %w", err)
			}
			s, err := fmnet.New(fmnet.Nodes(sz.nodes), fmnet.Topology(fmnet.FatTree), fmnet.FM2(),
				fmnet.WithRPC(fmnet.RPCConfig{}))
			if err != nil {
				return r, fmt.Errorf("rpc-open: %w", err)
			}
			if err := s.RPC().PlanTrace(tr); err != nil {
				return r, fmt.Errorf("rpc-open: plan: %w", err)
			}
			for node := 0; node < sz.nodes; node++ {
				s.SpawnOn(node, "rpc", func(p *fmnet.Proc) {
					sp := rec.begin(p, node, 0, "svcload", "Fleet.RunNode.r"+strconv.Itoa(rate), int64(rate))
					s.RPC().RunNode(p, node)
					rec.end(p, sp)
					settleFixed(p, func() { s.Endpoint(node).Extract(p, 0) })
				})
			}
			t1 := time.Now()
			if err := s.Run(); err != nil {
				return r, fmt.Errorf("rpc-open: rate %d: %w", rate, err)
			}
			t2 := time.Now()
			setup, phase = setup+t1.Sub(t0), phase+t2.Sub(t1)
			rg := rpcRung{rate: rate, res: s.RPC().Result(), events: s.Kernel().Events(), host: t2.Sub(t1),
				lastArrival: last, fab: snapFabric(s)}
			var bad []string
			rg.outstanding, bad = sessionQuiesce(s, "rpc-open r"+strconv.Itoa(rate))
			r.problems = append(r.problems, bad...)
			r.problems = append(r.problems, rg.res.Errors...)
			rungs = append(rungs, rg)
		}
		clk.finish(&r)
		r.setup, r.phase = setup, phase

		var (
			span               sim.Time // schedule start to last completion, summed over rungs
			payload, sub       int64
			fab                fabricCounts
			outstanding, maxOK int
		)
		for _, rg := range rungs {
			res := rg.res
			planned := int64(sz.nodes * sz.requests)
			r.ops += planned
			r.failed += planned - res.Completed
			if res.Completed != planned || res.Abandoned != 0 || res.Failed != 0 {
				r.failf("rpc-open at %d req/s completed %d of %d requests (%d abandoned, %d failed)",
					rg.rate, res.Completed, planned, res.Abandoned, res.Failed)
			}
			r.events += rg.events
			span += sim.Time(res.LastNS)
			payload += res.Completed * rpcFanout * (rpcReqB + rpcRespB)
			sub += res.SubRequests
			fab = fabricCounts{fab.linkPkts + rg.fab.linkPkts, fab.wireBytes + rg.fab.wireBytes, 0,
				fab.ctrlRecv + rg.fab.ctrlRecv, fab.dataRecv + rg.fab.dataRecv, 0}
			outstanding += rg.outstanding
			if rg.meetsLimit() {
				maxOK = max(maxOK, rg.rate)
			}
			tag := ".r" + strconv.Itoa(rg.rate)
			r.exact["svcload.events_per_req"+tag] = float64(rg.events) / float64(res.Completed)
			r.exact["svcload.virt_p99_us"+tag] = float64(res.P99NS) / 1e3
			r.host["svcload.host_us_per_req"+tag] = float64(rg.host.Nanoseconds()) / 1e3 / float64(res.Completed)
			if rg.rate == rpcReportRate {
				// The median and the tail are svcload's own histogram quantiles
				// (bucket upper bounds: never understated).
				r.exact["virt_op_p50_us"] = float64(res.P50NS) / 1e3
				r.exact["virt_op_p99_us"] = float64(res.P99NS) / 1e3
				r.exact["virt_op_tail_pct"] = 99
				r.exact["virt_op_samples"] = float64(res.Completed)
			}
		}
		r.exact["virt_time_us"] = span.Micros()
		r.exact["virt_goodput_mbps"] = sim.MBps(payload, span)
		r.exact["virt_max_rate_rps"] = float64(maxOK)
		r.exact["sim.events"] = float64(r.events)
		// A sub-request and its response are the messages of this workload.
		r.exact["netsim.link_pkts_per_msg"] = ratio(fab.linkPkts, 2*sub)
		r.exact["netsim.wire_bytes_per_payload_byte"] = ratio(fab.wireBytes, payload)
		r.exact["lanai.ctrl_per_data_pkt"] = ratio(fab.ctrlRecv, fab.dataRecv)
		r.exact["flowctl.outstanding_at_quiesce"] = float64(outstanding)
		return r, nil
	}
}

// rpcReportRate is the rung whose latency is the workload's virt_op_p50_us /
// virt_op_p99_us: below the knee, so the tail is the system's, not a queue's.
const rpcReportRate = 4000
