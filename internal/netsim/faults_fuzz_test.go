package netsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// framesPerPair is the all-to-all pattern: every node sends this many frames
// to every other node.
const framesPerPair = 4

// campaignFaults reads the fault rules of the committed scenario files, the
// seeds of FuzzFaultPlan. A scenario spells times in milliseconds.
func campaignFaults(f *testing.F) [][]FaultRule {
	paths, err := filepath.Glob(filepath.Join("..", "..", "campaigns", "*", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	var plans [][]FaultRule
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var spec struct {
			Faults []struct {
				Links       string  `json:"links"`
				DropProb    float64 `json:"drop_prob"`
				CorruptProb float64 `json:"corrupt_prob"`
				FlapUpMS    float64 `json:"flap_up_ms"`
				FlapDownMS  float64 `json:"flap_down_ms"`
				DownFromMS  float64 `json:"down_from_ms"`
				DownUntilMS float64 `json:"down_until_ms"`
				SlowFactor  float64 `json:"slow_factor"`
			}
		}
		if json.Unmarshal(b, &spec) != nil || len(spec.Faults) == 0 {
			continue // a golden report, or a clean scenario
		}
		ms := func(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }
		var rules []FaultRule
		for _, r := range spec.Faults {
			rules = append(rules, FaultRule{
				Links: r.Links, DropProb: r.DropProb, CorruptProb: r.CorruptProb,
				FlapMeanUp: ms(r.FlapUpMS), FlapMeanDown: ms(r.FlapDownMS),
				DownFrom: ms(r.DownFromMS), DownUntil: ms(r.DownUntilMS),
				SlowFactor: r.SlowFactor,
			})
		}
		plans = append(plans, rules)
	}
	if len(plans) == 0 {
		f.Fatal("no committed scenario has a fault rule")
	}
	return plans
}

// FuzzFaultPlan feeds a seed and one or two rules over every
// FaultRule field to FaultPlan.Validate. A plan it refuses ApplyFaults must
// refuse too. A plan it accepts must apply to a 4-node SingleSwitch fabric
// and carry a fixed all-to-all frame pattern to completion, with every frame
// accounted for: frames sent = frames delivered + the links' Dropped +
// DownDropped, and the loss registry (LostFrames) sums to the same losses.
// Receivers are daemons, so a lost frame never reads as a deadlock. The seed
// corpus is the fault rules of the committed campaigns plus the inputs in
// testdata/fuzz; tier-1 replays both.
func FuzzFaultPlan(f *testing.F) {
	for _, rules := range campaignFaults(f) {
		r0, r1 := rules[0], rules[0]
		if len(rules) > 1 {
			r1 = rules[1]
		}
		f.Add(int64(1998), len(rules) > 1,
			r0.Links, r0.DropProb, r0.CorruptProb, int64(r0.FlapMeanUp), int64(r0.FlapMeanDown), int64(r0.DownFrom), int64(r0.DownUntil), r0.SlowFactor,
			r1.Links, r1.DropProb, r1.CorruptProb, int64(r1.FlapMeanUp), int64(r1.FlapMeanDown), int64(r1.DownFrom), int64(r1.DownUntil), r1.SlowFactor)
	}
	f.Fuzz(func(t *testing.T, seed int64, two bool,
		links0 string, drop0, corrupt0 float64, up0, down0, from0, until0 int64, slow0 float64,
		links1 string, drop1, corrupt1 float64, up1, down1, from1, until1 int64, slow1 float64) {
		plan := FaultPlan{Seed: seed, Rules: []FaultRule{{
			Links: links0, DropProb: drop0, CorruptProb: corrupt0,
			FlapMeanUp: sim.Time(up0), FlapMeanDown: sim.Time(down0),
			DownFrom: sim.Time(from0), DownUntil: sim.Time(until0), SlowFactor: slow0,
		}}}
		if two {
			plan.Rules = append(plan.Rules, FaultRule{
				Links: links1, DropProb: drop1, CorruptProb: corrupt1,
				FlapMeanUp: sim.Time(up1), FlapMeanDown: sim.Time(down1),
				DownFrom: sim.Time(from1), DownUntil: sim.Time(until1), SlowFactor: slow1,
			})
		}
		k := sim.NewKernel()
		defer k.Shutdown()
		net := Shape{Topology: SingleSwitch, Nodes: 4}.Build(k, myrinet(), 300*sim.Nanosecond)
		verr := plan.Validate()
		if aerr := net.ApplyFaults(plan); (verr == nil) != (aerr == nil) {
			t.Fatalf("Validate = %v but ApplyFaults = %v", verr, aerr)
		}
		if verr != nil {
			return
		}

		n := net.Nodes()
		var delivered int64
		for src := 0; src < n; src++ {
			k.Spawn("sender", func(p *sim.Proc) {
				for i := 0; i < framesPerPair; i++ {
					for d := 1; d < n; d++ {
						net.Iface(src).Send(p, &Packet{Dst: (src + d) % n, Payload: make([]byte, 64)})
					}
				}
			})
			k.SpawnDaemon("receiver", func(p *sim.Proc) {
				for {
					net.Iface(src).In.Recv(p)
					delivered++
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatalf("all-to-all under %+v: %v", plan, err)
		}

		sent := int64(n * (n - 1) * framesPerPair)
		var lost int64
		for _, l := range net.Links() {
			st := l.Stats()
			lost += st.Dropped + st.DownDropped
		}
		if sent != delivered+lost {
			t.Fatalf("%d frames sent, %d delivered + %d lost on links, under %+v", sent, delivered, lost, plan)
		}
		var registered int64
		for _, lf := range net.LostFrames() {
			registered += lf.Count
		}
		if registered != lost {
			t.Fatalf("the loss registry holds %d frames, the links lost %d, under %+v", registered, lost, plan)
		}
	})
}
