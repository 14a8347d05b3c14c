package svcload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xport"
)

// Capture, then replay: the replayed run must reproduce the original
// result exactly, and re-serializing the parsed trace must reproduce the
// file byte for byte.
func TestCaptureReplayIdentity(t *testing.T) {
	for _, gen := range []xport.Gen{xport.GenFM2, xport.GenFM1} {
		var buf bytes.Buffer
		m := machine{gen: gen, nodes: 6, fatTree: true}
		pl, _, f := buildFleet(t, m)
		if err := f.Plan(openWorkload(1998)); err != nil {
			t.Fatal(err)
		}
		if err := f.Capture(gen, true).Write(&buf); err != nil {
			t.Fatal(err)
		}
		orig := runFleet(t, pl, f)

		captured := append([]byte(nil), buf.Bytes()...)
		tr, err := ReadTrace(bytes.NewReader(captured))
		if err != nil {
			t.Fatalf("%v: ReadTrace: %v", gen, err)
		}
		if tr.Gen() != gen || tr.Meta.Gen != gen.String() || tr.Meta.Nodes != 6 || !tr.Meta.FatTree {
			t.Fatalf("%v: meta round-trip: %+v", gen, tr.Meta)
		}

		pl, _, f = buildFleet(t, m)
		if err := f.PlanTrace(tr); err != nil {
			t.Fatalf("%v: PlanTrace: %v", gen, err)
		}
		replayed := runFleet(t, pl, f)
		if !reflect.DeepEqual(orig, replayed) {
			t.Fatalf("%v: replay diverged from capture:\n%+v\n%+v", gen, orig, replayed)
		}

		var rt bytes.Buffer
		if err := tr.Write(&rt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(captured, rt.Bytes()) {
			t.Fatalf("%v: trace did not round-trip byte-identically", gen)
		}
	}
}

func TestTraceFileShape(t *testing.T) {
	var buf bytes.Buffer
	wl := openWorkload(4)
	wl.Requests = 3
	pl, _, f := buildFleet(t, machine{nodes: 4})
	if err := f.Plan(wl); err != nil {
		t.Fatal(err)
	}
	if err := f.Capture(xport.GenFM2, false).Write(&buf); err != nil {
		t.Fatal(err)
	}
	runFleet(t, pl, f)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := 1 + 4*3; len(lines) != want {
		t.Fatalf("trace has %d lines, want %d (meta + one per request)", len(lines), want)
	}
	if !strings.Contains(lines[0], TraceFormat) {
		t.Fatalf("header line missing format tag: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, `"t_ns"`) || !strings.Contains(l, `"fanout"`) {
			t.Fatalf("record missing fields: %s", l)
		}
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	meta := `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"open","requests":1,"service_ns":2000}`
	cases := map[string]string{
		"empty":         "",
		"bad header":    "not json\n",
		"wrong format":  `{"format":"other/9","nodes":4,"mode":"open"}` + "\n",
		"too few nodes": `{"format":"fmnet-svctrace/1","nodes":1,"mode":"open"}` + "\n",
		"client range":  meta + "\n" + `{"t_ns":5,"client":9,"seq":0,"key":0,"fanout":1}` + "\n",
		"seq disorder":  meta + "\n" + `{"t_ns":5,"client":0,"seq":1,"key":0,"fanout":1}` + "\n",
		"bad fanout":    meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":0}` + "\n",
		"negative time": meta + "\n" + `{"t_ns":-5,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		// A node count that would size the schedule past any memory.
		"too many nodes":   `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":1099511627776,"mode":"open"}` + "\n",
		"unknown fm":       `{"format":"fmnet-svctrace/1","fm":"fm3","nodes":4,"mode":"open","service_ns":2000}` + "\n",
		"negative service": `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"open","service_ns":-1}` + "\n",
		"negative drain":   `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"open","service_ns":2000,"drain_ns":-1}` + "\n",
		// Replica j of key k is node (k+j) mod n: k+1 must not wrap negative.
		"key overflow": `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":3,"mode":"open","service_ns":2000}` + "\n" +
			`{"t_ns":5,"client":0,"seq":0,"key":9223372036854775807,"fanout":2}` + "\n",
		// Instants past the replay horizon: a replay that polls for
		// centuries, and a last arrival plus drain window that overflows.
		"far-future arrival":   meta + "\n" + `{"t_ns":9223372036854775807,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"arrival past horizon": meta + "\n" + `{"t_ns":1000000001,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"far-future drain":     `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"open","service_ns":2000,"drain_ns":9223372036854775807}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
	// A well-formed trace whose fanout exceeds the fleet must fail at plan.
	in := meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":4}` + "\n"
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Nodes = 2
	tr.sched = tr.sched[:2]
	if _, _, f := buildFleet(t, machine{nodes: 2}); f.PlanTrace(tr) == nil {
		t.Error("fanout 4 on a 2-node fleet accepted")
	}
	// So must one whose payload plus header overflows.
	in = meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1,"req_b":9223372036854775800}` + "\n"
	if tr, err = ReadTrace(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if _, _, f := buildFleet(t, machine{nodes: 4}); f.PlanTrace(tr) == nil {
		t.Error("a payload whose size wraps past the header accepted")
	}
}

func TestTraceEmptyRejected(t *testing.T) {
	meta := `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"open","requests":0,"service_ns":2000}`
	tr, err := ReadTrace(strings.NewReader(meta + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, f := buildFleet(t, machine{nodes: 4}); f.PlanTrace(tr) == nil {
		t.Error("request-free trace accepted")
	}
}
