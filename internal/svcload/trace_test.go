package svcload

import (
	"bytes"
	"encoding/json"
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
		if tr, err := f.Capture(gen, true); err != nil {
			t.Fatal(err)
		} else if err := tr.Write(&buf); err != nil {
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
	if tr, err := f.Capture(xport.GenFM2, false); err != nil {
		t.Fatal(err)
	} else if err := tr.Write(&buf); err != nil {
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

// TestCaptureRefusesPastTheHorizon: the replay horizon is a limit of the
// trace format, not of a run. A generated schedule that outlasts it plans
// and runs, and Capture, which would write a trace ReadTrace refuses, names
// the horizon instead.
func TestCaptureRefusesPastTheHorizon(t *testing.T) {
	for _, wl := range []Workload{
		{Mode: ModeIncast, Requests: 2, RateRPS: 1, Fanout: 1},
		{Mode: ModeOpen, Requests: 20, RateRPS: 1, Fanout: 1, Seed: 1},
	} {
		_, _, f := buildFleet(t, machine{nodes: 4})
		if err := f.Plan(wl); err != nil {
			t.Fatalf("%s: plan: %v", wl.Mode, err)
		}
		if _, err := f.Capture(xport.GenFM2, false); err == nil || !strings.Contains(err.Error(), "horizon") {
			t.Errorf("%s: capture past the horizon: %v, want an error naming the horizon", wl.Mode, err)
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
		"unknown mode":     `{"format":"fmnet-svctrace/1","fm":"fm2","nodes":4,"mode":"\xff","service_ns":2000}` + "\n",
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
		// A record is TraceFormat's fixed grammar, not any JSON that
		// encoding/json would fit into it.
		"unknown key":      meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1,"prio":3}` + "\n",
		"duplicate key":    meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"escaped key":      meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fan\u006fut":1}` + "\n",
		"case-variant key": meta + "\n" + `{"T_NS":5,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"null value":       meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":null,"fanout":1}` + "\n",
		"string value":     meta + "\n" + `{"t_ns":"5","client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"float value":      meta + "\n" + `{"t_ns":5.0,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"exponent value":   meta + "\n" + `{"t_ns":5e0,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"leading zero":     meta + "\n" + `{"t_ns":05,"client":0,"seq":0,"key":0,"fanout":1}` + "\n",
		"int64 overflow":   meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":9223372036854775808,"fanout":1}` + "\n",
		"nested value":     meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1,"x":{"y":[1]}}` + "\n",
		"trailing bytes":   meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1} 7` + "\n",
		"not an object":    meta + "\n" + `null` + "\n",
		"unterminated":     meta + "\n" + `{"t_ns":5,"client":0,"seq":0,"key":0,"fanout":1` + "\n",
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

// TestTraceRecordGrammar: what a record line may vary — member order,
// whitespace, absent members, -0 and the int64 extremes — decodes to the
// record encoding/json reads from the same line.
func TestTraceRecordGrammar(t *testing.T) {
	for _, line := range []string{
		`{"t_ns":10130,"client":0,"seq":0,"key":0,"fanout":2,"req_b":64,"resp_b":256}`,
		` { "fanout" : 2 ,"resp_b":7,  "t_ns":5 ,"seq":3,"client":1,"key":9,"req_b":4 } `,
		"\t{\"t_ns\":-0,\"key\":-9223372036854775808,\r\n\"fanout\":9223372036854775807}\r",
		`{}`,
	} {
		var got, want traceRec
		if err := got.decode([]byte(line)); err != nil {
			t.Errorf("%q: %v", line, err)
		} else if err := json.Unmarshal([]byte(line), &want); err != nil || got != want {
			t.Errorf("%q: decoded %+v, encoding/json reads %+v (%v)", line, got, want, err)
		}
	}
}

// FuzzTrace feeds arbitrary bytes to the record decoder and to ReadTrace.
// Every line the decoder accepts, encoding/json must accept too and read as
// the same record: the grammar is a subset of JSON's. ReadTrace must refuse
// the input or accept it without panicking, and an accepted trace must be
// stable under Write, so Write(ReadTrace(x)) reads back as the same trace
// and writes the same bytes. A trace of at most 8 nodes is then planned on a
// fleet of its machine; if PlanTrace takes it, the fleet plans every record
// and captures them back unchanged, line for line. The seed corpus
// (testdata/fuzz/FuzzTrace) has the head of fmbench's captured trace, one
// input per ReadTrace error branch (a bad header, a client out of range, a
// seq gap, a key overflow and a t_ns past the replay horizon), and one per
// class of record the grammar refuses: an unknown, duplicate, escaped or
// case-variant key, null, a string, a float, a nested value, trailing bytes.
func FuzzTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, line := range bytes.Split(in, []byte("\n")) {
			var got, want traceRec
			if got.decode(line) != nil {
				continue
			}
			if err := json.Unmarshal(line, &want); err != nil || got != want {
				t.Fatalf("%q: decoded %+v, encoding/json reads %+v (%v)", line, got, want, err)
			}
		}
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := tr.Write(&once); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace refuses what Write wrote: %v\n%s", err, once.Bytes())
		}
		if err := back.Write(&twice); err != nil {
			t.Fatalf("Write of a re-read trace: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Write is not stable under ReadTrace:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
		if tr.Meta.Nodes > 8 {
			return
		}
		_, _, fl := buildFleet(t, machine{gen: tr.Gen(), nodes: tr.Meta.Nodes, fatTree: tr.Meta.FatTree})
		if fl.PlanTrace(tr) != nil {
			return
		}
		// The record lines: past the meta line, and up to the empty one
		// after the final newline.
		records := bytes.Split(once.Bytes(), []byte("\n"))[1:]
		if got, want := fl.Planned(), int64(len(records)-1); got != want {
			t.Fatalf("planned %d of %d records", got, want)
		}
		back, err = fl.Capture(tr.Gen(), tr.Meta.FatTree)
		if err != nil {
			t.Fatalf("Capture of a planned trace: %v", err)
		}
		var captured bytes.Buffer
		if err := back.Write(&captured); err != nil {
			t.Fatalf("Write of a captured trace: %v", err)
		}
		if got := bytes.Split(captured.Bytes(), []byte("\n"))[1:]; !reflect.DeepEqual(got, records) {
			t.Fatalf("capture of a planned trace changed its records:\n%s\nthen\n%s", once.Bytes(), captured.Bytes())
		}
	})
}
