package mptcpsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestPaperScenarioRoundTrip(t *testing.T) {
	// Serialise the paper scenario, parse it back, run it: the LP must be
	// identical to the built-in PaperNetwork.
	data, err := json.Marshal(PaperScenario())
	if err != nil {
		t.Fatal(err)
	}
	nw, err := LoadNetwork(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPaths() != 3 {
		t.Fatalf("paths = %d", nw.NumPaths())
	}
	res, err := Run(nw, Options{Duration: 200 * time.Millisecond, SubflowPaths: []int{2, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Optimum.Total-90) > 1e-6 {
		t.Fatalf("scenario LP total = %v, want 90", res.Optimum.Total)
	}
	want := []float64{30, 10, 50}
	for i, v := range want {
		if math.Abs(res.Optimum.PerPath[i]-v) > 1e-6 {
			t.Fatalf("scenario LP = %v, want %v", res.Optimum.PerPath, want)
		}
	}
}

func TestLoadNetworkFromJSON(t *testing.T) {
	src := `{
		"links": [
			{"a": "p", "b": "w", "mbps": 30, "delay_ms": 3, "loss": 0.01},
			{"a": "w", "b": "srv", "mbps": 100, "delay_ms": 5},
			{"a": "p", "b": "l", "mbps": 20, "delay_ms": 15, "queue_bytes": 32768},
			{"a": "l", "b": "srv", "mbps": 100, "delay_ms": 10}
		],
		"endpoints": {"src": "p", "dst": "srv"},
		"paths": [
			{"nodes": ["p", "w", "srv"], "name": "wifi"},
			{"nodes": ["p", "l", "srv"]}
		]
	}`
	nw, err := LoadNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumPaths() != 2 {
		t.Fatalf("paths = %d", nw.NumPaths())
	}
	res, err := Run(nw, Options{CC: "lia", Duration: 2 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths[0].Name != "wifi" || res.Paths[1].Name != "Path 2" {
		t.Fatalf("path names = %q, %q", res.Paths[0].Name, res.Paths[1].Name)
	}
	if math.Abs(res.Optimum.Total-50) > 1e-6 {
		t.Fatalf("LP total = %v, want 50", res.Optimum.Total)
	}
	if res.Summary.TotalMean <= 0 {
		t.Fatal("no throughput from scenario network")
	}
}

func TestScenarioReEmitFixpoint(t *testing.T) {
	// parse -> build -> re-emit must reproduce the paper scenario exactly:
	// same links in definition order, same endpoints, same named paths.
	orig := PaperScenario()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := LoadNetwork(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	emitted, err := nw.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(emitted)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-emitted scenario differs:\n in: %s\nout: %s", data, data2)
	}

	// The built-in PaperNetwork exports to the same description.
	fromBuiltin, err := PaperNetwork().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	data3, err := json.Marshal(fromBuiltin)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data3) {
		t.Fatalf("PaperNetwork export differs from PaperScenario:\n in: %s\nout: %s", data, data3)
	}
}

func TestScenarioReEmitPreservesOverrides(t *testing.T) {
	src := `{
		"links": [
			{"a": "p", "b": "w", "mbps": 30, "delay_ms": 3, "loss": 0.01},
			{"a": "w", "b": "srv", "mbps": 100, "delay_ms": 5},
			{"a": "p", "b": "l", "mbps": 20, "delay_ms": 15, "queue_bytes": 32768},
			{"a": "l", "b": "srv", "mbps": 100, "delay_ms": 10}
		],
		"endpoints": {"src": "p", "dst": "srv"},
		"paths": [
			{"nodes": ["p", "w", "srv"], "name": "wifi"},
			{"nodes": ["p", "l", "srv"]}
		]
	}`
	nw, err := LoadNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := nw.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Links[0].Loss != 0.01 {
		t.Fatalf("loss override lost: %+v", sf.Links[0])
	}
	if sf.Links[2].QueueBytes != 32768 {
		t.Fatalf("queue override lost: %+v", sf.Links[2])
	}
	// The explicit name survives; the synthesized default does not get
	// written back (keeping re-emit a fixpoint for unnamed paths).
	if sf.Paths[0].Name != "wifi" || sf.Paths[1].Name != "" {
		t.Fatalf("path names wrong: %+v", sf.Paths)
	}
	// Emit -> build -> re-emit is a fixpoint from here on.
	nw2, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := nw2.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sf)
	b, _ := json.Marshal(sf2)
	if string(a) != string(b) {
		t.Fatalf("not a fixpoint:\n in: %s\nout: %s", a, b)
	}
}

func TestScenarioFixpointNonRepresentableMbps(t *testing.T) {
	// Capacities and delays that are not exactly representable in bit/s
	// and ns must not drift across emit -> build cycles (the conversions
	// round, not truncate).
	src := `{
		"links": [{"a": "a", "b": "b", "mbps": 130.14285714285714, "delay_ms": 130.14285714285714}],
		"endpoints": {"src": "a", "dst": "b"},
		"paths": [{"nodes": ["a", "b"]}]
	}`
	nw, err := LoadNetwork(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := nw.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	nw2, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := nw2.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Links[0].Mbps != sf2.Links[0].Mbps {
		t.Fatalf("capacity drifts across round trips: %v -> %v", sf.Links[0].Mbps, sf2.Links[0].Mbps)
	}
	if sf.Links[0].DelayMs != sf2.Links[0].DelayMs {
		t.Fatalf("delay drifts across round trips: %v -> %v", sf.Links[0].DelayMs, sf2.Links[0].DelayMs)
	}
}

func TestScenarioRejectsParallelLinks(t *testing.T) {
	// Links are addressed by node-name pair, so parallel links would make
	// loss/queue overrides and perturbations land on the wrong link.
	src := `{
		"links": [
			{"a": "a", "b": "b", "mbps": 10, "delay_ms": 1},
			{"a": "b", "b": "a", "mbps": 20, "delay_ms": 2, "loss": 0.01}
		],
		"endpoints": {"src": "a", "dst": "b"},
		"paths": [{"nodes": ["a", "b"]}]
	}`
	if _, err := LoadNetwork(strings.NewReader(src)); err == nil {
		t.Fatal("accepted parallel links (reversed spelling included)")
	}

	// The exporter refuses them too: a programmatic multigraph cannot be
	// described by the format.
	nw := NewNetwork()
	nw.AddLink("a", "b", 10, time.Millisecond)
	nw.AddLink("a", "b", 20, time.Millisecond)
	if err := nw.Endpoints("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddPath("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Scenario(); err == nil {
		t.Fatal("exported a parallel-link network")
	}
}

func TestScenarioExportRequiresEndpoints(t *testing.T) {
	nw := NewNetwork()
	nw.AddLink("a", "b", 10, time.Millisecond)
	if _, err := nw.Scenario(); err == nil {
		t.Fatal("exported a network without endpoints")
	}
}

func TestLoadNetworkRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{]`,
		"unknown field": `{"links": [], "zzz": 1}`,
		"no links":      `{"links": [], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"zero rate":     `{"links": [{"a":"a","b":"b","mbps":0,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"neg delay":     `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":-1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"no endpoints":  `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "paths":[{"nodes":["a","b"]}]}`,
		"no paths":      `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}}`,
		"bad path":      `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","zzz"]}]}`,
		"bad loss":      `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1,"loss":2}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"neg loss":      `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1,"loss":-0.1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"missing names": `{"links": [{"mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
	}
	for name, src := range cases {
		if _, err := LoadNetwork(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestScenarioEventsRoundTrip(t *testing.T) {
	src := `{
		"links": [
			{"a": "s", "b": "v1", "mbps": 40, "delay_ms": 1},
			{"a": "v1", "b": "d", "mbps": 100, "delay_ms": 2},
			{"a": "s", "b": "v2", "mbps": 30, "delay_ms": 3},
			{"a": "v2", "b": "d", "mbps": 100, "delay_ms": 4}
		],
		"endpoints": {"src": "s", "dst": "d"},
		"paths": [
			{"nodes": ["s", "v1", "d"]},
			{"nodes": ["s", "v2", "d"]}
		],
		"events": [
			{"at_ms": 2000, "type": "link_down", "a": "s", "b": "v1"},
			{"at_ms": 3000, "type": "link_up", "a": "s", "b": "v1"},
			{"at_ms": 1000, "type": "set_rate", "a": "s", "b": "v2", "mbps": 15},
			{"at_ms": 500, "type": "set_delay", "a": "s", "b": "v1", "delay_ms": 7},
			{"at_ms": 700, "type": "set_loss", "a": "s", "b": "v2", "loss": 0.02},
			{"at_ms": 1500, "type": "loss_burst", "a": "s", "b": "v2", "loss": 0.4, "duration_ms": 250}
		]
	}`
	sf, err := LoadScenario(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.events) != 6 {
		t.Fatalf("events = %d, want 6", len(nw.events))
	}
	// Re-emit and compare: parse -> build -> re-emit is a fixpoint.
	out, err := nw.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != len(sf.Events) {
		t.Fatalf("re-emitted %d events, want %d", len(out.Events), len(sf.Events))
	}
	for i := range sf.Events {
		if out.Events[i] != sf.Events[i] {
			t.Fatalf("event %d drifted: %+v -> %+v", i, sf.Events[i], out.Events[i])
		}
	}
	// Second cycle is bit-stable.
	nw2, err := out.Build()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := nw2.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(out)
	j2, _ := json.Marshal(out2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("re-emit not a fixpoint:\n%s\n%s", j1, j2)
	}
	// The built network runs and produces the expected epochs (set_rate at
	// 1s, down at 2s, up at 3s).
	res, err := Run(nw, Options{Duration: 4 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(res.Epochs))
	}
}

func TestScenarioRejectsBrokenEvents(t *testing.T) {
	base := `{
		"links": [
			{"a": "a", "b": "m", "mbps": 10, "delay_ms": 1},
			{"a": "m", "b": "b", "mbps": 10, "delay_ms": 1}
		],
		"endpoints": {"src": "a", "dst": "b"},
		"paths": [{"nodes": ["a", "m", "b"]}],
		"events": [%s]
	}`
	for name, ev := range map[string]string{
		"unknown type":  `{"at_ms": 100, "type": "linkdown", "a": "a", "b": "m"}`,
		"unknown link":  `{"at_ms": 100, "type": "link_down", "a": "a", "b": "b"}`,
		"up while up":   `{"at_ms": 100, "type": "link_up", "a": "a", "b": "m"}`,
		"negative time": `{"at_ms": -5, "type": "link_down", "a": "a", "b": "m"}`,
		"zero rate":     `{"at_ms": 100, "type": "set_rate", "a": "a", "b": "m"}`,
		"unknown field": `{"at_ms": 100, "type": "link_down", "a": "a", "b": "m", "mpbs": 3}`,
	} {
		_, err := LoadNetwork(strings.NewReader(fmt.Sprintf(base, ev)))
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Out-of-time-order listing with valid semantics is fine.
	ok := `{"at_ms": 2000, "type": "link_up", "a": "a", "b": "m"},
	       {"at_ms": 1000, "type": "link_down", "a": "a", "b": "m"}`
	if _, err := LoadNetwork(strings.NewReader(fmt.Sprintf(base, ok))); err != nil {
		t.Fatalf("valid unordered events rejected: %v", err)
	}
}
