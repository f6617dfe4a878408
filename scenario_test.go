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
	// The per-link overrides land on both directions of their link only.
	for _, l := range nw.graph.Links() {
		a, b := nw.graph.Node(l.From).Name, nw.graph.Node(l.To).Name
		wantLoss, wantQueue := 0.0, 0
		switch linkPair(a, b) {
		case linkPair("p", "w"):
			wantLoss = 0.01
		case linkPair("p", "l"):
			wantQueue = 32768
		}
		if nw.loss[l.ID] != wantLoss || int(l.Queue) != wantQueue {
			t.Fatalf("link %s->%s: loss %v queue %d, want %v and %d", a, b, nw.loss[l.ID], l.Queue, wantLoss, wantQueue)
		}
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

// TestScenarioReEmitPreservesOverrides: a parsed scenario written back out
// keeps its loss and queue overrides and its explicit path names, Build
// writes nothing into the file, and parse -> emit is a fixpoint.
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
	sf, err := LoadScenario(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Build(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := LoadScenario(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sf2.Links[0].Loss != 0.01 {
		t.Fatalf("loss override lost: %+v", sf2.Links[0])
	}
	if sf2.Links[2].QueueBytes != 32768 {
		t.Fatalf("queue override lost: %+v", sf2.Links[2])
	}
	// The explicit name survives; the synthesized default is not written
	// back into the file.
	if sf2.Paths[0].Name != "wifi" || sf2.Paths[1].Name != "" {
		t.Fatalf("path names wrong: %+v", sf2.Paths)
	}
	nw2, err := sf2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw2.pathNames[0] != "wifi" || nw2.pathNames[1] != "Path 2" {
		t.Fatalf("built path names = %q", nw2.pathNames)
	}
	data2, err := json.Marshal(sf2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("not a fixpoint:\n in: %s\nout: %s", data, data2)
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
}

func TestLoadNetworkRejectsBadInput(t *testing.T) {
	const ok = `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`
	if _, err := LoadNetwork(strings.NewReader(ok + "\n")); err != nil {
		t.Fatalf("the valid base case: %v", err)
	}
	cases := map[string]string{
		"garbage":           `{]`,
		"unknown field":     `{"links": [], "zzz": 1}`,
		"trailing garbage":  ok + ` garbage`,
		"two scenarios":     ok + ok,
		"no links":          `{"links": [], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"zero rate":         `{"links": [{"a":"a","b":"b","mbps":0,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"neg delay":         `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":-1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"self-loop":         `{"links": [{"a":"a","b":"a","mbps":1,"delay_ms":1}, {"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"no endpoints":      `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "paths":[{"nodes":["a","b"]}]}`,
		"unknown endpoint":  `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"zzz"}, "paths":[{"nodes":["a","b"]}]}`,
		"no paths":          `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}}`,
		"bad path":          `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","zzz"]}]}`,
		"one-node path":     `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a"]}]}`,
		"unlinked hop":      `{"links": [{"a":"a","b":"m","mbps":1,"delay_ms":1}, {"a":"m","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"path off the ends": `{"links": [{"a":"a","b":"m","mbps":1,"delay_ms":1}, {"a":"m","b":"b","mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","m"]}]}`,
		"bad loss":          `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1,"loss":2}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"neg loss":          `{"links": [{"a":"a","b":"b","mbps":1,"delay_ms":1,"loss":-0.1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
		"missing names":     `{"links": [{"mbps":1,"delay_ms":1}], "endpoints": {"src":"a","dst":"b"}, "paths":[{"nodes":["a","b"]}]}`,
	}
	for name, src := range cases {
		if _, err := LoadNetwork(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadNetwork(strings.NewReader(repeatedNode)); err == nil || !strings.Contains(err.Error(), `path 1: visits node "a" twice`) {
		t.Errorf("repeated node: err = %v, want it to name path 1 and node a", err)
	}
}

// repeatedNode's path visits a twice: it would leave a by two links.
const repeatedNode = `{"links": [{"a":"s","b":"a","mbps":1,"delay_ms":1}, {"a":"a","b":"b","mbps":1,"delay_ms":1}, {"a":"a","b":"d","mbps":1,"delay_ms":1}],` +
	`"endpoints": {"src":"s","dst":"d"}, "paths":[{"nodes":["s","a","b","a","d"]}]}`

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
	// The built network runs and produces the expected epochs (set_rate at
	// 1s, down at 2s, up at 3s).
	res, err := Run(nw, Options{Duration: 4 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(res.Epochs))
	}
	// The run echoes the file's events unchanged, in firing order.
	want := []int{3, 4, 2, 5, 0, 1}
	if len(res.Events) != len(want) {
		t.Fatalf("echoed %d events, want %d", len(res.Events), len(want))
	}
	for i, j := range want {
		if res.Events[i] != sf.Events[j] {
			t.Fatalf("echoed event %d = %+v, want file event %d %+v", i, res.Events[i], j, sf.Events[j])
		}
	}
	if got := res.Events[5].String(); got != "3s link_up s-v1" {
		t.Fatalf("event renders as %q", got)
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
		"loss > 1":      `{"at_ms": 100, "type": "set_loss", "a": "a", "b": "m", "loss": 2}`,
		"burst no len":  `{"at_ms": 100, "type": "loss_burst", "a": "a", "b": "m", "loss": 0.5}`,
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
