package dist

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/wfunc"
)

// goldenPayload is a message next to the decoder that must read it back.
type goldenPayload struct {
	name   string
	msg    interface{ encode() []byte }
	decode func([]byte) (any, error)
}

// goldenPayloads is one message of every payload shape the protocol has,
// each with every field set.
func goldenPayloads() []goldenPayload {
	return []goldenPayload{
		{"hello", &helloMsg{Proto: protoVersion, Name: "shard-a", DataAddr: "127.0.0.1:9999"},
			func(p []byte) (any, error) { return decodeHello(p) }},
		{"job", &jobMsg{ShardID: 2, App: "FMRadio", Source: "void->void pipeline Main() {}", Top: "Main",
			Strategy: "task+data", Backend: 1, Shards: 3, PerShard: 2, Epoch: 4, QueueDepth: 2,
			TapSinks: true, Faults: "crash:shard1@8", Fingerprint: 0xdeadbeefcafe},
			func(p []byte) (any, error) { return decodeJob(p) }},
		{"assign", &assignMsg{Gen: 3, StartIter: 42, LiveShards: []uint32{0, 2},
			Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Assign: []uint32{0, 1, 2, 3, 0},
			Image: []byte{9, 8, 7}},
			func(p []byte) (any, error) { return decodeAssign(p) }},
		{"barrier", &barrierMsg{Gen: 1, Iter: 8, State: &exec.ShardState{
			Iteration: 8,
			Nodes: []exec.ShardNodeState{
				{ID: 0, Fired: 16},
				{ID: 3, Fired: 8, State: &wfunc.State{Scalars: []float64{1.5, math.Copysign(0, -1)}, Arrays: [][]float64{{2, 3}, {4}}}},
			},
			Edges: []exec.ShardEdgeState{{ID: 1, Items: []float64{0.25, -4}}, {ID: 5, Items: []float64{1e-300}}},
		}, Sinks: []sinkChunk{{Node: 7, Items: []float64{1, 2, 3}}}},
			func(p []byte) (any, error) { return decodeBarrier(p) }},
		{"batch", &batchMsg{Edge: 12, Seq: 900, Items: []float64{1, 2, 3.5}},
			func(p []byte) (any, error) { return decodeBatch(p) }},
		{"linkhello", &linkHelloMsg{From: 4, Gen: 9},
			func(p []byte) (any, error) { return decodeLinkHello(p) }},
		{"beat", &beatMsg{WaitingOn: []uint32{0, 3}},
			func(p []byte) (any, error) { return decodeBeat(p) }},
		{"gen", &genMsg{Gen: 5, Iters: 16},
			func(p []byte) (any, error) { return decodeGen(p) }},
		{"text", &textMsg{Code: 0xfeed, Text: "shard 2 heartbeat lost"},
			func(p []byte) (any, error) { return decodeText(p) }},
	}
}

// TestPayloadGolden pins every STRW payload layout: today's encoders must
// reproduce the committed bytes exactly (a shard and a coordinator from
// different builds must agree), and the committed bytes must decode back to
// the message. The file holds one "name hex" line per message type.
// Regenerate (only on an intentional protocol change, with protoVersion
// bumped) with STREAMIT_UPDATE_GOLDEN=1 go test ./internal/dist -run PayloadGolden.
func TestPayloadGolden(t *testing.T) {
	path := filepath.Join("testdata", "payloads.golden")
	if os.Getenv("STREAMIT_UPDATE_GOLDEN") != "" {
		var out strings.Builder
		for _, g := range goldenPayloads() {
			fmt.Fprintf(&out, "%s %s\n", g.name, hex.EncodeToString(g.msg.encode()))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden payloads (regenerate with STREAMIT_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hx, _ := strings.Cut(line, " ")
		if want[name], err = hex.DecodeString(hx); err != nil {
			t.Fatalf("golden line %q: %v", name, err)
		}
	}
	payloads := goldenPayloads()
	if len(want) != len(payloads) {
		t.Fatalf("golden file has %d payloads, the protocol has %d", len(want), len(payloads))
	}
	for _, g := range payloads {
		if got := g.msg.encode(); !bytes.Equal(got, want[g.name]) {
			t.Errorf("%s payload drifted from the golden bytes:\n got %x\nwant %x", g.name, got, want[g.name])
		}
		back, err := g.decode(want[g.name])
		if err != nil {
			t.Errorf("golden %s payload does not decode: %v", g.name, err)
		} else if !reflect.DeepEqual(back, g.msg) {
			t.Errorf("golden %s payload decoded to %+v, want %+v", g.name, back, g.msg)
		}
	}
}
