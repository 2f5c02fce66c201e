package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"streamit/internal/exec"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

// decodeFrame runs the socket decoder, readFrame, over the bytes of b and
// also reports how many of them it consumed.
func decodeFrame(b []byte) (msgType, []byte, int, error) {
	src := bytes.NewReader(b)
	r := bufio.NewReader(src)
	typ, payload, err := readFrame(r)
	return typ, payload, len(b) - src.Len() - r.Buffered(), err
}

// allocatedBy reports the bytes f allocated (and whatever any other live
// goroutine did meanwhile; the bounds below leave room for that).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameHostileLengthAllocatesLittle: a header may declare up to
// MaxFrame, but the decoder must pay for bytes that arrive, not bytes that
// are promised — nine hostile bytes used to cost 64 MiB.
func TestReadFrameHostileLengthAllocatesLittle(t *testing.T) {
	hdr := EncodeFrame(mtBarrier, nil)[:frameHdrLen]
	binary.LittleEndian.PutUint32(hdr[5:], MaxFrame)
	for _, sent := range []int{0, 1, 100 << 10} {
		b := append(append([]byte(nil), hdr...), make([]byte, sent)...)
		var err error
		got := allocatedBy(func() { _, _, _, err = decodeFrame(b) })
		if err == nil {
			t.Fatalf("%d of %d declared bytes sent: truncated frame decoded", sent, MaxFrame)
		}
		if got > 1<<20 {
			t.Errorf("%d of %d declared bytes sent: decoder allocated %d bytes, want at most 1 MiB", sent, MaxFrame, got)
		}
	}
	// A frame longer than one chunk still round-trips through the growth
	// steps.
	payload := bytes.Repeat([]byte{0xa5, 0x5a, 7}, frameChunk)
	typ, p, n, err := decodeFrame(EncodeFrame(mtAssign, payload))
	if err != nil || typ != mtAssign || !bytes.Equal(p, payload) || n != frameHdrLen+len(payload)+4 {
		t.Fatalf("multi-chunk frame: type %v, %d payload bytes, consumed %d, err %v", typ, len(p), n, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox")
	b := EncodeFrame(mtBarrier, payload)
	// A second frame behind the first must be left unread.
	typ, got, n, err := decodeFrame(append(b, EncodeFrame(mtRun, nil)...))
	if err != nil {
		t.Fatal(err)
	}
	if typ != mtBarrier || !bytes.Equal(got, payload) || n != len(b) {
		t.Fatalf("round trip: type %v payload %q consumed %d", typ, got, n)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	b := EncodeFrame(mtRun, []byte{1, 2, 3, 4})

	// Truncation at every length short of a full frame.
	for n := 0; n < len(b); n++ {
		if _, _, _, err := decodeFrame(b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(b))
		}
	}
	// A flipped bit anywhere breaks either the magic, the length bound, or
	// the CRC.
	for i := 0; i < len(b); i++ {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, _, _, err := decodeFrame(c); err == nil {
			t.Fatalf("bit flip at byte %d decoded", i)
		}
	}
	// An oversized length prefix is rejected before allocation: the error
	// must be the cap error even though the declared payload is absent.
	huge := EncodeFrame(mtRun, nil)
	binary.LittleEndian.PutUint32(huge[5:], MaxFrame+1)
	if _, _, _, err := decodeFrame(huge); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized prefix: %v", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	hello := &helloMsg{Proto: protoVersion, Name: "shard-a", DataAddr: "127.0.0.1:9999"}
	h2, err := decodeHello(hello.encode())
	if err != nil || !reflect.DeepEqual(hello, h2) {
		t.Fatalf("hello: %v %+v", err, h2)
	}

	job := &jobMsg{ShardID: 2, App: "FMRadio", Top: "Main", Strategy: "task+data",
		Backend: 1, Shards: 3, PerShard: 2, Epoch: 4, QueueDepth: 2, TapSinks: true,
		Faults: "crash:shard1@8", Fingerprint: 0xdeadbeefcafe}
	j2, err := decodeJob(job.encode())
	if err != nil || !reflect.DeepEqual(job, j2) {
		t.Fatalf("job: %v %+v", err, j2)
	}

	asg := &assignMsg{Gen: 3, StartIter: 42, LiveShards: []uint32{0, 2},
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Assign: []uint32{0, 1, 2, 3, 0},
		Image: []byte{9, 8, 7}}
	a2, err := decodeAssign(asg.encode())
	if err != nil || !reflect.DeepEqual(asg, a2) {
		t.Fatalf("assign: %v %+v", err, a2)
	}

	bar := &barrierMsg{Gen: 1, Iter: 8, State: &exec.ShardState{
		Iteration: 8,
		Nodes: []exec.ShardNodeState{
			{ID: 0, Fired: 16},
			{ID: 3, Fired: 8, State: &wfunc.State{Scalars: []float64{1.5}, Arrays: [][]float64{{2, 3}, nil}}},
		},
		Edges: []exec.ShardEdgeState{{ID: 1, Items: []float64{0.25, -4}}},
	}, Sinks: []sinkChunk{{Node: 7, Items: []float64{1, 2, 3}}}}
	b2, err := decodeBarrier(bar.encode())
	if err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// Empty float slices decode as empty-not-nil; normalize before compare.
	if b2.State.Nodes[1].State.Arrays[1] != nil && len(b2.State.Nodes[1].State.Arrays[1]) == 0 {
		b2.State.Nodes[1].State.Arrays[1] = nil
	}
	if !reflect.DeepEqual(bar, b2) {
		t.Fatalf("barrier round trip:\n got %+v\nwant %+v", b2, bar)
	}

	batch := &batchMsg{Edge: 12, Seq: 900, Items: []float64{1, 2, 3.5}}
	bt2, err := decodeBatch(batch.encode())
	if err != nil || !reflect.DeepEqual(batch, bt2) {
		t.Fatalf("batch: %v %+v", err, bt2)
	}

	lh := &linkHelloMsg{From: 4, Gen: 9}
	lh2, err := decodeLinkHello(lh.encode())
	if err != nil || !reflect.DeepEqual(lh, lh2) {
		t.Fatalf("linkhello: %v %+v", err, lh2)
	}

	hb := &beatMsg{WaitingOn: []uint32{0, 3}}
	hb2, err := decodeBeat(hb.encode())
	if err != nil || !reflect.DeepEqual(hb, hb2) {
		t.Fatalf("beat: %v %+v", err, hb2)
	}
	if hb2, err = decodeBeat((&beatMsg{}).encode()); err != nil || hb2.WaitingOn != nil {
		t.Fatalf("empty beat: %v %+v", err, hb2)
	}

	gm := &genMsg{Gen: 5, Iters: 16}
	gm2, err := decodeGen(gm.encode())
	if err != nil || !reflect.DeepEqual(gm, gm2) {
		t.Fatalf("gen: %v %+v", err, gm2)
	}

	tm := &textMsg{Code: 0xfeed, Text: "shard 2 heartbeat lost"}
	tm2, err := decodeText(tm.encode())
	if err != nil || !reflect.DeepEqual(tm, tm2) {
		t.Fatalf("text: %v %+v", err, tm2)
	}
}

func TestMessageDecodersRejectTruncation(t *testing.T) {
	bar := &barrierMsg{Gen: 1, Iter: 8, State: &exec.ShardState{
		Nodes: []exec.ShardNodeState{{ID: 3, Fired: 8, State: &wfunc.State{Scalars: []float64{1.5}}}},
		Edges: []exec.ShardEdgeState{{ID: 1, Items: []float64{0.25}}},
	}}
	p := bar.encode()
	for n := 0; n < len(p); n++ {
		if _, err := decodeBarrier(p[:n]); err == nil {
			t.Fatalf("barrier truncated to %d of %d bytes decoded", n, len(p))
		}
	}
	if _, err := decodeBarrier(append(p, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A hostile count cannot drive allocation: declare 2^32-1 floats in a
	// tiny payload.
	var b wire.Writer
	b.U32(2)
	b.U64(7)
	b.U32(0xffffffff)
	if _, err := decodeBatch(b); err == nil {
		t.Fatal("hostile float count accepted")
	}
}

// FuzzWireFrame drives the socket frame decoder (readFrame) and every
// payload decoder with arbitrary bytes: no panic, no huge allocation (the
// length cap precedes allocation and the buffer grows with the bytes
// received), and every frame EncodeFrame produces must round-trip.
func FuzzWireFrame(f *testing.F) {
	f.Add(EncodeFrame(mtHeartbeat, (&beatMsg{WaitingOn: []uint32{1}}).encode()))
	f.Add(EncodeFrame(mtBatch, (&batchMsg{Edge: 1, Seq: 2, Items: []float64{3}}).encode()))
	f.Add(EncodeFrame(mtBarrier, (&barrierMsg{State: &exec.ShardState{}}).encode()))
	f.Add(EncodeFrame(mtJob, (&jobMsg{App: "DCT"}).encode()))
	f.Add(EncodeFrame(mtAssign, (&assignMsg{Assign: []uint32{0}}).encode()))
	f.Add([]byte("not a frame at all"))
	hostile := EncodeFrame(mtBarrier, nil)
	binary.LittleEndian.PutUint32(hostile[5:], MaxFrame)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= frameHdrLen && binary.LittleEndian.Uint32(data[5:]) > uint32(len(data)) {
			// A header that declares more than the input delivers: the
			// decoder pays for received bytes, not promised ones. (Only
			// these inputs are measured; reading the allocator's counters
			// on every input would cost two thirds of the throughput.)
			if got := allocatedBy(func() { decodeFrame(data) }); got > 1<<20+4*uint64(len(data)) {
				t.Fatalf("decoding %d bytes allocated %d", len(data), got)
			}
		}
		typ, payload, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Whatever decodes must re-encode to an identical frame.
		re := EncodeFrame(typ, payload)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs: %x vs %x", re, data[:n])
		}
		// Payload decoders must be total: error or success, never panic.
		_ = decodeAny(typ, payload)
	})
}
