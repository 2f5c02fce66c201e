package dist

import (
	"bufio"
	"net"
	"testing"
	"time"

	"streamit/internal/exec"
	"streamit/internal/ir"
	"streamit/internal/partition"
)

// pipeShard is shard 1 of a two-shard FMRadio job, two workers a shard,
// built as handleAssign builds a generation, but with its data connection
// to shard 0 on an in-memory pipe whose far end the test plays, and its
// control connection on another whose far end records every frame type
// the shard sends the coordinator.
type pipeShard struct {
	sh     *shard
	g      *generation
	jp     *jobPlan
	peer   net.Conn       // shard 0's end of the data connection
	fed    []*ir.Edge     // boundary in-edges, producers in topological order
	unfed  int            // an edge shard 0 does not feed shard 1
	drains chan struct{}  // closed once nothing more is read off peer
	ctrl   net.Conn       // the shard's end of the control connection
	coord  net.Conn       // the coordinator's end
	frames chan []msgType // every frame type sent on ctrl, once it closes
}

func newPipeShard(t *testing.T) *pipeShard {
	t.Helper()
	prog, err := buildProgram(Spec{App: "FMRadio"}, SuiteRegistry())
	if err != nil {
		t.Fatal(err)
	}
	jp, err := buildJobPlan(prog, partition.StratCoarseData, 4)
	if err != nil {
		t.Fatal(err)
	}
	const perShard = 2
	assign, err := jp.plan.Pack(jp.g2, jp.s2, partition.Topology{Shards: 2, PerShard: perShard})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.NewMappedOpts(jp.g2, jp.s2, assign, 4, exec.Options{
		Watchdog: -1, LocalWorkers: []bool{false, false, true, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Prepare(); err != nil {
		t.Fatal(err)
	}
	links := newLinkSet(eng, jp.g2, assign, perShard, 1, 1, time.Second)
	ps := &pipeShard{jp: jp, frames: make(chan []msgType, 1), drains: make(chan struct{}), unfed: -1}
	topo, _ := jp.g2.TopoOrder()
	for _, n := range topo {
		for _, e := range n.Out {
			switch {
			case e == nil:
			case assign[e.Src.ID]/perShard == 0 && assign[e.Dst.ID]/perShard == 1:
				ps.fed = append(ps.fed, e)
			case ps.unfed < 0:
				ps.unfed = e.ID
			}
		}
	}
	if len(ps.fed) == 0 || ps.unfed < 0 {
		t.Fatalf("the plan has %d edges from shard 0 into shard 1 and no other: nothing to test", len(ps.fed))
	}
	data, peer := net.Pipe()
	pl := links.peers[0]
	pl.conn, pl.r = data, bufio.NewReader(data)
	ps.peer = peer
	go func() {
		defer close(ps.drains)
		r := bufio.NewReader(peer)
		for {
			if _, _, err := readFrame(r); err != nil {
				return
			}
		}
	}()
	ps.ctrl, ps.coord = net.Pipe()
	go func() {
		var got []msgType
		r := bufio.NewReader(ps.coord)
		for {
			typ, _, err := readFrame(r)
			if err != nil {
				ps.frames <- got
				return
			}
			got = append(got, typ)
		}
	}()
	ps.sh = &shard{opts: testShardOptions("w1"), fc: newFConn(ps.ctrl, time.Second),
		job: &jobMsg{ShardID: 1, Shards: 2, PerShard: perShard}, epochDone: make(chan error, 1)}
	ps.g = &generation{gen: 1, live: []uint32{0, 1}, myIdx: 1, eng: eng, links: links}
	ps.sh.curMu.Store(ps.g)
	links.start()
	t.Cleanup(func() {
		links.teardown()
		ps.peer.Close()
		ps.coord.Close()
		<-ps.drains
	})
	return ps
}

// blocked waits until a local node blocks on a node of shard 0.
func (ps *pipeShard) blocked(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(ps.g.eng.WaitingOn()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no local node ever blocked on shard 0")
		}
	}
}

// sent closes the control connection and returns the frame types the shard
// sent on it.
func (ps *pipeShard) sent() []msgType {
	ps.ctrl.Close()
	return <-ps.frames
}

// TestLinkReaderRejectsBadBatches: a batch for an edge the peer does not
// feed, and a batch out of its edge's sequence, each fail the link set and
// unwind the consumer blocked waiting for the peer.
func TestLinkReaderRejectsBadBatches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch func(ps *pipeShard) *batchMsg
	}{
		{"unfed edge", func(ps *pipeShard) *batchMsg { return &batchMsg{Edge: uint32(ps.unfed)} }},
		{"out of sequence", func(ps *pipeShard) *batchMsg { return &batchMsg{Edge: uint32(ps.fed[0].ID), Seq: 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := newPipeShard(t)
			done := make(chan error, 1)
			go func() { done <- ps.g.eng.StepEpoch(1) }()
			ps.blocked(t)
			if err := writeFrame(ps.peer, mtBatch, tc.batch(ps).encode()); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("the epoch completed without its input")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the blocked consumer did not unwind")
			}
			if ps.g.links.failure() == nil {
				t.Fatal("the link set recorded no failure")
			}
		})
	}
}

// TestTornEpochReportsNoBarrier: shard 0's data connection resets during
// an epoch — while the engine waits for it, or after the engine returned
// but before the serve loop took the result — and the shard sends the
// coordinator no barrier for that generation.
func TestTornEpochReportsNoBarrier(t *testing.T) {
	for _, engineDone := range []bool{false, true} {
		name := map[bool]string{false: "engine waiting", true: "engine returned"}[engineDone]
		t.Run(name, func(t *testing.T) {
			ps := newPipeShard(t)
			if err := ps.sh.handleRun((&genMsg{Gen: ps.g.gen, Iters: 1}).encode()); err != nil {
				t.Fatal(err)
			}
			var err error
			if engineDone {
				// Play shard 0 for one iteration: one batch per fed edge.
				for _, e := range ps.fed {
					k := ps.jp.s2.Reps[e.Src.ID] * e.Src.PushPort(e.SrcPort)
					if werr := writeFrame(ps.peer, mtBatch, (&batchMsg{Edge: uint32(e.ID), Items: make([]float64, k)}).encode()); werr != nil {
						t.Fatal(werr)
					}
				}
				if err = <-ps.sh.epochDone; err != nil {
					t.Fatalf("the fed epoch failed: %v", err)
				}
				ps.peer.Close()
				for deadline := time.Now().Add(10 * time.Second); !ps.g.links.torn(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the reset never tore the link set down")
					}
				}
			} else {
				ps.blocked(t)
				ps.peer.Close()
				err = <-ps.sh.epochDone
			}
			if ferr := ps.sh.finishEpoch(err); ferr != nil {
				t.Fatal(ferr)
			}
			for _, typ := range ps.sent() {
				if typ == mtBarrier {
					t.Fatal("the shard reported a barrier for a torn-down epoch")
				}
			}
		})
	}
}
