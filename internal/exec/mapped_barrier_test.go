package exec

import (
	"bytes"
	"fmt"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/partition"
)

// TestBarrierRecordRoundTrip: a barrier record holds the whole barrier.
// Every suite app runs under task, task+data and task+swp with a
// checkpoint every iteration; at each barrier of the segment, prologue and
// epilogue included (the skewed plan's mid-segment barriers, with staging
// residue, among them), the test takes a record, runs one more epoch and
// installs the record: WriteCheckpoint then writes exactly the bytes it
// wrote at that barrier.
func TestBarrierRecordRoundTrip(t *testing.T) {
	const n = 4
	for _, app := range apps.Suite() {
		for _, strat := range []partition.Strategy{partition.StratTask, partition.StratCoarseData, partition.StratSWP} {
			app, strat := app, strat
			t.Run(fmt.Sprintf("%s/%s", app.Name, strat), func(t *testing.T) {
				t.Parallel()
				me := buildMapped(t, app.Build, strat).engine(t, Options{CheckpointEvery: 1})
				if err := me.setup(); err != nil {
					t.Fatal(err)
				}
				sw := me.swp
				sw.segIters = n
				end := sw.segIters + sw.maxStage()
				residue := 0
				for at := int64(0); at < end; at++ {
					want := mappedCkptBytes(t, me, at)
					if stagingResidue(me) > 0 {
						residue++
					}
					var r barrier
					me.take(&r)
					if err := me.driveTo(at + 1); err != nil {
						t.Fatal(err)
					}
					me.install(&r)
					if got := mappedCkptBytes(t, me, at); !bytes.Equal(got, want) {
						t.Fatalf("cycle %d: the installed record writes another image than the barrier did", at)
					}
					if err := me.driveTo(at + 1); err != nil {
						t.Fatal(err)
					}
				}
				if strat == partition.StratSWP && sw.maxStage() > 0 && residue == 0 {
					t.Errorf("no mid-segment barrier held staging residue")
				}
			})
		}
	}
}
