package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFilterStatsCounters(t *testing.T) {
	p := NewProfiler([]string{"src", "fir", "sink"})
	st := p.At(1)
	if st.name != "fir" {
		t.Fatalf("At(1) is %q's, want fir's", st.name)
	}
	st.AddFiring()
	st.AddFiring()
	st.AddPushes(1)
	st.AddPushes(3)
	st.AddPops(1)
	st.AddPops(5)
	st.AddPeeks(1)
	st.AddWork(10 * time.Microsecond)
	st.AddStall(2 * time.Microsecond)

	fp := p.Snapshot()[0]
	want := FilterProfile{Name: "fir", Firings: 2, Pushed: 4, Popped: 6,
		Peeked: 1, WorkNS: 10000, StallNS: 2000}
	if fp != want {
		t.Errorf("profile = %+v, want %+v", fp, want)
	}
}

func TestNoteOccupancyIsMonotonic(t *testing.T) {
	var st FilterStats
	for _, n := range []int64{3, 7, 5, 7, 2} {
		st.NoteOccupancy(n)
	}
	if got := st.tapeHWM.Load(); got != 7 {
		t.Errorf("tape HWM = %d, want 7", got)
	}
}

func TestFilterStatsConcurrent(t *testing.T) {
	var st FilterStats
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.AddFiring()
				st.AddPushes(1)
				st.NoteOccupancy(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := st.firings.Load(); got != workers*per {
		t.Errorf("firings = %d, want %d", got, workers*per)
	}
	if got := st.tapeHWM.Load(); got != workers*per-1 {
		t.Errorf("tape HWM = %d, want %d", got, workers*per-1)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	p := NewProfiler([]string{"zeta", "alpha", "mid"})
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestTableOmitsIdleNodes(t *testing.T) {
	p := NewProfiler([]string{"idle", "busy"})
	st := p.At(1)
	st.AddFiring()
	st.AddPushes(1)
	st.AddWork(time.Millisecond)
	tab := p.Table()
	if !strings.Contains(tab, "busy") {
		t.Errorf("table missing fired node:\n%s", tab)
	}
	if strings.Contains(tab, "idle") {
		t.Errorf("table contains never-fired node:\n%s", tab)
	}
	if !strings.Contains(tab, "firings") {
		t.Errorf("table missing header:\n%s", tab)
	}
}
