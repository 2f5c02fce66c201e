package machine

import "fmt"

// link identifies one directional mesh link by its endpoints.
type link struct {
	fromX, fromY, toX, toY int
}

// sim holds the mutable state of one simulation run.
type sim struct {
	cfg      Config
	g        *WGraph
	m        *Mapping
	order    []*WNode
	inEdges  [][]*WEdge
	outEdges [][]*WEdge
	hook     func(TraceEvent)
	iter     int

	tileFree []int64
	linkFree map[link]int64
	portFree []int64
	busy     []int64

	// done[n] is the completion time of node n in the current iteration;
	// prevDone[n] in the previous iteration (for pipelined lag-1 deps).
	done, prevDone []int64
}

// Simulate executes iters steady-state iterations of g under mapping m and
// returns throughput and utilization metrics. Warmup iterations (pipeline
// fill) are excluded from the cycles-per-iteration measurement.
func Simulate(g *WGraph, m *Mapping, cfg Config, iters int) (*Result, error) {
	return simulateHooked(g, m, cfg, iters, nil)
}

func simulateHooked(g *WGraph, m *Mapping, cfg Config, iters int, hook func(TraceEvent)) (*Result, error) {
	if len(m.Tile) != len(g.Nodes) {
		return nil, fmt.Errorf("machine: mapping covers %d nodes, graph has %d", len(m.Tile), len(g.Nodes))
	}
	for n, t := range m.Tile {
		if t < 0 || t >= cfg.Tiles() {
			return nil, fmt.Errorf("machine: node %d mapped to invalid tile %d", n, t)
		}
	}
	if iters < 4 {
		iters = 4
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg: cfg, g: g, m: m, order: order, hook: hook,
		inEdges:  make([][]*WEdge, len(g.Nodes)),
		outEdges: make([][]*WEdge, len(g.Nodes)),
		tileFree: make([]int64, cfg.Tiles()),
		linkFree: map[link]int64{},
		portFree: make([]int64, cfg.DRAMPorts),
		busy:     make([]int64, cfg.Tiles()),
		done:     make([]int64, len(g.Nodes)),
		prevDone: make([]int64, len(g.Nodes)),
	}
	for _, e := range g.Edges {
		s.inEdges[e.Dst] = append(s.inEdges[e.Dst], e)
		s.outEdges[e.Src] = append(s.outEdges[e.Src], e)
	}

	warm := iters / 2
	var warmEnd, end int64
	for it := 0; it < iters; it++ {
		s.iter = it
		if m.Mode == ModeBarriered {
			end = s.runBarriered()
		} else {
			end = s.runPipelined()
		}
		if it == warm-1 {
			warmEnd = end
		}
	}
	measured := float64(end-warmEnd) / float64(iters-warm)
	var busyTotal int64
	for _, b := range s.busy {
		busyTotal += b
	}
	util := float64(busyTotal) / (float64(cfg.Tiles()) * float64(end))
	secondsPerIter := measured / (cfg.ClockMHz * 1e6)
	res := &Result{
		CyclesPerIter: measured,
		ItersPerSec:   1 / secondsPerIter,
		Utilization:   util,
		MFLOPS:        float64(g.TotalFlops()) / measured * cfg.ClockMHz,
		TileBusy:      s.busy,
		Elapsed:       end,
		Iters:         iters - warm,
	}
	return res, nil
}

func (s *sim) tileXY(t int) (int, int) { return t % s.cfg.Cols, t / s.cfg.Cols }

// record emits a trace event for one node execution interval.
func (s *sim) record(n *WNode, start, end int64) {
	if s.hook != nil {
		s.hook(TraceEvent{Node: n.Name, Tile: s.m.Tile[n.ID], Iter: s.iter, Start: start, End: end})
	}
}

// routeNoC reserves the XY route between two tiles for w words starting no
// earlier than ready, and returns the arrival time of the last word.
func (s *sim) routeNoC(from, to int, w int64, ready int64) int64 {
	if w == 0 {
		return ready
	}
	x1, y1 := s.tileXY(from)
	x2, y2 := s.tileXY(to)
	t := ready
	hop := func(ax, ay, bx, by int) {
		l := link{ax, ay, bx, by}
		start := t
		if s.linkFree[l] > start {
			start = s.linkFree[l]
		}
		s.linkFree[l] = start + w
		t = start + 1 // head-word latency; the stream is pipelined
	}
	for x1 != x2 {
		nx := x1 + sign(x2-x1)
		hop(x1, y1, nx, y1)
		x1 = nx
	}
	for y1 != y2 {
		ny := y1 + sign(y2-y1)
		hop(x1, y1, x1, ny)
		y1 = ny
	}
	// Arrival of the last word: head latency accumulated in t, plus the
	// stream length behind the head.
	return t + w - 1
}

// routeDRAM reserves a store-then-load through the nearest DRAM port and
// returns availability at the consumer.
func (s *sim) routeDRAM(from, to int, w int64, ready int64) int64 {
	if w == 0 {
		return ready
	}
	port := s.nearestPort(from)
	start := ready
	if s.portFree[port] > start {
		start = s.portFree[port]
	}
	s.portFree[port] = start + w // write stream
	t := start + w
	port2 := s.nearestPort(to)
	if s.portFree[port2] > t {
		t = s.portFree[port2]
	}
	s.portFree[port2] = t + w // read stream
	return t + w
}

func (s *sim) nearestPort(tile int) int {
	// Ports sit on the grid's north edge, one per port, spread across
	// columns; a tile uses the port nearest its column.
	x, _ := s.tileXY(tile)
	p := x * s.cfg.DRAMPorts / s.cfg.Cols
	if p >= s.cfg.DRAMPorts {
		p = s.cfg.DRAMPorts - 1
	}
	return p
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// commOverhead is the tile-side cost of moving a node's I/O.
func (s *sim) commOverhead(n *WNode) int64 {
	var words int64
	for _, e := range s.inEdges[n.ID] {
		if s.m.Tile[e.Src] != s.m.Tile[n.ID] {
			words += e.Items * s.wordCostRecv()
		} else {
			words += e.Items * s.cfg.LocalCost
		}
	}
	for _, e := range s.outEdges[n.ID] {
		if s.m.Tile[e.Dst] != s.m.Tile[n.ID] {
			words += e.Items * s.wordCostSend()
		} else {
			words += e.Items * s.cfg.LocalCost
		}
	}
	return words
}

func (s *sim) wordCostSend() int64 {
	if s.m.Comm == CommDRAM {
		return s.cfg.DRAMCost
	}
	return s.cfg.SendCost
}

func (s *sim) wordCostRecv() int64 {
	if s.m.Comm == CommDRAM {
		return s.cfg.DRAMCost
	}
	return s.cfg.RecvCost
}

// transfer reserves the communication path for edge e whose data became
// available at avail, returning arrival time at the consumer tile.
func (s *sim) transfer(e *WEdge, avail int64) int64 {
	ft, tt := s.m.Tile[e.Src], s.m.Tile[e.Dst]
	if ft == tt {
		return avail
	}
	if s.m.Comm == CommDRAM {
		return s.routeDRAM(ft, tt, e.Items, avail)
	}
	return s.routeNoC(ft, tt, e.Items, avail)
}

// runBarriered executes one steady iteration stage by stage with global
// barriers (fork/join task- and data-parallel models). Returns the
// iteration completion time.
func (s *sim) runBarriered() int64 {
	maxStage := 0
	for _, st := range s.m.Stage {
		if st > maxStage {
			maxStage = st
		}
	}
	base := int64(0)
	for _, f := range s.tileFree {
		if f > base {
			base = f
		}
	}
	for st := 0; st <= maxStage; st++ {
		stageEnd := base
		for _, n := range s.order {
			if s.m.Stage[n.ID] != st {
				continue
			}
			tile := s.m.Tile[n.ID]
			start := base
			if s.tileFree[tile] > start {
				start = s.tileFree[tile]
			}
			for _, e := range s.inEdges[n.ID] {
				arr := s.transfer(e, s.done[e.Src])
				if arr > start {
					start = arr
				}
			}
			cost := n.Work + s.commOverhead(n)
			s.done[n.ID] = start + cost
			s.record(n, start, s.done[n.ID])
			s.tileFree[tile] = s.done[n.ID]
			s.busy[tile] += n.Work
			if s.done[n.ID] > stageEnd {
				stageEnd = s.done[n.ID]
			}
		}
		base = stageEnd + s.cfg.BarrierCost
		for t := range s.tileFree {
			if s.tileFree[t] < base {
				s.tileFree[t] = base
			}
		}
	}
	return base
}

// runPipelined executes one steady iteration with producer/consumer
// decoupling across iterations: node n at iteration t consumes the data its
// cross-tile producers made available at iteration t-1 (double buffering),
// so after the pipeline fills, throughput is set by the bottleneck tile or
// wire. Returns the iteration completion time.
func (s *sim) runPipelined() int64 {
	copy(s.prevDone, s.done)
	var end int64
	for _, n := range s.order {
		tile := s.m.Tile[n.ID]
		start := s.tileFree[tile]
		for _, e := range s.inEdges[n.ID] {
			var avail int64
			if s.m.Tile[e.Src] == tile {
				avail = s.done[e.Src] // same tile: produced this iteration
			} else {
				avail = s.transfer(e, s.prevDone[e.Src])
			}
			if avail > start {
				start = avail
			}
		}
		cost := n.Work + s.commOverhead(n)
		s.done[n.ID] = start + cost
		s.record(n, start, s.done[n.ID])
		s.tileFree[tile] = s.done[n.ID]
		s.busy[tile] += n.Work
		if s.done[n.ID] > end {
			end = s.done[n.ID]
		}
	}
	return end
}
