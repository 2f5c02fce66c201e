package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"streamit/internal/machine"
	"streamit/internal/partition"
)

// The ablation experiments go beyond the paper's figures: they vary the
// design parameters DESIGN.md calls out (tile count, synchronization cost,
// communication substrate) to show which conclusions are robust and which
// are artifacts of one machine point.

// ScalingRow reports geometric-mean speedup over single core at one
// machine size.
type ScalingRow struct {
	Tiles    int
	Task     float64
	TaskData float64
	Combined float64
}

// Scaling sweeps the tile count (grids of 1xN/4xN) and reports geomean
// speedups of the three headline strategies — the scalability curve of the
// combined technique.
func Scaling(tileCounts []int) ([]ScalingRow, error) {
	ps, err := suite()
	if err != nil {
		return nil, err
	}
	var out []ScalingRow
	for _, tiles := range tileCounts {
		cfg := machine.DefaultConfig()
		switch {
		case tiles < 4:
			cfg.Rows, cfg.Cols = 1, tiles
		default:
			cfg.Rows, cfg.Cols = tiles/4, 4
		}
		if cfg.Rows*cfg.Cols != tiles {
			return nil, fmt.Errorf("tile count %d does not fit a 4-wide grid", tiles)
		}
		row := ScalingRow{Tiles: tiles}
		if row.Task, err = geoSpeedup(ps, partition.StratTask, cfg); err != nil {
			return nil, err
		}
		if row.TaskData, err = geoSpeedup(ps, partition.StratCoarseData, cfg); err != nil {
			return nil, err
		}
		if row.Combined, err = geoSpeedup(ps, partition.StratCombined, cfg); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// geoSpeedup is the suite's geometric-mean speedup of strat over the single
// core on the machine cfg describes.
func geoSpeedup(ps []*prepared, strat partition.Strategy, cfg machine.Config) (float64, error) {
	var sp []float64
	for _, p := range ps {
		seq, err := p.simulate(partition.StratSequential, cfg)
		if err != nil {
			return 0, err
		}
		res, err := p.simulate(strat, cfg)
		if err != nil {
			return 0, err
		}
		sp = append(sp, res.Speedup(seq))
	}
	return GeoMean(sp), nil
}

// PrintScaling renders the scaling ablation.
func PrintScaling(w io.Writer) error {
	rows, err := Scaling([]int{2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: geometric-mean speedup vs tile count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tiles\ttask\ttask+data\ttask+data+swp")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2fx\t%.2fx\t%.2fx\n", r.Tiles, r.Task, r.TaskData, r.Combined)
	}
	return tw.Flush()
}

// CommRow reports one machine-parameter variant.
type CommRow struct {
	Name     string
	TaskData float64
	Combined float64
}

// CommAblation varies synchronization and communication costs to show how
// the combined technique's margin over plain data parallelism depends on
// them (the paper's +45% is a synchronization-cost story).
func CommAblation() ([]CommRow, error) {
	ps, err := suite()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  machine.Config
	}{
		{"baseline", machine.DefaultConfig()},
		{"free barriers", func() machine.Config { c := machine.DefaultConfig(); c.BarrierCost = 0; return c }()},
		{"expensive barriers (8x)", func() machine.Config { c := machine.DefaultConfig(); c.BarrierCost *= 8; return c }()},
		{"slow DRAM (4x)", func() machine.Config { c := machine.DefaultConfig(); c.DRAMCost *= 4; return c }()},
		{"2 DRAM ports", func() machine.Config { c := machine.DefaultConfig(); c.DRAMPorts = 2; return c }()},
	}
	var out []CommRow
	for _, v := range variants {
		row := CommRow{Name: v.name}
		if row.TaskData, err = geoSpeedup(ps, partition.StratCoarseData, v.cfg); err != nil {
			return nil, err
		}
		if row.Combined, err = geoSpeedup(ps, partition.StratCombined, v.cfg); err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintCommAblation renders the communication-cost ablation.
func PrintCommAblation(w io.Writer) error {
	rows, err := CommAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: synchronization/communication cost sensitivity (geomeans, 16 tiles)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Machine variant\ttask+data\ttask+data+swp\tSWP margin")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%+.0f%%\n", r.Name, r.TaskData, r.Combined, (r.Combined/r.TaskData-1)*100)
	}
	return tw.Flush()
}
