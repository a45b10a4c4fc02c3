package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"swiftsim/internal/config"
	"swiftsim/internal/hwmodel"
	"swiftsim/internal/regress"
	"swiftsim/internal/sim"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// defaultSizing is the committed benchmark configuration.
func defaultSizing() sizing {
	return sizing{
		detailedApps:   []string{"BFS", "PAGERANK", "NW", "ADI", "GEMM", "HOTSPOT", "SM", "GRU"},
		detailedScales: []float64{0.95, 1.0, 1.05},
		detailedGPU:    "RTX2080Ti",
		detailedLimit:  5 * time.Second,
		shardThreads:   2,
		snapApp:        "HOTSPOT",

		sweepApps:   workload.Names(),
		sweepGPUs:   config.PresetNames(),
		sweepScales: []float64{0.1, 0.25, 0.5},
		sweepRate:   8,
		repeatEvery: 4,
		sweepLimit:  500 * time.Millisecond,
		drainWait:   60 * time.Second,
		probeCells:  6,
		probeScale:  0.42,

		setupReps:      3,
		sweepSetupReps: 15,
	}
}

// cellKey names one simulation a workload can draw.
type cellKey struct {
	Sim   string  `json:"sim"`
	App   string  `json:"app"`
	GPU   string  `json:"gpu"`
	Scale float64 `json:"scale"`
}

// pin is the expected outcome of one cell: the sha256 of its
// regress.Canonical rendering, its simulated cycles, and the hwmodel
// reference cycles its error is measured against.
type pin struct {
	cellKey
	Digest    string `json:"digest"`
	Cycles    uint64 `json:"cycles"`
	RefCycles uint64 `json:"ref_cycles"`
}

// oracle is the pinned output of every cell the seeds can draw.
type oracle struct {
	CanonicalVersion string `json:"canonical_version"`
	Cells            []pin  `json:"cells"`
	index            map[cellKey]*pin
}

func loadOracle(path string) (*oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading oracle: %w", err)
	}
	var o oracle
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("parsing oracle %s: %w", path, err)
	}
	if o.CanonicalVersion != regress.CanonicalVersion {
		return nil, fmt.Errorf("oracle %s pins %q, this code renders %q: re-pin", path, o.CanonicalVersion, regress.CanonicalVersion)
	}
	o.reindex()
	return &o, nil
}

func (o *oracle) reindex() {
	o.index = make(map[cellKey]*pin, len(o.Cells))
	for i := range o.Cells {
		o.index[o.Cells[i].cellKey] = &o.Cells[i]
	}
}

// lookup returns the pin of a cell; a cell outside the oracle is an error
// of the benchmark's configuration, not of the program.
func (o *oracle) lookup(k cellKey) (*pin, error) {
	p, ok := o.index[k]
	if !ok {
		return nil, fmt.Errorf("cell %+v is not pinned: re-pin with --pin", k)
	}
	return p, nil
}

func (o *oracle) save(path string) error {
	data, err := json.MarshalIndent(o, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// menuCells lists every cell the sizing lets a seed draw.
func menuCells(sz sizing) []cellKey {
	var cells []cellKey
	for _, app := range sz.detailedApps {
		for _, s := range sz.detailedScales {
			cells = append(cells, cellKey{Sim: sim.Detailed.String(), App: app, GPU: sz.detailedGPU, Scale: s})
		}
	}
	for _, g := range sz.sweepGPUs {
		for _, s := range sz.sweepScales {
			for _, app := range sz.sweepApps {
				cells = append(cells, cellKey{Sim: sim.Memory.String(), App: app, GPU: g, Scale: s})
			}
		}
	}
	return append(cells, probeMenu(sz)...)
}

// probeMenu lists the cells the sweep's traced-run probe can draw: every
// sweep app at the probe scale on the first sweep GPU.
func probeMenu(sz sizing) []cellKey {
	var cells []cellKey
	for _, app := range sz.sweepApps {
		cells = append(cells, cellKey{Sim: sim.Memory.String(), App: app, GPU: sz.sweepGPUs[0], Scale: sz.probeScale})
	}
	return cells
}

// pinOracle simulates every menu cell in-process (and its hwmodel
// reference) and records the results. It also refuses a menu in which two
// scales of one app generate the same trace: such a "fresh" sweep or probe
// cell would be a cache hit.
func pinOracle(sz sizing) (*oracle, error) {
	if err := checkDistinct(sz); err != nil {
		return nil, err
	}
	cells := menuCells(sz)
	pins := make([]pin, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				pins[i], errs[i] = pinCell(cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o := &oracle{CanonicalVersion: regress.CanonicalVersion, Cells: pins}
	sort.SliceStable(o.Cells, func(i, j int) bool { return o.Cells[i].Sim < o.Cells[j].Sim })
	o.reindex()
	return o, nil
}

func pinCell(k cellKey) (pin, error) {
	spec, ok := workload.ByName(k.App)
	if !ok {
		return pin{}, fmt.Errorf("unknown app %q", k.App)
	}
	gpu, ok := config.Preset(k.GPU)
	if !ok {
		return pin{}, fmt.Errorf("unknown GPU %q", k.GPU)
	}
	kind := sim.Detailed
	if k.Sim == sim.Memory.String() {
		kind = sim.Memory
	}
	app := spec.Generate(k.Scale)
	res, err := sim.Run(app, gpu, sim.Options{Kind: kind})
	if err != nil {
		return pin{}, fmt.Errorf("pinning %+v: %w", k, err)
	}
	ref, err := hwmodel.Run(app, gpu, hwmodel.DefaultParams())
	if err != nil {
		return pin{}, fmt.Errorf("pinning reference of %+v: %w", k, err)
	}
	return pin{cellKey: k, Digest: digest(regress.Canonical(res)), Cycles: res.Cycles, RefCycles: ref.Cycles}, nil
}

func checkDistinct(sz sizing) error {
	for _, app := range sz.sweepApps {
		spec, _ := workload.ByName(app)
		seen := make(map[[32]byte]float64)
		for _, s := range append([]float64{sz.probeScale}, sz.sweepScales...) {
			h := trace.ContentHash(spec.Generate(s))
			if prev, ok := seen[h]; ok {
				return fmt.Errorf("app %s generates the same trace at scales %g and %g", app, prev, s)
			}
			seen[h] = s
		}
	}
	return nil
}

// cycleErrPct is the absolute cycle error of a result against its
// reference, in percent.
func cycleErrPct(cycles uint64, p *pin) float64 {
	d := float64(cycles) - float64(p.RefCycles)
	if d < 0 {
		d = -d
	}
	return 100 * d / float64(p.RefCycles)
}
