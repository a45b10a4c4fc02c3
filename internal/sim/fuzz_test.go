package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// fuzzSeedSnapshot produces one real checkpoint to seed the corpus: a tiny
// Memory-kind run snapshotted at its first kernel boundary.
func fuzzSeedSnapshot(f *testing.F) []byte {
	f.Helper()
	gpu, ok := config.Preset("RTX2080Ti")
	if !ok {
		f.Fatal("missing RTX2080Ti preset")
	}
	app, err := workload.Generate("GEMM", 0.25)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Run(app, gpu, Options{Kind: Memory, SnapshotTo: &buf}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseSnapshot drives the checkpoint decoder with arbitrary bytes: it
// must return a structured error or nil, never panic, and never allocate
// proportionally to an attacker-controlled count field. The seed corpus
// covers the interesting prefixes: a real checkpoint, truncations at every
// framing layer, a corrupt magic, and a version from the future.
func FuzzParseSnapshot(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("SSIM"))
	f.Add(valid[:4+4])                           // header only
	f.Add(valid[:len(valid)/2])                  // mid-stream truncation
	f.Add(valid[:len(valid)-1])                  // last byte missing
	f.Add(append(append([]byte{}, valid...), 0)) // trailing garbage

	// Corrupt magic.
	bad := append([]byte{}, valid...)
	bad[0] ^= 0xff
	f.Add(bad)

	// Version skew: bump the format version after the magic.
	skew := append([]byte{}, valid...)
	skew[4] ^= 0xff
	f.Add(skew)

	// Absurd count fields right after the identity section (header plus
	// the 32-byte identity digest).
	huge := append([]byte{}, valid[:8+32]...)
	for i := 0; i < 8; i++ {
		huge = append(huge, 0xff)
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are the expected outcome for junk.
		_ = ParseSnapshot(data)
	})
}

// TestParseSnapshotErrors pins the decoder's structured-error contract on
// the corpus the fuzzer starts from.
func TestParseSnapshotErrors(t *testing.T) {
	valid := fuzzSeedSnapshotT(t)
	if err := ParseSnapshot(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	bad := append([]byte{}, valid...)
	bad[0] ^= 0xff
	if err := ParseSnapshot(bad); err == nil {
		t.Error("corrupt magic accepted")
	}

	skew := append([]byte{}, valid...)
	skew[4] ^= 0xff
	if err := ParseSnapshot(skew); err == nil {
		t.Error("version skew accepted")
	}

	for _, cut := range []int{0, 4, 8, 16, len(valid) / 2, len(valid) - 1} {
		if err := ParseSnapshot(valid[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	long := append(append([]byte{}, valid...), 0xAA)
	if err := ParseSnapshot(long); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func fuzzSeedSnapshotT(t *testing.T) []byte {
	t.Helper()
	gpu, ok := config.Preset("RTX2080Ti")
	if !ok {
		t.Fatal("missing RTX2080Ti preset")
	}
	app, err := workload.Generate("GEMM", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Run(app, gpu, Options{Kind: Memory, SnapshotTo: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gpuMutation is one GPU configuration differing from a base in a single
// leaf field.
type gpuMutation struct {
	field string
	gpu   config.GPU
}

// gpuLeafMutations walks every leaf field of config.GPU by reflection and
// returns one copy of gpu per leaf with that field changed: ints double (0
// becomes 1, which keeps the power-of-two fields powers of two), bools
// flip, and strings swap between "ring" and "crossbar" (valid for both the
// name and the NoC topology). A field added to config.GPU is covered
// without touching this test.
func gpuLeafMutations(t *testing.T, gpu config.GPU) []gpuMutation {
	t.Helper()
	var out []gpuMutation
	var walk func(path string, idx []int, typ reflect.Type)
	walk = func(path string, idx []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fidx := append(append([]int(nil), idx...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(path+f.Name+".", fidx, f.Type)
				continue
			}
			g := gpu
			v := reflect.ValueOf(&g).Elem().FieldByIndex(fidx)
			switch v.Kind() {
			case reflect.Int:
				v.SetInt(max(2*v.Int(), 1))
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				if v.String() == "ring" {
					v.SetString("crossbar")
				} else {
					v.SetString("ring")
				}
			default:
				t.Fatalf("config.GPU field %s%s has kind %v: teach gpuLeafMutations to mutate it", path, f.Name, v.Kind())
			}
			out = append(out, gpuMutation{path + f.Name, g})
		}
	}
	walk("", nil, reflect.TypeOf(gpu))
	return out
}

// TestRestoreRejectsMismatch pins the run identity: a checkpoint must
// refuse, with ErrSnapshotMismatch rather than a plausible wrong number,
// to restore into any run whose Identity differs — every leaf of the GPU
// configuration, every result-affecting option, an engaged epoch length,
// and the trace content — and must restore into runs that differ only in
// result-neutral settings.
func TestRestoreRejectsMismatch(t *testing.T) {
	gpu, _ := config.Preset("RTX2080Ti")
	other, _ := config.Preset("RTX3060")
	app, err := workload.Generate("GEMM", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Same name and kernel count, different content.
	gemm30, err := workload.Generate("GEMM", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if gemm30.Name != app.Name || len(gemm30.Kernels) != len(app.Kernels) {
		t.Fatalf("GEMM at scale 0.3 is %s with %d kernels; want %s with %d", gemm30.Name, len(gemm30.Kernels), app.Name, len(app.Kernels))
	}
	l2x3 := gpu
	l2x3.L2.HitLatency *= 3

	type run struct {
		label string
		app   *trace.App
		gpu   config.GPU
		opts  Options
	}
	checkpoint := func(r run) []byte {
		t.Helper()
		var buf bytes.Buffer
		r.opts.SnapshotTo = &buf
		if _, err := Run(r.app, r.gpu, r.opts); err != nil {
			t.Fatalf("%s: checkpoint: %v", r.label, err)
		}
		return buf.Bytes()
	}
	restore := func(r run, snapBytes []byte) error {
		r.opts.RestoreFrom = bytes.NewReader(snapBytes)
		_, err := Run(r.app, r.gpu, r.opts)
		return err
	}
	mustMismatch := func(base, r run, snapBytes []byte) {
		t.Helper()
		if Identity(r.app, r.gpu, r.opts) == Identity(base.app, base.gpu, base.opts) {
			t.Errorf("%s: Identity unchanged", r.label)
		}
		if r.gpu.Validate() != nil {
			return // no valid run to restore into; the identity check suffices
		}
		if err := restore(r, snapBytes); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: restore: want ErrSnapshotMismatch, got %v", r.label, err)
		}
	}
	mustMatch := func(base, r run, snapBytes []byte) {
		t.Helper()
		if Identity(r.app, r.gpu, r.opts) != Identity(base.app, base.gpu, base.opts) {
			t.Errorf("%s: Identity changed", r.label)
		}
		if err := restore(r, snapBytes); err != nil {
			t.Errorf("%s: restore: %v", r.label, err)
		}
	}

	// A serial Memory checkpoint.
	mem := run{"Memory", app, gpu, Options{Kind: Memory}}
	memSnap := checkpoint(mem)
	mismatches := []run{
		{"L2.HitLatency x3", app, l2x3, Options{Kind: Memory}},
		{"different app", bfs, gpu, Options{Kind: Memory}},
		{"same app name and kernel count, different content", gemm30, gpu, Options{Kind: Memory}},
		{"different GPU", app, other, Options{Kind: Memory}},
		{"different kind", app, gpu, Options{Kind: Basic}},
		{"different hit-rate source", app, gpu, Options{Kind: Memory, HitRates: ReuseDistance}},
		{"different max cycles", app, gpu, Options{Kind: Memory, MaxCycles: 12345}},
		{"different latency scale", app, gpu, Options{Kind: Memory, LatencyScale: 2}},
		{"different kernel overhead", app, gpu, Options{Kind: Memory, ExtraKernelOverhead: 7}},
	}
	for _, m := range gpuLeafMutations(t, gpu) {
		mismatches = append(mismatches, run{"GPU " + m.field, app, m.gpu, Options{Kind: Memory}})
	}
	for _, r := range mismatches {
		mustMismatch(mem, r, memSnap)
	}
	// Memory always runs serially, so neither the thread count nor the
	// epoch length reaches its results.
	for _, r := range []run{
		{"same run", app, gpu, Options{Kind: Memory}},
		{"Memory at EngineThreads 4", app, gpu, Options{Kind: Memory, EngineThreads: 4}},
		{"Memory at EpochCycles 1", app, gpu, Options{Kind: Memory, EpochCycles: 1}},
		{"Memory at epoch 8", app, gpu, Options{Kind: Memory, EngineThreads: 2, EpochCycles: 8}},
	} {
		mustMatch(mem, r, memSnap)
	}

	// A sharded exact-mode checkpoint: the epoch length engages here.
	basic := run{"Basic at EngineThreads 2", app, gpu, Options{Kind: Basic, EngineThreads: 2}}
	basicSnap := checkpoint(basic)
	mustMismatch(basic, run{"Basic at epoch 8", app, gpu, Options{Kind: Basic, EngineThreads: 2, EpochCycles: 8}}, basicSnap)
	mustMatch(basic, run{"Basic at EngineThreads 4, EpochCycles 1", app, gpu, Options{Kind: Basic, EngineThreads: 4, EpochCycles: 1}}, basicSnap)
}
